import math

import numpy as np
from hypothesis import given, settings, strategies as st

from hnoma import Scheme, SystemConfig
from hnoma.channel import sample_gain_matrix
from hnoma.numerics import stream
from hnoma.schemes import DrawKernel, rate_factors

from conftest import SEED
from reference import B_I, B_II2, B_NA, energy_array, kernel_rate_factors


def _cfg_example():
    # beta=1/4, rho_n=40, rho_m=10, R_m=1
    return SystemConfig.make(M=5, m=1, n=2, R_m=1.0, beta=0.25, eta=4.0,
                             rho_n=40.0)


def _kernel(cfg, g_m, g_n, scheme=Scheme.HSIC_PA):
    """A ``DrawKernel`` run on the draws ``g_m``, ``g_n``."""
    g_m, g_n = np.broadcast_arrays(np.asarray(g_m, dtype=float).reshape(-1),
                                   np.asarray(g_n, dtype=float).reshape(-1))
    kernel = DrawKernel(g_m.size)
    kernel.run(cfg, scheme, g_m, g_n, np.ones(g_m.size))
    return kernel


def _tau(cfg, g_m):
    """The kernel's tau at legacy gain(s) ``g_m``, in the shape of ``g_m``."""
    return _kernel(cfg, g_m, 0.0).tau.reshape(np.shape(g_m))


def _lose(cfg, g_m, g_n, scheme):
    """The kernel's loss test of the draws ``g_m``, ``g_n``."""
    return _kernel(cfg, g_m, g_n, scheme).lose


def _one_draw(cfg, g_m, g_n, scheme):
    """``rate_factors``, the kernel's branch and γ, and its loss test of
    one draw, as Python scalars: (NOMA-slot rate, branch code, gamma,
    loses to OMA)."""
    g_n = np.array([g_n])
    factor = rate_factors(cfg, np.array([g_m]), g_n, scheme)
    _, branch, gamma = kernel_rate_factors(cfg, np.array([g_m]), g_n, scheme)
    return (float(np.log2(factor[0])), int(branch[0]), float(gamma[0]),
            bool(_lose(cfg, g_m, g_n, scheme)[0]))


def test_tau_threshold_hand_values():
    cfg = SystemConfig.make(M=5, m=1, n=2, R_m=1.0, beta=0.25, eta=1.0,
                            rho_n=10.0)
    assert math.isclose(float(_tau(cfg, 1.0)), 9.0)
    assert float(_tau(cfg, 0.5 * cfg.alpha_m)) == 0.0
    assert float(_tau(cfg, cfg.alpha_m)) == 0.0


def test_power_adaptive_rate_worked_example():
    cfg = _cfg_example()
    rate, branch, gamma, _ = _one_draw(cfg, 1.0, 2.0, Scheme.HSIC_PA)
    assert math.isclose(float(_tau(cfg, 1.0)), 9.0)
    assert branch == B_II2
    assert math.isclose(rate, math.log2(10.0))
    assert abs(rate - 3.3219) < 1e-4
    assert math.isclose(gamma, 0.45)
    npa_rate, _, npa_gamma, _ = _one_draw(cfg, 1.0, 2.0, Scheme.HSIC_NPA)
    assert math.isclose(npa_rate, math.log2(1.0 + 20.0 / 11.0))
    # log2(31/11) = 1.49476..., i.e. the quoted 4-digit 1.4949 is a hair off
    assert abs(npa_rate - 1.4949) < 2e-4
    assert npa_gamma == 1.0


def test_type_boundary_goes_to_type_i():
    cfg = _cfg_example()
    g_m = 1.0
    tau = float(_tau(cfg, g_m))
    g_n = tau / (cfg.beta * cfg.rho_n)  # received power exactly at the cap
    for scheme in (Scheme.HSIC_PA, Scheme.HSIC_NPA):
        rate, branch, gamma, _ = _one_draw(cfg, g_m, g_n, scheme)
        assert branch == B_I
        assert math.isclose(rate, math.log2(1.0 + tau))
        assert gamma == 1.0


def test_fsic_branch_not_applicable():
    cfg = _cfg_example()
    rate, branch, _, _ = _one_draw(cfg, 1.0, 2.0, Scheme.FSIC)
    assert branch == B_NA
    assert math.isclose(rate, math.log2(1.0 + 20.0 / 11.0))


def test_energy_accounting_hand_values():
    cfg = _cfg_example()
    assert math.isclose(float(energy_array(cfg, Scheme.OMA, 1.0)), 40.0)
    _, _, npa_gamma, _ = _one_draw(cfg, 1.0, 2.0, Scheme.HSIC_NPA)
    assert math.isclose(float(energy_array(cfg, Scheme.HSIC_NPA, npa_gamma)),
                        20.0)
    _, _, pa_gamma, _ = _one_draw(cfg, 1.0, 2.0, Scheme.HSIC_PA)
    assert math.isclose(float(energy_array(cfg, Scheme.HSIC_PA, pa_gamma)), 14.5)


def test_indicator_limits():
    cfg = _cfg_example()
    # ranked gains 1, 1e6, 2e6, 3e6, 4e6: legacy (m=1) 1, opportunistic (n=2) 1e6
    assert _one_draw(cfg, 1.0, 1e6, Scheme.HSIC_PA)[3] is False
    cfg2 = SystemConfig.make(M=2, m=1, n=2, R_m=1.0, beta=0.25, eta=1.0,
                             rho_n=10.0)
    for s in (Scheme.FSIC, Scheme.HSIC_NPA, Scheme.HSIC_PA):
        assert _one_draw(cfg2, 0.0, 0.0, s)[3] is True


# ---------------------------------------------------------------------------
#  bulk properties on random draws
# ---------------------------------------------------------------------------

def _random_cfgs(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        M = int(rng.integers(2, 7))
        m, n = rng.choice(np.arange(1, M + 1), 2, replace=False)
        out.append(SystemConfig.make(
            M=M, m=int(m), n=int(n),
            R_m=float(rng.uniform(0.1, 2.5)),
            beta=float(rng.uniform(0.02, 0.48)),
            eta=float(10.0 ** rng.uniform(-1, 1.5)),
            snr_db=float(rng.uniform(-5, 40))))
    return out


def test_rate_dominance_and_energy_over_bulk_draws():
    total = 0
    for k, cfg in enumerate(_random_cfgs(20, 7)):
        g = sample_gain_matrix(cfg.M, stream(SEED, 10 + k), 50_000)
        g_m, g_n = g[:, cfg.m - 1], g[:, cfg.n - 1]
        f_fsic = rate_factors(cfg, g_m, g_n, Scheme.FSIC)
        f_npa, _, g_npa = kernel_rate_factors(cfg, g_m, g_n, Scheme.HSIC_NPA)
        f_pa, _, g_pa = kernel_rate_factors(cfg, g_m, g_n, Scheme.HSIC_PA)
        assert np.all(f_pa >= f_npa) and np.all(f_npa >= f_fsic)
        e_pa = energy_array(cfg, Scheme.HSIC_PA, g_pa)
        e_npa = energy_array(cfg, Scheme.HSIC_NPA, g_npa)
        assert np.all(e_pa <= e_npa)
        assert np.all(e_npa < cfg.rho_n)
        # loss indicators inherit the rate ordering
        u_pa = _lose(cfg, g_m, g_n, Scheme.HSIC_PA)
        u_npa = _lose(cfg, g_m, g_n, Scheme.HSIC_NPA)
        u_fsic = _lose(cfg, g_m, g_n, Scheme.FSIC)
        assert not np.any(u_pa & ~u_npa)
        assert not np.any(u_npa & ~u_fsic)
        total += g.shape[0]
    assert total == 1_000_000


def test_power_adaptation_factor_identity():
    cfg = _cfg_example()
    g = sample_gain_matrix(cfg.M, stream(SEED, 5), 200_000)
    g_m, g_n = g[:, cfg.m - 1], g[:, cfg.n - 1]
    _, branch, gamma = kernel_rate_factors(cfg, g_m, g_n, Scheme.HSIC_PA)
    case2 = branch == B_II2
    assert np.any(case2)
    tau = _tau(cfg, g_m)
    lhs = gamma[case2] * cfg.beta * cfg.rho_n * g_n[case2]
    assert np.all(gamma > 0.0) and np.all(gamma <= 1.0)
    assert np.allclose(lhs, tau[case2], rtol=1e-12, atol=0.0)


@settings(max_examples=150, deadline=None)
@given(
    beta=st.floats(0.01, 0.49, exclude_max=True),
    R_m=st.floats(0.05, 3.0),
    eta=st.floats(0.05, 50.0),
    rho_n=st.floats(0.1, 1e5),
    g_m=st.floats(0.0, 20.0),
    g_n=st.floats(0.0, 20.0),
)
def test_rate_dominance_property(beta, R_m, eta, rho_n, g_m, g_n):
    cfg = SystemConfig.make(M=4, m=2, n=3, R_m=R_m, beta=beta, eta=eta,
                            rho_n=rho_n)
    gm = np.array([g_m])
    gn = np.array([g_n])
    f_fsic = rate_factors(cfg, gm, gn, Scheme.FSIC)
    f_npa = rate_factors(cfg, gm, gn, Scheme.HSIC_NPA)
    f_pa, _, gamma = kernel_rate_factors(cfg, gm, gn, Scheme.HSIC_PA)
    assert f_pa[0] >= f_npa[0] >= f_fsic[0]
    assert 0.0 < gamma[0] <= 1.0
