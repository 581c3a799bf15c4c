import math
from dataclasses import replace

import numpy as np
from scipy import integrate

from hnoma import (OrderPairDensity, SystemConfig, asymptotic_pt_terms,
                   p_t_asymptotic, p_t_exact)
from hnoma.exact import (compute_constants, contended_terms, eta_thresholds,
                         exact_pt_terms_batch)

from conftest import make_cfg, regime_covering_configs
from reference import cell_leading_terms, joint_pdf_near_zero


def _unit(cfg):
    return replace(cfg, rho_n=cfg.eta)


def test_limit_constants_satisfy_their_quadratics():
    for cfg in regime_covering_configs(10, seed=21):
        k = compute_constants(_unit(cfg))
        eps, beta, eta = cfg.eps_m, cfg.beta, cfg.eta
        for u, s, q in (
            (k.z_1, eps / beta - 1.0, (1.0 - beta) * eps / beta),
            (k.z_2, eps / beta - 1.0 / (beta * eta), eps / (beta * eta)),
            (k.z_3, beta * eta * eps + eps - 1.0, eps),
        ):
            assert abs(u * u - s * u - q) <= 1e-10 * max(u * u, 1.0)
        assert math.isclose(k.omega_2, (1.0 - beta) * eps / beta)
        # the unit-SNR constants are the rescaled finite ones at any SNR
        hi = cfg.with_snr(90.0)
        kk = compute_constants(hi)
        assert math.isclose(kk.z_1 * hi.rho_m, k.z_1, rel_tol=1e-12)
        assert math.isclose(kk.z_3 * hi.rho_m, k.z_3, rel_tol=1e-12)
        assert math.isclose(kk.omega_2 * hi.rho_m, k.omega_2, rel_tol=1e-12)


def _quad_leading_mass(unit, cell):
    # nested adaptive quadrature of the leading-order pair density over a
    # cell; the density vanishes off the ordered wedge, which does the
    # clipping
    if cell is None or None in cell or not cell[3] > cell[2]:
        return 0.0
    lower, upper, a, b = cell
    pair = OrderPairDensity(unit.M, unit.m, unit.n)

    def inner(u):
        lo = float(lower(unit, u))
        hi = float(upper(unit, u))
        if unit.m < unit.n:
            lo, hi = max(lo, u), hi
            f = lambda v: joint_pdf_near_zero(pair, u, v)
        else:
            lo, hi = max(lo, 0.0), min(hi, u)
            f = lambda v: joint_pdf_near_zero(pair, v, u)
        return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-9)[0] if hi > lo else 0.0

    return integrate.quad(inner, a, b, epsabs=0.0, epsrel=1e-9, limit=200)[0]


def test_leading_mass_vs_quadrature_both_rank_orders():
    configs = regime_covering_configs(14, seed=5)
    assert {cfg.m < cfg.n for cfg in configs} == {True, False}
    for cfg in configs:
        unit = _unit(cfg)
        ref = {name: _quad_leading_mass(unit, cell)
               for name, cell in contended_terms(unit).items()}
        got = asymptotic_pt_terms(cfg)
        assert got.keys() == ref.keys()
        for name, v in got.items():
            assert math.isclose(v, ref[name], rel_tol=1e-8, abs_tol=1e-300), \
                (cfg, name, v, ref[name])


def test_terms_are_the_per_cell_terms_bit_for_bit():
    configs = regime_covering_configs(60, seed=9)
    assert {cfg.m < cfg.n for cfg in configs} == {True, False}
    for cfg in configs:
        assert asymptotic_pt_terms(cfg) == cell_leading_terms(cfg), cfg


def test_terms_match_exact_at_110_db():
    # the leading coefficient is the rho_m -> inf limit of exact * rho_m^k
    for cfg in regime_covering_configs(60, seed=41):
        hi = cfg.with_snr(110.0)
        scale = hi.rho_m ** max(cfg.m, cfg.n)
        exact = exact_pt_terms_batch([hi])[0]
        for name, v in asymptotic_pt_terms(cfg).items():
            assert math.isclose(v, exact[name] * scale, rel_tol=1e-7,
                                abs_tol=1e-300), (cfg, name)


def test_finite_where_the_loss_series_diverged():
    # eps_m/beta^2 ~ 2.4e3: the capped-loss power series used to need more
    # terms than it was allowed, so every SNR failed
    cfg = SystemConfig.make(M=4, m=2, n=4, R_m=6.34, beta=0.185, eta=2.686,
                            snr_db=0.0)
    for snr in np.arange(0.0, 61.0, 5.0):
        value = p_t_asymptotic(cfg.with_snr(snr)).value
        assert math.isfinite(value) and 0.0 < value <= 1.0, snr
    hi = cfg.with_snr(60.0)
    assert math.isclose(p_t_asymptotic(hi).value, p_t_exact(hi).value,
                        rel_tol=0.05)


# ---------------------------------------------------------------------------
#  convergence to the exact values
# ---------------------------------------------------------------------------

def test_ratio_approaches_one_and_improves():
    for cfg in (make_cfg(), make_cfg(n=4), make_cfg(m=2, n=1, R_m=0.35),
                make_cfg(m=4, n=1, R_m=0.35), make_cfg(m=2, n=5, R_m=1.0, eta=4.0)):
        gaps = []
        for snr in (30.0, 35.0, 40.0, 45.0):
            c = cfg.with_snr(snr)
            ex = p_t_exact(c).value
            asym = p_t_asymptotic(c).value
            assert ex > 0.0
            gaps.append(abs(asym / ex - 1.0))
        assert gaps[-1] < 0.05
        assert gaps[-1] <= gaps[0]


def test_ratio_within_five_percent_across_regimes():
    for cfg in regime_covering_configs(20, seed=41):
        hi = cfg.with_snr(45.0)
        ex = p_t_exact(hi).value
        asym = p_t_asymptotic(hi).value
        if ex == 0.0:
            assert asym == 0.0
        else:
            assert abs(asym / ex - 1.0) < 0.05, (cfg, asym / ex)


def test_decay_exponent_by_construction():
    # the approximation is coefficient / rho_m^n (or ^m): doubling rho_m
    # divides it by exactly 2^n (2^m)
    for cfg in (make_cfg(n=3), make_cfg(m=3, n=1, R_m=0.35)):
        a1, a2 = (p_t_asymptotic(replace(cfg, rho_n=cfg.eta * rho)).value
                  for rho in (1e4, 2e4))
        k = cfg.n if cfg.m < cfg.n else cfg.m
        assert math.isclose(a1 / a2, 2.0 ** k, rel_tol=1e-9)


def test_coefficients_finite_and_nonnegative_in_every_column():
    # high-SNR limit exists (no floor) in all branch columns
    for cfg in regime_covering_configs(21, seed=33):
        terms = asymptotic_pt_terms(cfg)
        for name, v in terms.items():
            assert math.isfinite(v), (cfg, name)
            assert v >= -1e-12, (cfg, name)
        assert p_t_asymptotic(cfg.with_snr(60.0)).value >= 0.0


def test_asymptotic_dispatch_tracks_eta_columns():
    # crossing a threshold changes the term assembly continuously
    beta, R_m = 0.25, 1.0
    eps = 2.0 ** R_m - 1.0
    th = eta_thresholds(beta, eps)
    for key in ("k_1", "first_lo", "k_2"):
        eta0 = th[key]
        vals = []
        for eta in (eta0 * (1 - 1e-9), eta0 * (1 + 1e-9)):
            cfg = SystemConfig.make(M=5, m=2, n=4, R_m=R_m, beta=beta,
                                    eta=eta, snr_db=40.0)
            vals.append(p_t_asymptotic(cfg).value)
        assert abs(vals[0] - vals[1]) <= 1e-6 * max(vals[0], 1e-30), key
