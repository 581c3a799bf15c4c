import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from hnoma import (InvalidConfigError, OrderPairDensity, SystemConfig,
                   compute_constants, draw_counts, integrate_event,
                   p_t_exact, regime_label)
from hnoma.exact import contended_terms, eta_thresholds, exact_pt_terms_batch
from hnoma.regions import (_cap_floor_const, capped_loss, decode_tie, first_loss,
                           power_cap)

from conftest import SEED, make_cfg, regime_covering_configs
from reference import (config_pt_terms, expansion_pt_terms, gamma1,
                       region_contended_bucket)


# ---------------------------------------------------------------------------
#  constants
# ---------------------------------------------------------------------------

def test_threshold_hand_values():
    th = eta_thresholds(beta=0.25, eps_m=1.0)
    assert math.isclose(th["k_1"], 8.0 / 3.0)
    cfg = SystemConfig(M=5, m=1, n=2, R_m=1.0, beta=0.25, eta=1.0, rho_n=16.0)
    assert math.isclose(_cap_floor_const(cfg), 0.5)


def test_threshold_ordering():
    for beta in (0.1, 0.25, 0.4, 0.49):
        for eps in (0.1, 0.5, 1.0, 2.0):
            th = eta_thresholds(beta, eps)
            assert th["k_1"] < th["cap_mid"] < th["cap_hi"]
            assert th["first_lo"] < th["k_2"]
            assert th["k_1"] < th["k_3"]


def test_constants_defining_equations():
    for cfg in regime_covering_configs(12, seed=11):
        k = compute_constants(cfg)
        assert k.z_1 > cfg.alpha_m > 0.0
        assert k.z_2 > cfg.alpha_m
        assert k.z_3 > cfg.alpha_m
        # crossing-point identities (relative 1e-10 documented contract)
        assert math.isclose(decode_tie(cfg, k.z_1), first_loss(cfg, k.z_1),
                            rel_tol=1e-10)
        assert math.isclose(decode_tie(cfg, k.z_1), capped_loss(cfg, k.z_1),
                            rel_tol=1e-10)
        assert math.isclose(float(capped_loss(cfg, k.z_2)), k.z_2, rel_tol=1e-10)
        assert math.isclose(float(decode_tie(cfg, k.z_3)), k.z_3, rel_tol=1e-10)
        assert math.isclose(float(power_cap(cfg, k.omega_2)),
                            float(capped_loss(cfg, k.omega_2)), rel_tol=1e-10)
        if k.omega_1 is not None:
            assert math.isclose(float(power_cap(cfg, k.omega_1)), k.omega_1,
                                rel_tol=1e-10)
        if k.omega_4 is not None:
            assert math.isclose(float(first_loss(cfg, k.omega_4)), k.omega_4,
                                rel_tol=1e-10)
        else:
            assert cfg.beta ** 2 * cfg.rho_n <= (1.0 - cfg.beta) * cfg.rho_m


def test_omega_4_absent_marker():
    cfg = make_cfg(eta=1.0)  # beta^2 rho_n < (1-beta) rho_m
    assert compute_constants(cfg).omega_4 is None
    cfg2 = make_cfg(eta=40.0)
    assert compute_constants(cfg2).omega_4 is not None


# ---------------------------------------------------------------------------
#  gamma1 (Gaussian segment integral)
# ---------------------------------------------------------------------------

def test_gamma1_half_gaussian():
    # erf(inf) identity: integral of e^{-x^2} over [0, inf) = sqrt(pi)/2
    assert math.isclose(gamma1(0.0, 40.0, 1.0, 0.0), math.sqrt(math.pi) / 2.0,
                        rel_tol=1e-14)
    assert abs(gamma1(0.0, 40.0, 1.0, 0.0) - 0.886227) < 1e-6


def test_gamma1_empty_interval():
    assert gamma1(1.3, 1.3, 2.0, 0.5) == 0.0


def test_gamma1_erf_product():
    assert math.isclose(gamma1(0.0, 1.0, 1.0, 0.0),
                        math.sqrt(math.pi) / 2.0 * math.erf(1.0), rel_tol=1e-14)
    assert abs(gamma1(0.0, 1.0, 1.0, 0.0) - 0.746824) < 1e-6


def test_gamma1_requires_positive_quadratic():
    with pytest.raises(ValueError):
        gamma1(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gamma1(0.0, 1.0, -2.0, 1.0)


def test_gamma1_vs_quadrature_including_extremes():
    # reference: shift the lower endpoint out as a prefactor so the
    # remaining integrand is <= 1 and positive, then tanh-sinh quadrature
    # with split points at the decay scale; robust for boundary layers
    import mpmath
    mpmath.mp.dps = 50

    def ref(a, b, c, d):
        x0 = -d / (2.0 * c)
        if a < x0 < b:
            return ref(a, x0, c, d) + ref(x0, b, c, d)
        if b <= x0:  # mirror onto the decaying side
            return ref(-b, -a, c, -d)
        w = mpmath.mpf(b) - mpmath.mpf(a)
        s = 2.0 * c * a + d
        g = lambda u: mpmath.exp(-c * u * u - s * u)
        scale = 1.0 / (abs(s) + math.sqrt(c))
        pts = sorted({0.0, min(float(w), scale), min(float(w), 20 * scale),
                      float(w)})
        quad = mpmath.quad(g, pts)
        return float(mpmath.exp(-(mpmath.mpf(c) * a + d) * a) * quad)

    rng = np.random.default_rng(3)
    for _ in range(40):
        c = 10.0 ** rng.uniform(-2, 3)
        d = rng.uniform(-40.0, 40.0)
        a = rng.uniform(-2.0, 2.0)
        b = a + rng.uniform(0.0, 3.0)
        assert math.isclose(gamma1(a, b, c, d), ref(a, b, c, d),
                            rel_tol=1e-11, abs_tol=1e-280), (a, b, c, d)
    # overflow-prone regime: d^2/(4c) >> 700
    assert math.isclose(gamma1(900.0, 901.0, 1e-4, 0.5),
                        ref(900.0, 901.0, 1e-4, 0.5), rel_tol=1e-11)
    benign = integrate.quad(lambda x: math.exp(-x * x - 0.3 * x), 0.2, 1.1)[0]
    assert math.isclose(gamma1(0.2, 1.1, 1.0, 0.3), benign, rel_tol=1e-10)


# ---------------------------------------------------------------------------
#  contended-loss closed forms
# ---------------------------------------------------------------------------

def test_nc_minimum_enforced():
    with pytest.raises(InvalidConfigError):
        exact_pt_terms_batch([make_cfg()], n_c=8)


def test_batched_terms_are_the_per_config_terms_bit_for_bit():
    configs = regime_covering_configs(30)
    assert {cfg.m < cfg.n for cfg in configs} == {True, False}
    for cfg in configs:
        sweep = [cfg.with_snr(snr) for snr in range(0, 65, 5)]
        for one, terms in zip(sweep, exact_pt_terms_batch(sweep)):
            assert terms == config_pt_terms(one), one


def test_cells_do_not_depend_on_snr():
    # the SNR-batched exact engine reads one config's curves for every SNR
    # of a sweep, and the asymptotic one integrates the unit-SNR cells:
    # every SNR has the unit-SNR table's curves and None marks, and each
    # limit is the unit-SNR one over rho_m
    configs = regime_covering_configs(60)
    assert {cfg.m < cfg.n for cfg in configs} == {True, False}
    checked = 0
    for cfg in configs:
        unit = contended_terms(replace(cfg, rho_n=cfg.eta))
        for snr in range(0, 61, 5):
            at = cfg.with_snr(snr)
            table = contended_terms(at)
            assert table.keys() == unit.keys()
            for name, cell in table.items():
                ref = unit[name]
                assert (cell is None) == (ref is None), (at, name)
                if cell is None:
                    continue
                assert cell[:2] == ref[:2], (at, name)
                for x, r in zip(cell[2:], ref[2:]):
                    assert (x is None) == (r is None), (at, name)
                    if x is not None:
                        assert math.isclose(x * at.rho_m, r, rel_tol=1e-12), (at, name)
                        checked += 1
    assert checked > 6000


def _ulps_from(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, math.copysign(math.inf, steps)))
    return x


@pytest.mark.parametrize("m, n", [(1, 2), (3, 1)])
def test_cells_at_column_seams_do_not_depend_on_snr(m, n):
    # one and two ulps either side of every column threshold: the None
    # marks, and so every cell's curves, come from the power ratio alone,
    # so no SNR of a sweep fails and each still agrees with the integration
    from hnoma.mc import integrate_events
    from hnoma.regions import region_contended_loss

    names = (("k_1", "cap_mid", "cap_hi") if m < n else ("k_1", "k_3")) + ("first_lo", "k_2")
    checked = 0
    for beta, R_m in ((0.25, 0.2), (0.35, 1.0)):
        th = eta_thresholds(beta, 2.0 ** R_m - 1.0)
        configs, exacts = [], []
        for name in names:
            for steps in (-2, -1, 1, 2):
                eta = _ulps_from(th[name], steps)
                base = SystemConfig(M=5, m=m, n=n, R_m=R_m, beta=beta, eta=eta, rho_n=eta)
                unit = contended_terms(base)
                sweep = [base.with_snr(snr) for snr in range(0, 61, 5)]
                for at in sweep:
                    table = contended_terms(at)
                    assert {k for k, c in table.items() if c is None} == \
                        {k for k, c in unit.items() if c is None}, (at, name, steps)
                    assert not any(None in c for c in table.values() if c), (at, name)
                terms = exact_pt_terms_batch(sweep)
                assert not any(isinstance(t, Exception) for t in terms), (name, steps)
                configs += sweep
                exacts += [math.fsum(t.values()) for t in terms]
        pair = OrderPairDensity(5, m, n)
        integrals = integrate_events([region_contended_loss(c) for c in configs], pair)
        for cfg, exact, integral in zip(configs, exacts, integrals):
            assert abs(exact - integral.value) <= 1e-8, cfg
            checked += 1
    assert checked == 2 * len(names) * 4 * 13


def test_batch_rejects_configs_that_differ_in_more_than_snr():
    with pytest.raises(InvalidConfigError):
        exact_pt_terms_batch([make_cfg(), make_cfg(eta=2.0)])
    assert exact_pt_terms_batch([]) == []


def _batch_rows_are_the_config_terms(sweep, terms):
    for one, t in zip(sweep, terms):
        if isinstance(t, dict):
            assert t == config_pt_terms(one), one
        else:
            with pytest.raises(InvalidConfigError, match=str(t)):
                compute_constants(one)


def test_a_mixed_batch_fails_only_the_rows_whose_constants_fail():
    # one constants pass covers the sweep: each row whose checks fail holds
    # its own error, and the rows that pass keep their one-config bits
    base = SystemConfig.make(M=2, m=2, n=1, R_m=0.015, beta=0.372, eta=0.0503,
                             snr_db=0.0)
    snrs = range(-20, 61, 5)
    sweep = [base.with_snr(snr) for snr in snrs]
    terms = exact_pt_terms_batch(sweep)
    failed = [snr for snr, t in zip(snrs, terms) if isinstance(t, InvalidConfigError)]
    assert failed == [snr for snr in snrs if snr not in (0, 35)]
    assert len({id(t) for t in terms}) == len(terms)  # each error in its own slot
    _batch_rows_are_the_config_terms(sweep, terms)


@pytest.mark.parametrize("m, n", [(1, 2), (3, 1)])
def test_a_batch_over_the_first_lo_seam_keeps_each_rows_bits(m, n):
    # one ulp above first_lo = 12 the first-stage-loss line meets the
    # diagonal at some SNRs only: omega_4 is NaN in those rows of the arrays
    base = SystemConfig.make(M=5, m=m, n=n, R_m=0.2, beta=0.25,
                             eta=12.000000000000002, snr_db=0.0)
    sweep = [base.with_snr(snr) for snr in range(-20, 61, 5)]
    assert {compute_constants(cfg).omega_4 is None for cfg in sweep} == {True, False}
    terms = exact_pt_terms_batch(sweep)
    assert all(isinstance(t, dict) for t in terms)
    _batch_rows_are_the_config_terms(sweep, terms)


def test_a_batch_row_whose_checks_see_inf_fails_without_a_warning():
    # at -3000 dB the crossing points overflow to inf; the array code must
    # fail that row quietly, with no RuntimeWarning (an error under pytest)
    import warnings
    base = SystemConfig.make(M=2, m=2, n=1, R_m=0.015, beta=0.372, eta=0.0503,
                             snr_db=0.0)
    sweep = [base.with_snr(snr) for snr in (0, -3000, 35)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        terms = exact_pt_terms_batch(sweep)
        with pytest.raises(InvalidConfigError):
            compute_constants(sweep[1])
    assert [isinstance(t, dict) for t in terms] == [True, False, True]
    _batch_rows_are_the_config_terms(sweep, terms)


def test_terms_match_region_integration_everywhere():
    for cfg in regime_covering_configs(14, seed=5):
        terms = exact_pt_terms_batch([cfg])[0]
        pair = OrderPairDensity(cfg.M, cfg.m, cfg.n)
        for name in terms:
            ref = integrate_event(region_contended_bucket(cfg, name), pair,
                                  abs_tol=1e-10).value
            assert abs(terms[name] - ref) <= 1e-8 + 1e-6 * ref, (cfg, name)


def test_decomposition_buckets_match_terms():
    # each sampled sub-event against its own closed form, not just the sum;
    # the first 13 regime-covering configs are one per branch column
    trials = 1_000_000
    for cfg in regime_covering_configs(13, seed=5):
        split = draw_counts(cfg, trials, SEED)["split"]
        for name, p in exact_pt_terms_batch([cfg])[0].items():
            sigma = math.sqrt(p * (1.0 - p) / trials)
            assert abs(split[name] / trials - p) <= 4.0 * sigma, (cfg, name)


def test_expansion_engine_agrees_at_moderate_snr():
    # validates the erf/exponential antiderivative algebra of each term
    for cfg in regime_covering_configs(10, seed=9):
        cfg = cfg.with_snr(min(cfg.snr_db, 18.0))
        t_prod = exact_pt_terms_batch([cfg], n_c=512)[0]
        t_exp = expansion_pt_terms(cfg, n_c=512)
        for name, v in t_prod.items():
            assert abs(v - t_exp[name]) <= 1e-9 + 1e-7 * abs(v), (cfg, name)


def test_exact_vs_mc_sampled_regimes():
    from conftest import SEED
    from reference import estimate_pt
    for k, cfg in enumerate(regime_covering_configs(10, seed=17)):
        exact = p_t_exact(cfg).value
        mc = estimate_pt(cfg, 2_000_000, SEED + k)
        sigma = math.sqrt(exact * (1.0 - exact) / 2e6)
        assert abs(mc.value - exact) <= 4.0 * sigma + 1e-12, cfg


def test_probability_bounds_and_method():
    for cfg in regime_covering_configs(8, seed=13):
        est = p_t_exact(cfg)
        assert 0.0 <= est.value <= 1.0
        assert est.method == "exact"


def test_quadrature_doubling_stability():
    for cfg in (make_cfg(snr_db=10.0), make_cfg(m=3, n=1, R_m=0.5, eta=5.0),
                make_cfg(m=2, n=5, R_m=1.0, eta=4.0, snr_db=25.0)):
        v1 = p_t_exact(cfg, n_c=256).value
        v2 = p_t_exact(cfg, n_c=512).value
        assert abs(v1 - v2) <= 1e-8 * max(v1, 1e-30)


def test_regime_seam_continuity():
    # the piecewise forms agree across every branch threshold
    for m, n, R_m, beta in [(1, 2, 0.2, 0.25), (2, 4, 1.0, 0.3),
                            (3, 1, 0.5, 0.25), (4, 1, 1.2, 0.35)]:
        eps = 2.0 ** R_m - 1.0
        th = eta_thresholds(beta, eps)
        keys = (("k_1", "cap_mid", "cap_hi", "first_lo", "k_2") if m < n
                else ("k_1", "k_3", "first_lo", "k_2"))
        rho_m = 100.0
        for key in keys:
            eta0 = th[key]
            vals = []
            for eta in (eta0 - 1e-6, eta0 + 1e-6):
                cfg = SystemConfig(M=5, m=m, n=n, R_m=R_m, beta=beta, eta=eta,
                                   rho_n=eta * rho_m)
                vals.append(p_t_exact(cfg).value)
            assert abs(vals[0] - vals[1]) < 1e-6, (m, n, key)


def test_regime_label_strings():
    assert regime_label(make_cfg()) == "m<n:T1c1:T2c1"
    assert regime_label(make_cfg(m=3, n=1, R_m=0.5, eta=40.0,
                                 snr_db=20.0)).startswith("m>n:")
