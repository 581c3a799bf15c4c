"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Statistical checks use fixed seeds; MC-vs-closed-form comparisons take the
binomial null standard error from the closed-form value, which stays valid
when the empirical count is zero.
"""

import math

import numpy as np

from hnoma import (OrderPairDensity, Scheme, SystemConfig,
                   draw_counts, integrate_event,
                   integrate_underperformance, mc_summary, p_t_asymptotic,
                   p_t_exact, region_contended_loss, regime_label)
from hnoma.channel import sample_gain_matrix
from hnoma.exact import eta_thresholds
from hnoma.numerics import stream
from hnoma.regions import capped_loss, decode_tie
from hnoma.schemes import rate_factors

from conftest import SEED, regime_covering_configs
from reference import (energy_array, estimate_probability, fejer_quadrature,
                       kernel_rate_factors)

TRIALS_BIG = 10_000_000


def _report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _fig_curve_configs(fig: int):
    if fig == 1:
        return [SystemConfig.make(M=5, m=1, n=n, R_m=0.2, beta=0.25, eta=1.0,
                                  snr_db=0.0) for n in (2, 3, 4, 5)]
    return [SystemConfig.make(M=5, m=m, n=1, R_m=0.35, beta=0.25, eta=1.0,
                              snr_db=0.0) for m in (2, 3, 4, 5)]


def _mc_vs_exact(fig: int) -> tuple:
    worst = 0.0
    cells = 0
    for base in _fig_curve_configs(fig):
        other = base.n if fig == 1 else base.m
        for snr in (0.0, 10.0, 20.0, 30.0, 40.0):
            cfg = base.with_snr(snr)
            exact = p_t_exact(cfg).value
            mc = mc_summary([(cfg, Scheme.HSIC_PA)], TRIALS_BIG,
                            SEED + 97 * other + int(snr),
                            want_pt=True)[0]["pt_estimate"]
            sigma = math.sqrt(exact * (1.0 - exact) / TRIALS_BIG)
            if sigma == 0.0:
                ok = mc.value == exact
            else:
                worst = max(worst, abs(mc.value - exact) / sigma)
                ok = abs(mc.value - exact) <= 3.0 * sigma
            cells += 1
            if not ok:
                return False, f"cell m={cfg.m} n={cfg.n} snr={snr} exceeded 3 sigma"
    return True, f"{cells} cells, worst |z| = {worst:.2f} <= 3"


def test_criterion_1_exact_vs_mc_low_legacy_rank():
    ok, detail = _mc_vs_exact(1)
    _report("1 (exact vs MC, legacy rank below)", ok, detail)


def test_criterion_2_exact_vs_mc_high_legacy_rank():
    ok, detail = _mc_vs_exact(2)
    _report("2 (exact vs MC, legacy rank above)", ok, detail)


def test_criterion_3_exact_vs_integration_30_configs():
    configs = regime_covering_configs(30, seed=2025)
    assert len(configs) >= 30
    worst = 0.0
    columns = set()
    for cfg in configs:
        exact = p_t_exact(cfg).value
        pair = OrderPairDensity(cfg.M, cfg.m, cfg.n)
        integ = integrate_event(region_contended_loss(cfg), pair).value
        worst = max(worst, abs(exact - integ))
        columns.add(regime_label(cfg))
        if abs(exact - integ) > 1e-5:
            _report("3 (exact vs integration)", False,
                    f"{cfg} diff {abs(exact - integ):.2e}")
    t1_lt = {c.split(':')[1] for c in columns if c.startswith('m<n')}
    t2_lt = {c.split(':')[2] for c in columns if c.startswith('m<n')}
    t1_gt = {c.split(':')[1] for c in columns if c.startswith('m>n')}
    t2_gt = {c.split(':')[2] for c in columns if c.startswith('m>n')}
    covered = (len(t1_lt) == 4 and len(t2_lt) == 3
               and len(t1_gt) == 3 and len(t2_gt) == 3)
    _report("3 (exact vs integration)", worst <= 1e-5 and covered,
            f"{len(configs)} configs, worst |diff| = {worst:.2e} <= 1e-5, "
            f"all branch columns covered = {covered}")


def test_criterion_4_asymptotic_convergence():
    worst45 = 0.0
    monotone = True
    for fig in (1, 2):
        for base in _fig_curve_configs(fig):
            gaps = []
            for snr in (30.0, 45.0):
                cfg = base.with_snr(snr)
                ex = p_t_exact(cfg).value
                asym = p_t_asymptotic(cfg).value
                gaps.append(abs(asym / ex - 1.0))
            worst45 = max(worst45, gaps[-1])
            monotone &= gaps[-1] <= gaps[0]
    _report("4 (asymptotic convergence)",
            worst45 < 0.05 and monotone,
            f"worst |ratio-1| at 45 dB = {worst45:.4f} < 0.05, "
            f"improves 30->45 dB = {monotone}")


def test_criterion_5_decay_slope():
    worst = 0.0
    for fig in (1, 2):
        for base in _fig_curve_configs(fig):
            target = -base.n if base.m < base.n else -base.m
            xs, ys = [], []
            for snr in (35.0, 40.0, 45.0):
                cfg = base.with_snr(snr)
                xs.append(math.log10(cfg.rho_n))
                ys.append(math.log10(p_t_exact(cfg).value))
            slope = float(np.polyfit(xs, ys, 1)[0])
            worst = max(worst, abs(slope - target))
    _report("5 (decay slope of the contended loss)", worst <= 0.3,
            f"worst |slope - target| = {worst:.3f} <= 0.3")


def test_criterion_6_floor_separation():
    # eta = 4 <= (1-beta)/beta^2 = 12; the no-adaptation scheme floors
    # while the adaptive one keeps decaying.  Plain MC cannot resolve the
    # adaptive probability (~1e-15 at 45 dB), so its ratio uses the
    # deterministic region integration the harness also uses.
    cfg45 = SystemConfig.make(M=5, m=2, n=5, R_m=1.0, beta=0.25, eta=4.0,
                              snr_db=45.0)
    cfg50 = cfg45.with_snr(50.0)
    assert cfg45.eps_m > cfg45.beta / (1.0 - cfg45.beta)
    npa = [estimate_probability(c, Scheme.HSIC_NPA, TRIALS_BIG, SEED + k)
           for k, c in ((0, cfg45), (1, cfg50))]
    pa = [integrate_underperformance(c, Scheme.HSIC_PA) for c in (cfg45, cfg50)]
    npa_ratio = npa[1].value / npa[0].value
    pa_ratio = pa[1].value / pa[0].value
    mc_zero45 = estimate_probability(cfg45, Scheme.HSIC_PA, 1_000_000, SEED)
    _report("6 (floor separation)",
            npa_ratio > 0.5 and pa_ratio < 0.2,
            f"no-adaptation ratio {npa_ratio:.3f} > 0.5 (floor ~{npa[0].value:.3g}); "
            f"adaptive ratio {pa_ratio:.2e} < 0.2 "
            f"(MC at 45 dB sees {mc_zero45.value:g} of ~{pa[0].value:.1e})")


_CRIT7_CONFIGS = (
    dict(M=5, m=1, n=2, R_m=0.2, beta=0.25, eta=1.0, snr_db=20.0),
    dict(M=5, m=2, n=5, R_m=1.0, beta=0.25, eta=4.0, snr_db=15.0),
    dict(M=5, m=3, n=1, R_m=0.5, beta=0.25, eta=8.0, snr_db=18.0),
    dict(M=6, m=2, n=4, R_m=1.0, beta=0.3, eta=9.0, snr_db=12.0),
    dict(M=4, m=3, n=2, R_m=1.5, beta=1.0 / 3.0, eta=2.0, snr_db=25.0),
)


def test_criterion_7_dominance_and_partition():
    violations = 0
    for k, params in enumerate(_CRIT7_CONFIGS):
        cfg = SystemConfig.make(**params)
        g = sample_gain_matrix(cfg.M, stream(SEED, 100 + k), 1_000_000)
        g_m, g_n = g[:, cfg.m - 1], g[:, cfg.n - 1]
        f_fsic = rate_factors(cfg, g_m, g_n, Scheme.FSIC)
        f_npa = rate_factors(cfg, g_m, g_n, Scheme.HSIC_NPA)
        f_pa = rate_factors(cfg, g_m, g_n, Scheme.HSIC_PA)
        violations += int(np.count_nonzero(f_pa < f_npa))
        violations += int(np.count_nonzero(f_npa < f_fsic))
        counts = draw_counts(cfg, 1_000_000, SEED + 100 + k)
        buckets = sum(counts["split"].values())
        total = counts["losses"][Scheme.HSIC_PA]
        if buckets != total:
            _report("7 (dominance and partition)", False,
                    f"bucket sum {buckets} != total {total}")
    _report("7 (dominance and partition)", violations == 0,
            f"0 rate-ordering violations over 5e6 coupled draws; "
            f"bucket counts sum exactly to the loss count at all 5 configs")


def test_criterion_8_energy_accounting():
    worst_gamma = 0.0
    for k, params in enumerate(_CRIT7_CONFIGS):
        cfg = SystemConfig.make(**params)
        g = sample_gain_matrix(cfg.M, stream(SEED, 100 + k), 1_000_000)
        g_m, g_n = g[:, cfg.m - 1], g[:, cfg.n - 1]
        _, _, gamma = kernel_rate_factors(cfg, g_m, g_n, Scheme.HSIC_PA)
        e_pa = energy_array(cfg, Scheme.HSIC_PA, gamma)
        cap = 2.0 * cfg.beta * cfg.rho_n
        if not (np.all(e_pa <= cap + 1e-12) and cap < cfg.rho_n):
            _report("8 (energy accounting)", False, f"energy cap violated at {cfg}")
        gm = float(gamma.mean())
        worst_gamma = gm
        if not (0.0 < gm <= 1.0 and np.all(gamma > 0.0) and np.all(gamma <= 1.0)):
            _report("8 (energy accounting)", False, f"gamma outside (0,1] at {cfg}")
    _report("8 (energy accounting)", True,
            f"energy <= 2 beta rho_n < rho_n everywhere; "
            f"mean power-adaptation factor in (0,1] (last = {worst_gamma:.4f})")


def test_criterion_9_numerics():
    # (a) node-doubling stability of the transcendental kernels
    worst_double = 0.0
    for params in (dict(M=5, m=1, n=2, R_m=0.2, beta=0.25, eta=1.0, snr_db=10.0),
                   dict(M=5, m=1, n=2, R_m=0.2, beta=0.25, eta=1.0, snr_db=30.0),
                   dict(M=5, m=3, n=1, R_m=0.5, beta=0.25, eta=8.0, snr_db=15.0)):
        cfg = SystemConfig.make(**params)
        from hnoma.exact import compute_constants
        from hnoma.channel import (mass_lower_interval, mass_upper_interval)
        k = compute_constants(cfg)
        pair = OrderPairDensity(cfg.M, cfg.m, cfg.n)
        mass = mass_upper_interval if cfg.m < cfg.n else mass_lower_interval
        kern = lambda x: mass(pair, x, capped_loss(cfg, x), decode_tie(cfg, x))
        lo = k.omega_2 if cfg.m < cfg.n else k.omega_2
        hi = min(k.z_1, k.z_2)
        if hi > lo:
            d = abs(fejer_quadrature(kern, lo, hi, 256)
                    - fejer_quadrature(kern, lo, hi, 512))
            worst_double = max(worst_double, d)
        v1 = p_t_exact(cfg, n_c=256).value
        v2 = p_t_exact(cfg, n_c=512).value
        worst_double = max(worst_double,
                           abs(v1 - v2) / max(v1, 1e-30))
    ok_a = worst_double < 1e-8

    # (b) erf accuracy against a 40-digit reference
    import mpmath
    mpmath.mp.dps = 40
    worst_erf = 0.0
    for x in np.concatenate([np.geomspace(1e-6, 5.0, 120),
                             -np.geomspace(1e-6, 5.0, 120)]):
        ref = float(mpmath.erf(mpmath.mpf(float(x))))
        worst_erf = max(worst_erf, abs(math.erf(float(x)) - ref) / abs(ref))
    ok_b = worst_erf <= 1e-15

    # (c) continuity of the closed forms across every branch threshold
    worst_seam = 0.0
    for m, n, R_m, beta in [(1, 2, 0.2, 0.25), (2, 4, 1.0, 0.3),
                            (3, 1, 0.5, 0.25)]:
        th = eta_thresholds(beta, 2.0 ** R_m - 1.0)
        keys = (("k_1", "cap_mid", "cap_hi", "first_lo", "k_2") if m < n
                else ("k_1", "k_3", "first_lo", "k_2"))
        for key in keys:
            vals = [p_t_exact(SystemConfig(M=5, m=m, n=n, R_m=R_m, beta=beta,
                                           eta=th[key] + s,
                                           rho_n=(th[key] + s) * 100.0)).value
                    for s in (-1e-6, 1e-6)]
            worst_seam = max(worst_seam, abs(vals[0] - vals[1]))
    ok_c = worst_seam < 1e-6

    _report("9 (numerics)", ok_a and ok_b and ok_c,
            f"kernel/probability doubling {worst_double:.2e} < 1e-8; "
            f"erf rel err {worst_erf:.2e} <= 1e-15; "
            f"seam jump {worst_seam:.2e} < 1e-6")
