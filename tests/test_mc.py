import math

import numpy as np
import pytest

from hnoma import (OrderPairDensity, ProbEstimate, Scheme,
                   draw_counts, integrate_event,
                   integrate_underperformance, p_t_exact,
                   region_contended_loss, region_underperformance)
from hnoma.channel import sample_gain_matrix
from hnoma.numerics import stream
from hnoma.schemes import HNOMA_SCHEMES, DrawKernel

from conftest import SEED, make_cfg
from reference import (clause_bounds, estimate_coupled, estimate_probability,
                       estimate_pt, ref_mc_summary, region_contains, region_everything,
                       region_legacy_below)


def test_prob_estimate_invariants():
    est = ProbEstimate.from_counts(250, 1000)
    assert est.value == 0.25
    assert math.isclose(est.std_err, math.sqrt(0.25 * 0.75 / 1000))
    zero = ProbEstimate.from_counts(0, 1000)
    assert zero.value == 0.0 and "one-sided" in zero.note
    with pytest.raises(ValueError):
        ProbEstimate(1.5, 0, 0.0, "mc")
    with pytest.raises(ValueError):
        ProbEstimate(0.5, 0, 0.0, "magic")


def test_estimator_determinism():
    cfg = make_cfg()
    a = estimate_probability(cfg, Scheme.HSIC_PA, 50_000, SEED)
    b = estimate_probability(cfg, Scheme.HSIC_PA, 50_000, SEED)
    assert a == b


def test_trials_validation():
    cfg = make_cfg()
    with pytest.raises(ValueError):
        estimate_probability(cfg, Scheme.HSIC_PA, 0, SEED)


def test_mc_summary_over_mixed_ranks_matches_one_call_per_pair(monkeypatch):
    # cells of several (m, n) and one M share each block's draw, yet each
    # gets what a call on its own (m, n) cells gives; the first two pairs
    # share (beta, R_m, eta), so only their ranks keep their curves apart
    import hnoma.mc
    from hnoma import InvalidConfigError, mc_summary
    from hnoma.channel import CHUNK_ROWS

    monkeypatch.setattr(hnoma.mc, "BLOCK_TRIALS", CHUNK_ROWS + 1_000)
    trials = 2 * (CHUNK_ROWS + 1_000) - 777   # two blocks, the second partial
    bases = (make_cfg(), make_cfg(m=4, n=2), make_cfg(m=3, n=1, R_m=0.5, eta=5.0),
             make_cfg(m=2, n=5, beta=0.4, eta=0.3))
    cells = [(base.with_snr(snr), scheme) for base in bases for snr in (0.0, 12.0, 25.0)
             for scheme in HNOMA_SCHEMES]
    cells = [cells[k] for k in np.random.default_rng(SEED).permutation(len(cells))]
    for want_pt in (False, True):
        got = mc_summary(cells, trials, SEED, want_pt=want_pt)
        for base in bases:
            own = [k for k, (cfg, _) in enumerate(cells) if (cfg.m, cfg.n) == (base.m, base.n)]
            want = mc_summary([cells[k] for k in own], trials, SEED, want_pt=want_pt)
            assert [got[k] for k in own] == want, (base, want_pt)
    with pytest.raises(InvalidConfigError):
        mc_summary([(make_cfg(), Scheme.FSIC), (make_cfg(M=6), Scheme.FSIC)],
                   1_000, SEED)


def test_coupled_monotonicity():
    cfg = make_cfg(snr_db=15.0)
    est = estimate_coupled(cfg, 300_000, SEED)
    assert (est[Scheme.HSIC_PA].value <= est[Scheme.HSIC_NPA].value
            <= est[Scheme.FSIC].value)


def test_decomposition_partition_and_buckets():
    for cfg in (make_cfg(snr_db=15.0),
                make_cfg(m=3, n=1, R_m=0.5, eta=5.0, snr_db=15.0)):
        counts = draw_counts(cfg, 200_000, SEED)
        names = (("P_I", "P_T1_1", "P_T1_2", "P_T1_3", "P_T2_1", "P_T2_2", "P_II2")
                 if cfg.m < cfg.n else
                 ("P_I", "P_T1_1", "P_T1_2", "P_T1_3", "P_T1_4", "P_T2_1",
                  "P_T2_2", "P_II2"))
        assert set(counts["split"]) == set(names)
        bucket_hits = sum(counts["split"][k] for k in names)
        assert bucket_hits == counts["losses"][Scheme.HSIC_PA]


def test_zero_cap_draws_only_in_uncontended_or_zero_cap_buckets():
    # legacy gain below the cap floor cannot produce contended-loss events
    cfg = make_cfg(snr_db=10.0)
    g = sample_gain_matrix(cfg.M, stream(SEED, 0), 100_000)
    below = g[:, cfg.m - 1] < cfg.alpha_m
    g_m, g_n = g[:, cfg.m - 1], g[:, cfg.n - 1]
    kernel = DrawKernel(g_m.size)
    kernel.run(cfg, Scheme.HSIC_PA, g_m, g_n, np.ones(g_m.size))
    contended = kernel.lose & kernel.over & (kernel.tau > 0.0)
    assert not np.any(contended & below)


def test_std_err_scaling():
    cfg = make_cfg(snr_db=10.0)
    small = estimate_probability(cfg, Scheme.HSIC_PA, 10_000, SEED)
    big = estimate_probability(cfg, Scheme.HSIC_PA, 1_000_000, SEED)
    ratio = small.std_err / big.std_err
    assert 8.0 < ratio < 12.5


def test_pt_estimate_matches_decomposition():
    cfg = make_cfg(snr_db=15.0)
    split = draw_counts(cfg, 100_000, SEED)["split"]
    pt = estimate_pt(cfg, 100_000, SEED)
    pt_from_dec = sum(v / 100_000 for k, v in split.items() if k.startswith("P_T"))
    assert math.isclose(pt.value, pt_from_dec, rel_tol=0.0, abs_tol=1e-15)


def test_decomposition_cells_match_reference_classifiers_draw_for_draw():
    # every live contended-loss draw sits in exactly one cell of the
    # closed forms' table, the one the per-gain classifiers of
    # ``reference`` name; draw_counts' split follows draw for draw
    from hnoma.exact import contended_terms
    from hnoma.validate import DEFAULT_CONFIGS
    from conftest import regime_covering_configs
    from reference import (B_I, B_II2, capped_branch_bucket, first_branch_bucket,
                           ref_loss_mask, ref_rate_factors, ref_tau)

    trials = 1_000_000
    configs = ([make_cfg(**p) for p in DEFAULT_CONFIGS]
               + regime_covering_configs(13, seed=5))
    checked = 0
    for cfg in configs:
        g = sample_gain_matrix(cfg.M, stream(SEED, 0), trials)
        g_m, g_n = g[:, cfg.m - 1], g[:, cfg.n - 1]
        factor, branch, _ = ref_rate_factors(cfg, g_m, g_n, Scheme.HSIC_PA)
        lose = ref_loss_mask(cfg, g_n, factor)
        tau = ref_tau(cfg, g_m)
        contended = lose & (branch != B_I)
        live = contended & (tau > 0.0)
        t, y = g_m[live], g_n[live]
        capped = branch[live] == B_II2
        want = np.where(capped,
                        np.char.add("P_T1_", capped_branch_bucket(cfg, t).astype(str)),
                        np.char.add("P_T2_", first_branch_bucket(cfg, t).astype(str)))

        table = contended_terms(cfg)
        names = list(table)
        inside = np.zeros((len(names), t.size), dtype=bool)
        for row, cell in zip(inside, table.values()):
            if cell and None not in cell:
                lower, upper, a, b = cell
                row[:] = (a < t) & (t < b) & (lower(cfg, t) < y) & (y < upper(cfg, t))
        assert np.array_equal(inside.sum(axis=0), np.ones(t.size)), cfg
        got = np.array(names)[inside.argmax(axis=0)]
        assert np.array_equal(got, want), cfg
        checked += t.size

        counts = {"P_I": int(np.count_nonzero(lose & (branch == B_I)))}
        counts.update((name, int(np.count_nonzero(want == name))) for name in names)
        counts["P_II2"] = int(np.count_nonzero(contended & (tau == 0.0)))
        got = draw_counts(cfg, trials, SEED)
        assert got["split"] == counts, cfg
        assert got["losses"][Scheme.HSIC_PA] == int(np.count_nonzero(lose)), cfg
    assert checked > 100_000


def test_decomposition_and_validation_run_the_kernel_in_chunks(monkeypatch):
    # the validation suite's one pass over a config's draws runs the
    # per-draw kernel on no more than one chunk of rows at a time
    from hnoma.channel import CHUNK_ROWS
    from hnoma.validate import DEFAULT_CONFIGS, run_validation

    rows = []
    run = DrawKernel.run

    def spy(self, cfg, scheme, g_m, g_n, gamma):
        rows.append(g_m.size)
        return run(self, cfg, scheme, g_m, g_n, gamma)

    monkeypatch.setattr(DrawKernel, "run", spy)
    trials = 3 * CHUNK_ROWS + 5
    run_validation(DEFAULT_CONFIGS[:1], trials=trials, seed=SEED)
    assert max(rows) <= CHUNK_ROWS
    # one run per hybrid scheme, each draw once
    assert sum(rows) == 3 * trials


def _drawn_blocks(cfg, trials, seed):
    """The (g_m, g_n) blocks that ``mc_summary`` draws for cfg's ranks,
    each whole, as before its tally was chunked and fused."""
    import hnoma.mc

    for block, start in enumerate(range(0, trials, hnoma.mc.BLOCK_TRIALS)):
        size = min(hnoma.mc.BLOCK_TRIALS, trials - start)
        g = sample_gain_matrix(cfg.M, stream(seed, block), size)
        yield g[:, cfg.m - 1].copy(), g[:, cfg.n - 1].copy()


@pytest.mark.parametrize("block_trials", [None, "partial", "leaves"])
def test_chunked_tally_matches_whole_block_loop(monkeypatch, block_trials):
    import hnoma.mc
    from hnoma import mc_summary
    from hnoma.channel import CHUNK_ROWS

    trials = 2 * CHUNK_ROWS + 123  # not a multiple of the chunk
    if block_trials in ("partial", "leaves"):
        # three blocks, none a multiple of the chunk, the last one partial
        monkeypatch.setattr(hnoma.mc, "BLOCK_TRIALS", CHUNK_ROWS + 1_000)
        trials = 2 * (CHUNK_ROWS + 1_000) + 777
    if block_trials == "leaves":
        # each full block in eight leaves of 2,168-2,176 draws, the last in
        # one of 777, each with a partial chunk and a probe of all of it
        monkeypatch.setattr(hnoma.mc, "LEAF_ROWS", 3_000)
    for base in (make_cfg(), make_cfg(m=3, n=1, R_m=0.5, eta=5.0)):
        cells = [(base.with_snr(snr), scheme) for snr in (0.0, 12.0, 25.0)
                 for scheme in (Scheme.FSIC, Scheme.HSIC_NPA, Scheme.HSIC_PA)]
        for want_pt in (False, True):
            got = mc_summary(cells, trials, SEED, want_pt=want_pt)
            assert got == ref_mc_summary(cells, _drawn_blocks(base, trials, SEED), want_pt)


def test_pair_blocks_are_views_of_the_kept_block(monkeypatch):
    # a block is drawn a leaf at a time, a leaf holds only the ranks read,
    # and each rank's gains are a read-only contiguous view of it; the
    # leaves, in order, are the block one whole draw gives
    import hnoma.mc
    from hnoma.numerics import pairwise_leaves

    drawn = []
    sample = hnoma.mc.sample_gain_ranks
    monkeypatch.setattr(hnoma.mc, "sample_gain_ranks",
                        lambda *args, **kw: drawn.append(sample(*args, **kw)) or drawn[-1])
    monkeypatch.setattr(hnoma.mc, "LEAF_ROWS", 20_000)
    cfg = make_cfg(m=4, n=2)
    sizes = pairwise_leaves(50_000, 20_000)
    assert len(sizes) == 4
    (size, leaves), = hnoma.mc._rank_blocks(cfg.M, [cfg.m, cfg.n], 50_000, SEED)
    assert size == 50_000
    got = []
    for k, cols in enumerate(leaves):
        block = drawn[k]
        assert block.shape == (sizes[k], 2) and not block.flags.writeable
        for col in (cols[cfg.m], cols[cfg.n]):
            assert col.flags.c_contiguous and not col.flags.writeable
            assert np.shares_memory(col, block)
        got.append(np.array(block))
    assert len(drawn) == len(sizes)
    whole = sample_gain_matrix(cfg.M, stream(SEED, 0), 50_000)[:, [cfg.m - 1, cfg.n - 1]]
    assert np.array_equal(np.concatenate(got), whole)


@pytest.mark.parametrize("blocks", [1, 2])
def test_mc_summary_over_a_kept_block_allocates_one_gamma_buffer(blocks):
    # the gains are drawn a leaf at a time into one buffer, read in place,
    # and the tally reuses one leaf-length γ buffer and live index, so the
    # peak is one leaf of the ranks read plus the chunk kernel (5-6 MB),
    # whatever the trial count: below the 8 MB that the γ buffer of one
    # 10^6-draw block took alone, for one pair's two ranks and for all
    # five of fig1's curves
    import tracemalloc

    from hnoma import mc_summary
    from hnoma.cli import load_preset
    from hnoma.sweep import SweepSpec

    cfg = make_cfg()
    fig1 = [SweepSpec.from_dict(raw) for raw in load_preset("fig1")["sweeps"]]
    for n_ranks, cells in ((2, [(cfg, scheme) for scheme in HNOMA_SCHEMES]),
                           (5, [(spec.config_at(snr), scheme) for spec in fig1
                                for snr in spec.snr_db for scheme in spec.schemes])):
        assert len({rank for cfg, _ in cells for rank in (cfg.m, cfg.n)}) == n_ranks
        tracemalloc.start()
        try:
            mc_summary(cells, blocks * 1_000_000, SEED, want_pt=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 1_000_000, n_ranks


def test_fixed_power_energy_mean_is_exact():
    # FSIC and HSIC-NPA spend 2 β ρ_n on every draw, so their mean over
    # 10^6 draws is that value to the last bit, not a rounded block sum
    from hnoma import mc_summary

    cells = [(make_cfg(beta=beta, snr_db=snr), scheme)
             for beta in (0.1, 0.25, 0.3) for snr in (0.0, 7.0, 15.0, 22.0, 30.0)
             for scheme in (Scheme.FSIC, Scheme.HSIC_NPA)]
    for (cfg, _), summary in zip(cells, mc_summary(cells, 1_000_000, 7)):
        assert summary["energy_mean"] == 2.0 * cfg.beta * cfg.rho_n, cfg


# ---------------------------------------------------------------------------
#  region integration
# ---------------------------------------------------------------------------

def test_integrate_everything_is_one():
    pair = OrderPairDensity(5, 1, 2)
    est = integrate_event(region_everything(), pair)
    assert abs(est.value - 1.0) < 1e-4
    assert est.method == "numeric-integration"
    assert est.trials == 0


def test_integrate_marginal_cdf_vs_empirical():
    cfg = make_cfg(snr_db=10.0)
    pair = OrderPairDensity(cfg.M, cfg.m, cfg.n)
    p = integrate_event(region_legacy_below(cfg.alpha_m), pair).value
    g = sample_gain_matrix(cfg.M, stream(SEED, 4), 1_000_000)
    emp = float(np.mean(g[:, cfg.m - 1] < cfg.alpha_m))
    se = math.sqrt(p * (1.0 - p) / 1e6)
    assert abs(emp - p) < 4.0 * se


def test_integrate_contended_loss_matches_exact(fig1_cfg):
    pair = OrderPairDensity(fig1_cfg.M, fig1_cfg.m, fig1_cfg.n)
    est = integrate_event(region_contended_loss(fig1_cfg), pair, abs_tol=1e-9)
    assert abs(est.value - p_t_exact(fig1_cfg).value) < 1e-8
    assert est.std_err <= 1e-6


def _quad_reference(region, pair, bound=40.0, pieces=8):
    """Outer integral of ``region`` by scipy's quad, each segment between
    curve crossings split into ``pieces``; quad samples interior points only."""
    from scipy import integrate
    from hnoma.channel import mass_lower_interval, mass_upper_interval
    from hnoma.mc import _region_breakpoints

    mass = mass_upper_interval if pair.m < pair.n else mass_lower_interval
    total = 0.0
    for clause, breakpoints in zip(region.clauses,
                                   _region_breakpoints(region.clauses)):
        def inner(t):
            lo, hi, active = clause_bounds(clause, t)
            if not active:
                return 0.0
            return float(mass(pair, t, float(lo), min(float(hi), bound)))

        t_hi = min(clause.t_hi, bound)
        if not t_hi > clause.t_lo:
            continue
        cuts = sorted({clause.t_lo, t_hi,
                       *(x for x in breakpoints if clause.t_lo < x < t_hi)})
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            grid = np.linspace(lo, hi, pieces + 1)
            for a, b in zip(grid[:-1], grid[1:]):
                total += integrate.quad(inner, a, b, epsabs=1e-16, epsrel=1e-12,
                                        limit=200)[0]
    return total


def _scalar_breakpoints(clause, t_lo, t_hi, n_scan=2049):
    """Reference: the same scan, then one 80-step bisection per crossing."""
    grids = [np.linspace(t_lo, t_hi, n_scan)]
    if t_lo > 0 and t_hi / t_lo > 100.0:
        grids.append(np.geomspace(t_lo, t_hi, n_scan))
    elif t_lo == 0 and t_hi > 100.0:
        grids.append(np.geomspace(t_hi * 1e-9, t_hi, n_scan))
    ts = np.unique(np.concatenate(grids))
    curves = list(clause.lower) + list(clause.upper)
    funcs = [(lambda t, c=c: c(clause.cfg, t)) if callable(c)
             else (lambda t, v=c: np.full_like(t, v)) for c in curves]
    funcs.append(lambda t: t)
    vals = [np.clip(np.asarray(f(ts), dtype=float), -1e300, 1e300) for f in funcs]
    hits = []
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            for idx in np.nonzero(np.diff(np.signbit(vals[i] - vals[j])))[0]:
                lo, hi = ts[idx], ts[idx + 1]
                f_lo = float(vals[i][idx] - vals[j][idx])
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    f_mid = float(np.clip(funcs[i](np.asarray(mid))
                                          - funcs[j](np.asarray(mid)), -1e300, 1e300))
                    if (f_mid < 0) == (f_lo < 0):
                        lo, f_lo = mid, f_mid
                    else:
                        hi = mid
                hits.append(0.5 * (lo + hi))
    return hits


def test_batched_breakpoints_match_scalar_bisection():
    # the search stops at a bracket 1e-13 wide relative to t, where the
    # reference bisects down to adjacent floats
    from hnoma.mc import _region_breakpoints
    from conftest import regime_covering_configs
    checked = 0
    for cfg in regime_covering_configs(14, seed=11):
        for region in (region_contended_loss(cfg),
                       region_underperformance(cfg, Scheme.HSIC_NPA),
                       region_underperformance(cfg, Scheme.HSIC_PA)):
            found = _region_breakpoints(region.clauses)
            for clause, got in zip(region.clauses, found):
                t_hi = min(clause.t_hi, 40.0)
                if not t_hi > clause.t_lo:
                    continue
                ref = _scalar_breakpoints(clause, clause.t_lo, t_hi)
                assert len(got) == len(ref)
                for x, r in zip(got, ref):
                    assert abs(x - r) <= 1e-13 * abs(r)
                checked += len(ref)
    assert checked > 50


def _counted_clauses(clauses):
    """The clauses with every curve wrapped in a call counter of its
    clause (a curve two clauses share gets one counter in each), and the
    counts by (clause index, curve id)."""
    from dataclasses import replace
    wrapped, calls = {}, {}

    def wrap(k, curve):
        if not callable(curve):
            return curve
        key = (k, id(curve))
        if key not in wrapped:
            calls[key] = 0

            def counted(cfg, t):
                calls[key] += 1
                return curve(cfg, t)
            wrapped[key] = counted
        return wrapped[key]

    clauses = tuple(replace(c, lower=tuple(wrap(k, f) for f in c.lower),
                            upper=tuple(wrap(k, f) for f in c.upper))
                    for k, c in enumerate(clauses))
    return clauses, calls


def test_breakpoint_on_a_bracket_end_closes_in_one_step():
    from hnoma.mc import _region_breakpoints
    from hnoma.regions import Clause
    # a curve that leaves 0 at the clause start t = 2
    clauses, calls = _counted_clauses(
        (Clause(2.0, 5.0, lower=(lambda cfg, t: 2.0 - t,), upper=(0.0,)),))
    (found,) = _region_breakpoints(clauses)
    assert len(found) == 1 and abs(found[0] - 2.0) <= 1e-13 * 2.0
    assert max(calls.values()) == 2  # the scan, then one step
    # power_cap, capped_loss and decode_tie are all 0 at t = alpha_m
    cfg = make_cfg()
    capped = region_contended_loss(cfg).clauses[0]
    (found,) = _region_breakpoints((capped,))
    at_alpha = [x for x in found if abs(x - cfg.alpha_m) <= 1e-13 * cfg.alpha_m]
    assert len(at_alpha) == 2  # tie against cap and against loss


def test_breakpoint_at_a_jump_closes():
    from hnoma.mc import _region_breakpoints
    from hnoma.regions import Clause
    jump = 1.2345678
    step = Clause(0.5, 4.0, upper=(lambda cfg, t: np.where(t < jump, 10.0, 0.1),))
    (found,) = _region_breakpoints((step,))
    assert len(found) == 1 and abs(found[0] - jump) <= 1e-13 * jump


def test_illinois_steps_close_a_one_sided_crossing():
    # plain regula falsi creeps up on this fourth-root crossing from one
    # side (20 steps); halving the value at the kept end takes 13
    from hnoma.mc import _region_breakpoints
    from hnoma.regions import Clause
    root = 1.0 + 0.01 ** 4
    clauses, calls = _counted_clauses((Clause(
        0.5, 1.5, lower=(lambda cfg, t: np.maximum(t - 1.0, 0.0) ** 0.25,),
        upper=(0.01,)),))
    (found,) = _region_breakpoints(clauses)
    assert len(found) == 1 and abs(found[0] - root) <= 1e-13 * root
    assert max(calls.values()) - 1 <= 13


def test_breakpoint_near_zero_closes_at_a_width_of_the_scan_range():
    # a root at 2.6e-261 on the scan bracket that starts at t = 0: a width
    # relative to the bracket's end would never be reached
    from hnoma.mc import _region_breakpoints
    from hnoma.regions import Clause
    root = math.exp(-600.0)
    clauses, calls = _counted_clauses(
        (Clause(0.0, 2.0, lower=(lambda cfg, t: np.exp(600.0 * (t - 1.0)),)),))
    (found,) = _region_breakpoints(clauses)
    assert len(found) == 2 and abs(found[0] - root) <= 1e-13 * 2.0
    assert abs(found[1] - 1.0) <= 1e-13
    assert max(calls.values()) - 1 < 12  # less the scan


def test_breakpoint_search_takes_few_steps():
    from hnoma.cli import load_preset
    from hnoma.config import SystemConfig
    from hnoma.mc import _region_breakpoints
    from conftest import regime_covering_configs
    configs = list(regime_covering_configs(14, seed=11))
    for sweep in load_preset("fig5a")["sweeps"]:
        params = {k: sweep[k] for k in ("M", "m", "n", "R_m", "beta", "eta")}
        configs += [SystemConfig.make(**params, snr_db=float(snr))
                    for snr in sweep["snr_db"]]
    worst = 0
    for cfg in configs:
        for region in (region_contended_loss(cfg),
                       *(region_underperformance(cfg, s) for s in HNOMA_SCHEMES)):
            clauses, calls = _counted_clauses(region.clauses)
            _region_breakpoints(clauses)
            if calls:
                worst = max(worst, max(calls.values()) - 1)  # less the scan
    assert 0 < worst <= 12


def test_region_search_matches_clause_by_clause():
    from hnoma.mc import _region_breakpoints
    from conftest import regime_covering_configs
    for cfg in regime_covering_configs(14, seed=11):
        region = region_underperformance(cfg, Scheme.HSIC_PA)
        assert len(region.clauses) == 4
        assert _region_breakpoints(region.clauses) == [
            _region_breakpoints((c,))[0] for c in region.clauses]


def test_batched_integrals_equal_one_region_calls():
    # regions of many configs and both quantities, in one search and one
    # pass, against each region alone
    from hnoma import IntegrationFailureError
    from hnoma.mc import integrate_events
    from conftest import regime_covering_configs

    def bits(result):
        if isinstance(result, IntegrationFailureError):
            return "fail", str(result)
        return result.value.hex(), result.std_err.hex(), result.method

    groups = {}
    for cfg in regime_covering_configs():
        groups.setdefault((cfg.M, cfg.m, cfg.n), []).append(cfg)
    checked = 0
    for ranks, cfgs in groups.items():
        pair = OrderPairDensity(*ranks)
        regions = [region for cfg in cfgs for region in (
            region_contended_loss(cfg),
            *(region_underperformance(cfg, s) for s in HNOMA_SCHEMES))]
        for region, got in zip(regions, integrate_events(regions, pair),
                               strict=True):
            try:
                alone = integrate_event(region, pair)
            except IntegrationFailureError as exc:
                alone = exc
            assert bits(got) == bits(alone)
            checked += 1
    assert checked == 4 * 30 and len(groups) < 30


def test_integration_is_closed_at_each_clause_start():
    # fig3b_n2 at 40 dB: the integrand is large just right of a clause's
    # t_lo, where the clause itself is inactive
    cfg = make_cfg(M=5, m=1, n=2, R_m=1.0, beta=1.0 / 3.0, eta=7.0, snr_db=40.0)
    pair = OrderPairDensity(cfg.M, cfg.m, cfg.n)
    ref = _quad_reference(region_underperformance(cfg, Scheme.HSIC_PA), pair)
    est = integrate_underperformance(cfg, Scheme.HSIC_PA)
    assert math.isclose(est.value, ref, rel_tol=1e-6)
    # fig5a_eta4 at 0 dB: within the oracle's absolute tolerance
    cfg = make_cfg(M=5, m=2, n=5, R_m=1.0, beta=0.25, eta=4.0, snr_db=0.0)
    pair = OrderPairDensity(cfg.M, cfg.m, cfg.n)
    ref = _quad_reference(region_underperformance(cfg, Scheme.HSIC_NPA), pair)
    assert abs(integrate_underperformance(cfg, Scheme.HSIC_NPA).value - ref) <= 1e-7


def test_no_false_convergence_at_the_first_level():
    # an integrand falling from 6e-3 to 1e-38 across one initial panel
    # fooled the first-level error estimate for eta in (0.7143, 0.7146)
    pair = OrderPairDensity(6, 2, 5)
    for eta in np.linspace(0.7140, 0.7150, 21):
        cfg = make_cfg(M=6, m=2, n=5, R_m=1.6, beta=0.27, eta=float(eta),
                       snr_db=0.0)
        integ = integrate_event(region_contended_loss(cfg), pair).value
        assert abs(integ - p_t_exact(cfg).value) <= 1e-7, eta


def test_underperformance_regions_match_mc():
    cfg = make_cfg(snr_db=12.0)
    for scheme in (Scheme.FSIC, Scheme.HSIC_NPA, Scheme.HSIC_PA):
        mc = estimate_probability(cfg, scheme, 1_000_000, SEED)
        det = integrate_underperformance(cfg, scheme)
        se = max(mc.std_err, 1e-9)
        assert abs(mc.value - det.value) < 4.0 * se, scheme


def test_hybrid_assembly_matches_mc_at_high_snr():
    # full failure probability = closed-form contended part + integrated
    # uncontended and zero-cap parts
    from hnoma.regions import region_uncontended_loss, region_zero_cap_loss
    cfg = make_cfg(snr_db=30.0)
    pair = OrderPairDensity(cfg.M, cfg.m, cfg.n)
    assembled = (p_t_exact(cfg).value
                 + integrate_event(region_uncontended_loss(cfg), pair).value
                 + integrate_event(region_zero_cap_loss(cfg), pair).value)
    mc = estimate_probability(cfg, Scheme.HSIC_PA, 10_000_000, SEED)
    sigma = math.sqrt(assembled * (1.0 - assembled) / 1e7)
    assert abs(mc.value - assembled) <= 4.0 * sigma


def test_region_contains_agrees_with_rate_logic():
    cfg = make_cfg(snr_db=15.0)
    g = sample_gain_matrix(cfg.M, stream(SEED, 9), 50_000)
    g_m, g_n = g[:, cfg.m - 1], g[:, cfg.n - 1]
    region = region_underperformance(cfg, Scheme.HSIC_PA)
    mask_region = region_contains(region, g_m, g_n)
    kernel = DrawKernel(g_m.size)
    kernel.run(cfg, Scheme.HSIC_PA, g_m, g_n, np.ones(g_m.size))
    mask_rates = kernel.lose
    assert np.mean(mask_region != mask_rates) < 1e-4  # boundary ties only
