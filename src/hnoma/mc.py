"""Monte Carlo estimators and direct numeric integration of event regions."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .channel import (CHUNK_ROWS, OrderPairDensity, mass_lower_interval,
                      mass_upper_interval, sample_gain_matrix)
from .config import InvalidConfigError, SystemConfig
from .estimates import NUMERIC, ProbEstimate
from .exact import compute_constants, contended_terms
from .numerics import IntegrationFailureError, adaptive_integrate, stream
from .regions import EventRegion, region_underperformance
from .schemes import HNOMA_SCHEMES, DrawKernel, Scheme, rate_factors

BLOCK_TRIALS = 1_000_000

# the most recent block, {(M, seed, block, size): read-only column-major
# (size, M) gains}; a figure's curves share M, seed and trials, so they all
# reuse one draw
_kept = {}


def _pair_blocks(cfg: SystemConfig, trials: int, seed: int):
    """The (g_m, g_n) gain columns of every block, as read-only views.

    The only place gains are drawn.  Trials split into blocks of
    ``BLOCK_TRIALS`` (the last one partial) and block b always comes from
    ``stream(seed, b)``, so every consumer sees the same draws.  The
    process keeps its last sorted block (column-major, 8*M*BLOCK_TRIALS
    bytes) and hands it out again to the next pass that asks for the same
    block; a rank's column of it is contiguous, so nothing is copied.
    """
    if trials < 1:
        raise ValueError(f"trials={trials} must be >= 1")
    for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        size = min(BLOCK_TRIALS, trials - start)
        key = (cfg.M, seed, block, size)
        g = _kept.get(key)
        if g is None:
            _kept.clear()  # free the old block before drawing the new one
            g = sample_gain_matrix(cfg.M, stream(seed, block), size)
            g.flags.writeable = False
            _kept[key] = g
        yield g[:, cfg.m - 1], g[:, cfg.n - 1]


def _pair_chunks(cfg: SystemConfig, trials: int, seed: int):
    """The draws of ``_pair_blocks`` as ``CHUNK_ROWS``-row views."""
    for g_m, g_n in _pair_blocks(cfg, trials, seed):
        for lo in range(0, g_m.size, CHUNK_ROWS):
            yield g_m[lo:lo + CHUNK_ROWS], g_n[lo:lo + CHUNK_ROWS]


def _tally_chunk(kernel: DrawKernel, cfg: SystemConfig, scheme: Scheme,
                 g_m, g_n, gamma, want_pt: bool):
    """``(hits, pt_hits)`` of one chunk of draws; γ goes into ``gamma``."""
    kernel.run(cfg, scheme, g_m, g_n, gamma)
    hits = int(np.count_nonzero(kernel.lose))
    if not want_pt:
        return hits, 0
    # the contended positive-cap loss: losing, not type I, tau > 0
    return hits, int(np.count_nonzero(kernel.lose & kernel.over & (kernel.tau > 0.0)))


def mc_summary(cells, trials: int, seed: int, want_pt: bool = False) -> list:
    """Underperformance estimate plus mean power-adaptation factor / energy
    for every ``(cfg, scheme)`` cell, all on the same draws.

    The cells must share ``(M, m, n)``; each gain block is drawn once and
    fed to every cell, so memory stays at one block.  With ``want_pt`` the
    contended positive-cap loss event is counted in the same pass
    (power-adaptive cells only).  Each draw spends (1 + γ) β ρ_n over one
    frame (T = 1), so ``energy_mean`` is formed from ``gamma_mean``; it is
    exactly 2 β ρ_n off HSIC-PA.  Returns one summary dict per cell.
    """
    cells = [(cfg, Scheme(scheme)) for cfg, scheme in cells]
    if not cells:
        return []
    if len({(cfg.M, cfg.m, cfg.n) for cfg, _ in cells}) > 1:
        raise InvalidConfigError("mc_summary cells must share (M, m, n)")
    tallies = [dict(hits=0, pt_hits=0, gamma_sum=0.0) for _ in cells]
    kernel = DrawKernel(CHUNK_ROWS)
    for g_m, g_n in _pair_blocks(cells[0][0], trials, seed):
        # per-draw factors go into one block-length buffer, so the sums
        # below are the same pairwise sums as over a whole-block kernel
        gamma = np.empty(g_m.size)
        for (cfg, scheme), tally in zip(cells, tallies):
            pt = want_pt and scheme == Scheme.HSIC_PA
            for lo in range(0, g_m.size, CHUNK_ROWS):
                hi = lo + CHUNK_ROWS
                hits, pt_hits = _tally_chunk(kernel, cfg, scheme, g_m[lo:hi],
                                             g_n[lo:hi], gamma[lo:hi], pt)
                tally["hits"] += hits
                tally["pt_hits"] += pt_hits
            # γ is 1 off HSIC-PA, and a pairwise sum of ones is exact
            tally["gamma_sum"] += (float(gamma.sum()) if scheme == Scheme.HSIC_PA
                                   else float(g_m.size))
    out = []
    for (cfg, scheme), tally in zip(cells, tallies):
        gamma_mean = tally["gamma_sum"] / trials
        summary = {
            "estimate": ProbEstimate.from_counts(tally["hits"], trials),
            "gamma_mean": gamma_mean,
            "energy_mean": (1.0 + gamma_mean) * cfg.beta * cfg.rho_n,
        }
        if want_pt and scheme == Scheme.HSIC_PA:
            summary["pt_estimate"] = ProbEstimate.from_counts(tally["pt_hits"], trials)
        out.append(summary)
    return out


def estimate_coupled(cfg: SystemConfig, trials: int, seed: int) -> dict:
    """Per-scheme estimates on shared draws (exact count dominance)."""
    summaries = mc_summary([(cfg, s) for s in HNOMA_SCHEMES], trials, seed)
    return {s: out["estimate"] for s, out in zip(HNOMA_SCHEMES, summaries)}


def estimate_decomposition(cfg: SystemConfig, trials: int, seed: int) -> dict:
    """Split the power-adaptive loss event into its disjoint sub-events.

    Type-I losses count as ``P_I`` and contended losses with a zero cap
    as ``P_II2``.  Every other losing draw goes to the cell of
    ``exact.contended_terms`` (read with an identity ``between``) whose
    legacy-gain interval and boundary curves contain it.  The counts
    must sum to the total loss count, which checks that the cells tile
    the contended region; this is asserted.
    """
    table = contended_terms(cfg, compute_constants(cfg), lambda *cell: cell)
    counts = {"P_I": 0, **dict.fromkeys(table, 0), "P_II2": 0}
    # a 0.0 entry or a None limit is an empty cell
    cells = [(name, *cell) for name, cell in table.items()
             if cell and None not in cell]
    total = 0
    kernel = DrawKernel(CHUNK_ROWS)
    gamma = np.empty(CHUNK_ROWS)
    for g_m, g_n in _pair_chunks(cfg, trials, seed):
        kernel.run(cfg, Scheme.HSIC_PA, g_m, g_n, gamma[:g_m.size])
        lose, over, tau = kernel.lose, kernel.over, kernel.tau
        total += int(np.count_nonzero(lose))
        counts["P_I"] += int(np.count_nonzero(lose & ~over))
        contended = lose & over
        counts["P_II2"] += int(np.count_nonzero(contended & (tau == 0.0)))
        live = contended & (tau > 0.0)
        t, y = g_m[live], g_n[live]
        for name, lower, upper, a, b in cells:
            inside = (a < t) & (t < b) & (lower(cfg, t) < y) & (y < upper(cfg, t))
            counts[name] += int(np.count_nonzero(inside))
    if sum(counts.values()) != total:
        raise AssertionError(
            f"decomposition buckets sum to {sum(counts.values())}, "
            f"expected {total} losing draws")
    out = {name: ProbEstimate.from_counts(k, trials) for name, k in counts.items()}
    out["total"] = ProbEstimate.from_counts(total, trials)
    return out


def dominance_violations(cfg: SystemConfig, trials: int, seed: int) -> int:
    """Draws where HSIC-PA's NOMA-slot rate is below HSIC-NPA's, or
    HSIC-NPA's below FSIC's; the schemes' design makes this zero."""
    viol = 0
    for g_m, g_n in _pair_chunks(cfg, trials, seed):
        f_fsic, f_npa, f_pa = (rate_factors(cfg, g_m, g_n, s)[0]
                               for s in HNOMA_SCHEMES)
        viol += int(np.count_nonzero(f_pa < f_npa) + np.count_nonzero(f_npa < f_fsic))
    return viol


# ---------------------------------------------------------------------------
#  Direct integration of a region against the ordered-pair density
# ---------------------------------------------------------------------------

_TAIL = 40.0        # gains beyond it are dropped (mass < e^-40)
_MAX_DEPTH = 40     # bisection levels of the adaptive rule
_N_SCAN = 2049      # scan points per grid of the breakpoint search
_REL_WIDTH = 1e-13  # a breakpoint bracket closes at this width relative to |t|
# every third step bisects; a scan bracket off t = 0 is narrower than its
# root, so 44 halvings (132 steps) close it and the cap never binds
_MAX_STEPS = 200


def _curve_values(curves, t):
    """Every curve at ``t``, clipped to finite values, one row per curve."""
    rows = np.empty((len(curves), t.size))
    for row, c in zip(rows, curves):
        row[:] = c(t) if callable(c) else c
    return np.clip(rows, -1e300, 1e300, out=rows)


def _region_breakpoints(clauses) -> list:
    """Legacy-gain values where two boundary curves of a clause cross,
    one list per clause (empty where the clause's range below the tail
    bound is empty).

    Every support edge or kink of a clause integrand sits at a crossing
    between two members of {lower curves, upper curves, diagonal};
    locating them keeps the outer quadrature from stepping over narrow
    features.  Each clause's range is scanned on a linear grid (plus a
    geometric one over wide ranges), each clause's curves on its own grid.
    Every sign flip of every curve pair of a clause is bracketed, in pair
    order then by t, and all brackets are closed together by Illinois
    steps (Dowell & Jarratt, BIT 11, 1971): a secant point, with the value
    at an end kept twice in a row halved, and a bisection every third
    step.  Trial points stay ``0.4 * _REL_WIDTH`` (relative) inside the
    bracket, so a root on a bracket end closes in one step.  A bracket
    stops at a width of ``_REL_WIDTH`` relative to its larger end, or at
    adjacent floats, and gives its midpoint.  Brackets evolve
    independently, so a region's search gives exactly what searching each
    clause alone gives.
    """
    diagonal = lambda t: t  # edge of the ordered wedge
    curves = []
    first, second, owner, lo, hi, f_lo, f_hi = [], [], [], [], [], [], []
    for k, clause in enumerate(clauses):
        t_hi = min(clause.t_hi, _TAIL)
        if not t_hi > clause.t_lo:
            continue
        grid = np.linspace(clause.t_lo, t_hi, _N_SCAN)
        if clause.t_lo > 0 and t_hi / clause.t_lo > 100.0:
            grid = np.union1d(grid, np.geomspace(clause.t_lo, t_hi, _N_SCAN))
        own = (*clause.lower, *clause.upper, diagonal)
        scan = _curve_values(own, grid)
        for i, j in combinations(range(len(own)), 2):
            d = scan[i] - scan[j]
            flips = np.flatnonzero(np.diff(np.signbit(d)))
            first += [len(curves) + i] * flips.size
            second += [len(curves) + j] * flips.size
            owner += [k] * flips.size
            lo.append(grid[flips])
            hi.append(grid[flips + 1])
            f_lo.append(d[flips])
            f_hi.append(d[flips + 1])
        curves += own
    if not first:
        return [[] for _ in clauses]
    first, second = np.array(first, dtype=np.intp), np.array(second, dtype=np.intp)
    owner = np.array(owner, dtype=np.intp)
    lo, hi, f_lo, f_hi = map(np.concatenate, (lo, hi, f_lo, f_hi))
    # a bracket's lower end keeps the sign it starts with
    neg_lo = f_lo < 0
    last = np.zeros(lo.size, dtype=np.int8)   # +1: lo moved last, -1: hi
    for step in range(_MAX_STEPS):
        big = np.maximum(np.abs(lo), np.abs(hi))
        live = np.flatnonzero((hi - lo > _REL_WIDTH * big)
                              & (hi > np.nextafter(lo, np.inf)))
        if not live.size:
            break
        a, b, fa, fb = lo[live], hi[live], f_lo[live], f_hi[live]
        mid = 0.5 * (a + b)
        if step % 3 == 2:
            x = mid
        else:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                x = b - fb * (b - a) / (fb - fa)
            x = np.where(np.isfinite(x), x, mid)
        margin = 0.4 * _REL_WIDTH * big[live]
        x = np.minimum(np.maximum(x, a + margin), b - margin)
        at_x = _curve_values(curves, x)
        cols = np.arange(live.size)
        fx = at_x[first[live], cols] - at_x[second[live], cols]
        to_lo = (fx < 0) == neg_lo[live]
        kept = last[live]
        # Illinois: halve the value at an end kept twice in a row
        f_lo[live] = np.where(to_lo, fx, np.where(kept == -1, 0.5 * fa, fa))
        f_hi[live] = np.where(to_lo, np.where(kept == 1, 0.5 * fb, fb), fx)
        lo[live] = np.where(to_lo, x, a)
        hi[live] = np.where(to_lo, b, x)
        last[live] = np.where(to_lo, 1, -1)
    found = 0.5 * (lo + hi)
    return [list(found[owner == k]) for k in range(len(clauses))]


def integrate_event(region: EventRegion, pair: OrderPairDensity,
                    abs_tol: float = 1e-7) -> ProbEstimate:
    """Probability mass of ``region`` under the ordered-pair density.

    The opportunistic-gain section of every clause is an interval, so its
    mass comes from the pair density's interval-mass functions
    (Gauss-Legendre in v = e^-y); the remaining 1-D integral over the
    legacy gain is done by adaptive bisection between the curve-crossing
    breakpoints of ``_region_breakpoints`` (one search for the whole
    region), all segments of a clause refined together.  Gains beyond 40
    are dropped (mass < e^-40).
    """
    mass = mass_upper_interval if pair.m < pair.n else mass_lower_interval

    def clause_mass(clause, breakpoints):
        def integrand(t):
            # on the closed interval: bounds_at leaves t == t_lo out, which
            # would put a false jump at every segment starting there
            t = np.maximum(t, np.nextafter(clause.t_lo, np.inf))
            lo, hi, active = clause.bounds_at(t)
            return np.where(active, mass(pair, t, lo, np.minimum(hi, _TAIL)), 0.0)

        t_hi = min(clause.t_hi, _TAIL)
        if not t_hi > clause.t_lo:
            return 0.0, 0.0, True
        edges = [clause.t_lo, t_hi]
        edges += [x for x in breakpoints if clause.t_lo < x < t_hi]
        edges = np.array(sorted(set(edges)))
        tol_each = abs_tol / (len(region.clauses) * (edges.size - 1))
        values, errs, oks = adaptive_integrate(integrand, edges[:-1], edges[1:],
                                               abs_tol=tol_each, max_depth=_MAX_DEPTH,
                                               initial_panels=8)
        v_sum, e_sum = 0.0, 0.0
        for v, e in zip(values, errs):  # segment by segment, left to right
            v_sum += float(v)
            e_sum += float(e)
        return v_sum, e_sum, bool(oks.all())

    total = 0.0
    err = 0.0
    ok = True
    for clause, breakpoints in zip(region.clauses, _region_breakpoints(region.clauses)):
        v, e, good = clause_mass(clause, breakpoints)
        total += v
        err += e
        ok = ok and good
    if not ok:
        raise IntegrationFailureError(
            f"integration did not converge: value={total!r}, err={err!r}")
    total = min(1.0, max(0.0, total))
    return ProbEstimate(value=total, trials=0, std_err=err, method=NUMERIC)


def integrate_underperformance(cfg: SystemConfig, scheme: Scheme) -> ProbEstimate:
    """Deterministic counterpart of the underperformance estimate of
    ``mc_summary``; raises ``IntegrationFailureError`` if it does not converge."""
    pair = OrderPairDensity(cfg.M, cfg.m, cfg.n)
    return integrate_event(region_underperformance(cfg, scheme), pair)
