"""Monte Carlo estimators and direct numeric integration of event regions."""

from __future__ import annotations

from functools import cache

import numpy as np

# sample_gain_matrix and rate_factors are not called here; bench/tracing.py
# looks them up here
from .channel import (CHUNK_ROWS, OrderPairDensity, mass_lower_interval,  # noqa: F401
                      mass_upper_interval, sample_gain_matrix, sample_gain_ranks)
from .config import InvalidConfigError, SystemConfig
from .estimates import NUMERIC, ProbEstimate, raised
from .exact import contended_terms
from .numerics import (IntegrationFailureError, adaptive_integrate, pairwise_join,
                       pairwise_leaves, stream)
from .regions import EventRegion, _Gathered, diagonal, region_underperformance
from .schemes import HNOMA_SCHEMES, DrawKernel, Scheme, rate_factors  # noqa: F401
from .tally import _chunks, curves, plan_curve, tally_curve

BLOCK_TRIALS = 1_000_000
# the longest leaf a block is cut into (see ``_rank_blocks``): four kernel
# chunks, so a leaf's gains and γ stay a few MB whatever the trial count
LEAF_ROWS = 4 * CHUNK_ROWS


def _rank_blocks(M: int, ranks, trials: int, seed: int):
    """Every block as ``(size, leaves)``: its draw count, and its gains
    of ``ranks`` one leaf at a time, each as ``{rank: read-only view}``.

    The only place gains are drawn.  Trials split into blocks of
    ``BLOCK_TRIALS`` (the last one partial); block b comes from ``stream(seed,
    b)`` sorted over all M ranks, so every consumer sees the same gains
    whichever ranks it reads.  A block is drawn in the leaves of its
    pairwise-sum tree (``numerics.pairwise_leaves(size, LEAF_ROWS)``), in
    order from its one stream, so its gains are those of one whole-block
    draw and sums over its leaves rebuild its ``np.sum``
    (``numerics.pairwise_join``).  A rank's gains are a contiguous row of
    one buffer that every leaf reuses: a leaf's views hold until the next
    leaf is drawn.
    """
    if trials < 1:
        raise ValueError(f"trials={trials} must be >= 1")
    buf = np.empty((len(ranks), min(LEAF_ROWS, trials)))
    for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        size = min(BLOCK_TRIALS, trials - start)
        yield size, _leaves(M, ranks, stream(seed, block), pairwise_leaves(size, LEAF_ROWS), buf)


def _leaves(M: int, ranks, rng, sizes, buf):
    """The gains of ``ranks`` in leaves of ``sizes`` draws, in turn from ``rng``."""
    for size in sizes:
        g = sample_gain_ranks(M, rng, size, ranks, out=buf)
        g.flags.writeable = False
        yield dict(zip(ranks, g.T))


def mc_summary(cells, trials: int, seed: int, want_pt: bool = False) -> list:
    """Underperformance estimate plus mean power-adaptation factor / energy
    for every ``(cfg, scheme)`` cell, all on the same draws.

    The cells must share M; their (m, n) may differ.  Each block is drawn
    once, a leaf at a time, with only the ranks the cells read, and each
    leaf is fed to every cell, so memory stays at one leaf of those ranks
    and one leaf-length γ buffer whatever the trial count.  With
    ``want_pt`` the contended positive-cap loss event is counted in the
    same pass (power-adaptive cells only).  Each draw spends (1 + γ) β ρ_n
    over one frame (T = 1), so ``energy_mean`` is formed from
    ``gamma_mean``; it is exactly 2 β ρ_n off HSIC-PA.  Returns one
    summary dict per cell.

    The cells are tallied along curves, on the draws whose outcome is
    not yet fixed (see ``tally``); a curve retires draws on every leaf as
    the probe of its first leaf planned (``tally.plan_curve``).  Counts
    add over the leaves, and each cell's γ sums over the leaves of a block
    are joined up that block's pairwise-sum tree, so every count and γ
    sum is that of the kernel over the whole block, as in a call on the
    cell alone.
    """
    cells = [(cfg, Scheme(scheme)) for cfg, scheme in cells]
    if not cells:
        return []
    if len({cfg.M for cfg, _ in cells}) > 1:
        raise InvalidConfigError("mc_summary cells must share M")
    tallies = [dict(hits=0, pt_hits=0, gamma_sum=0.0, leaf_sums=[]) for _ in cells]
    groups = curves([(*cell, tally) for cell, tally in zip(cells, tallies)])
    plans = [None] * len(groups)
    ranks = sorted({rank for cfg, _ in cells for rank in (cfg.m, cfg.n)})
    kernel = DrawKernel(CHUNK_ROWS)
    longest = min(LEAF_ROWS, trials)
    gamma, index = np.empty(longest), np.empty(longest, dtype=np.int32)
    for size, leaves in _rank_blocks(cells[0][0].M, ranks, trials, seed):
        for cols in leaves:
            n = cols[ranks[0]].size
            for k, curve in enumerate(groups):
                cfg = curve[0][0]
                g_m, g_n = cols[cfg.m], cols[cfg.n]
                if plans[k] is None:
                    plans[k] = plan_curve(kernel, curve, g_m, g_n)
                tally_curve(kernel, curve, plans[k], g_m, g_n, gamma[:n], index, want_pt)
        for tally in tallies:
            tally["gamma_sum"] += pairwise_join(size, LEAF_ROWS, tally["leaf_sums"])
            tally["leaf_sums"].clear()
    out = []
    for (cfg, scheme), tally in zip(cells, tallies):
        gamma_mean = tally["gamma_sum"] / trials
        summary = {"estimate": ProbEstimate.from_counts(tally["hits"], trials),
                   "gamma_mean": gamma_mean,
                   "energy_mean": (1.0 + gamma_mean) * cfg.beta * cfg.rho_n}
        if want_pt and scheme == Scheme.HSIC_PA:
            summary["pt_estimate"] = ProbEstimate.from_counts(tally["pt_hits"], trials)
        out.append(summary)
    return out


def draw_counts(cfg: SystemConfig, trials: int, seed: int) -> dict:
    """Integer counts of one pass over the draws of ``cfg``, as the
    validation suite reads them.

    Every chunk runs FSIC, HSIC-NPA and HSIC-PA, in that order, through
    one ``DrawKernel``; HSIC-PA runs last because ``split`` reads its
    buffers.  ``losses`` holds each scheme's loss count, and
    ``out_of_order`` the draws where a scheme's rate factor is below the
    one before it (the schemes' design makes this zero).  ``split``
    splits HSIC-PA's losses: type-I losses count as ``P_I`` and
    contended losses with a zero cap as ``P_II2``;
    every other losing draw goes to the cell of ``exact.contended_terms``
    whose legacy-gain interval and boundary curves contain it.  Where the
    cells tile the contended region, ``split`` sums to HSIC-PA's losses.
    """
    table = contended_terms(cfg)
    cells = [(name, *cell) for name, cell in table.items() if cell]
    split = {"P_I": 0, **dict.fromkeys(table, 0), "P_II2": 0}
    losses = dict.fromkeys(HNOMA_SCHEMES, 0)
    out_of_order = 0
    kernel = DrawKernel(CHUNK_ROWS)
    gamma, below = np.empty(CHUNK_ROWS), np.empty(CHUNK_ROWS)
    blocks = _rank_blocks(cfg.M, (cfg.m, cfg.n), trials, seed)
    for cols in (leaf for _, leaves in blocks for leaf in leaves):
        for at in _chunks(cols[cfg.m].size, None):
            g_m, g_n = cols[cfg.m][at], cols[cfg.n][at]
            prev = below[:g_m.size]
            for k, scheme in enumerate(HNOMA_SCHEMES):
                kernel.run(cfg, scheme, g_m, g_n, gamma[:g_m.size])
                losses[scheme] += int(np.count_nonzero(kernel.lose))
                if k:
                    out_of_order += int(np.count_nonzero(kernel.factor < prev))
                np.copyto(prev, kernel.factor)
            lose, over, tau = kernel.lose, kernel.over, kernel.tau
            split["P_I"] += int(np.count_nonzero(lose & ~over))
            contended = lose & over
            split["P_II2"] += int(np.count_nonzero(contended & (tau == 0.0)))
            live = contended & (tau > 0.0)
            t, y = g_m[live], g_n[live]
            for name, lower, upper, a, b in cells:
                inside = (a < t) & (t < b) & (lower(cfg, t) < y) & (y < upper(cfg, t))
                split[name] += int(np.count_nonzero(inside))
    return {"losses": losses, "out_of_order": out_of_order, "split": split}


# ---------------------------------------------------------------------------
#  Direct integration of a region against the ordered-pair density
# ---------------------------------------------------------------------------

_TAIL = 40.0        # gains beyond it are dropped (mass < e^-40)
_N_SCAN = 2049      # scan points per grid of the breakpoint search
_REL_WIDTH = 1e-13  # a breakpoint bracket closes at this width relative to |t|
# a bracket that has not halved over three steps bisects on the next, so
# its width halves at least every four steps; a scan bracket is narrower
# than its root or, on t = 0, than its range, so 44 halvings (176 steps)
# close it first
_MAX_STEPS = 200


class _ClauseCurves:
    """The bounds of many clauses, evaluated a batch of points at a time.

    Clause k's curves ``(*lower, *upper, diagonal)`` are numbered from
    ``start[k]`` on; numbers 0 and 1 are the constants -inf and +inf.
    A curve is a constant or a formula ``f(cfg, t)`` of its clause's
    config.  ``on(ids)`` is the function that gives curve ``ids[p]`` at
    ``t[p]`` with one call per formula, however many clauses there are:
    the formula runs on its configs' attributes gathered per point, which
    are the configs' own floats, so each value has the bits of
    ``f(clause.cfg, t)``; constants are gathered.
    """

    def __init__(self, clauses):
        own = [(None, (-np.inf, np.inf))] + [
            (c.cfg, (*c.lower, *c.upper, diagonal)) for c in clauses]
        self.start = np.cumsum([len(curves) for _, curves in own])[:-1]
        kind, const, cfgs = [], [], []
        formulas = {}  # formula -> its number
        for cfg, curves in own:
            for curve in curves:
                formula = curve if callable(curve) else None
                kind.append(formulas.setdefault(formula, len(formulas)))
                cfgs.append(cfg)
                const.append(np.nan if callable(curve) else curve)
        self._formulas = list(formulas)
        self._kind = np.array(kind, dtype=np.intp)
        self._const = np.array(const, dtype=float)
        # attribute ``name`` of every curve's config (0 without one)
        self._column = cache(lambda name: np.array(
            [0.0 if cfg is None else getattr(cfg, name) for cfg in cfgs]))

    def on(self, ids):
        """``t -> [curve ids[p] at t[p]]``; the grouping by formula and the
        gathered attributes are worked out once, for every call."""
        kind = self._kind[ids]
        groups = []
        for k, formula in enumerate(self._formulas):
            sel = np.flatnonzero(kind == k)
            if sel.size:
                groups.append((sel, formula, self._const[ids[sel]] if formula is None
                               else _Gathered(self._column, ids[sel])))

        def values(t):
            out = np.empty(t.size)
            for sel, formula, arg in groups:
                out[sel] = arg if formula is None else formula(arg, t[sel])
            return out
        return values


@cache
def _curve_pairs(k: int) -> tuple:
    """``np.triu_indices(k, 1)``, read-only: every pair i < j of k curves,
    in pair order."""
    pairs = np.triu_indices(k, 1)
    for side in pairs:
        side.flags.writeable = False
    return pairs


def _region_breakpoints(clauses) -> list:
    """Legacy-gain values where two boundary curves of a clause cross,
    one list per clause (empty where the clause's range below the tail
    bound is empty).

    Every support edge or kink of a clause integrand sits at a crossing
    between two members of {lower curves, upper curves, diagonal};
    locating them keeps the outer quadrature from stepping over narrow
    features.  Each clause's range is scanned on a linear grid (plus a
    geometric one over wide ranges), each clause's curves on its own
    grid.  Every sign flip of every curve pair of a clause is bracketed,
    in pair order then by t, and all brackets of all clauses are closed
    together by Illinois steps (Dowell & Jarratt, BIT 11, 1971): a secant
    point, with the value at an end kept twice in a row halved, and a
    bisection for a bracket that has not halved over its last three
    steps, each step one evaluation of every curve formula at once for
    all brackets.  Trial points stay
    ``0.4 * _REL_WIDTH`` (relative) inside the bracket, so a root on a
    bracket end closes in one step.  A bracket stops at a width of
    ``_REL_WIDTH`` relative to its larger end (to its clause's scan range
    if it starts at t = 0, where a root may be 0), or at adjacent floats,
    and gives its midpoint.  Brackets evolve independently, so one search
    over the clauses of a whole sweep gives exactly what searching each
    clause alone gives.
    """
    curves = _ClauseCurves(clauses)
    first, second, owner, lo, hi, f_lo, f_hi, span = [], [], [], [], [], [], [], []
    for k, clause in enumerate(clauses):
        t_hi = min(clause.t_hi, _TAIL)
        if not t_hi > clause.t_lo:
            continue
        grid = np.linspace(clause.t_lo, t_hi, _N_SCAN)
        if clause.t_lo > 0 and t_hi / clause.t_lo > 100.0:
            # repeats add no sign flip, and np.union1d would import numpy.ma
            grid = np.sort(np.concatenate(
                [grid, np.geomspace(clause.t_lo, t_hi, _N_SCAN)]))
        own = (*clause.lower, *clause.upper, diagonal)
        scan = np.empty((len(own), grid.size))
        for row, c in zip(scan, own):
            row[:] = c(clause.cfg, grid) if callable(c) else c
        np.clip(scan, -1e300, 1e300, out=scan)  # finite values only
        # every curve pair i < j at once, in pair order
        i, j = _curve_pairs(len(own))
        d = scan[i] - scan[j]
        pair, at = np.divmod(np.flatnonzero(np.diff(np.signbit(d), axis=1)),
                             grid.size - 1)
        first.append(curves.start[k] + i[pair])
        second.append(curves.start[k] + j[pair])
        owner.append(np.full(pair.size, k))
        lo.append(grid[at])
        hi.append(grid[at + 1])
        f_lo.append(d[pair, at])
        f_hi.append(d[pair, at + 1])
        span.append(np.where(grid[at] == 0.0, t_hi - clause.t_lo, 0.0))
    if not first:
        return [[] for _ in clauses]
    first, second, owner, lo, hi, f_lo, f_hi, span = map(
        np.concatenate, (first, second, owner, lo, hi, f_lo, f_hi, span))
    # a bracket's lower end keeps the sign it starts with
    neg_lo = f_lo < 0
    last = np.zeros(lo.size, dtype=np.int8)   # +1: lo moved last, -1: hi
    # the widths one, two and three steps back
    width_1 = width_2 = width_3 = np.full(lo.size, np.inf)
    values = curves.on(np.concatenate([first, second]))
    for _ in range(_MAX_STEPS):
        big = np.maximum(np.abs(lo), np.abs(hi))
        width = hi - lo
        live = (width > _REL_WIDTH * np.maximum(big, span)) & (hi > np.nextafter(lo, np.inf))
        if not live.any():
            break
        # every bracket takes a step and a closed one keeps its old state,
        # so the curves are grouped and gathered once for the whole search
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = hi - f_hi * width / (f_hi - f_lo)
        x = np.where(np.isfinite(x) & (width <= 0.5 * width_3), x, mid)
        width_1, width_2, width_3 = width, width_1, width_2
        margin = 0.4 * _REL_WIDTH * big
        x = np.minimum(np.maximum(x, lo + margin), hi - margin)
        at_x = np.clip(values(np.concatenate([x, x])), -1e300, 1e300)
        fx = at_x[:lo.size] - at_x[lo.size:]
        to_lo = (fx < 0) == neg_lo
        move_lo, move_hi = live & to_lo, live & ~to_lo
        # Illinois: halve the value at an end kept twice in a row
        f_lo = np.where(move_lo, fx, np.where(move_hi & (last == -1), 0.5 * f_lo, f_lo))
        f_hi = np.where(move_hi, fx, np.where(move_lo & (last == 1), 0.5 * f_hi, f_hi))
        lo = np.where(move_lo, x, lo)
        hi = np.where(move_hi, x, hi)
        last = np.where(move_lo, 1, np.where(move_hi, -1, last))
    found = 0.5 * (lo + hi)
    order = np.argsort(owner, kind="stable")
    cuts = np.cumsum(np.bincount(owner, minlength=len(clauses)))[:-1]
    return [list(x) for x in np.split(found[order], cuts)]


def integrate_events(regions, pair: OrderPairDensity, abs_tol: float = 1e-7) -> list:
    """Probability mass of each region under one ordered-pair density: a
    ``ProbEstimate``, or the ``IntegrationFailureError`` of a region whose
    integral did not converge.

    The opportunistic-gain section of every clause is an interval, so its
    mass comes from the pair density's interval-mass functions
    (Gauss-Legendre in v = e^-y); the remaining 1-D integral over the
    legacy gain is done by adaptive bisection between the curve-crossing
    breakpoints.  All regions share one ``_region_breakpoints`` search
    and one ``adaptive_integrate`` pass over every segment of every
    clause; a segment is integrated as if alone, to the tolerance
    ``abs_tol`` shared out over its region's clauses and its clause's
    segments, so each result is that of its region integrated alone.
    Gains beyond 40 are dropped (mass < e^-40).
    """
    mass = mass_upper_interval if pair.m < pair.n else mass_lower_interval
    clauses = [clause for region in regions for clause in region.clauses]
    breakpoints = iter(_region_breakpoints(clauses))
    a, b, tol, seg_clause, n_segs = [], [], [], [], []
    for region in regions:
        for clause in region.clauses:
            points = next(breakpoints)
            t_hi = min(clause.t_hi, _TAIL)
            n_segs.append(0)
            if not t_hi > clause.t_lo:
                continue
            edges = [clause.t_lo, t_hi]
            edges += [x for x in points if clause.t_lo < x < t_hi]
            edges = sorted(set(edges))
            n_segs[-1] = len(edges) - 1
            a += edges[:-1]
            b += edges[1:]
            tol += [abs_tol / (len(region.clauses) * n_segs[-1])] * n_segs[-1]
            seg_clause += [len(n_segs) - 1] * n_segs[-1]
    seg_clause = np.array(seg_clause, dtype=np.intp)

    # row r of bound_ids holds every clause's r-th lower bound (-inf where
    # it has fewer), then come the rows of its upper ones (+inf)
    curves = _ClauseCurves(clauses)
    n_lower = np.array([len(clause.lower) for clause in clauses], dtype=np.intp)
    n_upper = np.array([len(clause.upper) for clause in clauses], dtype=np.intp)
    r = np.arange(n_lower.max(initial=0))[:, None]
    lower_ids = np.where(r < n_lower, curves.start + r, 0)
    r = np.arange(n_upper.max(initial=0))[:, None]
    bound_ids = np.vstack([lower_ids, np.where(r < n_upper, curves.start + n_lower + r, 1)])
    t_lo = np.array([clause.t_lo for clause in clauses])
    t_top = np.array([clause.t_hi for clause in clauses])
    # on the closed interval: the clause is inactive at t == t_lo, which
    # would put a false jump at every segment starting there
    t_start = np.nextafter(t_lo, np.inf)

    def integrand(x, s):
        k = seg_clause[s]
        t = np.maximum(x, t_start[k])
        bounds = curves.on(bound_ids[:, k].ravel())(np.tile(t, len(bound_ids)))
        bounds = bounds.reshape(len(bound_ids), t.size)
        lo = np.zeros(t.size)
        for row in bounds[:len(lower_ids)]:
            lo = np.maximum(lo, row)
        hi = np.full(t.size, np.inf)
        for row in bounds[len(lower_ids):]:
            hi = np.minimum(hi, row)
        active = (t > t_lo[k]) & (t <= t_top[k])
        return np.where(active, mass(pair, t, lo, np.minimum(hi, _TAIL)), 0.0)

    values, errs, oks = adaptive_integrate(integrand, np.array(a), np.array(b), np.array(tol))
    values, errs, oks = values.tolist(), errs.tolist(), oks.tolist()
    out = []
    counts = iter(n_segs)
    seg = 0
    for region in regions:
        total, err, ok = 0.0, 0.0, True
        for _ in region.clauses:
            n = next(counts)
            v_sum, e_sum = 0.0, 0.0
            for v, e in zip(values[seg:seg + n], errs[seg:seg + n]):  # left to right
                v_sum += v
                e_sum += e
            total += v_sum
            err += e_sum
            ok = ok and all(oks[seg:seg + n])
            seg += n
        if ok:
            out.append(ProbEstimate(value=min(1.0, max(0.0, total)), trials=0,
                                    std_err=err, method=NUMERIC))
        else:
            out.append(IntegrationFailureError(
                f"integration did not converge: value={total!r}, err={err!r}"))
    return out


def integrate_event(region: EventRegion, pair: OrderPairDensity,
                    abs_tol: float = 1e-7) -> ProbEstimate:
    """Probability mass of ``region`` under the ordered-pair density: the
    one-region case of ``integrate_events``, raising its
    ``IntegrationFailureError``."""
    return raised(*integrate_events([region], pair, abs_tol))


def integrate_underperformance(cfg: SystemConfig, scheme: Scheme) -> ProbEstimate:
    """Deterministic counterpart of the underperformance estimate of
    ``mc_summary``; raises ``IntegrationFailureError`` if it does not converge."""
    pair = OrderPairDensity(cfg.M, cfg.m, cfg.n)
    return integrate_event(region_underperformance(cfg, scheme), pair)
