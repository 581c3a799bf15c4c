"""Monte Carlo estimators and direct numeric integration of event regions."""

from __future__ import annotations

from functools import lru_cache, partial

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


def _wedge(t):
    """The edge of the ordered wedge, g_n = t."""
    return t


class _Gathered:
    """Config attributes per point: ``view.name[p]`` is ``name`` of the
    config of curve ``ids[p]``."""

    def __init__(self, curves, ids):
        self._curves, self._ids = curves, ids

    def __getattr__(self, name):
        value = self._curves.column(name)[self._ids]
        setattr(self, name, value)  # later reads skip the gather
        return value


class _ClauseCurves:
    """The bounds of many clauses, evaluated a batch of points at a time.

    Clause k's curves ``(*lower, *upper, wedge edge)`` are numbered from
    ``start[k]`` on; numbers 0 and 1 are the constants -inf and +inf.
    ``on(ids)`` is the function that gives curve ``ids[p]`` at ``t[p]``
    with one call per formula, however many clauses there are: a curve
    ``partial(f, cfg)`` runs ``f`` on its configs' attributes gathered per
    point, which are the configs' own floats, so each value has the bits
    of ``f(cfg, t)``; any other callable runs on its own points;
    constants are gathered.
    """

    def __init__(self, clauses):
        own = [(-np.inf, np.inf)] + [(*c.lower, *c.upper, _wedge) for c in clauses]
        self.start = np.cumsum([len(curves) for curves in own])[:-1]
        self._formulas, self._cfgs = [], []
        kind, const = [], []
        formulas = {}  # formula -> its number
        for curve in (c for curves in own for c in curves):
            gathered = isinstance(curve, partial)
            formula = curve.func if gathered else curve if callable(curve) else None
            if formula not in formulas:
                formulas[formula] = len(self._formulas)
                self._formulas.append((formula, gathered))
            kind.append(formulas[formula])
            self._cfgs.append(curve.args[0] if gathered else None)
            const.append(np.nan if callable(curve) else curve)
        self._kind = np.array(kind, dtype=np.intp)
        self._const = np.array(const, dtype=float)
        self._columns = {}

    def column(self, name):
        """Attribute ``name`` of every curve's config (0 for other curves)."""
        if name not in self._columns:
            self._columns[name] = np.array(
                [0.0 if cfg is None else getattr(cfg, name) for cfg in self._cfgs])
        return self._columns[name]

    def on(self, ids):
        """``t -> [curve ids[p] at t[p]]``; the grouping by formula and the
        gathered attributes are worked out once, for every call."""
        kind = self._kind[ids]
        groups = []
        for k, (formula, gathered) in enumerate(self._formulas):
            sel = np.flatnonzero(kind == k)
            if not sel.size:
                continue
            if formula is None:
                groups.append((sel, lambda t, c=self._const[ids[sel]]: c))
            elif gathered:
                groups.append((sel, partial(formula, _Gathered(self, ids[sel]))))
            else:
                groups.append((sel, formula))

        def values(t):
            out = np.empty(t.size)
            for sel, curve in groups:
                out[sel] = curve(t[sel])
            return out
        return values


@lru_cache(maxsize=None)
def _pairs(n: int):
    """Index arrays ``(i, j)`` of every pair i < j of n curves, in order."""
    return np.triu_indices(n, 1)


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
    bisection every third step, each step one evaluation of every curve
    formula at once for all brackets.  Trial points stay
    ``0.4 * _REL_WIDTH`` (relative) inside the bracket, so a root on a
    bracket end closes in one step.  A bracket stops at a width of
    ``_REL_WIDTH`` relative to its larger end, or at adjacent floats, and
    gives its midpoint.  Brackets evolve independently, so one search over
    the clauses of a whole sweep gives exactly what searching each clause
    alone gives.
    """
    curves = _ClauseCurves(clauses)
    first, second, owner, lo, hi, f_lo, f_hi = [], [], [], [], [], [], []
    for k, clause in enumerate(clauses):
        t_hi = min(clause.t_hi, _TAIL)
        if not t_hi > clause.t_lo:
            continue
        grid = np.linspace(clause.t_lo, t_hi, _N_SCAN)
        if clause.t_lo > 0 and t_hi / clause.t_lo > 100.0:
            grid = np.union1d(grid, np.geomspace(clause.t_lo, t_hi, _N_SCAN))
        own = (*clause.lower, *clause.upper, _wedge)
        scan = np.empty((len(own), grid.size))
        for row, c in zip(scan, own):
            row[:] = c(grid) if callable(c) else c
        np.clip(scan, -1e300, 1e300, out=scan)  # finite values only
        # every curve pair at once, in pair order
        i, j = _pairs(len(own))
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
    if not first:
        return [[] for _ in clauses]
    first, second, owner, lo, hi, f_lo, f_hi = map(
        np.concatenate, (first, second, owner, lo, hi, f_lo, f_hi))
    # a bracket's lower end keeps the sign it starts with
    neg_lo = f_lo < 0
    last = np.zeros(lo.size, dtype=np.int8)   # +1: lo moved last, -1: hi
    values = curves.on(np.concatenate([first, second]))
    for step in range(_MAX_STEPS):
        big = np.maximum(np.abs(lo), np.abs(hi))
        live = (hi - lo > _REL_WIDTH * big) & (hi > np.nextafter(lo, np.inf))
        if not live.any():
            break
        # every bracket takes a step and a closed one keeps its old state,
        # so the curves are grouped and gathered once for the whole search
        mid = 0.5 * (lo + hi)
        if step % 3 == 2:
            x = mid
        else:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            x = np.where(np.isfinite(x), x, mid)
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

    values, errs, oks = adaptive_integrate(integrand, np.array(a), np.array(b),
                                           abs_tol=np.array(tol), max_depth=_MAX_DEPTH,
                                           initial_panels=8)
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
    (out,) = integrate_events([region], pair, abs_tol)
    if isinstance(out, IntegrationFailureError):
        raise out
    return out


def integrate_underperformance(cfg: SystemConfig, scheme: Scheme) -> ProbEstimate:
    """Deterministic counterpart of the underperformance estimate of
    ``mc_summary``; raises ``IntegrationFailureError`` if it does not converge."""
    pair = OrderPairDensity(cfg.M, cfg.m, cfg.n)
    return integrate_event(region_underperformance(cfg, scheme), pair)
