"""Monte Carlo estimators and direct numeric integration of event regions."""

from __future__ import annotations

import numpy as np

from .channel import (CHUNK_ROWS, OrderPairDensity, mass_lower_interval,
                      mass_upper_interval, sample_gain_matrix)
from .config import InvalidConfigError, SystemConfig
from .estimates import NUMERIC, ProbEstimate
from .exact import compute_constants, contended_terms
from .numerics import IntegrationFailureError, adaptive_integrate, stream
from .regions import EventRegion, region_underperformance
from .schemes import (HNOMA_SCHEMES, DrawKernel, Scheme, energy_array,
                      rate_factors)

BLOCK_TRIALS = 1_000_000

# the most recent block, {(M, seed, block, size): read-only (size, M) gains};
# a figure's curves share M, seed and trials, so they all reuse one draw
_kept = {}


def _pair_blocks(cfg: SystemConfig, trials: int, seed: int):
    """Contiguous copies of the (g_m, g_n) gain columns of every block.

    The only place gains are drawn.  Trials split into blocks of
    ``BLOCK_TRIALS`` (the last one partial) and block b always comes from
    ``stream(seed, b)``, so every consumer sees the same draws.  The
    process keeps its last sorted block (8*M*BLOCK_TRIALS bytes) and hands
    it out again to the next pass that asks for the same block.
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
        yield g[:, cfg.m - 1].copy(), g[:, cfg.n - 1].copy()


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
    (power-adaptive cells only).  Returns one summary dict per cell.
    """
    cells = [(cfg, Scheme(scheme)) for cfg, scheme in cells]
    if not cells:
        return []
    if len({(cfg.M, cfg.m, cfg.n) for cfg, _ in cells}) > 1:
        raise InvalidConfigError("mc_summary cells must share (M, m, n)")
    tallies = [dict(hits=0, pt_hits=0, gamma_sum=0.0, energy_sum=0.0)
               for _ in cells]
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
            tally["energy_sum"] += float(energy_array(cfg, scheme, gamma).sum())
    out = []
    for (_, scheme), tally in zip(cells, tallies):
        summary = {
            "estimate": ProbEstimate.from_counts(tally["hits"], trials),
            "gamma_mean": tally["gamma_sum"] / trials,
            "energy_mean": tally["energy_sum"] / trials,
        }
        if want_pt and scheme == Scheme.HSIC_PA:
            summary["pt_estimate"] = ProbEstimate.from_counts(tally["pt_hits"], trials)
        out.append(summary)
    return out


def estimate_probability(cfg: SystemConfig, scheme: Scheme, trials: int,
                         seed: int) -> ProbEstimate:
    """Fraction of draws where the scheme fails to beat pure OMA."""
    return mc_summary([(cfg, scheme)], trials, seed)[0]["estimate"]


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


def estimate_pt(cfg: SystemConfig, trials: int, seed: int) -> ProbEstimate:
    """MC estimate of the contended positive-cap loss event alone."""
    return mc_summary([(cfg, Scheme.HSIC_PA)], trials, seed,
                      want_pt=True)[0]["pt_estimate"]


# ---------------------------------------------------------------------------
#  Direct integration of a region against the ordered-pair density
# ---------------------------------------------------------------------------

_TAIL = 40.0        # gains beyond it are dropped (mass < e^-40)
_MAX_DEPTH = 40     # bisection levels of the adaptive rule
_N_SCAN = 2049      # scan points per grid of the breakpoint search


def _curve_breakpoints(clause, t_lo, t_hi):
    """Legacy-gain values where any two boundary curves of a clause cross.

    Every support edge or kink of the clause integrand sits at a crossing
    between two members of {lower curves, upper curves, diagonal};
    locating them keeps the outer quadrature from stepping over narrow
    features.  Scan plus bisection, no closed forms: every sign
    flip of every curve pair is bisected at once, each step evaluating
    each curve once on the vector of midpoints, for 80 steps or until a
    step moves no bracket.
    """
    grids = [np.linspace(t_lo, t_hi, _N_SCAN)]
    if t_lo > 0 and t_hi / t_lo > 100.0:
        grids.append(np.geomspace(t_lo, t_hi, _N_SCAN))
    elif t_lo == 0 and t_hi > 100.0:
        grids.append(np.geomspace(t_hi * 1e-9, t_hi, _N_SCAN))
    ts = np.unique(np.concatenate(grids))
    curves = list(clause.lower) + list(clause.upper)
    funcs = [c if callable(c) else (lambda t, v=c: np.full_like(t, v)) for c in curves]
    funcs.append(lambda t: t)  # ordered-wedge diagonal
    vals = [np.clip(np.asarray(f(ts), dtype=float), -1e300, 1e300) for f in funcs]
    first, second, lo_idx = [], [], []
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            flips = np.nonzero(np.diff(np.signbit(vals[i] - vals[j])))[0]
            first += [i] * flips.size
            second += [j] * flips.size
            lo_idx.append(flips)
    if not first:
        return []
    first, second = np.array(first), np.array(second)
    idx = np.concatenate(lo_idx)
    lo, hi = ts[idx], ts[idx + 1]
    vals = np.stack(vals)
    # a bracket's lower end keeps the sign it starts with
    neg_lo = vals[first, idx] - vals[second, idx] < 0
    at_mid = np.empty((len(funcs), idx.size))
    cols = np.arange(idx.size)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        for row, f in zip(at_mid, funcs):
            row[:] = f(mid)
        same = (at_mid[first, cols] - at_mid[second, cols] < 0) == neg_lo
        if np.array_equal(mid, np.where(same, lo, hi)):
            break  # no bracket moves again
        np.copyto(lo, mid, where=same)
        np.copyto(hi, mid, where=~same)
    return list(0.5 * (lo + hi))


def integrate_event(region: EventRegion, pair: OrderPairDensity,
                    abs_tol: float = 1e-7) -> ProbEstimate:
    """Probability mass of ``region`` under the ordered-pair density.

    The opportunistic-gain section of every clause is an interval, so its
    mass is summed in closed form from the density's exponential mixture;
    the remaining 1-D integral over the legacy gain is done by adaptive
    bisection between the curve-crossing breakpoints, all segments of a
    clause refined together.  Gains beyond 40 are dropped (mass < e^-40).
    """
    mass = mass_upper_interval if pair.m < pair.n else mass_lower_interval

    def clause_mass(clause):
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
        edges += [x for x in _curve_breakpoints(clause, clause.t_lo, t_hi)
                  if clause.t_lo < x < t_hi]
        edges = np.array(sorted(set(edges)))
        tol_each = abs_tol / (max(len(region.clauses), 1) * max(edges.size - 1, 1))
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
    for clause in region.clauses:
        v, e, good = clause_mass(clause)
        total += v
        err += e
        ok = ok and good
    if not ok:
        raise IntegrationFailureError(total, err)
    total = min(1.0, max(0.0, total))
    return ProbEstimate(value=total, trials=0, std_err=err, method=NUMERIC)


def integrate_underperformance(cfg: SystemConfig, scheme: Scheme) -> ProbEstimate:
    """Deterministic counterpart of ``estimate_probability``."""
    pair = OrderPairDensity(cfg.M, cfg.m, cfg.n)
    return integrate_event(region_underperformance(cfg, scheme), pair)
