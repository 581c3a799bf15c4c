"""Shared numeric kernels: quadrature and RNG streams."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import InvalidConfigError


class IntegrationFailureError(RuntimeError):
    """Adaptive integration did not converge; the message gives the partial
    value and its error estimate."""


# what fails one row of a sweep, as error:<name>, rather than the sweep
ROW_ERRORS = (InvalidConfigError, ArithmeticError, IntegrationFailureError)


# ---------------------------------------------------------------------------
#  Chebyshev-node quadrature
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def fejer1_weights(n_c: int):
    """Exact interpolatory weights for the first-kind Chebyshev nodes."""
    i = np.arange(1, n_c + 1)
    theta = (2 * i - 1) * np.pi / (2 * n_c)
    k = np.arange(1, n_c // 2 + 1)
    w = 1.0 - 2.0 * np.sum(np.cos(2.0 * np.outer(theta, k))
                           / (4.0 * k * k - 1.0), axis=1)
    return np.cos(theta), (2.0 / n_c) * w


# ---------------------------------------------------------------------------
#  Adaptive 1-D integration
# ---------------------------------------------------------------------------

def _simpson(a, b, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


# panels per segment, and bisections below a panel
PANELS = 8
MAX_DEPTH = 40


def adaptive_integrate(f, a, b, abs_tol):
    """Tolerance-driven bisection (adaptive Simpson) over [a, b].

    Handles kinks and jump discontinuities by localizing them through
    repeated bisection.  ``[a, b]`` is cut into ``PANELS`` panels,
    each with its width's share of ``abs_tol``.  An interval is accepted
    once its error estimate ``(left + right - whole) / 15`` is within its
    tolerance (or the roundoff floor of its value), else both halves are
    refined with half the tolerance, down to ``MAX_DEPTH`` splits.  No
    interval is accepted at the first level, since one estimate from a
    panel's five points is blind to a feature between them.

    The refinement runs level by level: all pending intervals are split
    at once and the level's new points go to one call ``f(x, k)``, which
    takes the 1-D array of points and the index of the segment each one
    belongs to, and returns the values.  Accepted values are added back
    up the bisection tree as ``left + right``, as a depth-first recursion
    would.

    ``a`` and ``b`` are 1-D arrays, one entry per segment, and
    ``abs_tol`` is one such array or a scalar; each segment is integrated
    as if alone, with its own panels and tolerance.  Returns arrays
    ``(value, err_estimate, converged)``; an empty segment (b <= a) gives
    ``(0, 0, True)``.
    """
    a, b, abs_tol = np.broadcast_arrays(np.asarray(a, dtype=float),
                                        np.asarray(b, dtype=float),
                                        np.asarray(abs_tol, dtype=float))
    value = np.zeros(a.shape)
    err = np.zeros(a.shape)
    live = np.flatnonzero(b > a)
    if live.size:
        value[live], err[live] = _integrate_panels(
            lambda x, k: f(x, live[k]), a[live], b[live], abs_tol[live])
    return value, err, err <= abs_tol


def _integrate_panels(f, a, b, abs_tol):
    """Per-segment (value, err) sums of the panels of segments [a_k, b_k]."""
    edges = np.linspace(a, b, PANELS + 1, axis=1)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    mid = 0.5 * (lo + hi)
    seg = np.repeat(np.arange(a.size), PANELS)  # segment of each interval
    f_edges = f(np.concatenate([edges.ravel(), mid]),
                np.concatenate([np.repeat(np.arange(a.size), PANELS + 1), seg]))
    f_grid = f_edges[:edges.size].reshape(edges.shape)
    fa, fb, fm = f_grid[:, :-1].ravel(), f_grid[:, 1:].ravel(), f_edges[edges.size:]
    whole = _simpson(lo, hi, fa, fm, fb)
    tol = np.repeat(abs_tol, PANELS) * (hi - lo) / np.repeat(b - a, PANELS)
    levels = []          # (value, err, split) of every level, top first
    depth = MAX_DEPTH
    while lo.size:
        m = 0.5 * (lo + hi)
        quarter = f(np.concatenate([0.5 * (lo + m), 0.5 * (m + hi)]),
                    np.concatenate([seg, seg]))
        flm, frm = quarter[:lo.size], quarter[lo.size:]
        left = _simpson(lo, m, fa, flm, fm)
        right = _simpson(m, hi, fm, frm, fb)
        est = (left + right - whole) / 15.0
        if depth <= 0:
            done = np.ones(lo.shape, dtype=bool)
        elif not levels:
            done = np.zeros(lo.shape, dtype=bool)
        else:
            # never chase below the roundoff floor of the local value
            floor = 5e-16 * (np.abs(left) + np.abs(right))
            done = np.abs(est) <= np.maximum(tol, floor)
        split = ~done
        levels.append((np.where(done, left + right + est, 0.0),
                       np.where(done, np.abs(est), 0.0), split))
        # the halves of pending interval k sit at 2k (left) and 2k + 1 (right)
        pending = np.flatnonzero(split)

        def pair(x, y):
            out = np.empty(2 * pending.size, dtype=x.dtype)
            out[0::2] = x[pending]
            out[1::2] = y[pending]
            return out
        lo, hi = pair(lo, m), pair(m, hi)
        fa, fm, fb = pair(fa, fm), pair(flm, frm), pair(fm, fb)
        whole, tol = pair(left, right), pair(0.5 * tol, 0.5 * tol)
        seg = pair(seg, seg)
        depth -= 1
    for k in range(len(levels) - 2, -1, -1):  # the last level splits nothing
        value, err, split = levels[k]
        below_v, below_e, _ = levels[k + 1]
        value[split] = below_v[0::2] + below_v[1::2]
        err[split] = below_e[0::2] + below_e[1::2]
    panel_v = levels[0][0].reshape(a.size, PANELS)
    panel_e = levels[0][1].reshape(a.size, PANELS)
    total = np.zeros(a.size)
    err_total = np.zeros(a.size)
    for k in range(PANELS):  # panel by panel, left to right
        total = total + panel_v[:, k]
        err_total = err_total + panel_e[:, k]
    return total, err_total


# ---------------------------------------------------------------------------
#  Deterministic RNG streams
# ---------------------------------------------------------------------------

def stream(seed: int, block: int = 0) -> np.random.Generator:
    """Counter-based substream for one trial block.

    Distinct ``(seed, block)`` pairs give independent, reproducible
    sequences regardless of how many workers consume them; streams are
    cheap to reconstruct, so ship the pair rather than the generator.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
#  numpy's pairwise summation, one leaf at a time
# ---------------------------------------------------------------------------

# numpy sums up to this many values in one unrolled loop (PW_BLOCKSIZE)
_PAIRWISE_BLOCK = 128


def _pairwise_split(n: int) -> int:
    """Where numpy's pairwise sum cuts n > 128 values: n/2 rounded down to
    a multiple of its unroll factor 8."""
    half = n // 2
    return half - half % 8


def pairwise_leaves(n: int, bound: int) -> list:
    """The lengths, left to right, of the leaves of numpy's pairwise-sum
    tree over n values cut at ``bound``: the nodes at most ``bound`` long
    whose parent is longer.

    ``np.sum`` of a contiguous float64 array adds 0.0 to the root of a
    tree that cuts n > 128 values at ``n//2 - (n//2) % 8`` and sums up to
    128 in one loop (Higham, SIAM J. Sci. Comput. 14, 1993).  With
    ``bound >= 128`` every node above a leaf is cut, so ``np.sum`` of each
    leaf is that node's sum and ``pairwise_join`` rebuilds the root.
    """
    if bound < _PAIRWISE_BLOCK:
        raise ValueError(f"bound={bound} must be >= {_PAIRWISE_BLOCK}")
    if n <= bound:
        return [n]
    half = _pairwise_split(n)
    return pairwise_leaves(half, bound) + pairwise_leaves(n - half, bound)


def pairwise_join(n: int, bound: int, sums) -> float:
    """``np.sum`` of n float64 values, bit for bit, from ``sums``: the
    ``np.sum`` of each leaf of ``pairwise_leaves(n, bound)``, in order."""
    sums = iter(sums)

    def node(n):
        if n <= bound:
            return next(sums)
        half = _pairwise_split(n)
        return node(half) + node(n - half)
    # np.sum starts from 0.0: a leaf's sum is 0.0 + its node's, the whole
    # sum 0.0 + the root's, and those differ only in the sign of a zero
    return 0.0 + node(n)
