"""Ordered Rayleigh-power channel gains: sampling and pair densities.

Gains are squared magnitudes of unit-variance Rayleigh fades, i.e. i.i.d.
unit-mean exponentials, indexed 1..M in ascending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import check_ranks

# rows per chunk of the array kernels: a chunk's working set fits in L2
CHUNK_ROWS = 16_384


@lru_cache(maxsize=None)
def _comparators(M: int) -> tuple:
    """Batcher's odd-even merge sorting network on M keys, as ``(i, j)``
    pairs with i < j applied in order (Knuth, TAOCP vol. 3, 5.2.2
    Algorithm M and 5.3.4); 9 comparators at M = 5."""
    out = []
    t = (M - 1).bit_length()
    p = 1 << t >> 1
    while p:
        q, r, d = 1 << t >> 1, 0, p
        while True:
            out += [(i, i + d) for i in range(M - d) if i & p == r]
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return tuple(out)


def _sort_columns(cols: np.ndarray, low: np.ndarray) -> None:
    """Sort every column of the (M, n) array ``cols`` ascending, in place;
    ``low`` is scratch of at least n floats."""
    low = low[:cols.shape[1]]
    for i, j in _comparators(cols.shape[0]):
        np.minimum(cols[i], cols[j], out=low)
        np.maximum(cols[i], cols[j], out=cols[j])
        np.copyto(cols[i], low)


def sample_gain_matrix(M: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, M) array of ascending ordered gains: ``sample_gain_ranks`` of all."""
    return sample_gain_ranks(M, rng, size, range(1, M + 1))


def sample_gain_ranks(M: int, rng: np.random.Generator, size: int, ranks,
                      out=None) -> np.ndarray:
    """Vectorized sampler: (size, len(ranks)) array whose column k holds
    the gains of rank ``ranks[k]`` (1-based) of M ascending ordered gains.

    The array is column-major, so the gains of one rank are contiguous.
    It is filled ``CHUNK_ROWS`` draws at a time in the generator's order,
    each chunk kept in cache through draw, transform, a sorting network
    of all M gains and the copy of its ranks.  The result equals those
    columns of one ``rng.random((size, M))``, transformed and row-sorted,
    and leaves ``rng`` where that call would, so consecutive calls on one
    generator give the rows of one call over their total size.  With
    ``out``, a C-ordered (len(ranks), >= size) array, the result is a view
    of its first ``size`` columns.
    """
    rows_of = [r - 1 for r in ranks]
    every = rows_of == list(range(M))  # then each chunk sorts in place
    g = np.empty((len(rows_of), size)) if out is None else out[:, :size]
    buf = np.empty((CHUNK_ROWS, M))
    low = np.empty(CHUNK_ROWS)
    sorted_chunk = None if every else np.empty((M, CHUNK_ROWS))
    for start in range(0, size, CHUNK_ROWS):
        rows = buf[:size - start]
        rng.random(out=rows)
        np.negative(rows, out=rows)
        np.log1p(rows, out=rows)
        np.negative(rows, out=rows)
        dest = g[:, start:start + CHUNK_ROWS]
        cols = dest if every else sorted_chunk[:, :rows.shape[0]]
        np.copyto(cols, rows.T)
        _sort_columns(cols, low)
        if not every:
            np.take(cols, rows_of, axis=0, out=dest)
    return g.T


@dataclass(frozen=True)
class OrderPairDensity:
    """Joint density of the (m, n)-th ascending order statistics.

    Written in (x, y): x is the smaller of the two gains (rank min(m, n))
    and y the larger (rank max(m, n)).
    """

    M: int
    m: int
    n: int

    def __post_init__(self):
        check_ranks(self.M, self.m, self.n)

    @property
    def lo_rank(self) -> int:
        return min(self.m, self.n)

    @property
    def hi_rank(self) -> int:
        return max(self.m, self.n)

    @cached_property
    def prefactor(self) -> float:
        i, j = self.lo_rank, self.hi_rank
        return math.factorial(self.M) / (
            math.factorial(i - 1) * math.factorial(j - i - 1) * math.factorial(self.M - j)
        )


@lru_cache(maxsize=64)
def _leggauss(n_pts: int):
    return np.polynomial.legendre.leggauss(n_pts)


def mass_upper_interval(pair: OrderPairDensity, x, lo, hi):
    """Integral of the pair density over the larger gain in (lo, hi).

    The smaller gain is fixed at ``x``; the interval is clipped to the
    ordered wedge (larger gain > x).  Substituting v = exp(-y) makes the
    integrand a polynomial of degree M - lo_rank - 1, integrated exactly
    by Gauss-Legendre; every factor is formed cancellation-free, so the
    result keeps full relative precision even for masses ~1e-300.
    """
    x, lo, hi = map(lambda v: np.asarray(v, dtype=float),
                    np.broadcast_arrays(x, lo, hi))
    i, j, M = pair.lo_rank, pair.hi_rank, pair.M
    lo = np.maximum(lo, x)
    ok = (hi > lo) & (x >= 0)
    lo_s = np.where(ok, lo, 0.0)
    hi_s = np.where(ok, hi, 1.0)
    x_s = np.where(ok, x, 0.0)
    e_lo = np.exp(-lo_s)
    width = -e_lo * np.expm1(-(hi_s - lo_s))          # exp(-lo) - exp(-hi)
    head_gap = -np.exp(-x_s) * np.expm1(-(lo_s - x_s))  # exp(-x) - exp(-lo)
    nodes, wts = _leggauss((M - i + 1) // 2 + 1)
    acc = 0.0
    for xi, wt in zip(nodes, wts):
        frac = 0.5 * (1.0 - xi)
        gap = head_gap + frac * width                 # exp(-x) - v
        v = e_lo - frac * width                       # v = exp(-y)
        acc = acc + wt * gap ** (j - i - 1) * v ** (M - j)
    inner = 0.5 * width * acc
    out = (pair.prefactor * (-np.expm1(-x_s)) ** (i - 1) * np.exp(-x_s) * inner)
    out = np.where(ok, out, 0.0)
    return out if out.ndim else float(out)


def mass_lower_interval(pair: OrderPairDensity, y, lo, hi):
    """Integral of the pair density over the smaller gain in (lo, hi).

    The larger gain is fixed at ``y``; counterpart of
    ``mass_upper_interval`` with the same exactness and stability.
    """
    y, lo, hi = map(lambda v: np.asarray(v, dtype=float),
                    np.broadcast_arrays(y, lo, hi))
    i, j, M = pair.lo_rank, pair.hi_rank, pair.M
    lo = np.maximum(lo, 0.0)
    hi = np.minimum(hi, y)
    ok = (hi > lo) & (y >= 0)
    lo_s = np.where(ok, lo, 0.0)
    hi_s = np.where(ok, hi, 1.0)
    y_s = np.where(ok, np.maximum(y, hi_s), 1.0)
    e_hi = np.exp(-hi_s)
    width = -np.exp(-lo_s) * np.expm1(-(hi_s - lo_s))  # exp(-lo) - exp(-hi)
    tail_gap = -e_hi * np.expm1(-(y_s - hi_s))         # exp(-hi) - exp(-y)
    one_m_elo = -np.expm1(-lo_s)                       # 1 - exp(-lo)
    nodes, wts = _leggauss(j // 2 + 1)
    acc = 0.0
    for xi, wt in zip(nodes, wts):
        frac = 0.5 * (1.0 + xi)
        gap = tail_gap + frac * width                  # u - exp(-y)
        one_m_u = one_m_elo + (1.0 - frac) * width     # 1 - u
        acc = acc + wt * one_m_u ** (i - 1) * gap ** (j - i - 1)
    inner = 0.5 * width * acc
    out = pair.prefactor * np.exp(-(M - j + 1) * y_s) * inner
    out = np.where(ok, out, 0.0)
    return out if out.ndim else float(out)
