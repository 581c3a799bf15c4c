import math

import mpmath
import numpy as np
import pytest

from hnoma import adaptive_integrate
from hnoma.exact import _cell_quadrature
from hnoma.numerics import fejer1_weights, pairwise_join, pairwise_leaves, stream
from hnoma.regions import diagonal

from conftest import SEED
from reference import erfcx, fejer_quadrature


# ---------------------------------------------------------------------------
#  Chebyshev-node quadrature
# ---------------------------------------------------------------------------

def test_nodes_symmetric_open():
    t, w = fejer1_weights(64)
    assert np.all((t > -1.0) & (t < 1.0))
    assert np.allclose(t, -t[::-1])
    # a cell's nodes lie inside its legacy-gain limits; the integral of t
    # over (0, 2) is 2
    nodes = []
    (value,) = _cell_quadrature(None, (diagonal, diagonal, 0.0, 2.0),
                                lambda t, lo, hi: nodes.append(t) or t, 16)
    assert np.all((nodes[0] > 0.0) & (nodes[0] < 2.0))
    assert math.isclose(value, 2.0, rel_tol=1e-14)


def test_fejer_quadrature_is_spectrally_accurate():
    ref = 1.0 - math.exp(-3.0)
    assert abs(fejer_quadrature(lambda x: np.exp(-x), 0.0, 3.0, 64) - ref) < 1e-14
    assert abs(fejer_quadrature(lambda x: np.ones_like(x), -1.0, 1.0, 16) - 2.0) < 1e-14
    a, b = fejer_quadrature(np.cos, 0.0, 1.5, 256), fejer_quadrature(np.cos, 0.0, 1.5, 512)
    assert abs(a - b) < 1e-12


# ---------------------------------------------------------------------------
#  erfcx (reference code)
# ---------------------------------------------------------------------------

def test_erfcx_matches_mpmath():
    mpmath.mp.dps = 40
    for x in (0.0, 0.5, 2.0, 8.0, 30.0, 200.0):
        ref = float(mpmath.exp(x * x) * mpmath.erfc(x))
        assert math.isclose(erfcx(x), ref, rel_tol=1e-13)


# ---------------------------------------------------------------------------
#  adaptive integration
# ---------------------------------------------------------------------------

def _one(f, a, b, **kw):
    """``adaptive_integrate`` over the one segment [a, b], as Python scalars."""
    v, e, ok = adaptive_integrate(f, np.array([a]), np.array([b]), **kw)
    assert v.shape == e.shape == ok.shape == (1,)
    return v.item(), e.item(), ok.item()


def test_adaptive_integrate_smooth():
    v, e, ok = _one(lambda x, k: np.exp(x), 0.0, 1.0, abs_tol=1e-10)
    assert ok and abs(v - (math.e - 1.0)) < 1e-10


def test_adaptive_integrate_jump():
    f = lambda x, k: np.where(x < 0.31237, 1.0, 0.0)
    v, e, ok = _one(f, 0.0, 1.0, abs_tol=1e-9)
    assert ok and abs(v - 0.31237) < 1e-8


def test_adaptive_integrate_empty():
    assert _one(math.exp, 1.0, 0.0)[0] == 0.0


def _simpson(a, b, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _depth_first_integrate(f, a, b, abs_tol=1e-7, max_depth=40, initial_panels=16):
    """Reference: adaptive Simpson as a depth-first recursion, one point
    per call of ``f``; an interval is never accepted at the first level."""
    g = lambda x: float(f(np.array([x]), np.zeros(1, dtype=np.intp))[0])

    def refine(a, b, fa, fm, fb, whole, tol, depth, first):
        m = 0.5 * (a + b)
        flm, frm = g(0.5 * (a + m)), g(0.5 * (m + b))
        left = _simpson(a, m, fa, flm, fm)
        right = _simpson(m, b, fm, frm, fb)
        err = (left + right - whole) / 15.0
        floor = 5e-16 * (abs(left) + abs(right))
        if depth <= 0 or (not first and abs(err) <= max(tol, floor)):
            return left + right + err, abs(err)
        lv, le = refine(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1, False)
        rv, re = refine(m, b, fm, frm, fb, right, 0.5 * tol, depth - 1, False)
        return lv + rv, le + re

    if b <= a:
        return 0.0, 0.0, True
    total, err_total = 0.0, 0.0
    edges = np.linspace(a, b, initial_panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        flo, fmid, fhi = g(lo), g(0.5 * (lo + hi)), g(hi)
        v, e = refine(lo, hi, flo, fmid, fhi, _simpson(lo, hi, flo, fmid, fhi),
                      abs_tol * (hi - lo) / (b - a), max_depth, True)
        total += v
        err_total += e
    return total, err_total, err_total <= abs_tol


# f(x, k) gets the points and the segment of each point
_INTEGRANDS = {
    "smooth": lambda x, k: np.exp(x),
    "kink": lambda x, k: np.abs(x - 0.3),
    "jump": lambda x, k: np.where(x < 0.31237, 1.0, 0.0),
    "decay": lambda x, k: 6.4e-3 * np.exp(-40.0 * x),
}


def test_adaptive_integrate_matches_depth_first_reference():
    for name, f in _INTEGRANDS.items():
        for a, b, kw in ((0.0, 1.0, {}),
                         (0.0, 2.2, dict(abs_tol=1e-10, initial_panels=8)),
                         (-0.4, 1.3, dict(abs_tol=1e-9, max_depth=6)),
                         (0.1, 0.9, dict(max_depth=0))):
            got = _one(f, a, b, **kw)
            assert got == _depth_first_integrate(f, a, b, **kw), (name, a, b, kw)
            assert type(got[0]) is float and type(got[2]) is bool


def test_adaptive_integrate_segments_are_independent():
    edges = np.array([0.0, 0.2, 0.31237, 0.5, 2.2])
    for name, f in _INTEGRANDS.items():
        values, errs, oks = adaptive_integrate(f, edges[:-1], edges[1:],
                                               abs_tol=1e-9, initial_panels=8)
        for k in range(edges.size - 1):
            ref = _depth_first_integrate(f, edges[k], edges[k + 1],
                                         abs_tol=1e-9, initial_panels=8)
            assert (values[k], errs[k], oks[k]) == ref, (name, k)
    # a tolerance per segment, one of them out of reach at this depth
    tols = np.array([1e-9, 3e-12, 1e-30, 2e-7])
    for name, f in _INTEGRANDS.items():
        values, errs, oks = adaptive_integrate(f, edges[:-1], edges[1:], abs_tol=tols,
                                               max_depth=12, initial_panels=8)
        for k in range(edges.size - 1):
            ref = _one(f, edges[k], edges[k + 1], abs_tol=tols[k],
                       max_depth=12, initial_panels=8)
            assert (values[k], errs[k], oks[k]) == ref, (name, k)
            assert ref == _depth_first_integrate(f, edges[k], edges[k + 1],
                                                 abs_tol=tols[k], max_depth=12,
                                                 initial_panels=8), (name, k)


def test_adaptive_integrate_tells_f_the_segment_of_each_point():
    edges = np.array([0.0, 0.2, 0.2, 0.5, 2.2])  # the second segment is empty
    seen = []

    def f(x, k):
        seen.append((x, k))
        return np.exp(x)

    adaptive_integrate(f, edges[:-1], edges[1:], abs_tol=1e-9, initial_panels=8)
    x, k = map(np.concatenate, zip(*seen))
    assert set(k.tolist()) == {0, 2, 3}
    assert np.all((edges[k] <= x) & (x <= edges[k + 1]))


def test_adaptive_integrate_counts_one_call_per_level():
    calls = []

    def f(x, k):
        calls.append(x.size)
        return np.where(x < 0.31237, 1.0, 0.0)

    _one(f, 0.0, 1.0, abs_tol=1e-9, max_depth=40)
    assert len(calls) <= 42  # the panel points, then at most one per level


# ---------------------------------------------------------------------------
#  RNG streams
# ---------------------------------------------------------------------------

def test_streams_reproducible_and_disjoint():
    a1 = stream(SEED, 0).random(1_000_000)
    a2 = stream(SEED, 0).random(1_000_000)
    b = stream(SEED, 1).random(1_000_000)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert len(np.intersect1d(a1, b)) == 0  # no shared values across blocks


# ---------------------------------------------------------------------------
#  numpy's pairwise summation, one leaf at a time
# ---------------------------------------------------------------------------

def test_pairwise_leaves_rebuild_np_sum_bit_for_bit():
    # values of both signs over 60 orders of magnitude make the sum depend
    # on the order of every addition, so a numpy release that cut its
    # pairwise tree elsewhere, or summed a leaf otherwise, fails here
    rng = np.random.default_rng(SEED)
    lengths = [1, 7, 8, 128, 129, 16_385, 65_537, 500_000, 1_000_000]
    lengths += rng.integers(1, 1_500_000, size=20).tolist()
    for n in lengths:
        x = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-70.0, 70.0, n))
        want = np.sum(x)
        for bound in (128, 1_000, 4_096, 65_536):
            sizes = pairwise_leaves(n, bound)
            assert sum(sizes) == n and max(sizes) <= bound
            # the tree is cut no further than the bound needs
            assert len(sizes) == 1 or min(sizes) > bound // 2 - 8
            ends = np.cumsum(sizes)
            sums = [float(np.sum(x[end - size:end])) for size, end in zip(sizes, ends)]
            got = pairwise_join(n, bound, sums)
            assert np.float64(got).view(np.int64) == want.view(np.int64), (n, bound)
    with pytest.raises(ValueError):
        pairwise_leaves(1_000, 127)
