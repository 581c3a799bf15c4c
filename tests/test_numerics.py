import math

import mpmath
import numpy as np

from hnoma import adaptive_integrate
from hnoma.exact import _gc_nodes
from hnoma.numerics import fejer1_weights, stream

from conftest import SEED
from reference import erfcx, fejer_quadrature


# ---------------------------------------------------------------------------
#  Chebyshev-node quadrature
# ---------------------------------------------------------------------------

def test_nodes_symmetric_open():
    t, w = fejer1_weights(64)
    assert np.all((t > -1.0) & (t < 1.0))
    assert np.allclose(t, -t[::-1])
    nodes, _ = _gc_nodes(0.0, 2.0, 16)
    assert np.all((nodes > 0.0) & (nodes < 2.0))


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

def test_adaptive_integrate_smooth():
    v, e, ok = adaptive_integrate(lambda x, k: np.exp(x), 0.0, 1.0, abs_tol=1e-10)
    assert ok and abs(v - (math.e - 1.0)) < 1e-10


def test_adaptive_integrate_jump():
    f = lambda x, k: np.where(x < 0.31237, 1.0, 0.0)
    v, e, ok = adaptive_integrate(f, 0.0, 1.0, abs_tol=1e-9)
    assert ok and abs(v - 0.31237) < 1e-8


def test_adaptive_integrate_empty():
    assert adaptive_integrate(math.exp, 1.0, 0.0)[0] == 0.0


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
            got = adaptive_integrate(f, a, b, **kw)
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
            ref = adaptive_integrate(f, edges[k], edges[k + 1], abs_tol=tols[k],
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

    adaptive_integrate(f, 0.0, 1.0, abs_tol=1e-9, max_depth=40)
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
