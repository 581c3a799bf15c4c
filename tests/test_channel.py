import math

import numpy as np
import pytest
from scipy import integrate

from hnoma import (OrderPairDensity, integrate_event, mass_lower_interval,
                   mass_upper_interval, sample_gain_matrix)
from hnoma.numerics import stream
from hnoma.regions import Clause, EventRegion

from conftest import SEED
from reference import (exp_mixture, joint_pdf, joint_pdf_near_zero,
                       region_everything)


# ---------------------------------------------------------------------------
#  sampling
# ---------------------------------------------------------------------------

def test_two_user_draw_sorted_and_marginally_exponential():
    (gains,) = sample_gain_matrix(2, stream(SEED), 1)
    assert gains[0] < gains[1]
    assert gains[0] >= 0.0


def test_sampling_determinism():
    d1 = sample_gain_matrix(5, stream(SEED, 3), 1)
    d2 = sample_gain_matrix(5, stream(SEED, 3), 1)
    assert np.array_equal(d1, d2)


def test_max_gain_mean_matches_harmonic_number():
    # E[max of 5 unit exponentials] = 1 + 1/2 + ... + 1/5
    g = sample_gain_matrix(5, stream(SEED, 1), 1_000_000)
    h5 = sum(1.0 / k for k in range(1, 6))
    assert abs(g[:, -1].mean() - h5) < 0.01 * h5


def _whole_array_sampler(M, rng, size):
    # the sampler before it was chunked: one draw, transform and sort
    u = rng.random((size, M))
    g = -np.log1p(-u)
    g.sort(axis=1)
    return g


@pytest.mark.parametrize("M", range(2, 17))
def test_chunked_sampler_matches_whole_array_sampler(M):
    # the rank path gives the same columns, ranks in any order, and leaves
    # its generator where the full call does
    from hnoma.channel import CHUNK_ROWS, sample_gain_ranks

    rank_sets = ([1], [M], [M, 1], [2, M], list(range(1, M + 1, 2)),
                 list(range(M, 0, -1)))
    for size in (1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 50_001):
        chunked, whole = stream(SEED, 7), stream(SEED, 7)
        picked = [stream(SEED, 7) for _ in rank_sets]
        for _ in range(2):  # the next call on the same generator too
            g = sample_gain_matrix(M, chunked, size)
            want = _whole_array_sampler(M, whole, size)
            assert g.shape == (size, M) and g.flags.f_contiguous
            assert np.array_equal(g, want)
            for ranks, rng in zip(rank_sets, picked):
                g = sample_gain_ranks(M, rng, size, ranks)
                assert g.shape == (size, len(ranks)) and g.flags.f_contiguous
                assert np.array_equal(g, want[:, np.subtract(ranks, 1)]), ranks
        after = whole.random(3)
        for rng in (chunked, *picked):
            assert np.array_equal(rng.random(3), after)


def test_sampler_network_sorts_every_zero_one_column():
    # 0-1 principle: a comparator network that sorts every 0-1 input
    # sorts every input (Knuth, TAOCP vol. 3, 5.3.4, Theorem Z)
    from hnoma.channel import _comparators, _sort_columns

    assert len(_comparators(5)) == 9
    rng = np.random.default_rng(SEED)
    for M in range(1, 13):
        cols = (np.arange(1 << M) >> np.arange(M)[:, None] & 1).astype(float)
        want = np.sort(cols, axis=0)
        _sort_columns(cols, np.empty(cols.shape[1]))
        assert np.array_equal(cols, want), M
        # ties and exact zeros
        cols = rng.integers(0, 3, size=(M, 5_000)) * 0.5
        want = np.sort(cols, axis=0)
        _sort_columns(cols, np.empty(cols.shape[1]))
        assert np.array_equal(cols, want), M
        assert not np.signbit(cols).any()


# ---------------------------------------------------------------------------
#  pair densities
# ---------------------------------------------------------------------------

def test_joint_pdf_two_user_hand_value():
    pair = OrderPairDensity(2, 1, 2)
    # min/max of two exponentials: 2 e^{-x} e^{-y} on x < y
    assert math.isclose(joint_pdf(pair, 0.5, 1.0), 2.0 * math.exp(-1.5),
                        rel_tol=1e-14)


def test_joint_pdf_zero_outside_wedge():
    pair = OrderPairDensity(5, 2, 4)
    assert joint_pdf(pair, 1.0, 0.5) == 0.0
    assert joint_pdf_near_zero(pair, 1.0, 0.5) == 0.0
    assert joint_pdf(pair, -0.1, 0.5) == 0.0


def test_joint_pdf_matches_exp_mixture_form():
    pair = OrderPairDensity(6, 2, 5)
    w, a, b = exp_mixture(pair)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(0.05, 2.0)
        y = x + rng.uniform(0.05, 2.0)
        mix = float(np.sum(w * np.exp(-a * x - b * y)))
        assert math.isclose(joint_pdf(pair, x, y), mix, rel_tol=1e-9)


@pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
def test_joint_pdf_normalization(M):
    for m in range(1, M + 1):
        for n in range(1, M + 1):
            if m == n:
                continue
            pair = OrderPairDensity(M, m, n)
            est = integrate_event(region_everything(), pair)
            assert abs(est.value - 1.0) < 1e-4, (M, m, n, est.value)


def test_near_zero_constant_term():
    pair = OrderPairDensity(2, 1, 2)
    assert math.isclose(joint_pdf_near_zero(pair, 1e-3, 2e-3), 2.0, rel_tol=1e-12)


def test_near_zero_converges_to_exact():
    for M, m, n in [(5, 1, 2), (5, 3, 1), (6, 2, 5)]:
        pair = OrderPairDensity(M, m, n)
        ratio = joint_pdf(pair, 1e-4, 2e-4) / joint_pdf_near_zero(pair, 1e-4, 2e-4)
        assert abs(ratio - 1.0) < 1e-3


def test_histogram_matches_density():
    M, m, n = 5, 2, 4
    pair = OrderPairDensity(M, m, n)
    N = 1_000_000
    g = sample_gain_matrix(M, stream(SEED, 2), N)
    xs, ys = g[:, m - 1], g[:, n - 1]
    edges = np.linspace(0.0, 3.0, 11)
    counts, _, _ = np.histogram2d(xs, ys, bins=(edges, edges))
    for i in range(10):
        for j in range(10):
            cell = EventRegion((Clause(edges[i], edges[i + 1],
                                       lower=(edges[j],),
                                       upper=(edges[j + 1],)),))
            p = integrate_event(cell, pair, abs_tol=1e-9).value
            se = math.sqrt(p * (1.0 - p) / N)
            assert abs(counts[i, j] / N - p) <= 4.0 * se + 2.0 / N, (i, j)


# ---------------------------------------------------------------------------
#  interval masses (closed-form inner integrals)
# ---------------------------------------------------------------------------

def test_mass_upper_interval_vs_quadrature():
    pair = OrderPairDensity(5, 2, 4)
    for x, lo, hi in [(0.3, 0.5, 1.2), (0.3, 0.1, 0.8), (0.5, 0.6, np.inf)]:
        ref = integrate.quad(lambda y: joint_pdf(pair, x, y),
                             max(lo, x), min(hi, 50.0), limit=200)[0]
        val = mass_upper_interval(pair, x, lo, hi)
        assert math.isclose(val, ref, rel_tol=1e-9), (x, lo, hi)


def test_mass_lower_interval_vs_quadrature():
    pair = OrderPairDensity(5, 4, 2)  # legacy rank above the opportunistic one
    for y, lo, hi in [(1.5, 0.2, 1.0), (1.5, 0.0, 2.5), (0.8, 0.3, 0.6)]:
        ref = integrate.quad(lambda x: joint_pdf(pair, x, y),
                             lo, min(hi, y), limit=200)[0]
        val = mass_lower_interval(pair, y, lo, hi)
        assert math.isclose(val, ref, rel_tol=1e-9), (y, lo, hi)


def test_mass_empty_intervals():
    pair = OrderPairDensity(5, 2, 4)
    assert mass_upper_interval(pair, 0.5, 1.0, 0.8) == 0.0
    assert mass_upper_interval(pair, 2.0, 0.1, 1.5) == 0.0  # clipped by wedge
    assert mass_lower_interval(pair, 1.0, 1.2, 2.0) == 0.0


def test_mass_keeps_relative_precision_for_tiny_gains():
    # product form must not lose significance where the signed expansion does
    pair = OrderPairDensity(5, 1, 5)
    x, lo, hi = 1e-6, 2e-6, 5e-6
    ref = integrate.quad(lambda y: joint_pdf(pair, x, y), lo, hi,
                         epsabs=0.0, epsrel=1e-12)[0]
    val = mass_upper_interval(pair, x, lo, hi)
    assert ref > 0.0
    assert math.isclose(val, ref, rel_tol=1e-8)
