"""The fused Monte Carlo tally against the step-by-step kernels it replaced.

The reference (``ref_*`` in ``reference``) is ``rate_factors``,
``loss_mask`` and ``tau_threshold`` as they were before the decision was
fused into ``DrawKernel``: one temporary per step, nested ``np.where``
for the branch.  The kernel must give the same counts and the same γ
bits, also on draws built to sit exactly on the decision's ties, which
random draws almost never hit.
"""

import warnings

import numpy as np
import pytest

import hnoma.mc
from hnoma import ProbEstimate, Scheme, mc_summary
from hnoma.channel import CHUNK_ROWS
from hnoma.mc import _tally_chunk
from hnoma.schemes import _B_I, _B_II2, DrawKernel, rate_factors

from conftest import make_cfg
from reference import energy_array, ref_loss_mask, ref_rate_factors, ref_tau

SCHEMES = (Scheme.FSIC, Scheme.HSIC_NPA, Scheme.HSIC_PA)


def _ref_chunk(cfg, scheme, c_m, c_n, want_pt):
    factor, branch, gamma = ref_rate_factors(cfg, c_m, c_n, scheme)
    lose = ref_loss_mask(cfg, c_n, factor)
    pt_hits = 0
    if want_pt:
        pt_hits = int(np.count_nonzero(
            lose & (branch != _B_I) & (ref_tau(cfg, c_m) > 0.0)))
    return int(np.count_nonzero(lose)), pt_hits, gamma


def _ulp_search(target, start):
    """A float x near ``start`` with target(x) true, or None."""
    x = start
    for _ in range(8):
        x = np.nextafter(x, -np.inf)
    for _ in range(17):
        if target(x):
            return float(x)
        x = np.nextafter(x, np.inf)
    return None


def _tie_draws(cfg):
    """(g_m, g_n) pairs on every tie of the decision, each checked in floats."""
    k = cfg.beta * cfg.rho_n
    draws = []
    on_type_i_edge = on_cap_tie = 0
    for scale in (1.5, 2.0, 3.0, 7.3, 20.0, 111.0):
        g_m = scale * cfg.alpha_m
        tau = float(ref_tau(cfg, g_m))
        denom = cfg.rho_m * g_m + 1.0
        # b == tau: the last type-I draw
        g_n = _ulp_search(lambda x: k * x == tau, tau / k)
        if g_n is not None:
            assert k * g_n == tau
            draws.append((g_m, g_n))
            on_type_i_edge += 1
        # tau * denom == b: the cap tie, just past type I
        g_n = _ulp_search(lambda x: k * x == tau * denom, tau * denom / k)
        if g_n is not None:
            assert k * g_n == tau * denom and k * g_n > tau
            draws.append((g_m, g_n))
            on_cap_tie += 1
    assert on_type_i_edge and on_cap_tie
    # tau == 0: legacy gain below and exactly at the cap floor
    alpha = _ulp_search(lambda x: cfg.rho_m * x / cfg.eps_m - 1.0 == 0.0, cfg.alpha_m)
    assert alpha is not None and float(ref_tau(cfg, alpha)) == 0.0
    below = 0.5 * cfg.alpha_m
    assert float(ref_tau(cfg, below)) == 0.0 and cfg.rho_m * below / cfg.eps_m - 1.0 < 0.0
    for g_m in (below, alpha):
        for g_n in (0.0, 1e-3, 0.4, 3.0):
            draws.append((g_m, g_n))
    # g_n == 0: no NOMA power at all
    for g_m in (0.0, 0.1, 1.0, 5.0):
        draws.append((g_m, 0.0))
    return np.array(draws)


def _block_with_ties(cfg, seed):
    """One block that ends in a partial chunk, with the tie draws spread
    through both chunks among random ordered draws."""
    rng = np.random.default_rng(seed)
    size = CHUNK_ROWS + 123
    g = np.sort(rng.exponential(size=(size, 2)), axis=1)
    i_m, i_n = (0, 1) if cfg.m < cfg.n else (1, 0)  # rank order of the pair
    g_m, g_n = g[:, i_m].copy(), g[:, i_n].copy()
    ties = _tie_draws(cfg)
    for at in (0, CHUNK_ROWS - len(ties), CHUNK_ROWS + 1, size - len(ties)):
        g_m[at:at + len(ties)] = ties[:, 0]
        g_n[at:at + len(ties)] = ties[:, 1]
    return g_m, g_n


def _cfgs():
    for base in (make_cfg(), make_cfg(m=3, n=1, R_m=0.5, eta=5.0)):
        for snr in (0.0, 12.0, 25.0):
            yield base.with_snr(snr)


def test_ties_are_on_the_branches_they_claim():
    for cfg in _cfgs():
        ties = _tie_draws(cfg)
        _, branch, _ = ref_rate_factors(cfg, ties[:, 0], ties[:, 1], Scheme.HSIC_PA)
        assert set(branch.tolist()) >= {_B_I, _B_II2}


def test_tally_kernel_matches_reference_on_ties():
    kernel = DrawKernel(CHUNK_ROWS)
    for k, cfg in enumerate(_cfgs()):
        g_m, g_n = _block_with_ties(cfg, k)
        for scheme in SCHEMES:
            # mc_summary counts the contended loss on HSIC-PA cells only
            for want_pt in (False, True) if scheme == Scheme.HSIC_PA else (False,):
                gamma = np.full(g_m.size, np.nan)
                for lo in range(0, g_m.size, CHUNK_ROWS):
                    hi = lo + CHUNK_ROWS
                    got = _tally_chunk(kernel, cfg, scheme, g_m[lo:hi], g_n[lo:hi],
                                       gamma[lo:hi], want_pt)
                    hits, pt_hits, ref_gamma = _ref_chunk(cfg, scheme, g_m[lo:hi],
                                                          g_n[lo:hi], want_pt)
                    assert got == (hits, pt_hits)
                    if scheme == Scheme.HSIC_PA:
                        assert np.array_equal(gamma[lo:hi].view(np.int64),
                                              ref_gamma.view(np.int64))
                if scheme != Scheme.HSIC_PA:
                    assert np.isnan(gamma).all()  # γ = 1 is not written


@pytest.mark.parametrize("scheme", SCHEMES)
def test_rate_factors_matches_reference_on_ties(scheme):
    for k, cfg in enumerate(_cfgs()):
        g_m, g_n = _block_with_ties(cfg, k)
        factor, branch, gamma = rate_factors(cfg, g_m, g_n, scheme)
        ref_factor, ref_branch, ref_gamma = ref_rate_factors(cfg, g_m, g_n, scheme)
        assert np.array_equal(factor.view(np.int64), ref_factor.view(np.int64))
        assert branch.dtype == np.int8 and np.array_equal(branch, ref_branch)
        assert np.array_equal(gamma.view(np.int64), ref_gamma.view(np.int64))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_subnormal_gain_raises_no_warning(scheme):
    # tau / b overflows on type-I lanes when b is subnormal; the select
    # drops those lanes, so the overflow must pass silently
    g_n = np.array([0.0, 5e-324, 1e-320, 1e-310])
    for cfg in _cfgs():
        g_m = np.full(g_n.size, 20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor, branch, gamma = rate_factors(cfg, g_m, g_n, scheme)
        ref_factor, ref_branch, ref_gamma = ref_rate_factors(cfg, g_m, g_n, scheme)
        assert np.array_equal(factor.view(np.int64), ref_factor.view(np.int64))
        assert np.array_equal(branch, ref_branch)
        assert np.array_equal(gamma.view(np.int64), ref_gamma.view(np.int64))


def test_mc_summary_matches_reference_on_ties(monkeypatch):
    """Whole-pass sums too: the γ shortcut off HSIC-PA and the energy mean."""
    for k, cfg in enumerate(_cfgs()):
        g_m, g_n = _block_with_ties(cfg, k)
        monkeypatch.setattr(hnoma.mc, "_pair_blocks",
                            lambda cfg, trials, seed: iter([(g_m, g_n)]))
        cells = [(cfg, scheme) for scheme in SCHEMES]
        got = mc_summary(cells, g_m.size, 0, want_pt=True)
        for (_, scheme), summary in zip(cells, got):
            hits = pt_hits = 0
            gamma = np.empty(g_m.size)
            for lo in range(0, g_m.size, CHUNK_ROWS):
                hi = lo + CHUNK_ROWS
                h, p, gamma[lo:hi] = _ref_chunk(cfg, scheme, g_m[lo:hi], g_n[lo:hi],
                                                scheme == Scheme.HSIC_PA)
                hits, pt_hits = hits + h, pt_hits + p
            gamma_mean = float(gamma.sum()) / g_m.size
            want = {"estimate": ProbEstimate.from_counts(hits, g_m.size),
                    "gamma_mean": gamma_mean,
                    "energy_mean": (1.0 + gamma_mean) * cfg.beta * cfg.rho_n}
            if scheme == Scheme.HSIC_PA:
                want["pt_estimate"] = ProbEstimate.from_counts(pt_hits, g_m.size)
            assert summary == want


def test_mc_summary_energy_matches_reference_draw_by_draw(monkeypatch):
    """With one trial, ``energy_mean`` is one draw's energy, bit for bit, so
    the energy formula is checked per draw, which block sums cannot do.
    β = 0.3 is not a power of two, so folding β ρ_n into one factor shows."""
    rng = np.random.default_rng(11)
    for base in (make_cfg(beta=0.3), make_cfg(m=3, n=1, R_m=0.5, beta=0.45, eta=5.0)):
        for snr in (0.0, 12.0, 25.0):
            cfg = base.with_snr(snr)
            ordered = np.sort(rng.exponential(size=(60, 2)), axis=1)
            if cfg.m > cfg.n:  # g_m is the larger gain
                ordered = ordered[:, ::-1]
            draws = np.concatenate([_tie_draws(cfg), ordered])
            cells = [(cfg, scheme) for scheme in SCHEMES]
            for g_m, g_n in draws:
                g_m, g_n = np.array([g_m]), np.array([g_n])
                monkeypatch.setattr(hnoma.mc, "_pair_blocks",
                                    lambda cfg, trials, seed: iter([(g_m, g_n)]))
                got = mc_summary(cells, 1, 0)
                for (_, scheme), summary in zip(cells, got):
                    _, _, gamma = ref_rate_factors(cfg, g_m, g_n, scheme)
                    want = energy_array(cfg, scheme, gamma)[0]
                    assert summary["energy_mean"] == want, (cfg, scheme, g_m, g_n)
