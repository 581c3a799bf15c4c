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
from hnoma import ProbEstimate, Scheme, SystemConfig, draw_counts, mc_summary
from hnoma.channel import CHUNK_ROWS
from hnoma.cli import FIGURES, load_preset
from hnoma.schemes import DrawKernel, SettleCertificate, rate_factors
from hnoma.sweep import SweepSpec, run_sweep
from hnoma.tally import _retire

from conftest import make_cfg
from reference import (B_I, B_II1, B_II2, energy_array, kernel_rate_factors,
                       ref_loss_mask, ref_mc_summary, ref_rate_factors, ref_tau)

SCHEMES = (Scheme.FSIC, Scheme.HSIC_NPA, Scheme.HSIC_PA)


def _ref_chunk(cfg, scheme, c_m, c_n, want_pt):
    factor, branch, gamma = ref_rate_factors(cfg, c_m, c_n, scheme)
    lose = ref_loss_mask(cfg, c_n, factor)
    pt_hits = 0
    if want_pt:
        pt_hits = int(np.count_nonzero(
            lose & (branch != B_I) & (ref_tau(cfg, c_m) > 0.0)))
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
    # the last HSIC-NPA type-II loss before a type-II win, at the exact
    # edge β²ρ_n g_n - (1 - β)ρ_m g_m = 1 - 2β
    def npa(g_m, g_n):
        factor, branch, _ = ref_rate_factors(cfg, g_m, g_n, Scheme.HSIC_NPA)
        return bool(ref_loss_mask(cfg, g_n, factor)), branch == B_II1

    def last_loss(g_m, x):
        (lose, over), (lose_up, over_up) = npa(g_m, x), npa(g_m, np.nextafter(x, np.inf))
        return lose and over and over_up and not lose_up

    on_win_edge = 0
    for g_m in (0.0, 0.5 * cfg.alpha_m, 2.0 * cfg.alpha_m, 20.0 * cfg.alpha_m):
        edge = ((1.0 - 2.0 * cfg.beta + (1.0 - cfg.beta) * cfg.rho_m * g_m)
                / (cfg.beta ** 2 * cfg.rho_n))
        g_n = _ulp_search(lambda x: last_loss(g_m, x), edge)
        if g_n is not None:
            draws.append((g_m, g_n))
            on_win_edge += 1
    # with 1 - 2β ~ 1e-12 the loss test blurs the edge over many ulps
    assert on_win_edge or 1.0 - 2.0 * cfg.beta < 1e-9
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
        assert set(branch.tolist()) >= {B_I, B_II2}


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
                    kernel.run(cfg, scheme, g_m[lo:hi], g_n[lo:hi], gamma[lo:hi])
                    got = (int(np.count_nonzero(kernel.lose)),
                           kernel.contended_losses() if want_pt else 0)
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
        factor, branch, gamma = kernel_rate_factors(cfg, g_m, g_n, scheme)
        ref_factor, ref_branch, ref_gamma = ref_rate_factors(cfg, g_m, g_n, scheme)
        assert np.array_equal(factor.view(np.int64), ref_factor.view(np.int64))
        assert branch.dtype == np.int8 and np.array_equal(branch, ref_branch)
        assert np.array_equal(gamma.view(np.int64), ref_gamma.view(np.int64))
        assert np.array_equal(rate_factors(cfg, g_m, g_n, scheme).view(np.int64),
                              ref_factor.view(np.int64))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_subnormal_gain_raises_no_warning(scheme):
    # tau / b overflows on type-I lanes when b is subnormal; the select
    # drops those lanes, so the overflow must pass silently
    g_n = np.array([0.0, 5e-324, 1e-320, 1e-310])
    for cfg in _cfgs():
        g_m = np.full(g_n.size, 20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor, branch, gamma = kernel_rate_factors(cfg, g_m, g_n, scheme)
            production = rate_factors(cfg, g_m, g_n, scheme)
        ref_factor, ref_branch, ref_gamma = ref_rate_factors(cfg, g_m, g_n, scheme)
        assert np.array_equal(factor.view(np.int64), ref_factor.view(np.int64))
        assert np.array_equal(branch, ref_branch)
        assert np.array_equal(gamma.view(np.int64), ref_gamma.view(np.int64))
        assert np.array_equal(production.view(np.int64), ref_factor.view(np.int64))


def _feed(monkeypatch, cfg, g_m, g_n):
    """Make ``hnoma.mc`` draw (g_m, g_n) for cfg's ranks: each leaf drawn
    takes the next rows, from the first again once all are taken, so a
    pass over ``g_m.size`` trials tallies exactly these draws."""
    gains = {cfg.m: g_m, cfg.n: g_n}
    at = 0

    def sample(M, rng, size, ranks, out=None):
        nonlocal at
        leaf = np.array([gains[rank][at:at + size] for rank in ranks]).T
        at = (at + size) % g_m.size
        return leaf

    monkeypatch.setattr(hnoma.mc, "sample_gain_ranks", sample)


def test_mc_summary_matches_reference_on_ties(monkeypatch):
    """Whole-pass sums too: the γ shortcut off HSIC-PA and the energy mean."""
    for k, cfg in enumerate(_cfgs()):
        g_m, g_n = _block_with_ties(cfg, k)
        _feed(monkeypatch, cfg, g_m, g_n)
        cells = [(cfg, scheme) for scheme in SCHEMES]
        got = mc_summary(cells, g_m.size, 0, want_pt=True)
        assert got == ref_mc_summary(cells, [(g_m, g_n)], True)


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
                _feed(monkeypatch, cfg, g_m, g_n)
                got = mc_summary(cells, 1, 0)
                for (_, scheme), summary in zip(cells, got):
                    _, _, gamma = ref_rate_factors(cfg, g_m, g_n, scheme)
                    want = energy_array(cfg, scheme, gamma)[0]
                    assert summary["energy_mean"] == want, (cfg, scheme, g_m, g_n)


def test_draw_counts_match_the_tally_and_reference(monkeypatch):
    """The validation suite's one pass, on the tie blocks and on one block
    of the library's own draws: each scheme's loss count is
    ``mc_summary``'s estimate and the reference's count, the out-of-order
    count is the one ``rate_factors`` gives, and the split's type-I and
    zero-cap losses are the reference's HSIC-PA ones."""
    from hnoma.channel import sample_gain_matrix
    from hnoma.numerics import stream

    cfg = make_cfg(m=3, n=1, R_m=0.5, eta=5.0, snr_db=15.0)
    g = sample_gain_matrix(cfg.M, stream(0, 0), 2 * CHUNK_ROWS + 5)
    blocks = [(cfg, g[:, cfg.m - 1], g[:, cfg.n - 1], False)]
    blocks += [(cfg, *_block_with_ties(cfg, k), True) for k, cfg in enumerate(_cfgs())]
    # then in blocks of 7,000 draws, the last partial, each cut into leaves
    # of 1,744-1,752 draws (the partial one into 1,248 and 1,259)
    blocks += [(cfg, *_block_with_ties(cfg, k), "leaves") for k, cfg in enumerate(_cfgs())]
    for cfg, g_m, g_n, feed in blocks:
        if feed == "leaves":
            monkeypatch.setattr(hnoma.mc, "BLOCK_TRIALS", 7_000)
            monkeypatch.setattr(hnoma.mc, "LEAF_ROWS", 2_000)
        if feed:
            _feed(monkeypatch, cfg, g_m, g_n)
        trials = g_m.size
        got = draw_counts(cfg, trials, 0)
        summaries = mc_summary([(cfg, scheme) for scheme in SCHEMES], trials, 0)
        for scheme, summary in zip(SCHEMES, summaries):
            losses = got["losses"][scheme]
            assert ProbEstimate.from_counts(losses, trials) == summary["estimate"]
            factor, _, _ = ref_rate_factors(cfg, g_m, g_n, scheme)
            assert losses == int(np.count_nonzero(ref_loss_mask(cfg, g_n, factor)))
        factors = [rate_factors(cfg, g_m, g_n, scheme) for scheme in SCHEMES]
        out_of_order = sum(int(np.count_nonzero(later < earlier))
                           for earlier, later in zip(factors, factors[1:]))
        assert got["out_of_order"] == out_of_order, cfg
        factor, branch, _ = ref_rate_factors(cfg, g_m, g_n, Scheme.HSIC_PA)
        lose = ref_loss_mask(cfg, g_n, factor)
        type_i = branch == B_I
        zero_cap = ~type_i & (ref_tau(cfg, g_m) == 0.0)
        assert got["split"]["P_I"] == int(np.count_nonzero(lose & type_i)), cfg
        assert got["split"]["P_II2"] == int(np.count_nonzero(lose & zero_cap)), cfg


# ---------------------------------------------------------------------------
#  Settled draws: a sweep runs the kernel only on draws whose outcome can change
# ---------------------------------------------------------------------------

def _kernel_rows(monkeypatch, schemes=SCHEMES):
    """A list that collects the rows the kernel serves to one of
    ``schemes``: those of every ``DrawKernel.run`` on it and, for
    HSIC-NPA, those of every HSIC-NPA verdict read from an HSIC-PA run
    (``DrawKernel.npa_losses``)."""
    rows = []
    run, npa_losses = DrawKernel.run, DrawKernel.npa_losses

    def spy(self, cfg, scheme, g_m, g_n, gamma):
        if scheme in schemes:
            rows.append(g_m.size)
        return run(self, cfg, scheme, g_m, g_n, gamma)

    def npa_spy(self):
        if Scheme.HSIC_NPA in schemes:
            rows.append(self.lose.size)
        return npa_losses(self)

    monkeypatch.setattr(DrawKernel, "run", spy)
    monkeypatch.setattr(DrawKernel, "npa_losses", npa_spy)
    return rows


def _random_sweep(rng):
    """A random config with 4-6 SNRs; both rank orders, β up to ½ - 1e-9
    and η from 0.03 to 30."""
    M = int(rng.integers(2, 7))
    m, n = (int(x) for x in rng.choice(np.arange(1, M + 1), size=2, replace=False))
    beta = (0.5 - 10.0 ** -rng.uniform(3, 9) if rng.random() < 0.2
            else rng.uniform(0.05, 0.45))
    eta = float(np.exp(rng.uniform(np.log(0.03), np.log(30.0))))
    cfg = SystemConfig.make(M=M, m=m, n=n, R_m=float(rng.uniform(0.1, 3.0)),
                            beta=beta, eta=eta, snr_db=0.0)
    snrs = np.sort(rng.uniform(0.0, 55.0, size=int(rng.integers(4, 7))))
    return [cfg.with_snr(float(s)) for s in snrs]


@pytest.mark.parametrize("sweep_seed", range(6))
def test_sweep_matches_one_cell_calls_over_several_blocks(monkeypatch, sweep_seed):
    """Retiring draws along a sweep changes no count and no γ sum: every
    cell equals its own one-cell ``mc_summary`` call (which has no later
    SNR, so it retires nothing), over blocks that each settle draws."""
    monkeypatch.setattr(hnoma.mc, "BLOCK_TRIALS", CHUNK_ROWS + 1_000)
    trials = 2 * (CHUNK_ROWS + 1_000) + 777   # three blocks, the last partial
    rng = np.random.default_rng(sweep_seed)
    rows = _kernel_rows(monkeypatch)
    npa_rows = _kernel_rows(monkeypatch, (Scheme.HSIC_NPA,))
    pa_rows = _kernel_rows(monkeypatch, (Scheme.HSIC_PA,))
    retired = npa_retired = pa_retired = 0
    for _ in range(3):
        cfgs = _random_sweep(rng)
        cells = [(cfg, scheme) for cfg in cfgs for scheme in SCHEMES]
        cells = [cells[k] for k in rng.permutation(len(cells))]  # any order
        for want_pt in (False, True):
            rows.clear()
            npa_rows.clear()
            pa_rows.clear()
            got = mc_summary(cells, trials, sweep_seed, want_pt=want_pt)
            retired += len(cells) * trials - sum(rows)
            npa_retired += len(cfgs) * trials - sum(npa_rows)
            pa_retired += len(cfgs) * trials - sum(pa_rows)
            want = [mc_summary([cell], trials, sweep_seed, want_pt=want_pt)[0]
                    for cell in cells]
            assert got == want, cfgs[0]
    # a seed whose sweeps retire nothing would check nothing here
    assert retired > 0
    assert npa_retired > 0
    assert pa_retired > 0


def _sweep_block(cfgs, seed):
    """Random ordered draws with the tie draws of every SNR of the sweep,
    zero gains and all-zero draws spread through two chunks."""
    cfg = cfgs[0]
    rng = np.random.default_rng(seed)
    size = 2 * CHUNK_ROWS + 321
    g = np.sort(rng.exponential(size=(size, 2)), axis=1)
    i_m, i_n = (0, 1) if cfg.m < cfg.n else (1, 0)
    g_m, g_n = g[:, i_m].copy(), g[:, i_n].copy()
    special = np.concatenate([_tie_draws(c) for c in cfgs]
                             + [[[0.0, 0.0], [0.0, 2.0], [2.0, 0.0]]])
    for at in (5, CHUNK_ROWS - len(special), CHUNK_ROWS + 77, size - len(special)):
        g_m[at:at + len(special)] = special[:, 0]
        g_n[at:at + len(special)] = special[:, 1]
    return g_m, g_n


@pytest.mark.parametrize("base", [
    make_cfg(),
    make_cfg(m=3, n=1, R_m=0.5, eta=5.0),
    make_cfg(M=4, m=1, n=4, R_m=1.5, beta=0.4, eta=0.2),
    make_cfg(m=2, n=1, R_m=0.35, beta=0.5 - 1e-12),
])
def test_sweep_matches_reference_on_ties_at_every_snr(monkeypatch, base):
    """The tie draws of every SNR of the sweep sit in every block, so a
    draw on a decision edge at one SNR is also fed at all the others;
    each cell must equal the step-by-step reference and its own one-cell
    call.  β = ½ - 1e-12 is past the certificate's β range."""
    cfgs = [base.with_snr(s) for s in (0.0, 8.0, 15.0, 25.0, 40.0)]
    g_m, g_n = _sweep_block(cfgs, 3)
    _feed(monkeypatch, base, g_m, g_n)
    cells = [(cfg, scheme) for cfg in cfgs for scheme in SCHEMES]
    rows = _kernel_rows(monkeypatch)
    got = mc_summary(cells, g_m.size, 0, want_pt=True)
    settles = SettleCertificate.of(cfgs, Scheme.HSIC_PA) is not None
    assert (sum(rows) < len(cells) * g_m.size) == settles
    for cell, summary, want in zip(cells, got, ref_mc_summary(cells, [(g_m, g_n)], True)):
        assert summary == want, cell
        assert summary == mc_summary([cell], g_m.size, 0, want_pt=True)[0], cell


def _edge_draws(cfg, rng, size=600):
    """Draws about the kernel's own decision edges at ``cfg``: on the win
    edge (1 + b)² = 1 + ρ_n g_n, on the type-I edge tau = b, and on the
    type-I edge where tau and b are 10^12, so that c = a - βg_n cancels."""
    beta, rho = cfg.beta, cfg.rho_n
    win_g_n = (1.0 - 2.0 * beta) / (beta ** 2 * rho)   # exact win edge
    type_i_g_m = lambda g_n: cfg.eps_m * (1.0 + beta * rho * g_n) / cfg.rho_m
    near = lambda x: x * (1.0 + rng.uniform(-3e-15, 3e-15, size))
    on_win = near(np.full(size, win_g_n))
    on_type_i = win_g_n * np.exp(rng.uniform(0.0, 4.0, size))
    big = 1e12                                            # tau and b
    g_m_big = np.full(size, cfg.eps_m * (big + 1.0) / cfg.rho_m)
    g_n_big = (big + rng.uniform(-1e-3, 1e-3, size)) / (beta * rho)
    g_m = np.concatenate([100.0 * type_i_g_m(on_win), near(type_i_g_m(on_type_i)), g_m_big])
    g_n = np.concatenate([on_win, on_type_i, g_n_big])
    return g_m, g_n


@pytest.mark.parametrize("base, snrs", [
    (make_cfg(), (10.0, 20.0, 30.0)),
    (make_cfg(m=3, n=1, R_m=0.5, eta=5.0), (15.0, 25.0, 45.0)),
    (make_cfg(M=4, m=1, n=4, R_m=1.5, beta=0.4994, eta=0.2), (20.0, 40.0)),
    (make_cfg(R_m=0.2, eta=0.7), (100.0, 110.0, 125.0)),
])
def test_settled_draws_lose_nowhere_later_in_the_sweep(base, snrs):
    """Draws a few ulps about the kernel's decision edges: each one the
    certificate marks settled at an SNR is type I, wins and has γ = 1 in
    the reference kernel's floats there and at every higher SNR."""
    rng = np.random.default_rng(5)
    kernel = DrawKernel(CHUNK_ROWS)
    cfgs = [base.with_snr(s) for s in snrs]
    cert = SettleCertificate.of(cfgs, Scheme.HSIC_PA)
    marked = 0
    for k, cfg in enumerate(cfgs):
        for edges_at in cfgs:
            g_m, g_n = _edge_draws(edges_at, rng)
            settled = kernel.settled(cert, cfg.rho_n, g_m, g_n).copy()
            marked += int(np.count_nonzero(settled))
            for later in cfgs[k:]:
                factor, branch, gamma = ref_rate_factors(later, g_m, g_n, Scheme.HSIC_PA)
                lose = ref_loss_mask(later, g_n, factor)
                assert np.all(branch[settled] == B_I), (cfg, later)
                assert not np.any(lose[settled]), (cfg, later)
                assert np.all(gamma[settled] == 1.0), (cfg, later)
    assert marked > 500


# the sweeps of the fate tests, from a low SNR to past 100 dB
FATE_SWEEPS = [
    (make_cfg(m=2, n=5, R_m=1.0, eta=4.0), (0.0, 10.0, 20.0, 30.0)),
    (make_cfg(m=3, n=1, R_m=1.5, beta=1.0 / 3.0, eta=7.0), (5.0, 25.0, 45.0)),
    (make_cfg(M=4, m=1, n=4, R_m=1.5, beta=0.4994, eta=0.2), (20.0, 40.0)),
    (make_cfg(R_m=1.0, eta=0.7), (100.0, 110.0, 125.0)),
]


def _npa_edge_draws(cfg, rng, size=300):
    """Draws about the HSIC-NPA fates' edges at ``cfg``, a few ulps off
    each: the type-II win edge β²y - (1 - β)x = 1 - 2β and the floor
    cone's edges x/ε_m = βy and β²y = (1 - β)x (x = ρ_m g_m and
    y = ρ_n g_n), at x from 1 to 1e18; draws inside the cone, some with y
    a few ulps; zero gains; and a log-uniform cloud over the (x, y) plane."""
    beta, rho, rho_m = cfg.beta, cfg.rho_n, cfg.rho_m
    near = lambda v, ulps: v * (1.0 + rng.uniform(-ulps, ulps, v.size) * 2.0 ** -53)
    x = 10.0 ** rng.uniform(0.0, 18.0, size)
    on_win = (1.0 - 2.0 * beta + (1.0 - beta) * x) / beta ** 2
    on_over = x / (beta * cfg.eps_m)
    on_lose = (1.0 - beta) * x / beta ** 2
    # inside the cone: y between x/(βε_m) and (1 - β)x/β², geometrically
    mid = np.sqrt((1.0 - beta) / (beta ** 3 * cfg.eps_m))
    tiny_y = rng.uniform(0.5, 5.0, size) * 2.0 ** -52
    cloud_x, cloud_y = 10.0 ** rng.uniform(-3.0, 6.0, (2, size))
    zeros_x, zeros_y = np.array([[0.0, 0.0, 5.0], [0.0, 5.0, 0.0]])
    x_all = np.concatenate([x, x, x, x, tiny_y / mid, cloud_x, zeros_x])
    y_all = np.concatenate([near(on_win, 30), near(on_over, 6), near(on_lose, 6), mid * x,
                            tiny_y, cloud_y, zeros_y])
    return x_all / rho_m, y_all / rho


@pytest.mark.parametrize("base, snrs", FATE_SWEEPS)
def test_npa_fates_hold_at_every_later_snr(base, snrs):
    """Draws a few ulps about the HSIC-NPA fates' edges: each draw the
    certificate marks at an SNR keeps its outcome in the reference
    kernel's floats there and at every higher SNR.  The marked draws that
    lose are ``floor_draws`` many, and each with g_n > 0 is over."""
    rng = np.random.default_rng(7)
    kernel = DrawKernel(CHUNK_ROWS)
    cfgs = [base.with_snr(s) for s in snrs]
    cert = SettleCertificate.of(cfgs, Scheme.HSIC_NPA)
    won = floor = 0
    for k, cfg in enumerate(cfgs):
        for edges_at in cfgs:
            g_m, g_n = _npa_edge_draws(edges_at, rng)
            marked = kernel.settled(cert, cfg.rho_n, g_m, g_n).copy()
            g_m, g_n = g_m[marked], g_n[marked]
            factor, _, _ = ref_rate_factors(cfg, g_m, g_n, Scheme.HSIC_NPA)
            lost = ref_loss_mask(cfg, g_n, factor)
            assert np.count_nonzero(lost) == kernel.floor_draws, cfg
            for later in cfgs[k:]:
                factor, branch, _ = ref_rate_factors(later, g_m, g_n, Scheme.HSIC_NPA)
                assert np.array_equal(ref_loss_mask(later, g_n, factor), lost), (cfg, later)
                assert np.all(branch[lost & (g_n > 0.0)] == B_II1), (cfg, later)
            won += int(np.count_nonzero(~lost))
            floor += int(np.count_nonzero(lost))
    assert won > 500 and floor > 500


def _pa_edge_draws(cfg, rng, size=300):
    """Draws about the HSIC-PA fate's edges at ``cfg``, a few ulps off
    each: over, b = T; adapting, (T - 1)(1 + x) = b; and winning while
    adapting, T(1 + b) = 1 + y (x = ρ_m g_m, y = ρ_n g_n, T = x/ε_m and
    b = βy): the first at x from 1 to 1e18, the second at T from 2 to
    1e18 and the last where it exists, 1 < T < 1/β.  Then zero gains and
    a log-uniform cloud over the (x, y) plane."""
    beta, eps = cfg.beta, cfg.eps_m
    near = lambda v, ulps: v * (1.0 + rng.uniform(-ulps, ulps, v.size) * 2.0 ** -53)
    x = 10.0 ** rng.uniform(0.0, 18.0, size)
    on_over = x / (beta * eps)
    x_adapt = eps * (1.0 + x)                          # T = 1 + x
    on_adapt = x * (1.0 + x_adapt) / beta
    t = rng.uniform(1.0, 1.0 / beta, size)
    on_win = (t - 1.0) / (1.0 - beta * t)
    cloud_x, cloud_y = 10.0 ** rng.uniform(-3.0, 9.0, (2, size))
    zeros_x, zeros_y = np.array([[0.0, 0.0, 5.0], [0.0, 5.0, 0.0]])
    x_all = np.concatenate([x, x_adapt, eps * t, cloud_x, zeros_x])
    y_all = np.concatenate([near(on_over, 6), near(on_adapt, 30), near(on_win, 30),
                            cloud_y, zeros_y])
    return x_all / cfg.rho_m, y_all / cfg.rho_n


@pytest.mark.parametrize("base, snrs", FATE_SWEEPS)
def test_pa_fates_hold_at_every_later_snr(base, snrs):
    """Draws a few ulps about the HSIC-PA adapting fate's edges: each draw
    the certificate marks at an SNR with ``passing``, its won-for-good
    test off, is, in the reference kernel's floats there and at every
    higher SNR, either type I or over and adapting (``passed_draws``
    many), wins, and has the γ of ``DrawKernel.gamma_pass`` bit for
    bit."""
    rng = np.random.default_rng(9)
    kernel = DrawKernel(CHUNK_ROWS)
    cfgs = [base.with_snr(s) for s in snrs]
    # with k_w = 0 no draw passes the won-for-good test, so the marks are
    # the type-I and adapting tests' own
    cert = SettleCertificate.of(cfgs, Scheme.HSIC_PA)._replace(k_w=0.0)
    adapting = 0
    for k, cfg in enumerate(cfgs):
        for edges_at in cfgs:
            g_m, g_n = _pa_edge_draws(edges_at, rng)
            marked = kernel.settled(cert, cfg.rho_n, g_m, g_n, passing=True).copy()
            n_adapting = kernel.passed_draws
            g_m, g_n = g_m[marked], g_n[marked]
            for later in cfgs[k:]:
                factor, branch, gamma = ref_rate_factors(later, g_m, g_n, Scheme.HSIC_PA)
                assert not np.any(ref_loss_mask(later, g_n, factor)), (cfg, later)
                assert np.all((branch == B_I) | (branch == B_II2)), (cfg, later)
                assert np.count_nonzero(branch == B_II2) == n_adapting, (cfg, later)
                passed = np.full(g_m.size, np.nan)
                kernel.gamma_pass(later, g_m, g_n, passed)
                assert np.array_equal(passed.view(np.int64), gamma.view(np.int64)), (cfg, later)
            adapting += n_adapting
    assert adapting > 500


def _first_stage_win_edge_draws(cfg, rng, size=300):
    """Draws a few ulps about the type-II win edge β²y - (1 - β)x = 1 - 2β
    (x = ρ_m g_m, y = ρ_n g_n) with x from 1e-3 ε_m to ε_m, where τ = 0
    and HSIC-PA decodes at the first stage, as HSIC-NPA does."""
    beta = cfg.beta
    x = cfg.eps_m * 10.0 ** rng.uniform(-3.0, 0.0, size)
    y = (1.0 - 2.0 * beta + (1.0 - beta) * x) / beta ** 2
    y *= 1.0 + rng.uniform(-30.0, 30.0, size) * 2.0 ** -53
    return x / cfg.rho_m, y / cfg.rho_n


@pytest.mark.parametrize("base, snrs", FATE_SWEEPS)
def test_pa_won_fate_holds_at_every_later_snr(base, snrs):
    """Draws a few ulps about the HSIC-NPA and the HSIC-PA fates' edges,
    and about the win edge where HSIC-PA decodes at the first stage:
    each draw the HSIC-PA certificate marks at an SNR with ``passing``
    wins in the reference kernel's floats there and at every higher SNR,
    in whichever branch it is, and ``DrawKernel.gamma_pass`` gives it
    the reference γ bit for bit.  The won-for-good test adds marks, and
    the marks take in first-stage and adapting draws as well as type I."""
    rng = np.random.default_rng(13)
    kernel = DrawKernel(CHUNK_ROWS)
    cfgs = [base.with_snr(s) for s in snrs]
    cert = SettleCertificate.of(cfgs, Scheme.HSIC_PA)
    branches = np.zeros(4, dtype=int)
    won = 0
    for k, cfg in enumerate(cfgs):
        for edges_at in cfgs:
            for edge_draws in (_npa_edge_draws, _pa_edge_draws, _first_stage_win_edge_draws):
                g_m, g_n = edge_draws(edges_at, rng)
                marked = kernel.settled(cert, cfg.rho_n, g_m, g_n, passing=True).copy()
                without_won = kernel.settled(cert._replace(k_w=0.0), cfg.rho_n, g_m, g_n,
                                             passing=True)
                assert not np.any(without_won & ~marked), cfg
                won += int(np.count_nonzero(marked & ~without_won))
                g_m, g_n = g_m[marked], g_n[marked]
                for later in cfgs[k:]:
                    factor, branch, gamma = ref_rate_factors(later, g_m, g_n, Scheme.HSIC_PA)
                    assert not np.any(ref_loss_mask(later, g_n, factor)), (cfg, later)
                    passed = np.full(g_m.size, np.nan)
                    kernel.gamma_pass(later, g_m, g_n, passed)
                    assert np.array_equal(passed.view(np.int64), gamma.view(np.int64)), \
                        (cfg, later)
                    branches += np.bincount(branch, minlength=4)
    assert won > 500
    assert branches[B_I] > 100 and branches[B_II1] > 100 and branches[B_II2] > 100


@pytest.mark.parametrize("base, snrs", FATE_SWEEPS)
def test_shared_fates_hold_for_both_schemes(base, snrs):
    """The certificate of a curve with both hybrid schemes marks a draw
    only where its outcome is fixed in each: without ``passing`` only
    type-I winners, and with it the draws that win HSIC-PA and keep
    their HSIC-NPA outcome, at every later SNR, where the ones that lose
    HSIC-NPA are ``floor_draws`` many."""
    rng = np.random.default_rng(17)
    kernel = DrawKernel(CHUNK_ROWS)
    cfgs = [base.with_snr(s) for s in snrs]
    cert = SettleCertificate.of(cfgs, Scheme.HSIC_NPA, Scheme.HSIC_PA)
    floor = 0
    for k, cfg in enumerate(cfgs):
        for edges_at in cfgs:
            for edge_draws in (_npa_edge_draws, _pa_edge_draws):
                g_m, g_n = edge_draws(edges_at, rng)
                type_i = kernel.settled(cert, cfg.rho_n, g_m, g_n).copy()
                assert kernel.floor_draws == 0
                marked = kernel.settled(cert, cfg.rho_n, g_m, g_n, passing=True).copy()
                assert not np.any(type_i & ~marked), cfg
                factor, branch, _ = ref_rate_factors(cfg, g_m, g_n, Scheme.HSIC_NPA)
                assert np.all(branch[type_i] == B_I), cfg
                assert not np.any(ref_loss_mask(cfg, g_n, factor)[type_i]), cfg
                g_m, g_n = g_m[marked], g_n[marked]
                factor, _, _ = ref_rate_factors(cfg, g_m, g_n, Scheme.HSIC_NPA)
                lost = ref_loss_mask(cfg, g_n, factor)
                assert np.count_nonzero(lost) == kernel.floor_draws, cfg
                floor += kernel.floor_draws
                for later in cfgs[k:]:
                    factor, _, _ = ref_rate_factors(later, g_m, g_n, Scheme.HSIC_NPA)
                    assert np.array_equal(ref_loss_mask(later, g_n, factor), lost), \
                        (cfg, later)
                    factor, _, _ = ref_rate_factors(later, g_m, g_n, Scheme.HSIC_PA)
                    assert not np.any(ref_loss_mask(later, g_n, factor)), (cfg, later)
    assert floor > 100


def test_npa_verdict_of_a_pa_run_matches_its_own_run_on_ties():
    """``npa_losses`` after an HSIC-PA run, whole or gathered, counts what
    ``run(HSIC_NPA)`` finds on the same draws: per tie draw, and per
    chunk of a block with the ties in it."""
    kernel, own = DrawKernel(CHUNK_ROWS), DrawKernel(CHUNK_ROWS)
    for k, cfg in enumerate(_cfgs()):
        for g_m, g_n in _tie_draws(cfg):
            g_m, g_n = np.array([g_m]), np.array([g_n])
            own.run(cfg, Scheme.HSIC_NPA, g_m, g_n, np.empty(1))
            kernel.run(cfg, Scheme.HSIC_PA, g_m, g_n, np.empty(1))
            assert kernel.npa_losses() == int(own.lose[0]), (cfg, g_m, g_n)
        g_m, g_n = _block_with_ties(cfg, k)
        gamma = np.empty(g_m.size)
        for lo in range(0, g_m.size, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, g_m.size)
            own.run(cfg, Scheme.HSIC_NPA, g_m[lo:hi], g_n[lo:hi], gamma[lo:hi])
            want = int(np.count_nonzero(own.lose))
            kernel.run(cfg, Scheme.HSIC_PA, g_m[lo:hi], g_n[lo:hi], gamma[lo:hi])
            assert kernel.npa_losses() == want, cfg
            at = np.arange(hi - 1, lo - 1, -1, dtype=np.int32)
            kernel.run_at(cfg, Scheme.HSIC_PA, g_m, g_n, gamma, at)
            assert kernel.npa_losses() == want, cfg


def _chunk_forms(lo, hi):
    """The draws lo..hi as a slice and as an int32 index."""
    return slice(lo, hi), np.arange(lo, hi, dtype=np.int32)


def test_run_at_a_slice_or_an_index_matches_run_on_the_views():
    """``run_at`` with a slice, and with the int32 index of the same
    draws, leaves the factor, loss mask and γ of ``run`` on the views, bit
    for bit."""
    kernel = DrawKernel(CHUNK_ROWS)
    for k, cfg in enumerate(_cfgs()):
        g_m, g_n = _block_with_ties(cfg, k)
        for scheme in SCHEMES:
            for lo in range(0, g_m.size, CHUNK_ROWS):
                hi = min(lo + CHUNK_ROWS, g_m.size)
                gamma = np.full(g_m.size, np.nan)
                kernel.run(cfg, scheme, g_m[lo:hi], g_n[lo:hi], gamma[lo:hi])
                want = [kernel.factor.tobytes(), kernel.lose.tobytes(), gamma.tobytes()]
                for at in _chunk_forms(lo, hi):
                    gamma = np.full(g_m.size, np.nan)
                    kernel.run_at(cfg, scheme, g_m, g_n, gamma, at)
                    got = [kernel.factor.tobytes(), kernel.lose.tobytes(), gamma.tobytes()]
                    assert got == want, (cfg, scheme, at)


def _fate_block(cfg, rng):
    """The HSIC-NPA and HSIC-PA fate edge draws at ``cfg``, repeated over
    two chunks and a partial third."""
    (m_npa, n_npa), (m_pa, n_pa) = _npa_edge_draws(cfg, rng), _pa_edge_draws(cfg, rng)
    reps = 2 * CHUNK_ROWS // (m_npa.size + m_pa.size) + 1
    return (np.tile(np.concatenate([m_npa, m_pa]), reps),
            np.tile(np.concatenate([n_npa, n_pa]), reps))


def _fate_certificates(cfgs):
    return [SettleCertificate.of(cfgs, *schemes)
            for schemes in ((Scheme.HSIC_NPA,), (Scheme.HSIC_PA,),
                            (Scheme.HSIC_NPA, Scheme.HSIC_PA))]


@pytest.mark.parametrize("base, snrs", FATE_SWEEPS)
def test_settled_at_a_slice_or_an_index_matches_the_views(base, snrs):
    """``settled`` with a slice, and with the int32 index of the same
    draws, gives the mask, ``floor_draws`` and ``passed_draws`` it gives
    on the views, bit for bit."""
    rng = np.random.default_rng(11)
    kernel = DrawKernel(CHUNK_ROWS)
    cfgs = [base.with_snr(s) for s in snrs]
    for cert in _fate_certificates(cfgs):
        for cfg in cfgs:
            g_m, g_n = _fate_block(cfg, rng)
            for passing in (False, True):
                for lo in range(0, g_m.size, CHUNK_ROWS):
                    hi = min(lo + CHUNK_ROWS, g_m.size)
                    mask = kernel.settled(cert, cfg.rho_n, g_m[lo:hi], g_n[lo:hi],
                                          passing=passing)
                    want = (mask.tobytes(), kernel.floor_draws, kernel.passed_draws)
                    for at in _chunk_forms(lo, hi):
                        mask = kernel.settled(cert, cfg.rho_n, g_m, g_n, at, passing)
                        got = (mask.tobytes(), kernel.floor_draws, kernel.passed_draws)
                        assert got == want, (cfg, cert, passing, at)


@pytest.mark.parametrize("base, snrs", FATE_SWEEPS)
def test_retire_builds_and_compacts_the_live_index(base, snrs):
    """``_retire`` without an index writes into the caller's buffer the
    int32 positions of the unsettled draws, ``np.flatnonzero`` of a
    whole-block ``settled`` mask, and gives the floor count of that call;
    compacting the index of every draw, or of a subset, in place gives the
    same result on those draws."""
    rng = np.random.default_rng(13)
    kernel = DrawKernel(CHUNK_ROWS)
    cfgs = [base.with_snr(s) for s in snrs]
    settled = floor = 0
    for cert in _fate_certificates(cfgs):
        for cfg in cfgs:
            g_m, g_n = _fate_block(cfg, rng)
            whole = DrawKernel(g_m.size)
            subset = np.flatnonzero(rng.random(g_m.size) < 0.7).astype(np.int32)
            index = np.empty(g_m.size, dtype=np.int32)
            for passing in (False, True):
                mask = whole.settled(cert, cfg.rho_n, g_m, g_n, passing=passing)
                want = np.flatnonzero(~mask).astype(np.int32), whole.floor_draws
                for live in (None, np.arange(g_m.size, dtype=np.int32)):
                    got, lost = _retire(kernel, cert, cfg.rho_n, g_m, g_n, live, passing,
                                        index)
                    assert got.dtype == np.int32
                    assert np.shares_memory(got, index if live is None else live)
                    assert np.array_equal(got, want[0]) and lost == want[1], (cfg, cert)
                mask = whole.settled(cert, cfg.rho_n, g_m[subset], g_n[subset], passing=passing)
                got, lost = _retire(kernel, cert, cfg.rho_n, g_m, g_n, subset.copy(), passing,
                                    index)
                assert np.array_equal(got, subset[~mask]), (cfg, cert)
                assert lost == whole.floor_draws, (cfg, cert)
                settled += g_m.size - want[0].size
                floor += want[1]
    assert settled > 0 and floor > 0


def test_certificate_is_off_where_it_cannot_hold():
    cfgs = [make_cfg(snr_db=s) for s in (10.0, 20.0)]
    assert SettleCertificate.of(cfgs, Scheme.HSIC_PA) is not None
    assert SettleCertificate.of(cfgs, Scheme.HSIC_NPA) is not None
    assert SettleCertificate.of(cfgs, Scheme.FSIC) is None
    near_half = [make_cfg(beta=0.4996, snr_db=s) for s in (10.0, 20.0)]
    assert SettleCertificate.of(near_half, Scheme.HSIC_PA) is None
    huge = [make_cfg(snr_db=s) for s in (10.0, 1001.0)]
    assert SettleCertificate.of(huge, Scheme.HSIC_PA) is None


def _preset_cells(figure, label):
    raw = next(s for s in load_preset(figure)["sweeps"] if s["label"] == label)
    spec = SweepSpec.from_dict(raw)
    return [(spec.config_at(s), scheme) for s in spec.snr_db for scheme in spec.schemes], spec


def test_fig1_sweep_runs_the_kernel_on_few_draws(monkeypatch):
    """fig1's n2 curve: most draws settle by 15-20 dB, so the kernel sees
    at most 45% of cells x trials, in chunks of at most ``CHUNK_ROWS``."""
    trials = 200_000
    cells, spec = _preset_cells("fig1", "n2")
    rows = _kernel_rows(monkeypatch)
    mc_summary(cells, trials, spec.seed, want_pt=True)
    assert max(rows) <= CHUNK_ROWS
    assert sum(rows) <= 0.45 * len(cells) * trials


def test_fig3a_sweep_runs_the_kernel_on_few_draws(monkeypatch):
    """fig3a's m1 curve (η = 7): almost no draw is type I and winning, but
    from 5 dB most draws have won for good or adapt and win, retire and
    get γ from the pass; the kernel sees every draw only at 0 dB, and the
    whole curve's rows fall below 15% of cells x trials."""
    trials = 200_000
    cells, spec = _preset_cells("fig3a", "m1")
    rows = {}
    run = DrawKernel.run

    def spy(self, cfg, scheme, g_m, g_n, gamma):
        rows[cfg.rho_n] = rows.get(cfg.rho_n, 0) + g_m.size
        return run(self, cfg, scheme, g_m, g_n, gamma)

    monkeypatch.setattr(DrawKernel, "run", spy)
    mc_summary(cells, trials, spec.seed)
    rhos = sorted({cfg.rho_n for cfg, _ in cells})
    assert rhos[0] == 1.0 and rows[rhos[0]] == trials
    assert sum(rows.values()) <= 0.15 * len(cells) * trials


def test_fig5a_npa_sweep_runs_the_kernel_on_few_draws(monkeypatch):
    """fig5a's eta4 curve, where no draw is type I and winning: draws that
    have won, or sit in the floor cone and adapt and win HSIC-PA, retire,
    so the kernel serves HSIC-NPA at most 30% of cells x trials, in
    chunks of at most ``CHUNK_ROWS``."""
    trials = 200_000
    cells, spec = _preset_cells("fig5a", "eta4")
    rows = _kernel_rows(monkeypatch, (Scheme.HSIC_NPA,))
    mc_summary(cells, trials, spec.seed)
    npa_cells = sum(scheme == Scheme.HSIC_NPA for _, scheme in cells)
    assert max(rows) <= CHUNK_ROWS
    assert sum(rows) <= 0.30 * npa_cells * trials


def test_fig5a_pa_sweep_runs_the_kernel_on_few_draws(monkeypatch):
    """fig5a's eta4 curve: from 10-15 dB most HSIC-PA draws have won for
    good, retire and get γ from the pass, so its kernel sees at most 50%
    of cells x trials, in chunks of at most ``CHUNK_ROWS``."""
    trials = 200_000
    cells, spec = _preset_cells("fig5a", "eta4")
    rows = _kernel_rows(monkeypatch, (Scheme.HSIC_PA,))
    mc_summary(cells, trials, spec.seed)
    pa_cells = sum(scheme == Scheme.HSIC_PA for _, scheme in cells)
    assert max(rows) <= CHUNK_ROWS
    assert sum(rows) <= 0.50 * pa_cells * trials


def test_presets_tally_alike_without_certificates(monkeypatch):
    """Every preset curve, MC only at 20,000 trials: the rows are the same
    with every certificate off, so retiring draws changes no count or sum."""
    specs = [SweepSpec.from_dict({**raw, "methods": ["mc"], "trials": 20_000})
             for figure in FIGURES for raw in load_preset(figure)["sweeps"]]
    want = run_sweep(specs)
    monkeypatch.setattr(SettleCertificate, "of", lambda cfgs, *schemes: None)
    assert run_sweep(specs) == want
