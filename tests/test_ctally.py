"""The compiled tally pass (``hnoma.ctally``) against the numpy kernel.

Each of ``_tally.c``'s loops must give what ``DrawKernel`` gives bit for
bit: the counts and γ bytes of a kernel chunk, the γ pass, and the
settle test's live index, floor and passed counts, on slices and on
int32 indexes, on draws built to sit on the decision's and the
certificate's edges.  With the build forced to fail, ``mc_summary``
runs the numpy kernel and gives the same summaries.
"""

from importlib import resources

import numpy as np
import pytest

import hnoma.mc
from hnoma import Scheme, ctally, mc_summary
from hnoma.channel import CHUNK_ROWS
from hnoma.cli import load_preset
from hnoma.schemes import _SETTLE_MARGIN, DrawKernel
from hnoma.tally import _kernel_chunk, _retire, _settle_chunk

from conftest import make_cfg
from test_draw_kernel import (FATE_SWEEPS, SCHEMES, _block_with_ties, _cfgs, _edge_draws,
                              _fate_certificates, _npa_edge_draws, _pa_edge_draws,
                              _preset_cells)


@pytest.fixture(scope="module")
def lib():
    compiled = ctally.load()
    if compiled is None:
        pytest.skip("the compiled tally could not be built or loaded here")
    return compiled


def _kernel_cfgs():
    """The tie-draw configs, and β = ½ - 1e-12, past the certificate."""
    yield from _cfgs()
    for snr in (0.0, 20.0, 45.0):
        yield make_cfg(m=2, n=1, R_m=0.35, beta=0.5 - 1e-12, snr_db=snr)


def _draws(cfg, k):
    """Random ordered draws with the tie draws in them, then the draws
    about the certificate's edges, the fates' edges and zero gains."""
    rng = np.random.default_rng(k)
    parts = [_block_with_ties(cfg, k), _edge_draws(cfg, rng), _npa_edge_draws(cfg, rng),
             _pa_edge_draws(cfg, rng), (np.array([0.0, 0.0, 3.0]), np.array([0.0, 3.0, 0.0]))]
    return (np.concatenate([m for m, _ in parts]), np.concatenate([n for _, n in parts]))


def _bound_draws(cert, rho_n):
    """Draws on the certificate's g_n bounds at ``rho_n`` and one ulp
    either side: the floor cone's δ/ρ_n, inside the cone, and the type-I
    win edge, with a legacy gain well past the type-I edge."""
    up = 1.0 + _SETTLE_MARGIN
    edges = ((_SETTLE_MARGIN / rho_n, lambda y: y * np.sqrt(cert.k_q / cert.k_o)),
             (up / (rho_n * cert.k_d), lambda y: 10.0 * (up / rho_n + cert.beta * y) / cert.k_a))
    draws = [(legacy(y), y) for edge, legacy in edges
             for y in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))]
    return np.array(draws).T


def _chunk_forms(size, rng):
    """The chunks of ``size`` draws as slices, then as int32 indexes of the
    same draws in a random order, then of a random half of them."""
    for lo in range(0, size, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, size)
        yield slice(lo, hi)
        yield rng.permutation(np.arange(lo, hi, dtype=np.int32))
        yield np.flatnonzero(rng.random(hi - lo) < 0.5).astype(np.int32) + lo


def test_the_source_ships_as_package_data():
    source = resources.files("hnoma").joinpath("_tally.c")
    assert source.is_file()
    assert b"tally_chunk" in source.read_bytes()


def test_kernel_chunks_match_the_numpy_kernel(lib):
    """Counts and γ bytes of every scheme, with and without the contended
    count and the shared HSIC-NPA verdict, on slices and indexes."""
    kernel = DrawKernel(CHUNK_ROWS)
    rng = np.random.default_rng(3)
    for k, cfg in enumerate(_kernel_cfgs()):
        g_m, g_n = _draws(cfg, k)
        for at in _chunk_forms(g_m.size, rng):
            for scheme in SCHEMES:
                pa = scheme == Scheme.HSIC_PA
                for pt, shared in ((False, False), (True, False), (False, True), (True, True)):
                    if not pa and (pt or shared):
                        continue
                    want_gamma, got_gamma = np.full(g_m.size, np.nan), np.full(g_m.size, np.nan)
                    want = _kernel_chunk(kernel, None, cfg, scheme, g_m, g_n, want_gamma, at,
                                         pt, shared)
                    got = lib.chunk(cfg, scheme, g_m, g_n, got_gamma, at, pt, shared)
                    assert got == want, (cfg, scheme, pt, shared)
                    assert got_gamma.tobytes() == want_gamma.tobytes(), (cfg, scheme)


def test_gamma_pass_matches_the_numpy_pass(lib):
    """Every draw's γ bytes, the NaN of τ = b = 0 included."""
    kernel = DrawKernel(CHUNK_ROWS)
    nans = 0
    for k, cfg in enumerate(_kernel_cfgs()):
        g_m, g_n = _draws(cfg, k)
        want, got = np.empty(g_m.size), np.empty(g_m.size)
        kernel.gamma_pass(cfg, g_m, g_n, want)
        lib.gamma_pass(cfg, g_m, g_n, got)
        assert got.tobytes() == want.tobytes(), cfg
        nans += int(np.count_nonzero(np.isnan(got)))
    assert nans > 0


@pytest.mark.parametrize("base, snrs", FATE_SWEEPS)
def test_settle_chunks_match_the_numpy_test(lib, base, snrs):
    """The kept positions, floor and passed counts of every certificate,
    with and without ``passing``, on slices and indexes, and ``_retire``'s
    live index built and compacted in place."""
    kernel = DrawKernel(CHUNK_ROWS)
    rng = np.random.default_rng(19)
    cfgs = [base.with_snr(s) for s in snrs]
    floor = passed = settled = 0
    for cert in _fate_certificates(cfgs):
        for k, cfg in enumerate(cfgs):
            g_m, g_n = (np.concatenate(pair) for pair in zip(_draws(cfg, k),
                                                             _bound_draws(cert, cfg.rho_n)))
            want_out = np.empty(g_m.size, dtype=np.int32)
            got_out = np.empty(g_m.size, dtype=np.int32)
            for passing in (False, True):
                for at in _chunk_forms(g_m.size, rng):
                    want = _settle_chunk(kernel, None, cert, cfg.rho_n, g_m, g_n, at, passing,
                                         want_out)
                    got = lib.settle(cert, cfg.rho_n, g_m, g_n, at, passing, got_out)
                    assert got == want, (cfg, cert, passing)
                    assert np.array_equal(got_out[:got[0]], want_out[:want[0]])
                    floor += got[1]
                    passed += got[2]
                for live in (None, np.flatnonzero(rng.random(g_m.size) < 0.8)):
                    live = None if live is None else live.astype(np.int32)
                    want = _retire(kernel, None, cert, cfg.rho_n, g_m, g_n,
                                   None if live is None else live.copy(), passing, want_out)
                    got = _retire(kernel, lib, cert, cfg.rho_n, g_m, g_n,
                                  None if live is None else live.copy(), passing, got_out)
                    assert got[0].dtype == np.int32
                    assert np.array_equal(got[0], want[0]) and got[1] == want[1], cfg
                    settled += g_m.size - got[0].size
    assert floor > 0 and passed > 0 and settled > 0


def _pool():
    """Every MC cell of fig1 and fig5a (M = 5 in both)."""
    return [cell for figure in ("fig1", "fig5a") for raw in load_preset(figure)["sweeps"]
            for cell in _preset_cells(figure, raw["label"])[0]]


def test_mc_summary_without_the_compiled_pass_is_unchanged(lib, monkeypatch, tmp_path):
    """Two blocks, each of several leaves, of fig1 and fig5a curves, with
    and without the contended count: with the build forced to fail (a
    cold cache and a missing compiler), the numpy path's summaries equal
    the compiled pass's, dict for dict."""
    monkeypatch.setattr(hnoma.mc, "BLOCK_TRIALS", 3 * CHUNK_ROWS)
    monkeypatch.setattr(hnoma.mc, "LEAF_ROWS", CHUNK_ROWS)
    trials = 3 * CHUNK_ROWS + 20_000
    cells = _pool()
    want = [mc_summary(cells, trials, 7, want_pt=pt) for pt in (False, True)]
    monkeypatch.setattr(ctally, "_cache_dirs", lambda: [str(tmp_path)])
    monkeypatch.setattr(ctally, "_compiler", lambda: [str(tmp_path / "no-such-cc")])
    ctally.load.cache_clear()
    try:
        assert ctally.load() is None
        got = [mc_summary(cells, trials, 7, want_pt=pt) for pt in (False, True)]
    finally:
        ctally.load.cache_clear()
    assert got == want


def test_a_cold_cache_builds_once(lib, monkeypatch, tmp_path):
    """The first load builds into the first private cache directory; later
    loads find the object and run no compiler.  A directory that others
    may write is passed over."""
    shared, own = tmp_path / "shared", tmp_path / "own"
    shared.mkdir(mode=0o777)
    shared.chmod(0o777)
    monkeypatch.setattr(ctally, "_cache_dirs", lambda: [str(shared), str(own)])
    ctally.load.cache_clear()
    try:
        assert ctally.load() is not None
        assert not list(shared.iterdir())
        assert [p.suffix for p in own.iterdir()] == [".so"]
        assert own.stat().st_mode & 0o777 == 0o700

        def no_build(*args):
            raise AssertionError("built twice")

        monkeypatch.setattr(ctally, "_build", no_build)
        ctally.load.cache_clear()
        assert ctally.load() is not None
    finally:
        ctally.load.cache_clear()
