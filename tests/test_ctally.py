"""The compiled tally pass (``hnoma.ctally``) against the numpy tally.

Each of ``_tally.c``'s entry points must give what the numpy path gives
bit for bit: a step of ``tally_curve`` (``tally._step``: the counts, the
γ bytes, the live index and the floor count, on the whole leaf and on
int32 indexes, with and without retiring draws first) and the probe's
settle test (the kept positions, floor and passed counts), on draws
built to sit on the decision's and the certificate's edges.  Each check
runs on the shipped object, whose clone the loader picks by CPU, and on
the source built without its clones at each x86-64 level the host runs,
so that every clone is checked.  With the build forced to fail,
``mc_summary`` runs the numpy kernel and gives the same summaries.
"""

import ctypes
import platform
import re
import subprocess
from importlib import resources

import numpy as np
import pytest

import hnoma.mc
from hnoma import Scheme, ctally, mc_summary
from hnoma.channel import CHUNK_ROWS
from hnoma.cli import load_preset
from hnoma.schemes import _SETTLE_MARGIN, DrawKernel
from hnoma.tally import Step, _settle_chunk, _step

from conftest import make_cfg
from test_draw_kernel import (FATE_SWEEPS, _block_with_ties, _cfgs, _edge_draws,
                              _fate_certificates, _npa_edge_draws, _pa_edge_draws,
                              _preset_cells)

# the levels the clones are built for, as __builtin_cpu_supports ranks them
_LEVELS = {"x86-64": 1, "x86-64-v3": 3, "x86-64-v4": 4}
_CLONES = re.compile(rb"__attribute__\(\(target_clones\([^)]*\)\)\)")
_PROBE = b"""
int level(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("x86-64-v4") ? 4 : __builtin_cpu_supports("x86-64-v3") ? 3 : 1;
}
"""
# the kernel runs of a step: (scheme, pt, shared)
_RUNS = [(Scheme.FSIC, False, False), (Scheme.HSIC_NPA, False, False),
         *((Scheme.HSIC_PA, pt, shared) for pt in (False, True) for shared in (False, True))]


def _build(source: bytes, path, *flags):
    subprocess.run([*ctally._compiler(), *flags, "-x", "c", "-o", str(path), "-"],
                   input=source, capture_output=True, check=True, timeout=120)
    return ctypes.CDLL(str(path))


@pytest.fixture(scope="module")
def shipped():
    compiled = ctally.load()
    if compiled is None:
        pytest.skip("the compiled tally could not be built or loaded here")
    return compiled


@pytest.fixture(scope="module")
def libs(shipped, tmp_path_factory):
    """``[(name, CompiledTally)]``: the shipped object, then on x86-64 the
    source with its clone attribute removed, built with ``-march`` at
    each level the host runs."""
    out = [("shipped", shipped)]
    if platform.machine() != "x86_64":
        return out
    where = tmp_path_factory.mktemp("levels")
    source, clones = _CLONES.subn(b"", resources.files("hnoma").joinpath("_tally.c").read_bytes())
    assert clones == 1
    try:
        runs = _build(_PROBE, where / "probe.so", "-O2", "-fPIC", "-shared").level()
    except (OSError, subprocess.SubprocessError):   # a compiler without the probe's names
        return out
    for level, rank in _LEVELS.items():
        if rank <= runs:
            lib = _build(source, where / f"{level}.so", f"-march={level}", *ctally._FLAGS)
            out.append((level, ctally.CompiledTally(lib)))
    return out


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
    assert b"tally_step" in source.read_bytes()


def _run_step(lib, step, g_m, g_n, live):
    """``tally._step`` through ``lib`` (numpy where None) on a NaN γ and an
    index buffer that starts with ``live`` (no index where None):
    ``(counts, γ bytes, live index bytes or None)``."""
    gamma = np.full(g_m.size, np.nan)
    index = np.full(g_m.size, -1, dtype=np.int32)
    if live is not None:
        index[:live.size] = live
        live = index[:live.size]
    leaf = None
    if lib is not None:
        step = step._replace(args=lib.step_args(step))
        leaf = lib.leaf(g_m, g_n, gamma, index)
    live, counts = _step(DrawKernel(CHUNK_ROWS), lib, step, g_m, g_n, gamma, index, live, leaf)
    assert live is None or (live.dtype == np.int32 and live.base is index)
    return counts, gamma.tobytes(), None if live is None else live.tobytes()


def test_kernel_chunks_match_the_numpy_kernel(libs):
    """A step that retires nothing: the counts and γ bytes of every scheme,
    with and without the contended count and the shared HSIC-NPA
    verdict, on the whole leaf and on int32 indexes (every draw in a
    random order, a random half), γ written first as 1 or by the pass."""
    rng = np.random.default_rng(3)
    for k, cfg in enumerate(_kernel_cfgs()):
        g_m, g_n = _draws(cfg, k)
        indexes = [rng.permutation(g_m.size).astype(np.int32),
                   np.flatnonzero(rng.random(g_m.size) < 0.5).astype(np.int32)]
        for scheme, pt, shared in _RUNS:
            for live, passing in [(None, False)] + [(at, p) for at in indexes
                                                    for p in (False, True)]:
                step = Step(cfg, [], scheme, pt, shared, None, passing, None)
                want = _run_step(None, step, g_m, g_n, live)
                for name, lib in libs:
                    assert _run_step(lib, step, g_m, g_n, live) == want, (name, step)


def test_gamma_pass_matches_the_numpy_pass(libs):
    """An HSIC-PA step on an empty index leaves the pass's γ on every
    draw: its bytes, the NaN of τ = b = 0 included."""
    nans = 0
    for k, cfg in enumerate(_kernel_cfgs()):
        g_m, g_n = _draws(cfg, k)
        step = Step(cfg, [], Scheme.HSIC_PA, False, False, None, True, None)
        want = _run_step(None, step, g_m, g_n, np.empty(0, dtype=np.int32))
        for name, lib in libs:
            assert _run_step(lib, step, g_m, g_n, np.empty(0, dtype=np.int32)) == want, name
        nans += int(np.count_nonzero(np.isnan(np.frombuffer(want[1]))))
    assert nans > 0


@pytest.mark.parametrize("base, snrs", FATE_SWEEPS)
def test_settle_chunks_match_the_numpy_test(libs, base, snrs):
    """The probe's settle test: the kept positions, floor and passed counts
    of every certificate, with and without ``passing``, on slices and
    indexes.  Then steps that retire draws first, building the live index
    or compacting a random one in place: the counts, the floor count, γ
    and the live index, for each kernel run the certificate serves."""
    kernel = DrawKernel(CHUNK_ROWS)
    rng = np.random.default_rng(19)
    cfgs = [base.with_snr(s) for s in snrs]
    floor = passed = settled = 0
    for cert in _fate_certificates(cfgs):
        runs = [run for run in _RUNS if run[0] == (Scheme.HSIC_PA if cert.pa else Scheme.HSIC_NPA)]
        for k, cfg in enumerate(cfgs):
            g_m, g_n = (np.concatenate(pair) for pair in zip(_draws(cfg, k),
                                                             _bound_draws(cert, cfg.rho_n)))
            want_out = np.empty(g_m.size, dtype=np.int32)
            got_out = np.empty(g_m.size, dtype=np.int32)
            for passing in (False, True):
                for at in _chunk_forms(g_m.size, rng):
                    want = _settle_chunk(kernel, None, cert, cfg.rho_n, g_m, g_n, at, passing,
                                         want_out)
                    for name, lib in libs:
                        got = lib.settle(cert, cfg.rho_n, g_m, g_n, at, passing, got_out)
                        assert got == want, (name, cfg, cert, passing)
                        assert np.array_equal(got_out[:got[0]], want_out[:want[0]]), name
                    floor += want[1]
                    passed += want[2]
                subset = np.flatnonzero(rng.random(g_m.size) < 0.8).astype(np.int32)
                for live in (None, subset):
                    for scheme, pt, shared in runs:
                        step = Step(cfg, [], scheme, pt, shared, cert, passing, None)
                        want = _run_step(None, step, g_m, g_n, live)
                        for name, lib in libs:
                            assert _run_step(lib, step, g_m, g_n, live) == want, (name, step)
                        floor += want[0][3]
                    if live is None:
                        settled += g_m.size - len(want[2]) // 4
    assert floor > 0 and passed > 0 and settled > 0


def _pool():
    """Every MC cell of fig1 and fig5a (M = 5 in both)."""
    return [cell for figure in ("fig1", "fig5a") for raw in load_preset(figure)["sweeps"]
            for cell in _preset_cells(figure, raw["label"])[0]]


def test_mc_summary_without_the_compiled_pass_is_unchanged(shipped, numpy_path, monkeypatch):
    """Two blocks, each of several leaves, of fig1 and fig5a curves, with
    and without the contended count: with the build forced to fail (a
    cold cache and a missing compiler), the numpy path's summaries equal
    the compiled pass's, dict for dict."""
    monkeypatch.setattr(hnoma.mc, "BLOCK_TRIALS", 3 * CHUNK_ROWS)
    monkeypatch.setattr(hnoma.mc, "LEAF_ROWS", CHUNK_ROWS)
    trials = 3 * CHUNK_ROWS + 20_000
    cells = _pool()
    want = [mc_summary(cells, trials, 7, want_pt=pt) for pt in (False, True)]
    numpy_path()
    assert [mc_summary(cells, trials, 7, want_pt=pt) for pt in (False, True)] == want


def test_a_cold_cache_builds_once(shipped, monkeypatch, tmp_path):
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
