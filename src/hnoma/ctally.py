"""The compiled tally pass: ``_tally.c``, built on first use and loaded
with ctypes.

``load()`` builds the object the first time a process asks for it (the
first ``mc_summary`` call, never at import) with the interpreter's C
compiler (``sysconfig.get_config_var("CC")``) and the flags ``_FLAGS``,
and keeps it in the package's ``__pycache__``, or in ``~/.cache/hnoma``
where that is not private and writable.  The object's name is a hash of
the source, the flags and the platform, so a machine builds each source
once (about 1 s, three clones of each loop); a
build is written under a temporary name and moved into place with
``os.replace``.  Objects are loaded only from a directory the user owns
and no one else may write.  Where no object can be built or loaded,
``load()`` gives None and the tally runs ``schemes.DrawKernel``.

The C loops run ``DrawKernel``'s operations in its order, so the two
paths give the same counts and γ bit for bit (see ``_tally.c``); that
needs a compiler that rounds every operation on its own, hence
``-ffp-contract=off`` and no ``-ffast-math`` or ``-Ofast``.

The loops run on the CPU's widest vectors all the same: with gcc on
x86-64 glibc, ``_tally.c`` builds each entry point three times
(``target_clones``: x86-64-v4 with AVX-512, x86-64-v3 with AVX2, and
baseline x86-64), and the dynamic loader picks the widest clone the CPU
runs, so one object serves every x86-64 CPU.  ``-march=native`` would
not: the object's name does not know the CPU and a home directory may be
shared between machines, so an older CPU that loaded it would stop on an
illegal instruction.  The clones give the same bits: v3 and v4 have
fused multiply-add, which ``-ffp-contract=off`` keeps out of every
clone, and vector width changes no IEEE operation and no exact count.
The tests check each clone the host runs against numpy.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import sys
from importlib import resources

from .schemes import _SETTLE_MARGIN, Scheme

_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-trapping-math")
_CODES = {Scheme.FSIC: 0, Scheme.HSIC_NPA: 1, Scheme.HSIC_PA: 2}


class _Settle(ctypes.Structure):
    """``_tally.c``'s ``struct settle``: a certificate's bounds at one ρ_n."""
    _fields_ = [(name, ctypes.c_double) for name in (
        "k_o", "k_q", "floor_g_n", "k_a_rho", "beta_rho", "k_x_rho", "up", "up_rho", "k_w",
        "k_l", "up_over_rho", "win_g_n", "k_a", "beta")]


class _Step(ctypes.Structure):
    """``_tally.c``'s ``struct step``: one step of a curve."""
    _fields_ = [("bounds", _Settle),
                *[(name, ctypes.c_double) for name in ("rho_m", "eps_m", "beta_rho_n", "rho_n")],
                *[(name, ctypes.c_int32) for name in (
                    "scheme", "want_pt", "shared", "retire", "cone", "adapting", "won_for_good",
                    "passing")]]


class _Leaf(ctypes.Structure):
    """``_tally.c``'s ``struct leaf``: a leaf's buffers."""
    _fields_ = [("g_m", ctypes.c_void_p), ("g_n", ctypes.c_void_p), ("gamma", ctypes.c_void_p),
                ("index", ctypes.c_void_p), ("size", ctypes.c_int64)]


def _bounds(cert, rho_n: float, adapting: bool) -> _Settle:
    """The settle bounds of ``cert`` at ``rho_n`` (none without ``cert``)."""
    if cert is None:
        return _Settle()
    up = 1.0 + _SETTLE_MARGIN
    return _Settle(cert.k_o, cert.k_q, _SETTLE_MARGIN / rho_n, cert.k_a * rho_n,
                   cert.beta * rho_n, (cert.k_x if adapting else 0.0) * rho_n, up, up * rho_n,
                   cert.k_w, cert.k_l, up / rho_n, up / (rho_n * cert.k_d), cert.k_a, cert.beta)


def _cache_dirs() -> list:
    """Where the object may live, in the order tried."""
    return [os.path.join(os.path.dirname(__file__), "__pycache__"),
            os.path.join(os.path.expanduser("~"), ".cache", "hnoma")]


def _compiler() -> list:
    # this and _build import what only a build needs
    import shlex
    import sysconfig

    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise OSError("the interpreter names no C compiler")
    return shlex.split(cc)


def _private(path: str) -> bool:
    """Whether ``path`` is a real directory (or file) that the user owns
    and no one else may write."""
    st = os.lstat(path)
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _object_path(source: bytes) -> str:
    """The built object for ``source``: found in a cache directory, or
    built into the first one that is private and writable.  A failed
    build ends the search."""
    key = b"\0".join([source, " ".join(_FLAGS).encode(), sys.platform.encode(),
                      platform.machine().encode()])
    name = f"_tally-{hashlib.sha256(key).hexdigest()[:16]}.so"
    for where in _cache_dirs():
        try:
            os.makedirs(where, mode=0o700, exist_ok=True)
        except OSError:
            continue
        if not _private(where):
            continue
        path = os.path.join(where, name)
        if not os.path.exists(path):
            if not os.access(where, os.W_OK):
                continue
            _build(source, where, path)
        if _private(path):
            return path
    raise OSError("no private cache directory holds the compiled tally")


def _build(source: bytes, where: str, path: str) -> None:
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix="_tally-", suffix=".tmp", dir=where)
    os.close(fd)
    try:
        # the source comes on stdin, so it need not be a file on disk
        subprocess.run([*_compiler(), *_FLAGS, "-x", "c", "-o", tmp, "-"], input=source,
                       capture_output=True, check=True, timeout=120)
        os.chmod(tmp, 0o700)   # private whatever the umask
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:
        raise OSError(f"the compiled tally did not build: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def load():
    """The compiled tally pass (``CompiledTally``), or None where it cannot
    be built or loaded; built at most once per source and machine, and
    looked up once per process."""
    try:
        source = resources.files("hnoma").joinpath("_tally.c").read_bytes()
        return CompiledTally(ctypes.CDLL(_object_path(source)))
    except (OSError, AttributeError):   # AttributeError: no os.getuid
        return None


def _address(array) -> int:
    return array.__array_interface__["data"][0]


class CompiledTally:
    """``_tally.c``'s two entry points on numpy arrays: ``step``, one step
    of ``tally.tally_curve`` on a leaf, and ``settle``, the probe's settle
    test on a chunk.  The gains and γ are contiguous float64 leaves, the
    index a contiguous int32 array at least as long."""

    def __init__(self, lib):
        ptr, i64, cint = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int
        self._step = lib.tally_step
        self._step.argtypes = [ctypes.POINTER(_Step), ctypes.POINTER(_Leaf), i64, ptr]
        self._step.restype = None
        self._settle = lib.settle_chunk
        self._settle.argtypes = [ctypes.POINTER(_Settle), cint, cint, cint, cint, ptr, ptr,
                                 ptr, i64, i64, ptr, ptr]
        self._settle.restype = i64
        self._counts = (ctypes.c_int64 * 5)()

    @staticmethod
    def step_args(step) -> _Step:
        """The ``tally.Step`` ``step`` as ``tally_step`` reads it; built once
        per curve, for every leaf."""
        cfg, cert = step.cfg, step.cert
        tests = (False,) * 4 if cert is None else cert.tests(step.passing)
        _, won_for_good, adapting, cone = tests
        return _Step(_bounds(cert, cfg.rho_n, adapting), cfg.rho_m, cfg.eps_m,
                     cfg.beta * cfg.rho_n, cfg.rho_n, _CODES[step.run], step.pt, step.shared,
                     cert is not None, cone, adapting, won_for_good, step.passing)

    @staticmethod
    def leaf(g_m, g_n, gamma, index) -> _Leaf:
        """A leaf's buffers as ``tally_step`` reads them: their addresses,
        taken once for all the steps of a curve on the leaf."""
        return _Leaf(_address(g_m), _address(g_n), _address(gamma), _address(index), g_m.size)

    def step(self, args: _Step, leaf: _Leaf, live: int) -> tuple:
        """One step (``step_args``) on ``leaf``, whose live draws are the
        first ``live`` of its index, or all of them where ``live`` < 0:
        ``(hits, pt_hits, npa_hits, floor_draws, kept)``, as ``tally._step``
        gives them, with ``kept`` the live draws after the step (-1: no
        index yet)."""
        self._step(args, leaf, live, self._counts)
        return tuple(self._counts)

    def settle(self, cert, rho_n: float, g_m, g_n, at, passing: bool, out) -> tuple:
        """``DrawKernel.settled`` on ``at``, a slice of the leaf or an int32
        index, the positions of the draws not settled written to ``out`` in
        order: ``(kept, floor_draws, passed_draws)``.  ``out`` may be ``at``
        or start inside it, before its first unread position."""
        passing, won_for_good, adapting, cone = cert.tests(passing)
        if isinstance(at, slice):
            index, lo, n = None, at.start, at.stop - at.start
        else:
            index, lo, n = _address(at), 0, at.size
        kept = self._settle(_bounds(cert, rho_n, adapting), cone, adapting, won_for_good,
                            passing, _address(g_m), _address(g_n), index, lo, n,
                            _address(out), self._counts)
        return kept, self._counts[0], self._counts[1]
