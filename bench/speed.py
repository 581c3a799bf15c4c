"""Speed probe: rescales measured times to a fixed reference speed.

The benchmark runs on a few cores of a shared host.  Other tenants' load
moves the speed of a single-threaded process by up to ±25% for tens of
seconds at a time, so raw round times of the same code spread by up to
50% between runs.  A short fixed kernel that uses no hnoma code is timed
between the program's calls; a time measured in the same process is
reported as ``raw * ref_s / median(kernel times)``, the seconds it would
have taken at the speed at which the kernel takes ``ref_s``.  Probes run
outside the timed window: their wall and CPU time are subtracted.

The host's load slows interpreter-bound and array-bound code by
different amounts, so the kernel does the kind of work that dominates
the workload.  The generated sweeps (closed forms, integration oracle)
are scalar code: float math in the interpreter and numpy calls on 0-d
arrays.  The figure presets are array code: sort and log2 over large
gain arrays on the MC path.  Each kernel follows the slowdown of its own
kind of work to 3-9% per round, the other kind only to 13-16%.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time

# kernel seconds at the reference speed: about their median on a
# 2-vCPU Xeon VM (see README.md)
INTERP_REF_S = 0.0037
SCALAR_REF_S = 0.005
VECTOR_REF_S = 0.0052

# a probe runs before every call to these
HOOKS = (("hnoma.cli", "run_sweep"), ("hnoma.sweep", "mc_summary"))

_GAINS = []


def interp_kernel() -> float:
    """Float math in the interpreter; needs no numpy, so set-up can use it."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 15000):
        x = i * 1e-5
        acc += math.exp(-x) * math.log1p(x) / (1.0 + x * x)
    return time.perf_counter() - t0


def scalar_kernel() -> float:
    """interp_kernel plus numpy calls on 0-d arrays, like the integrands."""
    import numpy as np

    t = interp_kernel()
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150):
        x = np.asarray(0.1 * i)
        lo = np.maximum(np.asarray(0.2), x)
        ok = (lo < 3.0) & (x >= 0)
        lo = np.where(ok, lo, 0.0)
        acc += float(-np.exp(-lo) * np.expm1(lo - 3.0))
    return t + time.perf_counter() - t0


def vector_kernel() -> float:
    """Sort and log2 over a 50,000 x 4 gain array, like the MC path."""
    import numpy as np

    if not _GAINS:
        _GAINS.append(np.random.default_rng(0).exponential(size=(50000, 4)))
    t0 = time.perf_counter()
    ordered = np.sort(_GAINS[0], axis=1)
    rate = np.log2(1.0 + 3.0 * ordered[:, 1]) - np.log2(1.0 + ordered[:, 0])
    float(np.mean(rate > 0.5))
    return time.perf_counter() - t0


KERNELS = {"scalar": (scalar_kernel, SCALAR_REF_S), "vector": (vector_kernel, VECTOR_REF_S)}


def interp_scale() -> float:
    """ref/measured factor from interp_kernel: median of four after a warm-up."""
    interp_kernel()
    return INTERP_REF_S / statistics.median(interp_kernel() for _ in range(4))


class SpeedProbe:
    """Kernel times of one round, and the wall and CPU time they took."""

    def __init__(self, kind: str):
        self.kernel, self.ref_s = KERNELS[kind]
        self.kernel()  # warm-up, not recorded
        self.times = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def __call__(self):
        w0, c0 = time.perf_counter(), time.process_time()
        self.times.append(self.kernel())
        self.wall_s += time.perf_counter() - w0
        self.cpu_s += time.process_time() - c0

    def install(self):
        for module, attr in HOOKS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self._wrap(getattr(mod, attr)))

    def _wrap(self, fn):
        def probed(*args, **kwargs):
            self()
            return fn(*args, **kwargs)
        return probed

    def scale(self) -> float:
        return self.ref_s / statistics.median(self.times)
