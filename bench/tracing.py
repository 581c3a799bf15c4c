"""Spans around the calls into each hnoma layer, recorded from outside.

The tracer replaces public functions at the module attributes their
callers look up, so nothing inside ``src/hnoma`` changes.  Spans
(name, start, end, parent) stay in memory and are written when the round
ends; per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time

import numpy as np

# (module looked up by the caller, attribute, span name)
TRACED = (
    ("hnoma.mc", "stream", "numerics.stream"),
    ("hnoma.mc", "sample_gain_matrix", "channel.sample_gain_matrix"),
    ("hnoma.mc", "rate_factors", "schemes.rate_factors"),
    ("hnoma.mc", "mass_upper_interval", "channel.mass_interval"),
    ("hnoma.mc", "mass_lower_interval", "channel.mass_interval"),
    ("hnoma.mc", "adaptive_integrate", "numerics.adaptive_integrate"),
    ("hnoma.mc", "integrate_event", "mc.integrate_event"),
    ("hnoma.sweep", "mc_summary", "mc.mc_summary"),
    ("hnoma.sweep", "p_t_exact", "exact.p_t_exact"),
    ("hnoma.sweep", "p_t_asymptotic", "asymptotic.p_t_asymptotic"),
    ("hnoma.sweep", "integrate_event", "mc.integrate_event"),
    ("hnoma.sweep", "integrate_underperformance", "mc.integrate_underperformance"),
    ("hnoma.cli", "run_sweep", "sweep.run_sweep"),
    ("hnoma.cli", "write_rows", "sweep.write_rows"),
)


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self.draws = {"channel.sample_gain_matrix": 0, "schemes.rate_factors": 0}
        self.blocks = []         # (M, seed, block) of every gain block drawn
        self.rows = 0
        self._last_stream = None

    def install(self):
        for module, attr, name in TRACED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self._wrap(getattr(mod, attr), name))

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        # layers that do countable work have a _note_<span name> hook that
        # reads the call's arguments
        note = getattr(self, "_note_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "sweep.run_sweep":
                self.rows += len(out)
            return out
        return traced

    def _note_numerics_stream(self, seed, block=0):
        self._last_stream = (seed, block)

    def _note_channel_sample_gain_matrix(self, M, rng, size):
        # the mc layer builds the generator with stream() right before this call
        self.blocks.append((M,) + self._last_stream)
        self.draws["channel.sample_gain_matrix"] += size

    def _note_schemes_rate_factors(self, cfg, g_m, g_n, scheme):
        self.draws["schemes.rate_factors"] += int(np.size(g_m))

    def metrics(self) -> dict:
        """Per-layer busy time, self time, counts and ratios of one round."""
        busy, self_s, calls = {}, {}, {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            busy[name] = busy.get(name, 0.0) + end - start
            self_s[name] = self_s.get(name, 0.0) + end - start - inner
            calls[name] = calls.get(name, 0) + 1

        def per_call_ms(name):
            return 1e3 * busy.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        gen_s = busy.get("channel.sample_gain_matrix", 0.0)
        ker_s = busy.get("schemes.rate_factors", 0.0)
        gen_n = self.draws["channel.sample_gain_matrix"]
        ker_n = self.draws["schemes.rate_factors"]
        integrals = calls.get("mc.integrate_event", 0)
        integrand = calls.get("channel.mass_interval", 0)
        return {
            "channel.sample_gain_matrix.s": gen_s,
            "channel.sample_gain_matrix.draws": gen_n,
            "channel.draws_per_s": rate(gen_n, gen_s),
            "channel.unique_draw_share": (len(set(self.blocks)) / len(self.blocks)
                                          if self.blocks else 0.0),
            "schemes.rate_factors.s": ker_s,
            "schemes.rate_factors.draws": ker_n,
            "schemes.draws_per_s": rate(ker_n, ker_s),
            "mc.mc_summary.s": busy.get("mc.mc_summary", 0.0),
            "mc.mc_summary.calls": calls.get("mc.mc_summary", 0),
            "mc.mc_summary.self_s": self_s.get("mc.mc_summary", 0.0),
            "exact.p_t_exact.s": busy.get("exact.p_t_exact", 0.0),
            "exact.p_t_exact.calls": calls.get("exact.p_t_exact", 0),
            "exact.p_t_exact.ms_per_call": per_call_ms("exact.p_t_exact"),
            "asymptotic.p_t_asymptotic.s": busy.get("asymptotic.p_t_asymptotic", 0.0),
            "asymptotic.p_t_asymptotic.calls": calls.get("asymptotic.p_t_asymptotic", 0),
            "asymptotic.p_t_asymptotic.ms_per_call": per_call_ms("asymptotic.p_t_asymptotic"),
            "mc.integrate_event.s": busy.get("mc.integrate_event", 0.0),
            "mc.integrate_event.calls": integrals,
            "mc.integrate_event.ms_per_call": per_call_ms("mc.integrate_event"),
            "mc.integrate_event.integrand_calls": integrand,
            "mc.integrate_event.integrand_calls_per_integral": rate(integrand, integrals),
            "mc.integrate_event.self_s": self_s.get("mc.integrate_event", 0.0),
            "numerics.adaptive_integrate.s": busy.get("numerics.adaptive_integrate", 0.0),
            "sweep.run_sweep.s": busy.get("sweep.run_sweep", 0.0),
            "sweep.run_sweep.self_s": self_s.get("sweep.run_sweep", 0.0),
            "sweep.write_rows.s": busy.get("sweep.write_rows", 0.0),
            "sweep.rows": self.rows,
        }

    def dump(self, path: str):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start_s", "end_s", "parent"))
            for name, start, end, parent in self.spans:
                out.writerow((name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent))
