"""One workload process: a set-up probe, or one timed round of CLI calls.

    python3 bench/worker.py setup PLAN
    python3 bench/worker.py round PLAN RECORD --trace 0|1 --check 0|1

``run.py`` starts this script in a fresh single-threaded process for
every probe and every round, so no round reuses another's import or
module caches.  The CLI calls within one round share both, and the
import cost is measured only by the set-up probes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import speed


def setup_probe(plan: dict) -> dict:
    """Seconds to import hnoma and parse and validate the workload's specs.

    ``setup_s`` is rescaled to the reference speed with the interpreter
    kernel, timed before the import and after the parse; ``raw_setup_s``
    is as measured.
    """
    before = speed.interp_scale()
    t0 = time.perf_counter()
    from hnoma.cli import load_preset
    from hnoma.sweep import SweepSpec

    if plan["kind"] == "figure":
        raws = [dict(raw, seed=plan["seed"]) for raw in load_preset(plan["preset"])["sweeps"]]
    else:
        raws = []
        for call in plan["calls"]:
            with open(call["argv"][call["argv"].index("--config") + 1]) as fh:
                raws.append(json.load(fh))
    specs = [SweepSpec.from_dict(raw) for raw in raws]
    elapsed = time.perf_counter() - t0
    if len(specs) != sum(len(c["outputs"]) for c in plan["calls"]):
        raise SystemExit("plan and parsed specs disagree")
    scale = statistics.median((before, speed.interp_scale()))
    return dict(setup_s=elapsed * scale, raw_setup_s=elapsed)


def run_round(plan: dict, trace: bool, check: bool) -> dict:
    from hnoma.cli import main

    import checks
    from tracing import Tracer

    # traced rounds run no probes, so that no span holds probe time
    tracer = Tracer() if trace else None
    probe = None if trace else speed.SpeedProbe(plan["probe"])
    if tracer:
        tracer.install()
    else:
        probe.install()
    shutil.rmtree(plan["out_dir"], ignore_errors=True)
    os.makedirs(plan["out_dir"])
    errors = []
    sink = io.StringIO()
    w0, c0 = time.perf_counter(), time.process_time()
    for call in plan["calls"]:
        try:
            with contextlib.redirect_stdout(sink):
                code = main(call["argv"])
        except Exception as exc:  # a sweep that aborts loses its rows; count them
            code = type(exc).__name__
        if code != 0:
            errors.append([",".join(o["spec"]["label"] for o in call["outputs"]), code])
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if probe:
        wall, cpu = wall - probe.wall_s, cpu - probe.cpu_s
        probe()
        scale = probe.scale()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = hashlib.sha256()
    problems, failed_by_label, attempted = [], {}, 0
    allowed = checks.allowed_failures(plan)
    outputs = []
    for call in plan["calls"]:
        for out in call["outputs"]:
            spec = out["spec"]
            attempted += checks.grid_size(spec)
            if os.path.exists(out["csv"]):
                with open(out["csv"], "rb") as fh:
                    digest.update(fh.read())
                rows = checks.read_rows(out["csv"])
            else:
                rows = []
            failed = checks.check_rows(spec, rows, problems)
            if failed:
                failed_by_label[spec["label"]] = failed
            if failed > allowed.get(spec["label"], 0):
                problems.append(f"{spec['label']}: {failed} failed rows, "
                                f"{allowed.get(spec['label'], 0)} allowed")
            else:
                # the rows that survive an allowed failure are still checked
                outputs.append(dict(spec=spec, rows=[
                    r for r in rows if not r["regime"].startswith("error:")]))
    record = dict(raw_wall_s=wall, raw_cpu_s=cpu, peak_rss_mb=rss_mb, attempted=attempted,
                  failed=sum(failed_by_label.values()), failed_by_label=failed_by_label,
                  errors=errors, digest=digest.hexdigest(), problems=problems)
    if probe:
        record.update(wall_s=wall * scale, cpu_s=cpu * scale, slowdown=1.0 / scale,
                      probes=len(probe.times))
    if tracer:
        record["layers"] = dict(tracer.metrics(), **{"traced.wall_s": wall})
        tracer.dump(os.path.join(os.path.dirname(plan["out_dir"]), "spans.csv"))
    if check:
        checks.CHECKS[plan["workload"]](outputs, problems)
        if plan["kind"] == "figure":
            record["reference_cells"] = checks.reference_mc(
                plan["workload"], plan["seed"], outputs, problems)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "round"))
    ap.add_argument("plan")
    ap.add_argument("record", nargs="?")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(args.plan) as fh:
        plan = json.load(fh)
    if args.mode == "setup":
        print(json.dumps(setup_probe(plan)))
        return 0
    record = run_round(plan, bool(args.trace), bool(args.check))
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
