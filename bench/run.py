"""hnoma benchmark: end-to-end and per-layer metrics for one workload.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  For the workload it builds the inputs from
the seed, times the set-up (import plus spec parsing) in ten fresh
processes, then runs whole rounds, each in a fresh single-threaded
process, until ``--seconds`` of rounds have run and at least two rounds.
Outputs are checked after every round's timed window.  The last stdout
line is one JSON object: ``correct``, ``attempted`` and ``failed`` rows,
and the metrics, end-to-end ones (medians over rounds, rescaled to a
reference machine speed by ``speed.py``) with ``--trace 0`` and
per-layer ones (as measured) with ``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import build_plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 10
# per-round figures kept in run.json; medians of the untraced ones are reported
ROUND_FIGURES = ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s", "slowdown", "peak_rss_mb")
# two rounds at least, so a round slower than --seconds still has a partner
# and the byte-identical CSV check runs on every workload
MIN_ROUNDS = 2
# a run must end within 180 s; rounds stop being started well before that
RUN_BUDGET_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(args: list, deadline: float) -> subprocess.CompletedProcess:
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float,
                 wanted: list) -> dict:
    """One run; ``wanted`` lists the metrics (name, unit) to report."""
    run_dir = os.path.join(HERE, "out", name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    plan = build_plan(name, seed, ROOT, run_dir)
    plan_path = os.path.join(run_dir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh, indent=1)

    setups = [json.loads(run_child(["setup", plan_path], deadline).stdout)
              for _ in range(SETUP_PROBES)]

    records = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        rec_path = os.path.join(run_dir, f"round{len(records)}.json")
        run_child(["round", plan_path, rec_path, "--trace", str(int(trace)),
                   "--check", str(int(not records))], deadline)
        with open(rec_path) as fh:
            records.append(json.load(fh))
        last = time.monotonic() - t0
        if time.monotonic() + last > deadline:
            break
        if len(records) >= MIN_ROUNDS and time.monotonic() - start + last > seconds:
            break

    first = records[0]
    problems = list(first["problems"])
    for k, rec in enumerate(records[1:], 1):
        problems += rec["problems"]
        if rec["digest"] != first["digest"]:
            problems.append(f"round {k} wrote different CSV bytes from round 0")
    for label, code in first["errors"]:
        print(f"{name}: `{label}` ended with {code}", file=sys.stderr)
    for p in problems:
        print(f"{name}: CHECK FAILED: {p}", file=sys.stderr)

    if trace:
        values = {k: statistics.median(r["layers"][k] for r in records)
                  for k in first["layers"]}
    else:
        values = {k: statistics.median(r[k] for r in records) for k in ROUND_FIGURES}
        values.update({k: statistics.median(s[k] for s in setups)
                       for k in ("setup_s", "raw_setup_s")})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not problems,
              "attempted": sum(r["attempted"] for r in records),
              "failed": sum(r["failed"] for r in records),
              "metrics": metrics}
    with open(os.path.join(run_dir, "run.json"), "w") as fh:
        json.dump(dict(result, workload=name, seed=seed, seconds=seconds, trace=trace,
                       setups=setups, problems=problems,
                       rounds=[{k: r[k] for k in ROUND_FIGURES if k in r} for r in records]),
                  fh, indent=1)
    raw = "" if trace else (f"  (as measured: setup {values['raw_setup_s']:.4g} s, "
                            f"wall {values['raw_wall_s']:.4g} s, "
                            f"cpu {values['raw_cpu_s']:.4g} s, slowdown {values['slowdown']:.3g})")
    return result, raw


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = tuple(w["name"] for w in bench["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ("all",))
    ap.add_argument("--seed", type=int, default=20250801)
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hnoma", "__init__.py")):
        print(f"no hnoma sources under {os.path.join(ROOT, 'src')}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    if args.workload != "all":
        names = (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    try:
        for name in names:
            result, raw = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                       deadline, wanted)
            summary = "  ".join(f"{k}={m['value']:.6g} {m['unit']}"
                                for k, m in result["metrics"].items())
            print(f"{name}: attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}  {summary}{raw}")
            print(json.dumps(result))
    except subprocess.CalledProcessError as exc:
        print(f"workload process failed ({exc.returncode}):\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("workload process overran the run budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
