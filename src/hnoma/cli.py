"""Command-line harness: sweeps, figure reproduction, validation."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from importlib import resources

from .config import InvalidConfigError, SystemConfig
from .sweep import SweepSpec, run_sweep, write_rows
from .validate import report_text, run_validation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2

FIGURES = ("fig1", "fig2", "fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b")


def load_preset(name: str) -> dict:
    if name not in FIGURES:
        raise InvalidConfigError(f"unknown figure {name!r}; choose from {FIGURES}")
    text = resources.files("hnoma.presets").joinpath(f"{name}.json").read_text()
    return json.loads(text)


def _parsed(build, raw):
    """``build(raw)``; the KeyError/TypeError of malformed JSON is a config error."""
    try:
        return build(raw)
    except (KeyError, TypeError) as exc:
        raise InvalidConfigError(f"malformed spec: {exc}") from exc


def _overrides(args) -> dict:
    """The ``--trials`` and ``--seed`` values given on the command line."""
    return {k: getattr(args, k) for k in ("trials", "seed")
            if getattr(args, k) is not None}


def cmd_sweep(args) -> int:
    with open(args.config) as fh:
        spec = _parsed(SweepSpec.from_dict, json.load(fh))
    spec = replace(spec, **_overrides(args))
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    rows = run_sweep(spec)
    write_rows(rows, args.out, args.format)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_figure(args) -> int:
    preset = load_preset(args.name)
    specs = [replace(_parsed(SweepSpec.from_dict, raw), **_overrides(args))
             for raw in preset["sweeps"]]
    os.makedirs(args.out, exist_ok=True)
    ext = "csv" if args.format == "csv" else "json"
    for spec in specs:
        rows = run_sweep(spec)
        path = os.path.join(args.out, f"{preset['name']}_{spec.label}.{ext}")
        write_rows(rows, path, args.format)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    configs = None
    if args.config:
        with open(args.config) as fh:
            configs = json.load(fh)
        _parsed(lambda cs: [SystemConfig.make(**p) for p in cs], configs)
    rows = run_validation(configs, **_overrides(args))
    print(report_text(rows))
    return EXIT_OK if all(r.passed for r in rows) else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hnoma",
        description="Hybrid-NOMA uplink sweeps, figure reproduction, validation")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", help="run one sweep from a JSON spec")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_sweep)

    fp = sub.add_parser("figure", help="reproduce a figure preset")
    fp.add_argument("name", choices=FIGURES)
    fp.add_argument("--out", required=True)
    fp.add_argument("--trials", type=int)
    fp.add_argument("--seed", type=int)
    fp.add_argument("--format", choices=("csv", "json"), default="csv")
    fp.set_defaults(func=cmd_figure)

    vp = sub.add_parser("validate", help="run the cross-validation suite")
    vp.add_argument("--config", help="JSON list of scenario dicts")
    vp.add_argument("--trials", type=int)
    vp.add_argument("--seed", type=int)
    vp.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
