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


def _run_and_write(args, raws, path):
    """Run the raw specs, with the command line's ``--trials`` and ``--seed``,
    in one ``run_sweep`` call and write each spec's rows to ``path(spec)``;
    yields each path and row count.  Every spec parses before a directory is made."""
    specs = [replace(_parsed(SweepSpec.from_dict, raw), **_overrides(args))
             for raw in raws]
    for spec, rows in zip(specs, run_sweep(specs)):
        out = path(spec)
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        write_rows(rows, out, args.format)
        yield out, len(rows)


def cmd_sweep(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    for out, n_rows in _run_and_write(args, [raw], lambda spec: args.out):
        print(f"wrote {n_rows} rows to {out}")
    return EXIT_OK


def cmd_figure(args) -> int:
    preset = load_preset(args.name)
    name = lambda spec: os.path.join(args.out, f"{preset['name']}_{spec.label}.{args.format}")
    for out, _ in _run_and_write(args, preset["sweeps"], name):
        print(f"wrote {out}")
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


def _build_parser() -> argparse.ArgumentParser:
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--trials", type=int)
    runs.add_argument("--seed", type=int)
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", required=True)
    writes.add_argument("--format", choices=("csv", "json"), default="csv")
    p = argparse.ArgumentParser(
        prog="hnoma",
        description="Hybrid-NOMA uplink sweeps, figure reproduction, validation")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", parents=[runs, writes], help="run one sweep from a JSON spec")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=cmd_sweep)

    fp = sub.add_parser("figure", parents=[runs, writes], help="reproduce a figure preset")
    fp.add_argument("name", choices=FIGURES)
    fp.set_defaults(func=cmd_figure)

    vp = sub.add_parser("validate", parents=[runs], help="run the cross-validation suite")
    vp.add_argument("--config", help="JSON list of scenario dicts")
    vp.set_defaults(func=cmd_validate)
    return p


_PARSER = _build_parser()  # parse_args leaves it unchanged, so every call shares it


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
