"""Config-driven SNR sweeps with CSV/JSON emission."""

from __future__ import annotations

import csv
import io
import itertools
import json
import numbers
from dataclasses import dataclass

from .asymptotic import p_t_asymptotic
from .channel import OrderPairDensity
from .config import InvalidConfigError, SystemConfig
from .estimates import ASYMPTOTIC, EXACT, MC, METHODS, NUMERIC, ProbEstimate
from .exact import p_t_exact, regime_label
# integrate_event and integrate_underperformance are not called here;
# bench/tracing.py looks them up in this module
from .mc import (integrate_event, integrate_events,  # noqa: F401
                 integrate_underperformance, mc_summary)
from .numerics import IntegrationFailureError
from .regions import EventRegion, region_contended_loss, region_underperformance
from .schemes import HNOMA_SCHEMES, Scheme

QUANTITIES = ("contended-loss", "underperformance")

CSV_COLUMNS = ("snr_db", "scheme", "method", "value", "std_err", "trials",
               "regime", "gamma_mean", "energy_mean")

# what fails one row, as error:<name>, rather than the sweep
_ROW_ERRORS = (InvalidConfigError, ArithmeticError, IntegrationFailureError)


@dataclass(frozen=True)
class SweepSpec:
    """One curve: a scenario swept over an SNR grid."""

    M: int
    m: int
    n: int
    R_m: float
    beta: float
    eta: float
    snr_db: tuple
    schemes: tuple = (Scheme.HSIC_PA.value,)
    methods: tuple = (MC, EXACT)
    quantity: str = "contended-loss"
    trials: int = 200_000
    seed: int = 20250801
    label: str = ""

    def __post_init__(self):
        if len(self.snr_db) == 0:
            raise InvalidConfigError("empty SNR grid")
        # JSON true/false are Python bools, which pass as numbers
        if not all(isinstance(s, numbers.Real) and not isinstance(s, bool)
                   for s in self.snr_db):
            raise InvalidConfigError(f"non-numeric SNR in {self.snr_db}")
        for name in ("M", "m", "n", "trials", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise InvalidConfigError(f"{name}={value!r} is not an integer")
        if len(self.schemes) == 0:
            raise InvalidConfigError("empty scheme list")
        if len(self.methods) == 0:
            raise InvalidConfigError("empty method list")
        if self.quantity not in QUANTITIES:
            raise InvalidConfigError(f"unknown quantity {self.quantity!r}")
        hybrid = tuple(s.value for s in HNOMA_SCHEMES)
        bad = [s for s in self.schemes if s not in hybrid]
        if bad:
            raise InvalidConfigError(f"schemes {bad} not among {hybrid}")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise InvalidConfigError(f"methods {bad} not among {METHODS}")
        if self.quantity == "contended-loss":
            if tuple(self.schemes) != (Scheme.HSIC_PA.value,):
                raise InvalidConfigError(
                    "the contended-loss splits exist only for scheme HSIC-PA")
        else:
            bad = set(self.methods) - {MC, NUMERIC}
            if bad:
                raise InvalidConfigError(
                    f"underperformance supports only mc/numeric-integration, got {bad}")
        if MC in self.methods and self.trials < 1:
            raise InvalidConfigError("trials must be >= 1 when mc is requested")
        # base config validation (rates, beta, indices)
        self.config_at(self.snr_db[0])

    def config_at(self, snr_db: float) -> SystemConfig:
        return SystemConfig.make(M=self.M, m=self.m, n=self.n, R_m=self.R_m,
                                 beta=self.beta, eta=self.eta, snr_db=snr_db)

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        d = dict(d)
        for key in ("snr_db", "schemes", "methods"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


def _row(snr_db, scheme, method, est: ProbEstimate = None, regime="",
         gamma_mean=None, energy_mean=None):
    return {
        "snr_db": snr_db,
        "scheme": scheme,
        "method": method,
        "value": None if est is None else est.value,
        "std_err": None if est is None else est.std_err,
        "trials": None if est is None else est.trials,
        "regime": regime,
        "gamma_mean": gamma_mean,
        "energy_mean": energy_mean,
    }


def _integrals(spec: SweepSpec, points) -> list:
    """The numeric-integration estimate, or the error, of every valid
    (SNR, scheme) cell in grid order, all from one ``integrate_events``
    call; a cell whose region cannot be built fails alone."""
    cells = []
    for _, cfg, _ in points:
        if cfg is None:
            continue
        for scheme in spec.schemes:
            try:
                cells.append(region_contended_loss(cfg)
                             if spec.quantity == "contended-loss"
                             else region_underperformance(cfg, scheme))
            except _ROW_ERRORS as exc:
                cells.append(exc)
    regions = [c for c in cells if isinstance(c, EventRegion)]
    try:
        results = iter(integrate_events(regions, OrderPairDensity(spec.M, spec.m, spec.n)))
    except _ROW_ERRORS as exc:
        results = itertools.repeat(exc)
    return [next(results) if isinstance(c, EventRegion) else c for c in cells]


def run_sweep(spec: SweepSpec) -> list:
    """One row per (snr, scheme, method), in grid order.

    Per-row failures are recorded in the regime column as ``error:<name>``
    rather than aborting the sweep.  The MC cells of every valid SNR and
    scheme are estimated in one ``mc_summary`` pass over shared draws,
    and their numeric-integration cells in one ``integrate_events`` pass.
    """
    points = []
    for snr in spec.snr_db:
        try:
            cfg = spec.config_at(snr)
            points.append((snr, cfg, regime_label(cfg)))
        except InvalidConfigError as exc:
            points.append((snr, None, f"error:{type(exc).__name__}"))
    summaries = iter(())
    if MC in spec.methods:
        cells = [(cfg, scheme) for _, cfg, _ in points if cfg is not None
                 for scheme in spec.schemes]
        summaries = iter(mc_summary(cells, spec.trials, spec.seed,
                                    want_pt=spec.quantity == "contended-loss"))
    integrals = iter(_integrals(spec, points) if NUMERIC in spec.methods else ())
    rows = []
    for snr, cfg, regime in points:
        if cfg is None:
            for scheme in spec.schemes:
                for method in spec.methods:
                    rows.append(_row(snr, scheme, method, regime=regime))
            continue
        for scheme in spec.schemes:
            summary = next(summaries, None)
            integral = next(integrals, None)
            for method in spec.methods:
                try:
                    gamma_mean = energy_mean = None
                    if method == MC:
                        est = (summary["pt_estimate"]
                               if spec.quantity == "contended-loss"
                               else summary["estimate"])
                        gamma_mean = summary["gamma_mean"]
                        energy_mean = summary["energy_mean"]
                    elif method == EXACT:
                        est = p_t_exact(cfg)
                    elif method == ASYMPTOTIC:
                        est = p_t_asymptotic(cfg)
                    else:  # numeric integration
                        est = integral
                        if isinstance(est, Exception):
                            raise est
                    rows.append(_row(snr, scheme, method, est, regime,
                                     gamma_mean, energy_mean))
                except _ROW_ERRORS as exc:
                    rows.append(_row(snr, scheme, method,
                                     regime=f"error:{type(exc).__name__}"))
    return rows


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def rows_to_csv(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    return buf.getvalue()


def rows_to_json(rows: list) -> str:
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def write_rows(rows: list, path: str, fmt: str = "csv") -> None:
    text = rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows)
    with open(path, "w") as fh:
        fh.write(text)
