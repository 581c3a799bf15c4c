"""Config-driven SNR sweeps with CSV/JSON emission."""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass

# p_t_asymptotic, p_t_exact, integrate_event and integrate_underperformance
# are not called here; bench/tracing.py looks them up in this module
from .asymptotic import (asymptotic_coefficient, p_t_asymptotic,  # noqa: F401
                         scaled_asymptotic)
from .channel import OrderPairDensity
from .config import InvalidConfigError, SystemConfig, check_number
from .estimates import ASYMPTOTIC, EXACT, MC, METHODS, NUMERIC, ProbEstimate, raised
from .exact import p_t_exact, p_t_exact_batch, regime_label  # noqa: F401
from .mc import (integrate_event, integrate_events,  # noqa: F401
                 integrate_underperformance, mc_summary)
from .numerics import ROW_ERRORS
from .regions import EventRegion, region_contended_loss, region_underperformance
from .schemes import HNOMA_SCHEMES, Scheme

QUANTITIES = ("contended-loss", "underperformance")

CSV_COLUMNS = ("snr_db", "scheme", "method", "value", "std_err", "trials",
               "regime", "gamma_mean", "energy_mean")


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
        for snr in self.snr_db:
            check_number("snr_db", snr)
        for name in ("trials", "seed"):
            check_number(name, getattr(self, name), int)
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
        if self.seed < 0:
            raise InvalidConfigError(f"seed={self.seed} must be >= 0")
        # base config validation (field types, ranks, rates, beta)
        self.config_at(self.snr_db[0])

    def config_at(self, snr_db: float) -> SystemConfig:
        return SystemConfig.make(M=self.M, m=self.m, n=self.n, R_m=self.R_m,
                                 beta=self.beta, eta=self.eta, snr_db=snr_db)

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        if not isinstance(d, dict):
            raise InvalidConfigError(f"spec is a {type(d).__name__}, not a JSON object")
        d = dict(d)
        for key in ("snr_db", "schemes", "methods"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


def _row(snr_db, scheme, method, est: ProbEstimate = None, regime="",
         gamma_mean=None, energy_mean=None):
    value, std_err, trials = (None,) * 3 if est is None else (est.value, est.std_err, est.trials)
    return dict(zip(CSV_COLUMNS, (snr_db, scheme, method, value, std_err, trials,
                                  regime, gamma_mean, energy_mean)))


def _integrals(spec: SweepSpec, valid) -> list:
    """The numeric-integration estimate, or the error, of every (valid
    config, scheme) cell in grid order, all from one ``integrate_events``
    call; a cell whose region cannot be built fails alone."""
    cells = []
    for cfg in valid:
        for scheme in spec.schemes:
            try:
                cells.append(region_contended_loss(cfg)
                             if spec.quantity == "contended-loss"
                             else region_underperformance(cfg, scheme))
            except ROW_ERRORS as exc:
                cells.append(exc)
    regions = [c for c in cells if isinstance(c, EventRegion)]
    try:
        results = iter(integrate_events(regions, OrderPairDensity(spec.M, spec.m, spec.n)))
    except ROW_ERRORS as exc:
        results = itertools.repeat(exc)
    return [next(results) if isinstance(c, EventRegion) else c for c in cells]


def run_sweep(specs) -> list:
    """One row list per spec of the sequence ``specs``, a row per (snr,
    scheme, method) in grid order; a failed row has ``error:<name>`` in
    its regime column and the sweep goes on.  The MC cells of all specs
    that share (M, trials, seed, quantity) go to one ``mc_summary`` call,
    which draws each block once.  Each other method then makes one pass
    over a spec's valid SNRs and schemes (``integrate_events``,
    ``p_t_exact_batch``, one SNR-free asymptotic coefficient), after all
    MC: the closed forms' small arrays, allocated ahead of the MC gain
    block, raised fig1-contended's peak RSS by 1.5 MB."""
    points, pools = [], {}
    for k, spec in enumerate(specs):
        regime = regime_label(spec.config_at(spec.snr_db[0]))  # SNR-free; the spec checks this SNR
        points.append([])
        for snr in spec.snr_db:
            try:
                points[k].append((snr, spec.config_at(snr), regime))
            except InvalidConfigError as exc:
                points[k].append((snr, None, f"error:{type(exc).__name__}"))
        if MC in spec.methods:
            pools.setdefault((spec.M, spec.trials, spec.seed, spec.quantity), []).extend(
                (k, cfg, scheme) for _, cfg, _ in points[k] if cfg is not None
                for scheme in spec.schemes)
    summaries = [[] for _ in specs]
    for (_, trials, seed, quantity), pool in pools.items():
        got = mc_summary([cell[1:] for cell in pool], trials, seed,
                         want_pt=quantity == "contended-loss")
        for (k, _, _), summary in zip(pool, got):
            summaries[k].append(summary)
    return [_rows(spec, pts, iter(got)) for spec, pts, got in zip(specs, points, summaries)]


def _rows(spec: SweepSpec, points, summaries) -> list:
    """The rows of one spec, given an iterator of its MC summaries in grid order."""
    valid = [cfg for _, cfg, _ in points if cfg is not None]
    integrals = iter(_integrals(spec, valid) if NUMERIC in spec.methods else ())
    exacts = iter(p_t_exact_batch(valid) if EXACT in spec.methods else ())
    coef = None
    if ASYMPTOTIC in spec.methods:  # valid[0] exists: the spec checks its first SNR
        try:
            coef = asymptotic_coefficient(valid[0])
        except ROW_ERRORS as exc:
            coef = exc
    rows = []
    for snr, cfg, regime in points:
        if cfg is None:
            rows += [_row(snr, scheme, method, regime=regime)
                     for scheme in spec.schemes for method in spec.methods]
            continue
        exact = next(exacts, None)  # exact rows have one scheme, HSIC-PA
        for scheme in spec.schemes:
            summary = next(summaries, None)
            integral = next(integrals, None)
            for method in spec.methods:
                try:
                    means = ()
                    if method == MC:
                        est = summary["pt_estimate" if spec.quantity == "contended-loss"
                                      else "estimate"]
                        means = summary["gamma_mean"], summary["energy_mean"]
                    elif method == EXACT:
                        est = raised(exact)
                    elif method == ASYMPTOTIC:
                        est = scaled_asymptotic(cfg, raised(coef))
                    else:  # numeric integration
                        est = raised(integral)
                    rows.append(_row(snr, scheme, method, est, regime, *means))
                except ROW_ERRORS as exc:
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
