"""Cross-validation report: MC vs exact vs integration vs asymptotic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotic import p_t_asymptotic
from .channel import OrderPairDensity
from .config import InvalidConfigError, SystemConfig
from .exact import N_C, p_t_exact, regime_label
from .mc import draw_counts, integrate_event
from .regions import region_contended_loss
from .schemes import HNOMA_SCHEMES, Scheme

DEFAULT_CONFIGS = (
    dict(M=5, m=1, n=2, R_m=0.2, beta=0.25, eta=1.0, snr_db=20.0),
    dict(M=5, m=2, n=4, R_m=1.0, beta=0.3, eta=9.0, snr_db=15.0),
    dict(M=5, m=3, n=1, R_m=0.5, beta=0.25, eta=5.0, snr_db=15.0),
)


@dataclass(frozen=True)
class CheckResult:
    config_label: str
    regime: str
    invariant: str
    passed: bool
    margin: str


def run_validation(configs=None, trials: int = 200_000,
                   seed: int = 20250801) -> list:
    """Run the invariant suite at each config; returns CheckResult rows."""
    if trials < 1:
        raise InvalidConfigError(f"trials={trials} must be >= 1")
    if seed < 0:
        raise InvalidConfigError(f"seed={seed} must be >= 0")
    if configs is not None and len(configs) == 0:
        raise InvalidConfigError("empty config list")
    rows = []
    for params in (DEFAULT_CONFIGS if configs is None else configs):
        cfg = SystemConfig.make(**params)
        label = (f"M{cfg.M}m{cfg.m}n{cfg.n}R{cfg.R_m:g}b{cfg.beta:g}"
                 f"eta{cfg.eta:g}snr{cfg.snr_db:g}")
        regime = regime_label(cfg)

        def add(invariant, passed, margin):
            rows.append(CheckResult(label, regime, invariant, bool(passed), margin))

        exact = p_t_exact(cfg).value
        pair = OrderPairDensity(cfg.M, cfg.m, cfg.n)
        integ = integrate_event(region_contended_loss(cfg), pair).value
        add("exact-vs-integration", abs(exact - integ) <= 1e-5,
            f"|diff|={abs(exact - integ):.2e} tol=1e-05")

        counts = draw_counts(cfg, trials, seed)
        split, losses = counts["split"], counts["losses"]
        bucket_sum, total = sum(split.values()), losses[Scheme.HSIC_PA]
        if bucket_sum != total:
            # the sub-event cells do not tile the loss event: no P_T sum
            add("exact-vs-mc", False, "no decomposition")
            add("decomposition-partition", False,
                f"decomposition buckets sum to {bucket_sum}, expected {total} losing draws")
        else:
            mc_pt = sum(split[k] / trials for k in split if k.startswith("P_T"))
            sigma = max(np.sqrt(exact * (1.0 - exact) / trials), 1e-15)
            add("exact-vs-mc", abs(mc_pt - exact) <= 4.0 * sigma,
                f"|z|={abs(mc_pt - exact) / sigma:.2f} tol=4sigma")
            add("decomposition-partition", True, f"buckets={bucket_sum} total={total}")

        # the schemes' estimates on shared draws
        fsic, npa, pa = (losses[s] / trials for s in HNOMA_SCHEMES)
        add("coupled-monotonicity", pa <= npa <= fsic,
            f"{pa:.5f} <= {npa:.5f} <= {fsic:.5f}")
        add("rate-dominance", counts["out_of_order"] == 0,
            f"violations={counts['out_of_order']}")

        doubled = p_t_exact(cfg, n_c=2 * N_C).value
        rel = abs(exact - doubled) / max(abs(exact), 1e-30)
        add("quadrature-doubling", rel <= 1e-8, f"rel-change={rel:.2e} tol=1e-08")

        hi = cfg.with_snr(42.0)
        ex_hi = p_t_exact(hi).value
        asym = p_t_asymptotic(hi).value
        if ex_hi > 0:
            ratio = asym / ex_hi
            add("asymptotic-ratio", abs(ratio - 1.0) <= 0.25,
                f"ratio@42dB={ratio:.3f} tol=0.25")
        else:
            add("asymptotic-ratio", asym == 0.0, f"both-zero asym={asym:.1e}")
    return rows


def report_text(rows) -> str:
    lines = []
    fails = 0
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        fails += not r.passed
        lines.append(f"[{status}] {r.config_label} ({r.regime}) "
                     f"{r.invariant}: {r.margin}")
    lines.append(f"{len(rows) - fails}/{len(rows)} checks passed")
    return "\n".join(lines)
