"""Output checks: properties every method must have, and an independent MC.

Nothing here compares against stored output.  MC rows are held to the
closed form or the integration oracle within a Bernstein bound on the
binomial count, sized for the number of cells compared; the reference MC
below recomputes the events from the rate definitions with its own
draws and never imports hnoma.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from workloads import FAULT_LABEL

# chance that one run's MC comparisons fail on correct code
FAMILY_ALPHA = 1e-6
REFERENCE_TRIALS = 1_000_000
# SNR points (dB) at which the reference MC is run on every curve it visits
REFERENCE_SNR = (10, 20)


def read_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def count_tolerance(p: float, trials: int, cells: int) -> float:
    """Allowed |MC - p| so that ``cells`` comparisons all pass w.p. >= 1 - alpha.

    Bernstein's inequality for a sum of ``trials`` Bernoulli(p) draws:
    P(|K - Np| >= t) <= 2 exp(-t^2 / (2 (Np(1-p) + t/3))).
    """
    log_term = math.log(2.0 * cells / FAMILY_ALPHA)
    var = trials * p * (1.0 - p)
    t = log_term / 3.0 + math.sqrt(log_term ** 2 / 9.0 + 2.0 * var * log_term)
    return t / trials


def _f(row, key):
    return float(row[key])


def _by(rows, *keys):
    return {tuple(r[k] for k in keys): r for r in rows}


def _decay_order(spec):
    return spec["n"] if spec["m"] < spec["n"] else spec["m"]


def _slope(lo_db, hi_db, p_lo, p_hi):
    """Decay exponent of p against rho between two SNR points."""
    return (math.log10(p_hi) - math.log10(p_lo)) / ((hi_db - lo_db) / 10.0)


def check_rows(spec: dict, rows: list, problems: list) -> int:
    """Shape checks shared by every workload; returns the failed-row count."""
    expected = [(_fmt(s), sc, me) for s in spec["snr_db"]
                for sc in spec["schemes"] for me in spec["methods"]]
    got = [(r["snr_db"], r["scheme"], r["method"]) for r in rows]
    if got != expected[:len(got)]:
        problems.append(f"{spec['label']}: rows do not follow the spec grid")
    failed = sum(r["regime"].startswith("error:") for r in rows)
    failed += len(expected) - min(len(rows), len(expected))
    for r in rows:
        if not r["regime"].startswith("error:") and not 0.0 <= _f(r, "value") <= 1.0:
            problems.append(f"{spec['label']}: value {r['value']} outside [0, 1]")
    return failed


def allowed_failures(plan: dict) -> dict:
    """Most failed rows each curve may have; curves not listed may have none.

    Only the known series fault may fail, and at most all of its rows, so
    a fix that saves some or all of them still passes.
    """
    return {o["spec"]["label"]: grid_size(o["spec"])
            for call in plan["calls"] for o in call["outputs"]
            if o["spec"]["label"] == FAULT_LABEL}


def grid_size(spec: dict) -> int:
    """Rows a spec attempts: one per (SNR, scheme, method)."""
    return len(spec["snr_db"]) * len(spec["schemes"]) * len(spec["methods"])


def _fmt(snr):
    return format(snr, ".12g") if isinstance(snr, float) else str(snr)


def check_fig1(outputs, problems):
    cells = sum(len(o["spec"]["snr_db"]) for o in outputs)
    for o in outputs:
        spec, rows = o["spec"], o["rows"]
        v = _by(rows, "snr_db", "method")
        trials = spec["trials"]
        rho_order = _decay_order(spec)
        for snr in spec["snr_db"]:
            s = _fmt(snr)
            mc, ex = v[(s, "mc")], v[(s, "exact")]
            p = _f(ex, "value")
            tol = count_tolerance(p, trials, cells)
            if abs(_f(mc, "value") - p) > tol:
                problems.append(f"fig1 {spec['label']} {s} dB: mc {mc['value']} vs "
                                f"exact {p:.6g} beyond {tol:.3g}")
            if snr >= 30:
                ratio = _f(v[(s, "asymptotic")], "value") / p
                if abs(ratio - 1.0) > 0.25:
                    problems.append(f"fig1 {spec['label']} {s} dB: asymptotic/exact {ratio:.4f}")
            rho_n = 10.0 ** (snr / 10.0)
            gamma, energy = _f(mc, "gamma_mean"), _f(mc, "energy_mean")
            if not (0.0 < gamma <= 1.0 and energy < rho_n):
                problems.append(f"fig1 {spec['label']} {s} dB: gamma_mean {gamma} "
                                f"energy_mean {energy} vs OMA energy {rho_n:.6g}")
        lo, hi = spec["snr_db"][-2:]
        slope = _slope(lo, hi, _f(v[(_fmt(lo), "exact")], "value"),
                       _f(v[(_fmt(hi), "exact")], "value"))
        if abs(slope + rho_order) > 0.05 * rho_order:
            problems.append(f"fig1 {spec['label']}: exact decays as rho^{slope:.3f}, "
                            f"expected -{rho_order}")


def check_fig5a(outputs, problems):
    cells = sum(len(o["spec"]["snr_db"]) * len(o["spec"]["schemes"]) for o in outputs)
    for o in outputs:
        spec, rows = o["spec"], o["rows"]
        v = _by(rows, "snr_db", "scheme", "method")
        trials, beta = spec["trials"], spec["beta"]
        for snr in spec["snr_db"]:
            s = _fmt(snr)
            for scheme in spec["schemes"]:
                mc = v[(s, scheme, "mc")]
                p = _f(v[(s, scheme, "numeric-integration")], "value")
                tol = count_tolerance(p, trials, cells)
                if abs(_f(mc, "value") - p) > tol:
                    problems.append(f"fig5a {spec['label']} {s} dB {scheme}: mc "
                                    f"{mc['value']} vs integration {p:.6g} beyond {tol:.3g}")
            pa, npa = v[(s, "HSIC-PA", "mc")], v[(s, "HSIC-NPA", "mc")]
            if _f(pa, "value") > _f(npa, "value"):
                problems.append(f"fig5a {spec['label']} {s} dB: PA mc {pa['value']} "
                                f"above NPA mc {npa['value']} on shared draws")
            cap = 2.0 * beta * 10.0 ** (snr / 10.0)
            if _f(pa, "energy_mean") > cap * (1.0 + 1e-11):
                problems.append(f"fig5a {spec['label']} {s} dB: PA energy "
                                f"{pa['energy_mean']} above 2 beta rho_n = {cap:.12g}")
        top = _fmt(spec["snr_db"][-1])
        tail = _f(v[(top, "HSIC-PA", "numeric-integration")], "value")
        if not tail < 1e-12:
            problems.append(f"fig5a {spec['label']} {top} dB: PA integrated {tail} "
                            f"not below 1e-12")


def check_closed_form(outputs, problems):
    """Checks what each curve has; only ``series-fault`` may lack rows."""
    for o in outputs:
        spec, rows = o["spec"], o["rows"]
        v = _by(rows, "snr_db", "method")
        lo, hi = (_fmt(s) for s in spec["snr_db"][-2:])
        if (lo, "exact") not in v or (hi, "exact") not in v:
            continue
        ex_lo, ex_hi = _f(v[(lo, "exact")], "value"), _f(v[(hi, "exact")], "value")
        asym = _f(v[(hi, "asymptotic")], "value") if (hi, "asymptotic") in v else None
        if ex_hi == 0.0:
            # the event is empty in this column (m < n beyond k_2)
            if asym not in (None, 0.0) or ex_lo != 0.0:
                problems.append(f"{spec['label']}: exact 0 but asymptotic {asym}")
            continue
        if asym is not None and abs(asym / ex_hi - 1.0) > 0.05:
            problems.append(f"{spec['label']} {hi} dB: asymptotic/exact {asym / ex_hi:.4f}")
        order = _decay_order(spec)
        slope = _slope(spec["snr_db"][-2], spec["snr_db"][-1], ex_lo, ex_hi)
        if abs(slope + order) > 0.05 * order:
            problems.append(f"{spec['label']}: exact decays as rho^{slope:.3f}, "
                            f"expected -{order}")


# every column of both branch tables, per rank order
COLUMNS = {"m<n": ({"T1c1", "T1c2", "T1c3", "T1c4"}, {"T2c1", "T2c2", "T2c3"}),
           "m>n": ({"T1c1", "T1c2", "T1c3"}, {"T2c1", "T2c2", "T2c3"})}


def check_oracle(outputs, problems):
    seen = {side: (set(), set()) for side in COLUMNS}
    for o in outputs:
        spec, rows = o["spec"], o["rows"]
        v = _by(rows, "snr_db", "method")
        for snr in spec["snr_db"]:
            s = _fmt(snr)
            ex, num = v[(s, "exact")], v[(s, "numeric-integration")]
            diff = abs(_f(ex, "value") - _f(num, "value"))
            if diff > 1e-5:
                problems.append(f"{spec['label']} {s} dB: |exact - integration| = {diff:.3g}")
            side, t1, t2 = ex["regime"].split(":")
            seen[side][0].add(t1)
            seen[side][1].add(t2)
    for side, want in COLUMNS.items():
        if seen[side] != want:
            problems.append(f"regime columns seen for {side}: {seen[side]}, want {want}")


CHECKS = {"fig1-contended": check_fig1, "fig5a-underperf": check_fig5a,
          "closed-form-map": check_closed_form, "oracle-crosscheck": check_oracle}


# ---------------------------------------------------------------------------
#  Independent reference MC, straight from the rate definitions
# ---------------------------------------------------------------------------

def reference_loss(g, spec, snr_db, scheme, contended_only):
    """Per-draw indicator that the hybrid two-slot rate loses to full-power OMA.

    ``g`` holds ascending ordered gains per row.  The opportunistic user
    sends at beta*rho_n in its own slot and in the legacy slot.  The legacy
    user tolerates interference up to tau = max(0, rho_m g_m / eps_m - 1).
    At or below the cap the legacy user is decoded first and the
    opportunistic user then sees no interference; above it the
    opportunistic user is decoded first against the legacy signal, or
    (power adaptation) scales its power down to tau and goes second.
    """
    rho_n = 10.0 ** (snr_db / 10.0)
    rho_m = rho_n / spec["eta"]
    eps = 2.0 ** spec["R_m"] - 1.0
    g_m, g_n = g[:, spec["m"] - 1], g[:, spec["n"] - 1]
    p = spec["beta"] * rho_n * g_n
    tau = np.maximum(0.0, rho_m * g_m / eps - 1.0)
    contended = p > tau
    first = np.log2(1.0 + p / (1.0 + rho_m * g_m))
    if scheme == "HSIC-PA":
        second = np.maximum(first, np.log2(1.0 + tau))
    else:
        second = first
    noma = np.where(contended, second, np.log2(1.0 + p))
    lose = np.log2(1.0 + p) + noma <= np.log2(1.0 + rho_n * g_n)
    if contended_only:
        lose &= contended & (tau > 0.0)
    return lose


def reference_mc(workload: str, seed: int, outputs, problems) -> int:
    """Run the reference at REFERENCE_SNR on the first and last curve.

    Returns the number of cells compared.  Draws come from the benchmark's
    own generator, seeded from the workload seed, never from hnoma.
    """
    contended = workload == "fig1-contended"
    target = "exact" if contended else "numeric-integration"
    picks = [outputs[0], outputs[-1]] if outputs else []
    cells = sum(len(REFERENCE_SNR) * len(o["spec"]["schemes"]) for o in picks)
    rng = np.random.default_rng([seed, 2])
    compared = 0
    draws = {}
    for o in picks:
        spec = o["spec"]
        M = spec["M"]
        if M not in draws:
            draws[M] = np.sort(rng.standard_exponential((REFERENCE_TRIALS, M)), axis=1)
        v = _by(o["rows"], "snr_db", "scheme", "method")
        for snr in REFERENCE_SNR:
            for scheme in spec["schemes"]:
                lose = reference_loss(draws[M], spec, snr, scheme, contended)
                est = float(np.count_nonzero(lose)) / REFERENCE_TRIALS
                p = _f(v[(_fmt(snr), scheme, target)], "value")
                tol = count_tolerance(p, REFERENCE_TRIALS, cells)
                compared += 1
                if abs(est - p) > tol:
                    problems.append(f"reference {spec['label']} {snr} dB {scheme}: "
                                    f"{est:.6g} vs {target} {p:.6g} beyond {tol:.3g}")
    return compared
