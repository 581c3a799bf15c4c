"""Closed-form evaluation of the contended-loss probability.

The contended loss event (positive interference cap, received power above
it) decomposes into at most six sub-events whose masses reduce to 1-D
integrals along the legacy gain between crossing points of the boundary
curves.  The engine evaluates them by Chebyshev-node quadrature of the
cancellation-free interval mass, which keeps full relative precision at
any SNR.

The branch table that picks each sub-event's curves and limits from the
power ratio lives in ``contended_terms`` alone, which returns it as data:
one cell (lower curve, upper curve, legacy-gain limits) per sub-event.
Its columns come from ``_columns``, which ``regime_label`` reads too.
``compute_constants`` and ``contended_terms`` run on one config or on a
``_Gathered`` view of a sweep's configs, with the same IEEE operations
on numpy values, so a sweep makes one constants pass and one table with
a limit array per cell, and each row keeps its one-config bits.
``_cell_quadrature`` integrates a mass over a cell for both closed forms:
this engine's at the config's SNR, and the leading-order density of the
high-SNR engine in ``asymptotic`` over the rho_m = 1 config's cells.  The
Monte Carlo decomposition in ``mc`` sorts the sampled draws into cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .channel import OrderPairDensity, mass_lower_interval, mass_upper_interval
from .config import InvalidConfigError, SystemConfig
from .estimates import EXACT, ProbEstimate, raised
from .numerics import fejer1_weights
from .regions import (_Gathered, capped_loss, decode_tie, diagonal, first_loss,
                      power_cap)

_BACKSUB_TOL = 1e-10
N_C = 256  # Fejer nodes per sub-event interval


# ---------------------------------------------------------------------------
#  Scenario constants
# ---------------------------------------------------------------------------

def eta_thresholds(beta: float, eps_m: float) -> dict:
    """Power-ratio thresholds that switch the closed-form branch."""
    k_1 = (1.0 - 2.0 * beta) / ((1.0 - beta) * beta * eps_m)
    return {
        "k_1": k_1,
        "k_2": (1.0 - beta) / beta ** 2 + (1.0 - 2.0 * beta) / (beta ** 2 * eps_m),
        "k_3": k_1 + (1.0 - 2.0 * beta) / beta ** 2,
        "cap_mid": (1.0 - beta) / (beta * eps_m),
        "cap_hi": 1.0 / (beta * eps_m),
        "first_lo": (1.0 - beta) / beta ** 2,
    }


def _positive_root(s, q):
    # larger root of x^2 - s x - q = 0 with q > 0
    return 0.5 * (s + np.sqrt(s * s + 4.0 * q))


def _close(u, v):
    # a value that overflowed checks nothing, so it is never close
    scale = np.maximum(np.maximum(np.abs(u), np.abs(v)), 1e-300)
    return np.isfinite(u) & np.isfinite(v) & (np.abs(u - v) <= _BACKSUB_TOL * scale)


@dataclass(frozen=True)
class RegimeConstants:
    """Legacy-gain breakpoints of the closed forms: floats for a config,
    arrays (one value per row, NaN for None) for a view of many configs."""

    omega_1: float          # None when the power-cap curve never crosses the diagonal
    omega_2: float
    omega_4: float          # None when the first-stage-loss line never crosses it
    z_1: float
    z_2: float
    z_3: float
    fault: object = ""      # per row of a view: why its checks fail, or ""


def compute_constants(cfg) -> RegimeConstants:
    """Evaluate all scenario constants and check their defining equations,
    on a config or on a ``_Gathered`` view (one config per row).  Both run
    the same IEEE operations on numpy values; a config whose checks fail
    raises, while a view's row records the failure in ``fault``."""
    beta, eps, alpha, rho_n, rho_m, eta = (np.asarray(getattr(cfg, name), dtype=float)
                                           for name in ("beta", "eps_m", "alpha_m",
                                                        "rho_n", "rho_m", "eta"))
    with np.errstate(all="ignore"):  # the checks see inf and inf - inf
        bhe = beta * eta * eps  # = beta * rho_n * alpha_m
        omega_1 = np.where(bhe < 1.0, alpha / (1.0 - bhe), np.nan)
        omega_2 = (1.0 - beta) * alpha / beta
        den4 = cfg.beta_sq * rho_n - (1.0 - beta) * rho_m
        omega_4 = np.where(den4 > 0.0, (1.0 - 2.0 * beta) / den4, np.nan)

        # crossing points: decode_tie meets first_loss/capped_loss (z_1), the
        # capped-loss curve meets the diagonal (z_2), decode_tie meets the
        # diagonal (z_3); each is the positive root of its quadratic
        z_1 = _positive_root(alpha / beta - 1.0 / rho_m,
                             (1.0 - beta) * alpha / (beta * rho_m))
        z_2 = _positive_root(alpha / beta - 1.0 / (beta * rho_n),
                             alpha / (beta * rho_n))
        z_3 = _positive_root(alpha + beta * eta * alpha - 1.0 / rho_m, alpha / rho_m)

        ok = (_close(decode_tie(cfg, z_1), first_loss(cfg, z_1))
              & _close(decode_tie(cfg, z_1), capped_loss(cfg, z_1))
              & _close(capped_loss(cfg, z_2), z_2) & _close(decode_tie(cfg, z_3), z_3)
              & _close(power_cap(cfg, omega_2), capped_loss(cfg, omega_2))
              # a crossing that does not exist checks nothing
              & (_close(power_cap(cfg, omega_1), omega_1) | np.isnan(omega_1))
              & (_close(first_loss(cfg, omega_4), omega_4) | np.isnan(omega_4)))
    fault = np.where(np.isfinite(eps) & np.isfinite(alpha) & (alpha > 0.0),
                     np.where(ok, "", "constant back-substitution failed; "
                              "scenario is numerically degenerate"),
                     "degenerate target rate or SNR")
    values = (omega_1, omega_2, omega_4, z_1, z_2, z_3)
    if not isinstance(cfg, SystemConfig):
        return RegimeConstants(*values, fault)
    if fault:
        raise InvalidConfigError(str(fault))
    return RegimeConstants(*(None if math.isnan(v) else float(v) for v in values))


def _columns(cfg: SystemConfig) -> tuple:
    """The columns (T1, T2) of the branch tables that the power ratio falls
    in.  They depend on beta, eps_m and eta, never on the SNR."""
    eta, th = cfg.eta, eta_thresholds(cfg.beta, cfg.eps_m)
    t1 = ("k_1", "cap_mid", "cap_hi") if cfg.m < cfg.n else ("k_1", "k_3")
    return (1 + sum([eta > th[k] for k in t1]),
            1 + (eta > th["first_lo"]) + (eta > th["k_2"]))


def regime_label(cfg: SystemConfig) -> str:
    """The columns of the branch tables that ``contended_terms`` dispatches on."""
    c1, c2 = _columns(cfg)
    return f"{'m<n' if cfg.m < cfg.n else 'm>n'}:T1c{c1}:T2c{c2}"


# ---------------------------------------------------------------------------
#  Interval masses between boundary curves
# ---------------------------------------------------------------------------

def _cell_quadrature(cfg, cell, mass, n_c: int = N_C) -> list:
    """``mass(t, lo, hi)`` between a cell's curves, run on ``cfg`` (a config
    or one per row), integrated over legacy gain t in (a, b): one value per
    row of the limits.  The nodes are first-kind Chebyshev ones with exact
    (Fejer) weights; sqrt-weighted ones would cap the engine at ~5 digits."""
    lower, upper, a, b = cell
    a, b = np.reshape(a, (-1, 1)), np.reshape(b, (-1, 1))
    t, wgt = fejer1_weights(n_c)
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * t
    return [m @ w for m, w in zip(mass(x, lower(cfg, x), upper(cfg, x)), half * wgt)]


# ---------------------------------------------------------------------------
#  Sub-event terms and their branch dispatch
# ---------------------------------------------------------------------------

def contended_terms(cfg, base=None, k=None) -> dict:
    """The cell of each contended-loss sub-event in the config's columns
    (``_columns``): ``(lower, upper, a, b)``, the opportunistic gain
    between the curves ``lower`` and ``upper`` (boundary-curve functions
    of ``regions``, called as ``curve(cfg, t)``) for legacy gain in (a, b).

    ``cfg`` is a config, or a ``_Gathered`` view of configs that differ
    only in SNR, whose limits are arrays (one value per row); a view
    passes one of its configs as ``base`` and may pass its constants ``k``.

    None marks a sub-event that the columns lack, and only the columns
    place it, so which curves and which None marks a table has depends on
    beta, eps_m and eta, never on the SNR.  A cell has no None limit: a
    crossing that does not exist (omega_4, where the first-stage-loss line
    never meets the diagonal) bounds nothing and is +inf here (NaN in a
    view's arrays).  An empty interval has no mass, and every limit scales
    as 1/rho_m.
    """
    base = base or cfg
    c1, c2 = _columns(base)
    k = k or compute_constants(cfg)
    alpha = cfg.alpha_m
    omega_4 = math.inf if k.omega_4 is None else k.omega_4
    first_up = k.z_3 if c2 == 1 else np.fmin(k.z_3, omega_4)
    if base.m < base.n:
        low = c1 == 1
        return {
            "P_T1_1": (power_cap, decode_tie, k.omega_1, k.omega_2) if low else None,
            "P_T1_2": (capped_loss, decode_tie, k.omega_2 if low else k.z_2, k.z_1),
            "P_T1_3": (diagonal, decode_tie, k.z_3, k.omega_1 if low else k.z_2),
            "P_T2_1": (diagonal, first_loss, alpha, first_up) if c2 < 3 else None,
            "P_T2_2": (decode_tie, first_loss, k.z_3, k.z_1),
        }
    return {
        "P_T1_1": (power_cap, decode_tie, alpha, k.z_3 if c1 < 3 else k.omega_2),
        "P_T1_2": ((power_cap, diagonal, k.z_3, k.omega_1 if c1 == 1 else k.omega_2)
                   if c1 < 3 else None),
        "P_T1_3": ((capped_loss, decode_tie, k.omega_2, np.minimum(k.z_1, k.z_3))
                   if c1 == 3 else None),
        "P_T1_4": ((capped_loss, diagonal, k.omega_2 if c1 == 2 else k.z_3, k.z_2)
                   if c1 > 1 else None),
        "P_T2_1": (decode_tie, diagonal, alpha, first_up) if c2 < 3 else None,
        "P_T2_2": ((decode_tie, first_loss, omega_4 if c2 == 2 else alpha, k.z_1)
                   if c2 > 1 else None),
    }


def exact_pt_terms_batch(cfgs, n_c: int = N_C) -> list:
    """Each contended-loss sub-event's mass at each config's SNR: a dict
    per config, or the error of a config whose constants fail.  The
    configs differ only in SNR.  One constants pass over a ``_Gathered``
    view of the configs gives one cell table whose limits are arrays, and
    a sub-event is one ``_cell_quadrature`` over the rows whose checks
    pass, with the curves run on the configs' attributes as columns."""
    if n_c < 16:
        raise InvalidConfigError(f"n_c={n_c} too small; need >= 16")
    if len({(c.M, c.m, c.n, c.beta, c.R_m, c.eta) for c in cfgs}) > 1:
        raise InvalidConfigError("batched configs must differ only in SNR")
    if not cfgs:
        return []
    column = cache(lambda name: np.array([getattr(cfg, name) for cfg in cfgs]))
    view = _Gathered(column, slice(None))
    k = compute_constants(view)
    pair = OrderPairDensity(cfgs[0].M, cfgs[0].m, cfgs[0].n)
    mass = partial(mass_upper_interval if pair.m < pair.n else mass_lower_interval, pair)
    terms = {}
    for name, cell in contended_terms(view, cfgs[0], k).items():
        values = np.zeros(len(cfgs))
        # a missing crossing is NaN, and a row whose checks fail has no mass
        rows = np.flatnonzero((k.fault == "") & (cell[3] > cell[2])) if cell else []
        if len(rows):
            values[rows] = _cell_quadrature(_Gathered(column, rows[:, None]),
                                            (*cell[:2], cell[2][rows], cell[3][rows]),
                                            mass, n_c)
        terms[name] = values.tolist()
    return [InvalidConfigError(fault) if fault else {name: v[i] for name, v in terms.items()}
            for i, fault in enumerate(k.fault.tolist())]


def p_t_exact_batch(cfgs, n_c: int = N_C) -> list:
    """``p_t_exact`` of configs that differ only in SNR, each an estimate or an error."""
    return [t if isinstance(t, Exception) else ProbEstimate(
        value=min(1.0, max(0.0, math.fsum(t.values()))), trials=0, std_err=0.0,
        method=EXACT) for t in exact_pt_terms_batch(cfgs, n_c)]


def p_t_exact(cfg: SystemConfig, n_c: int = N_C) -> ProbEstimate:
    """Contended-loss probability from the closed forms."""
    return raised(*p_t_exact_batch([cfg], n_c))
