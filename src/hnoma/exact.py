"""Closed-form evaluation of the contended-loss probability.

The contended loss event (positive interference cap, received power above
it) decomposes into at most six sub-events whose masses reduce to 1-D
integrals along the legacy gain between crossing points of the boundary
curves.  The engine evaluates them by Chebyshev-node quadrature of the
cancellation-free interval mass, which keeps full relative precision at
any SNR.

The branch table that picks each sub-event's curves and limits from the
power ratio lives in ``contended_terms`` alone; the high-SNR engine in
``asymptotic`` evaluates the same table at rho_m = 1 with another
interval mass, and the Monte Carlo decomposition in ``mc`` reads its
cells (curves and limits) to sort the sampled draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import OrderPairDensity, mass_lower_interval, mass_upper_interval
from .config import InvalidConfigError, SystemConfig
from .estimates import EXACT, ProbEstimate
from .numerics import fejer1_weights
from .regions import capped_loss, decode_tie, diagonal, first_loss, power_cap

_BACKSUB_TOL = 1e-10


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


def _positive_root(s: float, q: float) -> float:
    # larger root of x^2 - s x - q = 0 with q > 0
    return 0.5 * (s + math.sqrt(s * s + 4.0 * q))


@dataclass(frozen=True)
class RegimeConstants:
    """Legacy-gain breakpoints of the closed forms."""

    omega_1: float          # None when the power-cap curve never crosses the diagonal
    omega_2: float
    omega_3: float
    omega_4: float          # None when the first-stage-loss line never crosses it
    z_1: float
    z_2: float
    z_3: float


def compute_constants(cfg: SystemConfig) -> RegimeConstants:
    """Evaluate all scenario constants and check their defining equations."""
    beta, eps, alpha = cfg.beta, cfg.eps_m, cfg.alpha_m
    rho_n, rho_m, eta = cfg.rho_n, cfg.rho_m, cfg.eta
    if not (math.isfinite(eps) and math.isfinite(alpha) and alpha > 0.0):
        raise InvalidConfigError("degenerate target rate or SNR")

    bhe = beta * eta * eps  # = beta * rho_n * alpha_m
    omega_1 = alpha / (1.0 - bhe) if bhe < 1.0 else None
    omega_2 = (1.0 - beta) * alpha / beta
    omega_3 = (1.0 - 2.0 * beta) / (beta ** 2 * rho_n)
    den4 = beta ** 2 * rho_n - (1.0 - beta) * rho_m
    omega_4 = (1.0 - 2.0 * beta) / den4 if den4 > 0.0 else None

    # crossing points: decode_tie meets first_loss/capped_loss (z_1), the
    # capped-loss curve meets the diagonal (z_2), decode_tie meets the
    # diagonal (z_3); each is the positive root of its quadratic
    z_1 = _positive_root(alpha / beta - 1.0 / rho_m,
                         (1.0 - beta) * alpha / (beta * rho_m))
    z_2 = _positive_root(alpha / beta - 1.0 / (beta * rho_n),
                         alpha / (beta * rho_n))
    z_3 = _positive_root(alpha + beta * eta * alpha - 1.0 / rho_m, alpha / rho_m)

    def _close(u, v, scale):
        # two curve values that overflowed alike are not close; inf - inf
        # would say so too, as a NaN, but with an invalid-value warning
        if math.isinf(u) and u == v:
            return False
        return abs(u - v) <= _BACKSUB_TOL * max(abs(u), abs(v), scale)

    checks = [
        _close(decode_tie(cfg, z_1), first_loss(cfg, z_1), 1e-300),
        _close(decode_tie(cfg, z_1), capped_loss(cfg, z_1), 1e-300),
        _close(capped_loss(cfg, z_2), z_2, 1e-300),
        _close(decode_tie(cfg, z_3), z_3, 1e-300),
        _close(power_cap(cfg, omega_2), capped_loss(cfg, omega_2), 1e-300),
    ]
    if omega_1 is not None:
        checks.append(_close(power_cap(cfg, omega_1), omega_1, 1e-300))
    if omega_4 is not None:
        checks.append(_close(first_loss(cfg, omega_4), omega_4, 1e-300))
    if not all(checks):
        raise InvalidConfigError("constant back-substitution failed; "
                                 "scenario is numerically degenerate")

    return RegimeConstants(
        omega_1=omega_1, omega_2=omega_2, omega_3=omega_3, omega_4=omega_4,
        z_1=z_1, z_2=z_2, z_3=z_3,
    )


def regime_label(cfg: SystemConfig) -> str:
    """Which column of the branch tables the power ratio falls in."""
    th = eta_thresholds(cfg.beta, cfg.eps_m)
    eta = cfg.eta
    if cfg.m < cfg.n:
        c1 = 1 + (eta > th["k_1"]) + (eta > th["cap_mid"]) + (eta > th["cap_hi"])
        side = "m<n"
    else:
        c1 = 1 + (eta > th["k_1"]) + (eta > th["k_3"])
        side = "m>n"
    c2 = 1 + (eta > th["first_lo"]) + (eta > th["k_2"])
    return f"{side}:T1c{c1}:T2c{c2}"


# ---------------------------------------------------------------------------
#  Interval masses between boundary curves
# ---------------------------------------------------------------------------

def _gc_nodes(a, b, n_c):
    # first-kind Chebyshev nodes with exact (Fejer) weights; the
    # sqrt-weighted approximation would cap the whole engine at ~5 digits
    t, wgt = fejer1_weights(n_c)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * t, half * wgt


def _between(cfg, lower, upper, a, b, n_c: int) -> float:
    """Mass with the opportunistic gain between two boundary curves.

    Gauss-Chebyshev quadrature along the legacy gain of the interval mass,
    which is evaluated in the cancellation-free product form; a signed
    exponential expansion of the density is algebraically identical but
    loses all significance at high SNR, where sub-event masses sit many
    orders below the expansion terms.
    """
    if a is None or b is None or not (b > a):
        return 0.0
    pair = OrderPairDensity(cfg.M, cfg.m, cfg.n)
    x, wgt = _gc_nodes(a, b, n_c)
    lo = lower(cfg, x)
    hi = upper(cfg, x)
    if cfg.m < cfg.n:
        mass = mass_upper_interval(pair, x, lo, hi)
    else:
        mass = mass_lower_interval(pair, x, lo, hi)
    return float(mass @ wgt)


# ---------------------------------------------------------------------------
#  Sub-event terms and their branch dispatch
# ---------------------------------------------------------------------------

def contended_terms(cfg: SystemConfig, k: RegimeConstants, between) -> dict:
    """Each contended-loss sub-event in its active branch (column).

    ``between(lower, upper, a, b)`` is the mass with the opportunistic gain
    between the curves ``lower`` and ``upper`` (boundary-curve functions
    of ``regions``, called as ``curve(cfg, t)``) for legacy gain in
    (a, b); it returns 0 when a limit is None or the interval is empty.
    The exact and the high-SNR engines share this table and differ only
    in ``between``; the Monte Carlo decomposition passes one that returns
    its arguments, to get each sub-event's cell.
    """
    eta = cfg.eta
    alpha = cfg.alpha_m
    th = eta_thresholds(cfg.beta, cfg.eps_m)
    low_ratio = eta <= th["k_1"]

    def first_branch_upper():
        if eta <= th["first_lo"]:
            return k.z_3
        if eta <= th["k_2"]:
            return min(k.z_3, k.omega_4)
        return None

    out = {}
    if cfg.m < cfg.n:
        out["P_T1_1"] = (between(power_cap, decode_tie, k.omega_1, k.omega_2)
                         if low_ratio else 0.0)
        lo = k.omega_2 if low_ratio else k.z_2
        out["P_T1_2"] = between(capped_loss, decode_tie, lo, k.z_1)
        up = k.omega_1 if low_ratio else k.z_2
        out["P_T1_3"] = between(diagonal, decode_tie, k.z_3, up)
        out["P_T2_1"] = between(diagonal, first_loss, alpha, first_branch_upper())
        out["P_T2_2"] = between(decode_tie, first_loss, k.z_3, k.z_1)
    else:
        up11 = k.z_3 if eta <= th["k_3"] else k.omega_2
        out["P_T1_1"] = between(power_cap, decode_tie, alpha, up11)
        if low_ratio:
            up12 = k.omega_1
        elif eta <= th["k_3"]:
            up12 = k.omega_2
        else:
            up12 = None
        out["P_T1_2"] = between(power_cap, diagonal, k.z_3, up12)
        out["P_T1_3"] = (between(capped_loss, decode_tie, k.omega_2,
                                 min(k.z_1, k.z_3))
                         if eta > th["k_3"] else 0.0)
        if low_ratio:
            lo14 = None
        elif eta <= th["k_3"]:
            lo14 = k.omega_2
        else:
            lo14 = k.z_3
        out["P_T1_4"] = between(capped_loss, diagonal, lo14, k.z_2)
        out["P_T2_1"] = between(decode_tie, diagonal, alpha, first_branch_upper())
        if eta <= th["first_lo"]:
            lo22 = None
        elif eta <= th["k_2"]:
            lo22 = k.omega_4
        else:
            lo22 = alpha
        out["P_T2_2"] = between(decode_tie, first_loss, lo22, k.z_1)
    return out


def exact_pt_terms(cfg: SystemConfig, n_c: int = 256) -> dict:
    """Each contended-loss sub-event at the config's SNR."""
    if n_c < 16:
        raise InvalidConfigError(f"n_c={n_c} too small; need >= 16")
    k = compute_constants(cfg)
    return contended_terms(
        cfg, k, lambda lower, upper, a, b: _between(cfg, lower, upper, a, b, n_c))


def p_t_exact(cfg: SystemConfig, n_c: int = 256) -> ProbEstimate:
    """Contended-loss probability from the closed forms."""
    terms = exact_pt_terms(cfg, n_c)
    value = math.fsum(terms.values())
    value = min(1.0, max(0.0, value))
    return ProbEstimate(value=value, trials=0, std_err=0.0, method=EXACT)
