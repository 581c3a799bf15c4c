"""Closed-form evaluation of the contended-loss probability.

The contended loss event (positive interference cap, received power above
it) decomposes into at most six sub-events whose masses reduce to 1-D
integrals along the legacy gain between crossing points of the boundary
curves.  The engine evaluates them by Chebyshev-node quadrature of the
cancellation-free interval mass, which keeps full relative precision at
any SNR; the equivalent signed-expansion antiderivatives (exponential
segments, scaled-erfc Gaussian segments) are retained for validation.

The branch table that picks each sub-event's curves and limits from the
power ratio lives in ``contended_terms`` alone; the high-SNR engine in
``asymptotic`` evaluates the same table at rho_m = 1 with another
interval mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import OrderPairDensity, mass_lower_interval, mass_upper_interval
from .config import InvalidConfigError, SystemConfig
from .estimates import EXACT, ProbEstimate
from .numerics import comp_sum, erfcx, fejer1_weights
from .regions import capped_loss, decode_tie, first_loss, power_cap

_BACKSUB_TOL = 1e-10


# ---------------------------------------------------------------------------
#  Gaussian segment integral
# ---------------------------------------------------------------------------

def gamma1(a: float, b: float, c: float, d: float) -> float:
    """Integral of exp(-c x^2 - d x) over [a, b] (c > 0).

    Equals the textbook erf-difference closed form but is evaluated with
    the scaled complementary error function so the exp(d^2/(4c)) prefactor
    never overflows.
    """
    if c <= 0.0:
        raise ValueError(f"need a positive quadratic coefficient, got c={c}")
    return _gamma1_shifted(a, b, c, d, 0.0)


def _gamma1_shifted(a, b, c, d, shift):
    # exp(shift) * integral, assuming shift - c x^2 - d x stays representable
    if b < a:
        return -_gamma1_shifted(b, a, c, d, shift)
    if a == b:
        return 0.0
    sq = math.sqrt(c)
    za = sq * a + d / (2.0 * sq)
    zb = sq * b + d / (2.0 * sq)
    # erfcx only misbehaves for strongly negative arguments, so branch with
    # slack; the peak split below can land a hair on either side of zero
    if za >= -1e-8:
        fa = math.exp(shift - (c * a + d) * a) * erfcx(za)
        fb = math.exp(shift - (c * b + d) * b) * erfcx(zb)
        return math.sqrt(math.pi) / (2.0 * sq) * (fa - fb)
    if zb <= 1e-8:
        return _gamma1_shifted(-b, -a, c, -d, shift)
    x0 = -d / (2.0 * c)
    return (_gamma1_shifted(a, x0, c, d, shift)
            + _gamma1_shifted(x0, b, c, d, shift))


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
    """Every derived scalar and per-term constant of the closed forms.

    The per-term arrays run over the signed exponential mixture of the
    ordered-pair density; ``leg``/``opp`` are the decay rates attached to
    the legacy and opportunistic gain respectively.
    """

    eps_m: float
    alpha_m: float
    k_1: float
    k_2: float
    k_3: float
    omega_1: float          # None when the power-cap curve never crosses the diagonal
    omega_2: float
    omega_3: float
    omega_4: float          # None when the first-stage-loss line never crosses it
    z_1: float
    z_2: float
    z_3: float
    pair_prefactor: float
    coeff: np.ndarray
    leg: np.ndarray
    opp: np.ndarray
    r_cap: np.ndarray       # decay along the legacy axis for the power-cap piece
    r_first: np.ndarray     # same for the first-stage-loss piece
    quad_c: np.ndarray      # Gaussian coefficients for the decode-tie piece
    quad_d: np.ndarray
    cap_shift: np.ndarray   # constant exponents pulled out of each piece
    first_shift: np.ndarray
    diag_rate: np.ndarray


def compute_constants(cfg: SystemConfig) -> RegimeConstants:
    """Evaluate all scenario constants and check their defining equations."""
    beta, eps, alpha = cfg.beta, cfg.eps_m, cfg.alpha_m
    rho_n, rho_m, eta = cfg.rho_n, cfg.rho_m, cfg.eta
    if not (math.isfinite(eps) and math.isfinite(alpha) and alpha > 0.0):
        raise InvalidConfigError("degenerate target rate or SNR")
    th = eta_thresholds(beta, eps)

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

    pair = OrderPairDensity(cfg.M, cfg.m, cfg.n)
    w, a_exp, b_exp = pair.exp_mixture
    leg, opp = (a_exp, b_exp) if cfg.m < cfg.n else (b_exp, a_exp)

    return RegimeConstants(
        eps_m=eps, alpha_m=alpha,
        k_1=th["k_1"], k_2=th["k_2"], k_3=th["k_3"],
        omega_1=omega_1, omega_2=omega_2, omega_3=omega_3, omega_4=omega_4,
        z_1=z_1, z_2=z_2, z_3=z_3,
        pair_prefactor=pair.prefactor,
        coeff=w, leg=leg, opp=opp,
        r_cap=leg + opp / (beta * rho_n * alpha),
        r_first=leg + opp * (1.0 - beta) * rho_m / (beta ** 2 * rho_n),
        quad_c=opp * rho_m / (alpha * beta * rho_n),
        quad_d=opp * (1.0 / alpha - rho_m) / (beta * rho_n) + leg,
        cap_shift=opp / (beta * rho_n),
        first_shift=-opp * omega_3,
        diag_rate=leg + opp,
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
#  Per-curve segment integrals along the legacy axis
# ---------------------------------------------------------------------------
# Each I_<curve>(a, b) is the vector (over mixture terms) of
#   integral_a^b exp(-opp * curve(t)) * exp(-leg * t) dt
# computed so that every exponent is the true log-magnitude of the
# integrand (<= 0 on the integration regions), hence overflow-free.

def _exp_segment(rate, log_front, a, b):
    return np.exp(log_front - rate * a) * (-np.expm1(-rate * (b - a))) / rate


def _i_cap(k, a, b):
    return _exp_segment(k.r_cap, k.cap_shift, a, b)


def _i_first(k, a, b):
    return _exp_segment(k.r_first, k.first_shift, a, b)


def _i_diag(k, a, b):
    return _exp_segment(k.diag_rate, 0.0, a, b)


def _i_tie(k, a, b):
    return np.array([
        _gamma1_shifted(a, b, c, d, s)
        for c, d, s in zip(k.quad_c, k.quad_d, k.cap_shift)
    ])


def _gc_nodes(a, b, n_c):
    # first-kind Chebyshev nodes with exact (Fejer) weights; the
    # sqrt-weighted approximation would cap the whole engine at ~5 digits
    t, wgt = fejer1_weights(n_c)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * t, half * wgt


def _curve_values(cfg, kind, x):
    if kind == "cap":
        return power_cap(cfg, x)
    if kind == "tie":
        return decode_tie(cfg, x)
    if kind == "loss":
        return capped_loss(cfg, x)
    if kind == "first":
        return first_loss(cfg, x)
    if kind == "diag":
        return x
    raise ValueError(kind)


def _between(cfg, k: RegimeConstants, lower: str, upper: str,
             a, b, n_c: int) -> float:
    """Mass with the opportunistic gain between two boundary curves.

    Gauss-Chebyshev quadrature along the legacy gain of the interval mass,
    which is evaluated in the cancellation-free product form; the signed
    exponential expansion (see ``_between_expansion``) is algebraically
    identical but loses all significance at high SNR, where sub-event
    masses sit many orders below the expansion terms.
    """
    if a is None or b is None or not (b > a):
        return 0.0
    pair = OrderPairDensity(cfg.M, cfg.m, cfg.n)
    x, wgt = _gc_nodes(a, b, n_c)
    lo = _curve_values(cfg, lower, x)
    hi = _curve_values(cfg, upper, x)
    if cfg.m < cfg.n:
        mass = mass_upper_interval(pair, x, lo, hi)
    else:
        mass = mass_lower_interval(pair, x, lo, hi)
    return float(mass @ wgt)


# --- signed-expansion forms -------------------------------------------------
# Per-curve antiderivatives of the expanded density; retained because they
# make the erf/exponential structure of each sub-event explicit and are
# asserted against the product-form path in the tests (moderate SNR only;
# the expansion cancels catastrophically once the masses are tiny).

def _gc_loss_minus_tie(cfg, k, a, b, n_c):
    x, wgt = _gc_nodes(a, b, n_c)
    kern = (np.exp(-np.outer(k.opp, capped_loss(cfg, x)))
            - np.exp(-np.outer(k.opp, decode_tie(cfg, x))))
    kern *= np.exp(-np.outer(k.leg, x))      # rows: mixture terms, cols: nodes
    return kern @ wgt


def _gc_loss(cfg, k, a, b, n_c):
    x, wgt = _gc_nodes(a, b, n_c)
    kern = np.exp(-np.outer(k.opp, capped_loss(cfg, x)) - np.outer(k.leg, x))
    return kern @ wgt


def _between_expansion(cfg, k: RegimeConstants, lower: str, upper: str,
                       a, b, n_c: int) -> float:
    """Same mass via the signed exponential expansion (test reference)."""
    if a is None or b is None or not (b > a):
        return 0.0
    analytic = {"cap": _i_cap, "first": _i_first, "diag": _i_diag, "tie": _i_tie}
    if lower == "loss":
        # the capped-loss kernel has no elementary antiderivative
        if upper == "tie":
            segs = _gc_loss_minus_tie(cfg, k, a, b, n_c)
        else:
            segs = _gc_loss(cfg, k, a, b, n_c) - analytic[upper](k, a, b)
    else:
        segs = analytic[lower](k, a, b) - analytic[upper](k, a, b)
    return comp_sum(k.coeff / k.opp * segs)


# ---------------------------------------------------------------------------
#  Sub-event terms and their branch dispatch
# ---------------------------------------------------------------------------

def contended_terms(cfg: SystemConfig, k: RegimeConstants, between) -> dict:
    """Each contended-loss sub-event in its active branch (column).

    ``between(lower, upper, a, b)`` is the mass with the opportunistic gain
    between the curves ``lower`` and ``upper`` for legacy gain in (a, b);
    it returns 0 when a limit is None or the interval is empty.  The
    exact and the high-SNR engines share this table and differ only in
    ``between``.
    """
    eta = cfg.eta
    alpha = k.alpha_m
    th = eta_thresholds(cfg.beta, k.eps_m)
    low_ratio = eta <= k.k_1

    def first_branch_upper():
        if eta <= th["first_lo"]:
            return k.z_3
        if eta <= k.k_2:
            return min(k.z_3, k.omega_4)
        return None

    out = {}
    if cfg.m < cfg.n:
        out["P_T1_1"] = (between("cap", "tie", k.omega_1, k.omega_2)
                         if low_ratio else 0.0)
        lo = k.omega_2 if low_ratio else k.z_2
        out["P_T1_2"] = between("loss", "tie", lo, k.z_1)
        up = k.omega_1 if low_ratio else k.z_2
        out["P_T1_3"] = between("diag", "tie", k.z_3, up)
        out["P_T2_1"] = between("diag", "first", alpha, first_branch_upper())
        out["P_T2_2"] = between("tie", "first", k.z_3, k.z_1)
    else:
        up11 = k.z_3 if eta <= k.k_3 else k.omega_2
        out["P_T1_1"] = between("cap", "tie", alpha, up11)
        if low_ratio:
            up12 = k.omega_1
        elif eta <= k.k_3:
            up12 = k.omega_2
        else:
            up12 = None
        out["P_T1_2"] = between("cap", "diag", k.z_3, up12)
        out["P_T1_3"] = (between("loss", "tie", k.omega_2, min(k.z_1, k.z_3))
                         if eta > k.k_3 else 0.0)
        if low_ratio:
            lo14 = None
        elif eta <= k.k_3:
            lo14 = k.omega_2
        else:
            lo14 = k.z_3
        out["P_T1_4"] = between("loss", "diag", lo14, k.z_2)
        out["P_T2_1"] = between("tie", "diag", alpha, first_branch_upper())
        if eta <= th["first_lo"]:
            lo22 = None
        elif eta <= k.k_2:
            lo22 = k.omega_4
        else:
            lo22 = alpha
        out["P_T2_2"] = between("tie", "first", lo22, k.z_1)
    return out


def exact_pt_terms(cfg: SystemConfig, consts: RegimeConstants = None,
                   n_c: int = 256, engine: str = "product") -> dict:
    """Each contended-loss sub-event at the config's SNR.

    ``engine="expansion"`` evaluates the same terms through the signed
    exponential expansion (erf/exponential antiderivatives); it is kept
    for validating that algebra and is only trustworthy while the masses
    are well above its cancellation floor.
    """
    if n_c < 16:
        raise InvalidConfigError(f"n_c={n_c} too small; need >= 16")
    k = consts if consts is not None else compute_constants(cfg)
    between = {"product": _between, "expansion": _between_expansion}[engine]
    return contended_terms(
        cfg, k, lambda lower, upper, a, b: between(cfg, k, lower, upper, a, b, n_c))


def p_t_exact(cfg: SystemConfig, consts: RegimeConstants = None,
              n_c: int = 256) -> ProbEstimate:
    """Contended-loss probability from the closed forms."""
    terms = exact_pt_terms(cfg, consts, n_c)
    value = comp_sum(terms.values())
    value = min(1.0, max(0.0, value))
    return ProbEstimate(value=value, trials=0, std_err=0.0, method=EXACT)
