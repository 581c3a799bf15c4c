"""Reference implementations that the tests compare the library against.

None of this runs in ``hnoma figure``, ``sweep`` or ``validate``:

- the NOMA-slot decision written step by step, one temporary per step,
  which the fused ``schemes.DrawKernel`` must match bit for bit, and the
  per-draw energy array, whose mean ``mc_summary`` forms from that of γ;
- one-cell wrappers of ``mc_summary`` (``estimate_probability``,
  ``estimate_pt``);
- per-gain classifiers of the contended-loss sub-events (which bound
  binds at each legacy gain) and the gated region of one sub-event,
  written apart from the branch table of ``exact.contended_terms`` that
  the library's closed forms and MC decomposition read;
- the whole plane, a marginal-CDF region, a clause's bounds at given
  legacy gains (``clause_bounds``) and a membership test of a region
  (``region_contains``);
- the ordered-pair density in product form (``joint_pdf``), as a signed
  exponential mixture (``exp_mixture``) and as its leading polynomial
  near the origin (``joint_pdf_near_zero``);
- Fejer quadrature of a function, and the scaled complementary error
  function;
- the signed-expansion engine for the contended-loss sub-events
  (``expansion_pt_terms``): exponential and Gaussian antiderivatives of
  the expanded density, fed through the branch table of ``exact``.  It
  cancels catastrophically once the masses are tiny, so it is only
  trusted at moderate SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from hnoma.channel import OrderPairDensity
from hnoma.exact import _gc_nodes, compute_constants, contended_terms
from hnoma.mc import mc_summary
from hnoma.numerics import fejer1_weights
from hnoma.regions import (Clause, EventRegion, capped_loss, decode_tie,
                           diagonal, first_loss, power_cap,
                           region_contended_loss)
from hnoma.schemes import _B_I, _B_II1, _B_II2, _B_NA, Scheme


# ---------------------------------------------------------------------------
#  NOMA-slot decision, step by step
# ---------------------------------------------------------------------------

def ref_tau(cfg, g_m):
    return np.maximum(0.0, cfg.rho_m * np.asarray(g_m, dtype=float) / cfg.eps_m - 1.0)


def ref_rate_factors(cfg, g_m, g_n, scheme):
    g_m = np.asarray(g_m, dtype=float)
    g_n = np.asarray(g_n, dtype=float)
    b = cfg.beta * cfg.rho_n * g_n
    tau = ref_tau(cfg, g_m)
    denom = cfg.rho_m * g_m + 1.0
    first_stage = 1.0 + b / denom
    if scheme == Scheme.FSIC:
        return first_stage, np.full(b.shape, _B_NA, dtype=np.int8), np.ones_like(first_stage)
    type_i = b <= tau
    if scheme == Scheme.HSIC_NPA:
        factor = np.where(type_i, 1.0 + b, first_stage)
        branch = np.where(type_i, _B_I, _B_II1).astype(np.int8)
        return factor, branch, np.ones_like(factor)
    capped = 1.0 + tau
    case2 = tau * denom >= b
    factor = np.where(type_i, 1.0 + b, np.where(case2, capped, first_stage))
    branch = np.where(type_i, _B_I, np.where(case2, _B_II2, _B_II1)).astype(np.int8)
    gamma = np.ones_like(factor)
    np.divide(tau, b, out=gamma, where=~type_i & case2)
    return factor, branch, gamma


def ref_loss_mask(cfg, g_n, factor):
    b = cfg.beta * cfg.rho_n * g_n
    return factor * (1.0 + b) <= 1.0 + cfg.rho_n * g_n


def energy_array(cfg, scheme, gamma):
    """Transmit energy of the opportunistic user over one frame (T = 1),
    per draw (``gamma`` is ignored except for HSIC-PA)."""
    gamma = np.asarray(gamma, dtype=float)
    scheme = Scheme(scheme)
    if scheme == Scheme.OMA:
        return np.full(gamma.shape, cfg.rho_n)
    if scheme in (Scheme.FSIC, Scheme.HSIC_NPA):
        return np.full(gamma.shape, 2.0 * cfg.beta * cfg.rho_n)
    return (1.0 + gamma) * cfg.beta * cfg.rho_n


def estimate_probability(cfg, scheme, trials: int, seed: int):
    """Fraction of draws where the scheme fails to beat pure OMA."""
    return mc_summary([(cfg, scheme)], trials, seed)[0]["estimate"]


def estimate_pt(cfg, trials: int, seed: int):
    """MC estimate of the contended positive-cap loss event alone."""
    return mc_summary([(cfg, Scheme.HSIC_PA)], trials, seed,
                      want_pt=True)[0]["pt_estimate"]


# ---------------------------------------------------------------------------
#  Sub-event classifiers and gated sub-event regions
# ---------------------------------------------------------------------------

def capped_branch_bucket(cfg, t):
    """Which lower/outer bound binds the cap-limited loss event at t.

    m < n: returns 1/2/3 for power_cap / capped_loss / diagonal binding
    below.  m > n: returns 1..4 for (power_cap vs capped_loss below) x
    (decode_tie vs diagonal above).
    """
    t = np.asarray(t, dtype=float)
    cap = power_cap(cfg, t)
    loss = capped_loss(cfg, t)
    if cfg.m < cfg.n:
        b1 = (cap >= loss) & (cap >= t)
        b2 = ~b1 & (loss >= t)
        return np.where(b1, 1, np.where(b2, 2, 3))
    cap_binds = cap >= loss
    tie_above = t >= decode_tie(cfg, t)
    return np.where(cap_binds, np.where(tie_above, 1, 2),
                    np.where(tie_above, 3, 4))


def first_branch_bucket(cfg, t):
    """Which bound binds the first-stage loss event at t (1 or 2)."""
    t = np.asarray(t, dtype=float)
    if cfg.m < cfg.n:
        return np.where(t >= decode_tie(cfg, t), 1, 2)
    return np.where(t <= first_loss(cfg, t), 1, 2)


def region_contended_bucket(cfg, bucket: str) -> EventRegion:
    """One cell of the contended-loss partition (P_T1_k / P_T2_k): its
    clause with one more lower bound, +inf where the cell's classifier
    says another bucket."""
    capped, direct = region_contended_loss(cfg).clauses
    fam, idx = bucket.rsplit("_", 1)
    k = int(idx)
    if fam == "P_T1":
        clause, bucket_at = capped, capped_branch_bucket
    elif fam == "P_T2":
        clause, bucket_at = direct, first_branch_bucket
    else:
        raise ValueError(f"unknown bucket {bucket!r}")
    gate = lambda t: np.where(bucket_at(cfg, t) == k, 0.0, np.inf)
    return EventRegion((Clause(clause.t_lo, clause.t_hi, clause.lower + (gate,),
                               clause.upper),))


def region_everything() -> EventRegion:
    return EventRegion((Clause(0.0, np.inf),))


def region_legacy_below(threshold: float) -> EventRegion:
    """{legacy gain < threshold} (marginal CDF event)."""
    return EventRegion((Clause(0.0, threshold),))


def clause_bounds(clause: Clause, t):
    """(lo(t), hi(t), active(t)) with hi = +inf when unbounded above."""
    t = np.asarray(t, dtype=float)
    lo = np.zeros_like(t)
    for c in clause.lower:
        lo = np.maximum(lo, c(t) if callable(c) else c)
    hi = np.full_like(t, np.inf)
    for c in clause.upper:
        hi = np.minimum(hi, c(t) if callable(c) else c)
    active = (t > clause.t_lo) & (t <= clause.t_hi)
    return lo, hi, active


def region_contains(region: EventRegion, g_m, g_n):
    """Which (g_m, g_n) pairs lie in ``region``."""
    g_m = np.asarray(g_m, dtype=float)
    g_n = np.asarray(g_n, dtype=float)
    hit = np.zeros(np.broadcast(g_m, g_n).shape, dtype=bool)
    for cl in region.clauses:
        lo, hi, active = clause_bounds(cl, g_m)
        hit |= active & (g_n > lo) & (g_n <= hi)
    return hit


# ---------------------------------------------------------------------------
#  Ordered-pair density
# ---------------------------------------------------------------------------

def exp_mixture(pair: OrderPairDensity):
    """Expansion f(x, y) = sum_k w_k exp(-a_k x - b_k y) on 0 < x < y.

    Expands the CDF powers of the order-statistic density into signed
    exponentials; a_k = l+p+1, b_k = M - lo_rank - p.
    """
    i, j = pair.lo_rank, pair.hi_rank
    w, a, b = [], [], []
    for p in range(j - i):
        c_p = math.comb(j - i - 1, p) * (-1.0) ** (j - i - 1 - p)
        for l in range(i):
            c_l = math.comb(i - 1, l) * (-1.0) ** l
            w.append(pair.prefactor * c_p * c_l)
            a.append(l + p + 1)
            b.append(pair.M - i - p)
    return (np.array(w), np.array(a, dtype=float), np.array(b, dtype=float))


def joint_pdf(pair: OrderPairDensity, x, y):
    """Exact pair density at (x, y); zero outside the wedge 0 <= x < y.

    Evaluated in the product form (CDF powers), which stays accurate for
    small gains where the signed exponential expansion cancels.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    i, j = pair.lo_rank, pair.hi_rank
    with np.errstate(invalid="ignore"):
        val = (pair.prefactor
               * (-np.expm1(-x)) ** (i - 1)
               * (-np.expm1(-(y - x))) ** (j - i - 1)
               * np.exp(-(j - i - 1) * x - (pair.M - j + 1) * y - x))
    val = np.where((x >= 0) & (y > x), val, 0.0)
    return val if val.ndim else float(val)


def joint_pdf_near_zero(pair: OrderPairDensity, x, y):
    """Leading-order polynomial form of the pair density for x, y << 1."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    i, j = pair.lo_rank, pair.hi_rank
    val = np.zeros(np.broadcast(x, y).shape)
    for p in range(j - i):
        coef = pair.prefactor * math.comb(j - i - 1, p) * (-1.0) ** p
        val = val + coef * y ** (j - i - 1 - p) * x ** (i - 1 + p)
    val = np.where((x >= 0) & (y > x), val, 0.0)
    return val if val.ndim else float(val)


# ---------------------------------------------------------------------------
#  Quadrature and the scaled complementary error function
# ---------------------------------------------------------------------------

def fejer_quadrature(f, a: float, b: float, n_c: int) -> float:
    """Integral of ``f`` over [a, b] at the first-kind Chebyshev nodes
    with their exact weights; converges geometrically for integrands
    analytic near the interval."""
    if b <= a:
        return 0.0
    t, w = fejer1_weights(n_c)
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * t
    return float(half * np.sum(np.asarray(f(x), dtype=float) * w))


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) * erfc(x)."""
    return float(special.erfcx(x))


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
#  Signed-expansion engine for the contended-loss sub-events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _TermConstants:
    """Per-term constants of the expanded density; the arrays run over the
    mixture terms, and ``leg``/``opp`` are the decay rates attached to the
    legacy and the opportunistic gain."""

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


def _term_constants(cfg, omega_3: float) -> _TermConstants:
    beta, rho_n, rho_m, alpha = cfg.beta, cfg.rho_n, cfg.rho_m, cfg.alpha_m
    w, a_exp, b_exp = exp_mixture(OrderPairDensity(cfg.M, cfg.m, cfg.n))
    leg, opp = (a_exp, b_exp) if cfg.m < cfg.n else (b_exp, a_exp)
    return _TermConstants(
        coeff=w, leg=leg, opp=opp,
        r_cap=leg + opp / (beta * rho_n * alpha),
        r_first=leg + opp * (1.0 - beta) * rho_m / (beta ** 2 * rho_n),
        quad_c=opp * rho_m / (alpha * beta * rho_n),
        quad_d=opp * (1.0 / alpha - rho_m) / (beta * rho_n) + leg,
        cap_shift=opp / (beta * rho_n),
        first_shift=-opp * omega_3,
        diag_rate=leg + opp,
    )


def _exp_segment(rate, log_front, a, b):
    return np.exp(log_front - rate * a) * (-np.expm1(-rate * (b - a))) / rate


# curve -> (k, a, b) -> the vector (over mixture terms) of
#   integral_a^b exp(-opp * curve(t)) * exp(-leg * t) dt
# computed so that every exponent is the true log-magnitude of the
# integrand (<= 0 on the integration regions), hence overflow-free
_ANTIDERIVATIVE = {
    power_cap: lambda k, a, b: _exp_segment(k.r_cap, k.cap_shift, a, b),
    first_loss: lambda k, a, b: _exp_segment(k.r_first, k.first_shift, a, b),
    diagonal: lambda k, a, b: _exp_segment(k.diag_rate, 0.0, a, b),
    decode_tie: lambda k, a, b: np.array([
        _gamma1_shifted(a, b, c, d, s)
        for c, d, s in zip(k.quad_c, k.quad_d, k.cap_shift)]),
}


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


def _between_expansion(cfg, k: _TermConstants, lower, upper, a, b,
                       n_c: int) -> float:
    if a is None or b is None or not (b > a):
        return 0.0
    if lower is capped_loss:
        # the capped-loss kernel has no elementary antiderivative
        if upper is decode_tie:
            segs = _gc_loss_minus_tie(cfg, k, a, b, n_c)
        else:
            segs = _gc_loss(cfg, k, a, b, n_c) - _ANTIDERIVATIVE[upper](k, a, b)
    else:
        segs = _ANTIDERIVATIVE[lower](k, a, b) - _ANTIDERIVATIVE[upper](k, a, b)
    return math.fsum(k.coeff / k.opp * segs)


def expansion_pt_terms(cfg, n_c: int = 256) -> dict:
    """``exact.exact_pt_terms`` through the signed exponential expansion."""
    consts = compute_constants(cfg)
    k = _term_constants(cfg, consts.omega_3)
    return contended_terms(
        cfg, consts,
        lambda lower, upper, a, b: _between_expansion(cfg, k, lower, upper, a, b, n_c))
