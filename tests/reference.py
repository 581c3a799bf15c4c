"""Reference implementations that the tests compare the library against.

None of this runs in ``hnoma figure``, ``sweep`` or ``validate``:

- the NOMA-slot decision written step by step, one temporary per step,
  which the fused ``schemes.DrawKernel`` must match bit for bit, the
  kernel's own factor, branch and γ of given draws
  (``kernel_rate_factors``), and the per-draw energy array, whose mean
  ``mc_summary`` forms from that of γ;
- wrappers of ``mc_summary``: one cell (``estimate_probability``,
  ``estimate_pt``) and every hybrid-NOMA scheme on shared draws
  (``estimate_coupled``);
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
- the closed-form sub-event masses of one config at a time
  (``config_pt_terms``), which the SNR-batched
  ``exact.exact_pt_terms_batch`` must match bit for bit, and the
  high-SNR coefficients one unit-SNR cell at a time
  (``cell_leading_terms``), which ``asymptotic.asymptotic_pt_terms``
  must match bit for bit;
- the signed-expansion engine for the contended-loss sub-events
  (``expansion_pt_terms``): exponential and Gaussian antiderivatives of
  the expanded density, over the cells of ``exact.contended_terms``.  It
  cancels catastrophically once the masses are tiny, so it is only
  trusted at moderate SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from hnoma.channel import (OrderPairDensity, _leggauss, mass_lower_interval,
                           mass_upper_interval)
from hnoma.exact import N_C, contended_terms
from hnoma.mc import mc_summary
from hnoma.numerics import fejer1_weights
from hnoma.regions import (Clause, EventRegion, _cap_floor_const, capped_loss,
                           decode_tie, diagonal, first_loss, power_cap,
                           region_contended_loss)
from hnoma.schemes import HNOMA_SCHEMES, DrawKernel, Scheme


# ---------------------------------------------------------------------------
#  NOMA-slot decision, step by step
# ---------------------------------------------------------------------------

# branch codes: not applicable (FSIC), type I, and type II decoded at the
# first stage (case 1) or at the cap (case 2)
B_NA, B_I, B_II1, B_II2 = 0, 1, 2, 3


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
        return first_stage, np.full(b.shape, B_NA, dtype=np.int8), np.ones_like(first_stage)
    type_i = b <= tau
    if scheme == Scheme.HSIC_NPA:
        factor = np.where(type_i, 1.0 + b, first_stage)
        branch = np.where(type_i, B_I, B_II1).astype(np.int8)
        return factor, branch, np.ones_like(factor)
    capped = 1.0 + tau
    case2 = tau * denom >= b
    factor = np.where(type_i, 1.0 + b, np.where(case2, capped, first_stage))
    branch = np.where(type_i, B_I, np.where(case2, B_II2, B_II1)).astype(np.int8)
    gamma = np.ones_like(factor)
    np.divide(tau, b, out=gamma, where=~type_i & case2)
    return factor, branch, gamma


def kernel_rate_factors(cfg, g_m, g_n, scheme):
    """``ref_rate_factors`` read off one run of the library's
    ``DrawKernel``: its factor, the branch codes from its ``over`` and
    ``adapt`` masks, and HSIC-PA's γ from its buffer (1 elsewhere), in
    the gains' broadcast shape."""
    scheme = Scheme(scheme)
    g_m, g_n = np.broadcast_arrays(np.asarray(g_m, dtype=float),
                                   np.asarray(g_n, dtype=float))
    kernel = DrawKernel(g_m.size)
    gamma = np.ones(g_m.size)
    kernel.run(cfg, scheme, g_m.reshape(-1), g_n.reshape(-1), gamma)
    if scheme == Scheme.FSIC:
        branch = np.full(g_m.size, B_NA, dtype=np.int8)
    elif scheme == Scheme.HSIC_NPA:
        branch = np.where(kernel.over, B_II1, B_I).astype(np.int8)
    else:
        branch = np.where(kernel.over, np.where(kernel.adapt, B_II2, B_II1),
                          B_I).astype(np.int8)
    return (kernel.factor.reshape(g_m.shape), branch.reshape(g_m.shape),
            gamma.reshape(g_m.shape))


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


def estimate_coupled(cfg, trials: int, seed: int) -> dict:
    """Per-scheme estimates on shared draws (exact count dominance)."""
    summaries = mc_summary([(cfg, s) for s in HNOMA_SCHEMES], trials, seed)
    return {s: out["estimate"] for s, out in zip(HNOMA_SCHEMES, summaries)}


# ---------------------------------------------------------------------------
#  Closed-form sub-event masses, one config at a time
# ---------------------------------------------------------------------------

def _gc_nodes(a, b, n_c):
    # first-kind Chebyshev nodes of (a, b) with their exact (Fejer) weights
    t, wgt = fejer1_weights(n_c)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * t, half * wgt


def _cell_mass(cfg, cell, n_c: int) -> float:
    """Mass of a cell ``(lower, upper, a, b)``, the opportunistic gain
    between two boundary curves for legacy gain in (a, b): Fejer
    quadrature of the product-form interval mass at this config's nodes."""
    if cell is None or None in cell or not cell[3] > cell[2]:
        return 0.0
    lower, upper, a, b = cell
    pair = OrderPairDensity(cfg.M, cfg.m, cfg.n)
    x, wgt = _gc_nodes(a, b, n_c)
    mass = mass_upper_interval if cfg.m < cfg.n else mass_lower_interval
    return float(mass(pair, x, lower(cfg, x), upper(cfg, x)) @ wgt)


def config_pt_terms(cfg, n_c: int = N_C) -> dict:
    """This config's dict of ``exact.exact_pt_terms_batch``, evaluated
    for it alone."""
    return {name: _cell_mass(cfg, cell, n_c)
            for name, cell in contended_terms(cfg).items()}


def _leading_mass(unit, pref: float, cell) -> float:
    """Leading-order density mass of a unit-SNR cell ``(lower, upper, a,
    b)``, the opportunistic gain between the curves for legacy gain u in
    (a, b), clipped to the wedge: Fejer quadrature at one cell's nodes."""
    if cell is None or None in cell or not cell[3] > cell[2]:
        return 0.0
    lower, upper, a, b = cell
    u, wgt = _gc_nodes(a, b, N_C)
    lo = lower(unit, u)
    hi = upper(unit, u)
    i, j = min(unit.m, unit.n), max(unit.m, unit.n)
    if unit.m < unit.n:
        lo = np.minimum(np.maximum(lo, u), hi)
        inner = u ** (i - 1) * ((hi - u) ** (j - i) - (lo - u) ** (j - i)) / (j - i)
    else:
        hi = np.minimum(hi, u)
        lo = np.minimum(np.maximum(lo, 0.0), hi)
        nodes, wts = _leggauss(j // 2 + 1)
        x = lo + 0.5 * (hi - lo) * (1.0 + nodes[:, None])
        inner = 0.5 * (hi - lo) * (wts @ (x ** (i - 1) * (u - x) ** (j - i - 1)))
    return pref * float(inner @ wgt)


def cell_leading_terms(cfg) -> dict:
    """``asymptotic.asymptotic_pt_terms`` one unit-SNR cell at a time."""
    unit = replace(cfg, rho_m=1.0, rho_n=cfg.eta)
    pref = OrderPairDensity(cfg.M, cfg.m, cfg.n).prefactor
    return {name: _leading_mass(unit, pref, cell)
            for name, cell in contended_terms(unit).items()}


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
    # the classifiers branch on the ranks, so the gate reads cfg itself
    # rather than the per-point attributes integration hands a formula
    gate = lambda _, t: np.where(bucket_at(cfg, t) == k, 0.0, np.inf)
    return EventRegion((Clause(clause.t_lo, clause.t_hi, clause.lower + (gate,),
                               clause.upper, cfg=clause.cfg),))


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
        lo = np.maximum(lo, c(clause.cfg, t) if callable(c) else c)
    hi = np.full_like(t, np.inf)
    for c in clause.upper:
        hi = np.minimum(hi, c(clause.cfg, t) if callable(c) else c)
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


def _term_constants(cfg) -> _TermConstants:
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
        first_shift=-opp * _cap_floor_const(cfg),
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


def _cell_mass_expansion(cfg, k: _TermConstants, cell, n_c: int) -> float:
    if cell is None or None in cell or not cell[3] > cell[2]:
        return 0.0
    lower, upper, a, b = cell
    if lower is capped_loss:
        # the capped-loss kernel has no elementary antiderivative
        if upper is decode_tie:
            segs = _gc_loss_minus_tie(cfg, k, a, b, n_c)
        else:
            segs = _gc_loss(cfg, k, a, b, n_c) - _ANTIDERIVATIVE[upper](k, a, b)
    else:
        segs = _ANTIDERIVATIVE[lower](k, a, b) - _ANTIDERIVATIVE[upper](k, a, b)
    return math.fsum(k.coeff / k.opp * segs)


def expansion_pt_terms(cfg, n_c: int = N_C) -> dict:
    """This config's dict of ``exact.exact_pt_terms_batch`` through the
    signed exponential expansion."""
    k = _term_constants(cfg)
    return {name: _cell_mass_expansion(cfg, k, cell, n_c)
            for name, cell in contended_terms(cfg).items()}
