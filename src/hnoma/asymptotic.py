"""High-SNR limits of the contended-loss probability at a fixed power ratio.

Every boundary curve scales exactly with rho_m: with u = rho_m * t, each
curve at (rho_m, rho_n = eta * rho_m) is 1/rho_m times the same curve at
(rho_m = 1, rho_n = eta).  The crossing points and the cells of
``exact.contended_terms`` are therefore those at that unit-SNR config,
in the rescaled gains.  As rho_m grows the rescaled region shrinks onto
the origin of the original gains, where the ordered-pair density tends
to its leading polynomial pref * x^(i-1) * (y-x)^(j-i-1) (i, j the
smaller and larger rank); integrating it over each unit-SNR cell gives a
coefficient that decays as rho_m^-n (legacy rank below the opportunistic
one) or rho_m^-m (above).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .channel import OrderPairDensity, _leggauss
from .config import SystemConfig
from .estimates import ASYMPTOTIC, ProbEstimate
from .exact import N_C, _gc_nodes, contended_terms


def _leading_mass(unit: SystemConfig, pref: float, cell) -> float:
    """Leading-order density mass of a unit-SNR cell ``(lower, upper, a,
    b)``: the opportunistic gain between the curves, for legacy gain u in
    (a, b), clipped to the wedge."""
    if cell is None or None in cell or not cell[3] > cell[2]:
        return 0.0
    lower, upper, a, b = cell
    u, wgt = _gc_nodes(a, b, N_C)
    lo = lower(unit, u)
    hi = upper(unit, u)
    i, j = min(unit.m, unit.n), max(unit.m, unit.n)
    if unit.m < unit.n:
        # legacy gain is the smaller one: integrate (y-u)^(j-i-1) over y
        lo = np.minimum(np.maximum(lo, u), hi)
        inner = u ** (i - 1) * ((hi - u) ** (j - i) - (lo - u) ** (j - i)) / (j - i)
    else:
        # legacy gain is the larger one: polynomial of degree j-2 in x
        hi = np.minimum(hi, u)
        lo = np.minimum(np.maximum(lo, 0.0), hi)
        nodes, wts = _leggauss(j // 2 + 1)
        x = lo + 0.5 * (hi - lo) * (1.0 + nodes[:, None])
        inner = 0.5 * (hi - lo) * (wts @ (x ** (i - 1) * (u - x) ** (j - i - 1)))
    return pref * float(inner @ wgt)


def asymptotic_pt_terms(cfg: SystemConfig) -> dict:
    """Leading coefficients of each sub-event (multiply by rho_m^-n or ^-m)."""
    unit = replace(cfg, rho_m=1.0, rho_n=cfg.eta)
    pref = OrderPairDensity(cfg.M, cfg.m, cfg.n).prefactor
    return {name: _leading_mass(unit, pref, cell)
            for name, cell in contended_terms(unit).items()}


def asymptotic_coefficient(cfg: SystemConfig) -> float:
    """The SNR-free coefficient c of P_T ~ c * rho_m^-max(m, n)."""
    return math.fsum(asymptotic_pt_terms(cfg).values())


def scaled_asymptotic(cfg: SystemConfig, coef: float) -> ProbEstimate:
    """The high-SNR approximation at the config's SNR, from its coefficient."""
    return ProbEstimate(value=min(1.0, coef / cfg.rho_m ** max(cfg.m, cfg.n)),
                        trials=0, std_err=0.0, method=ASYMPTOTIC)


def p_t_asymptotic(cfg: SystemConfig) -> ProbEstimate:
    """High-SNR approximation of the contended-loss probability."""
    return scaled_asymptotic(cfg, asymptotic_coefficient(cfg))
