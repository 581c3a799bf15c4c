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
from functools import partial

import numpy as np

from .channel import OrderPairDensity, _leggauss
from .config import SystemConfig
from .estimates import ASYMPTOTIC, ProbEstimate
from .exact import _cell_quadrature, contended_terms


def _leading_mass(m: int, n: int, u, lo, hi):
    """Leading-order density mass, over its prefactor, of the opportunistic
    gain in (lo, hi) at legacy gain u, clipped to the wedge."""
    i, j = min(m, n), max(m, n)
    if m < n:
        # legacy gain is the smaller one: integrate (y-u)^(j-i-1) over y
        lo = np.minimum(np.maximum(lo, u), hi)
        return u ** (i - 1) * ((hi - u) ** (j - i) - (lo - u) ** (j - i)) / (j - i)
    # legacy gain is the larger one: polynomial of degree j-2 in x, with
    # the Gauss nodes on the second-last axis
    hi = np.minimum(hi, u)
    lo = np.minimum(np.maximum(lo, 0.0), hi)
    nodes, wts = _leggauss(j // 2 + 1)
    lo_, hi_, u_ = lo[..., None, :], hi[..., None, :], u[..., None, :]
    x = lo_ + 0.5 * (hi_ - lo_) * (1.0 + nodes[:, None])
    return 0.5 * (hi - lo) * (wts @ (x ** (i - 1) * (u_ - x) ** (j - i - 1)))


def asymptotic_pt_terms(cfg: SystemConfig) -> dict:
    """Leading coefficients of each sub-event (multiply by rho_m^-n or ^-m)."""
    unit = replace(cfg, rho_m=1.0, rho_n=cfg.eta)
    pref = OrderPairDensity(cfg.M, cfg.m, cfg.n).prefactor
    mass = partial(_leading_mass, cfg.m, cfg.n)
    return {name: 0.0 if cell is None or not cell[3] > cell[2]
            else pref * float(_cell_quadrature(unit, cell, mass)[0])
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
