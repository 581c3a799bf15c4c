"""Per-draw achievable rates for OMA and the three hybrid-NOMA schemes.

All rate computations are exposed twice: scalar operations returning a
``RateDecision``, and vectorized kernels on gain arrays used by the Monte
Carlo estimators.  Both share the same linear-domain algebra.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .channel import ChannelDraw
from .config import SystemConfig


class Scheme(str, enum.Enum):
    OMA = "OMA"
    FSIC = "FSIC"
    HSIC_NPA = "HSIC-NPA"
    HSIC_PA = "HSIC-PA"


HNOMA_SCHEMES = (Scheme.FSIC, Scheme.HSIC_NPA, Scheme.HSIC_PA)


class Branch(str, enum.Enum):
    TYPE_I = "TypeI"
    TYPE_II_CASE1 = "TypeII-case1"
    TYPE_II_CASE2 = "TypeII-case2"
    NOT_APPLICABLE = "not-applicable"


# integer codes used by the vectorized kernels
_B_NA, _B_I, _B_II1, _B_II2 = 0, 1, 2, 3
_BRANCH_FROM_CODE = {
    _B_NA: Branch.NOT_APPLICABLE,
    _B_I: Branch.TYPE_I,
    _B_II1: Branch.TYPE_II_CASE1,
    _B_II2: Branch.TYPE_II_CASE2,
}


@dataclass(frozen=True)
class RateDecision:
    """Outcome of one NOMA-slot transmission decision."""

    scheme: Scheme
    noma_slot_rate: float
    oma_slot_rate: float
    branch: Branch
    gamma: float
    tau_m: float


def tau_threshold(cfg: SystemConfig, g_m):
    """Largest interference power the legacy user tolerates at gain g_m."""
    return np.maximum(0.0, cfg.rho_m * np.asarray(g_m, dtype=float) / cfg.eps_m - 1.0)


def oma_rate(cfg: SystemConfig, g_n, scaled: bool = False):
    """Rate of the opportunistic user alone in a slot.

    ``scaled=False`` is the full-power benchmark; ``scaled=True`` is the
    reduced-power slot of the hybrid scheme.
    """
    power = cfg.beta * cfg.rho_n if scaled else cfg.rho_n
    val = np.log2(1.0 + power * np.asarray(g_n, dtype=float))
    return val if val.ndim else float(val)


def rate_factors(cfg: SystemConfig, g_m, g_n, scheme: Scheme):
    """Vectorized NOMA-slot decision.

    Returns ``(factor, branch_code, gamma)`` where ``factor`` is the linear
    rate argument (rate = log2(factor)).  Ties: equal received power and cap
    goes to the cap branch; an equal-rate tie in the power-adaptive case goes
    to the reduced-power branch (lower energy at the same rate).
    """
    g_m = np.asarray(g_m, dtype=float)
    g_n = np.asarray(g_n, dtype=float)
    b = cfg.beta * cfg.rho_n * g_n              # received NOMA power of U_n
    tau = tau_threshold(cfg, g_m)
    denom = cfg.rho_m * g_m + 1.0
    first_stage = 1.0 + b / denom               # U_n decoded before U_m
    if scheme == Scheme.FSIC:
        factor = first_stage
        branch = np.full(b.shape, _B_NA, dtype=np.int8)
        gamma = np.ones_like(first_stage)
        return factor, branch, gamma
    type_i = b <= tau
    if scheme == Scheme.HSIC_NPA:
        factor = np.where(type_i, 1.0 + b, first_stage)
        branch = np.where(type_i, _B_I, _B_II1).astype(np.int8)
        gamma = np.ones_like(factor)
        return factor, branch, gamma
    if scheme == Scheme.HSIC_PA:
        capped = 1.0 + tau                      # power scaled down to hit the cap
        # tie test in cleared form: tau >= b/denom without the 1+ rounding
        case2 = tau * denom >= b
        factor = np.where(type_i, 1.0 + b, np.where(case2, capped, first_stage))
        branch = np.where(type_i, _B_I, np.where(case2, _B_II2, _B_II1)).astype(np.int8)
        gamma = np.ones_like(factor)
        adapt = ~type_i & case2
        np.divide(tau, b, out=gamma, where=adapt)
        return factor, branch, gamma
    raise ValueError(f"no NOMA slot for scheme {scheme}")


def noma_rate(cfg: SystemConfig, g_m: float, g_n: float, scheme: Scheme) -> RateDecision:
    """NOMA-slot rate decision for one draw."""
    factor, branch, gamma = rate_factors(
        cfg, np.asarray([g_m]), np.asarray([g_n]), Scheme(scheme))
    return RateDecision(
        scheme=Scheme(scheme),
        noma_slot_rate=float(np.log2(factor[0])),
        oma_slot_rate=float(oma_rate(cfg, g_n, scaled=True)),
        branch=_BRANCH_FROM_CODE[int(branch[0])],
        gamma=float(gamma[0]),
        tau_m=float(tau_threshold(cfg, g_m)),
    )


def loss_mask(cfg: SystemConfig, g_n, factor):
    """True where NOMA-slot + reduced OMA-slot rate <= full-power OMA rate.

    ``factor`` is the NOMA-slot rate argument from ``rate_factors``.
    Compared in the linear domain: factor * (1 + beta rho_n g_n) vs
    1 + rho_n g_n, which is the same event as the rate-sum comparison.
    """
    b = cfg.beta * cfg.rho_n * g_n
    return factor * (1.0 + b) <= 1.0 + cfg.rho_n * g_n


def underperf_mask(cfg: SystemConfig, g_m, g_n, scheme: Scheme):
    """``loss_mask`` of the scheme's NOMA-slot decision at each draw."""
    g_n = np.asarray(g_n, dtype=float)
    factor, _, _ = rate_factors(cfg, g_m, g_n, scheme)
    return loss_mask(cfg, g_n, factor)


def underperformance_indicator(cfg: SystemConfig, draw: ChannelDraw, scheme: Scheme) -> bool:
    """Does the hybrid scheme fail to beat pure OMA for this draw?"""
    g_m, g_n = draw.gain(cfg.m), draw.gain(cfg.n)
    return bool(underperf_mask(cfg, np.asarray([g_m]), np.asarray([g_n]), Scheme(scheme))[0])


def energy(cfg: SystemConfig, decision: RateDecision) -> float:
    """Transmit energy of the opportunistic user over one frame (T = 1)."""
    scheme = Scheme(decision.scheme)
    if scheme == Scheme.OMA:
        return cfg.rho_n
    if scheme in (Scheme.FSIC, Scheme.HSIC_NPA):
        return 2.0 * cfg.beta * cfg.rho_n
    if scheme == Scheme.HSIC_PA:
        return (1.0 + decision.gamma) * cfg.beta * cfg.rho_n
    raise ValueError(f"unknown scheme {decision.scheme}")


def energy_array(cfg: SystemConfig, scheme: Scheme, gamma):
    """Vectorized energy accounting (gamma ignored except for HSIC-PA)."""
    gamma = np.asarray(gamma, dtype=float)
    scheme = Scheme(scheme)
    if scheme == Scheme.OMA:
        return np.full(gamma.shape, cfg.rho_n)
    if scheme in (Scheme.FSIC, Scheme.HSIC_NPA):
        return np.full(gamma.shape, 2.0 * cfg.beta * cfg.rho_n)
    return (1.0 + gamma) * cfg.beta * cfg.rho_n
