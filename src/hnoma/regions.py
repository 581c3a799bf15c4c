"""Event regions in the (legacy gain, opportunistic gain) plane.

Every probability this package estimates is the mass of a region bounded
by four curves of the legacy gain ``t``:

* ``power_cap(t)``    - opportunistic gain where the received NOMA power
                        equals the legacy interference cap; above it the
                        draw is in the contended (Type II) regime.
* ``decode_tie(t)``   - gain where first-stage decoding and the
                        cap-limited second-stage decoding give the same
                        rate; below it the cap-limited branch wins.
* ``capped_loss(t)``  - gain above which the cap-limited rate plus the
                        reduced OMA slot still lose to full-power OMA
                        (infinite once beta * t exceeds the cap gain
                        floor, where that loss event is impossible).
* ``first_loss(t)``   - gain below which first-stage decoding plus the
                        reduced OMA slot lose to full-power OMA.

The closed forms also bound sub-events by ``diagonal(t) = t``, the edge
of the ordered wedge, where the two gains would swap rank order.

Regions are unions of clauses ``{t in (t_lo, t_hi),
max(lower)(t) < g_n < min(upper)(t)}``, which keeps the opportunistic-gain
section an interval so event masses reduce to one outer integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import SystemConfig


# ---------------------------------------------------------------------------
#  Boundary curves (vectorized in t = legacy gain)
# ---------------------------------------------------------------------------

def power_cap(cfg: SystemConfig, t):
    t = np.asarray(t, dtype=float)
    return (t / cfg.alpha_m - 1.0) / (cfg.beta * cfg.rho_n)


def decode_tie(cfg: SystemConfig, t):
    t = np.asarray(t, dtype=float)
    return (t / cfg.alpha_m - 1.0) * (1.0 + cfg.rho_m * t) / (cfg.beta * cfg.rho_n)


def capped_loss(cfg: SystemConfig, t):
    t = np.asarray(t, dtype=float)
    ratio = t / cfg.alpha_m
    den = 1.0 - cfg.beta * ratio
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (ratio - 1.0) / (cfg.rho_n * den)
    return np.where(den > 0.0, val, np.inf)


def first_loss(cfg: SystemConfig, t):
    t = np.asarray(t, dtype=float)
    return ((1.0 - cfg.beta) * (cfg.rho_m * t + 1.0) - cfg.beta) / (
        cfg.beta_sq * cfg.rho_n)


def diagonal(cfg: SystemConfig, t):
    return np.asarray(t, dtype=float)


# ---------------------------------------------------------------------------
#  Regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Clause:
    """One conjunction: t-range and opportunistic-gain interval.

    A bound is a constant, a boundary curve of one config written
    ``partial(curve, cfg)`` (integration evaluates many configs' curves
    together from their attributes, gathered per point), or any other
    callable of t.
    """

    t_lo: float
    t_hi: float
    lower: tuple = ()
    upper: tuple = ()


@dataclass(frozen=True)
class EventRegion:
    """Union of clauses over (legacy gain, opportunistic gain) pairs."""

    clauses: tuple


def _cap_floor_const(cfg: SystemConfig) -> float:
    # largest reduced-power gain for which the uncontended slot pair loses
    return (1.0 - 2.0 * cfg.beta) / (cfg.beta ** 2 * cfg.rho_n)


def region_uncontended_loss(cfg: SystemConfig) -> EventRegion:
    """Loss event while received power stays within the cap (Type I)."""
    cap = partial(power_cap, cfg)
    return EventRegion(
        (Clause(cfg.alpha_m, np.inf, upper=(cap, _cap_floor_const(cfg))),))


def region_zero_cap_loss(cfg: SystemConfig) -> EventRegion:
    """Loss event in the contended regime with a zero interference cap."""
    return EventRegion((Clause(0.0, cfg.alpha_m, upper=(partial(first_loss, cfg),)),))


def region_contended_loss(cfg: SystemConfig) -> EventRegion:
    """Loss event in the contended regime with a positive cap: the capped
    clause, then the first-stage (direct) clause."""
    cap, tie, loss, psi = (partial(curve, cfg) for curve in
                           (power_cap, decode_tie, capped_loss, first_loss))
    capped = Clause(cfg.alpha_m, cfg.alpha_m / cfg.beta,
                    lower=(cap, loss), upper=(tie,))
    direct = Clause(cfg.alpha_m, np.inf, lower=(tie,), upper=(psi,))
    return EventRegion((capped, direct))


def region_underperformance(cfg: SystemConfig, scheme) -> EventRegion:
    """Full loss-vs-OMA event for one hybrid scheme."""
    from .schemes import Scheme

    scheme = Scheme(scheme)
    psi = partial(first_loss, cfg)
    if scheme == Scheme.FSIC:
        return EventRegion((Clause(0.0, np.inf, upper=(psi,)),))
    if scheme == Scheme.HSIC_NPA:
        contended = (Clause(cfg.alpha_m, np.inf, lower=(partial(power_cap, cfg),),
                            upper=(psi,)),)
    elif scheme == Scheme.HSIC_PA:
        contended = region_contended_loss(cfg).clauses
    else:
        raise ValueError(f"no underperformance region for scheme {scheme}")
    return EventRegion(region_uncontended_loss(cfg).clauses + contended
                       + region_zero_cap_loss(cfg).clauses)
