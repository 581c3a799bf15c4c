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
of the ordered wedge, where the two gains would swap rank order; the
integration's breakpoint search adds it to every clause.

Regions are unions of clauses ``{t in (t_lo, t_hi),
max(lower)(t) < g_n < min(upper)(t)}``, which keeps the opportunistic-gain
section an interval so event masses reduce to one outer integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .schemes import Scheme


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


class _Gathered:
    """Config attributes per point: ``view.name[p]`` is ``column(name)[ids[p]]``.
    A curve run on the view gives each point the bits of its own config."""

    def __init__(self, column, ids):
        self._column, self._ids = column, ids

    def __getattr__(self, name):
        value = self._column(name)[self._ids]
        setattr(self, name, value)  # later reads skip the gather
        return value


# ---------------------------------------------------------------------------
#  Regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Clause:
    """One conjunction: t-range and opportunistic-gain interval.

    A bound is a constant or a boundary formula ``f(cfg, t)`` of the
    clause's config ``cfg`` (None when every bound is a constant).
    """

    t_lo: float
    t_hi: float
    lower: tuple = ()
    upper: tuple = ()
    cfg: SystemConfig | None = None


@dataclass(frozen=True)
class EventRegion:
    """Union of clauses over (legacy gain, opportunistic gain) pairs."""

    clauses: tuple


def _cap_floor_const(cfg: SystemConfig) -> float:
    # largest reduced-power gain for which the uncontended slot pair loses
    return (1.0 - 2.0 * cfg.beta) / (cfg.beta ** 2 * cfg.rho_n)


def region_uncontended_loss(cfg: SystemConfig) -> EventRegion:
    """Loss event while received power stays within the cap (Type I)."""
    return EventRegion((Clause(cfg.alpha_m, np.inf,
                               upper=(power_cap, _cap_floor_const(cfg)), cfg=cfg),))


def region_zero_cap_loss(cfg: SystemConfig) -> EventRegion:
    """Loss event in the contended regime with a zero interference cap."""
    return EventRegion((Clause(0.0, cfg.alpha_m, upper=(first_loss,), cfg=cfg),))


def region_contended_loss(cfg: SystemConfig) -> EventRegion:
    """Loss event in the contended regime with a positive cap: the capped
    clause, then the first-stage (direct) clause."""
    capped = Clause(cfg.alpha_m, cfg.alpha_m / cfg.beta, lower=(power_cap, capped_loss),
                    upper=(decode_tie,), cfg=cfg)
    direct = Clause(cfg.alpha_m, np.inf, lower=(decode_tie,), upper=(first_loss,), cfg=cfg)
    return EventRegion((capped, direct))


def region_underperformance(cfg: SystemConfig, scheme) -> EventRegion:
    """Full loss-vs-OMA event for one hybrid scheme."""
    scheme = Scheme(scheme)
    if scheme == Scheme.FSIC:
        return EventRegion((Clause(0.0, np.inf, upper=(first_loss,), cfg=cfg),))
    if scheme == Scheme.HSIC_NPA:
        contended = (Clause(cfg.alpha_m, np.inf, lower=(power_cap,), upper=(first_loss,),
                            cfg=cfg),)
    elif scheme == Scheme.HSIC_PA:
        contended = region_contended_loss(cfg).clauses
    else:
        raise ValueError(f"no underperformance region for scheme {scheme}")
    return EventRegion(region_uncontended_loss(cfg).clauses + contended
                       + region_zero_cap_loss(cfg).clauses)
