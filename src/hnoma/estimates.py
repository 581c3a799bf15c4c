"""Probability estimates with their provenance."""

from __future__ import annotations

import math
from dataclasses import dataclass

MC = "mc"
EXACT = "exact"
ASYMPTOTIC = "asymptotic"
NUMERIC = "numeric-integration"
METHODS = (MC, EXACT, ASYMPTOTIC, NUMERIC)


@dataclass(frozen=True)
class ProbEstimate:
    """A probability value plus how it was obtained.

    ``trials`` is 0 for non-MC methods.  For MC, ``std_err`` is the
    binomial standard error; for numeric integration it is the absolute
    error estimate of the quadrature; exact/asymptotic report 0.
    """

    value: float
    trials: int
    std_err: float
    method: str
    note: str = ""

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"probability {self.value} outside [0, 1]")
        if self.std_err < 0.0:
            raise ValueError("std_err must be nonnegative")

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "ProbEstimate":
        if trials < 1:
            raise ValueError(f"trials={trials} must be >= 1")
        p = successes / trials
        note = ""
        if successes == 0:
            # cannot resolve probabilities below 1/trials; rule-of-three bound
            note = f"0 events in {trials} trials; one-sided 95% bound {3.0 / trials:.3g}"
        return cls(value=p, trials=trials,
                   std_err=math.sqrt(p * (1.0 - p) / trials), method=MC, note=note)


def raised(result):
    """A cell's estimate, raised if it is the cell's error."""
    if isinstance(result, Exception):
        raise result
    return result
