"""Scenario parameters for one legacy/opportunistic uplink pairing."""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace


class InvalidConfigError(ValueError):
    """Scenario parameters violate the model's assumptions."""


def db_to_linear(x_db: float) -> float:
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:  # past the float range; SystemConfig rejects it
        return math.inf


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


def check_number(name: str, value, kind=float) -> None:
    """Raise unless ``value`` is an integer or, with ``kind=float``, any real
    number.  JSON true/false are Python bools, which would pass as numbers."""
    if type(value) is int or type(value) is kind:
        return  # JSON's own types, without the ABC check (0.4 us a call)
    if isinstance(value, bool) or not isinstance(
            value, numbers.Real if kind is float else numbers.Integral):
        what = "a number" if kind is float else "an integer"
        raise InvalidConfigError(f"{name}={value!r} is not {what}")


def check_ranks(M: int, m: int, n: int) -> None:
    """Raise unless m and n are two different ranks among M >= 2 users."""
    if M < 2:
        raise InvalidConfigError(f"need at least 2 users, got M={M}")
    for name, idx in (("m", m), ("n", n)):
        if not 1 <= idx <= M:
            raise InvalidConfigError(f"{name}={idx} outside 1..{M}")
    if m == n:
        raise InvalidConfigError("legacy and opportunistic user must differ")


@dataclass(frozen=True)
class SystemConfig:
    """Uplink scenario with M ordered users.

    The legacy user (index ``m``, 1-based by channel-gain rank) owns its
    slot and is protected by an interference cap; the opportunistic user
    (index ``n``) additionally transmits in the legacy slot at reduced
    power ``beta * rho_n``.  Noise power is normalized to 1, so ``rho_n``
    is also the transmit SNR of the opportunistic user.
    """

    M: int
    m: int
    n: int
    R_m: float          # legacy target rate, bits per channel use
    beta: float         # power reduction coefficient, 0 < beta < 1/2
    eta: float          # power ratio rho_n / rho_m, fixed along a sweep
    rho_n: float        # transmit SNR of the opportunistic user (linear)

    def __post_init__(self):
        for name in ("M", "m", "n"):
            check_number(name, getattr(self, name), int)
        for name in ("R_m", "beta", "eta", "rho_n"):
            check_number(name, getattr(self, name))
        check_ranks(self.M, self.m, self.n)
        if not 0.0 < self.beta < 0.5:
            raise InvalidConfigError(f"beta={self.beta} outside (0, 1/2)")
        # written so that NaN fails too; 2^R_m overflows from max_exp on,
        # and below about 1.6e-16 rounds to 1, where ε_m = 2^R_m - 1 is 0
        if not (0.0 < self.R_m < sys.float_info.max_exp and 2.0 ** self.R_m > 1.0):
            raise InvalidConfigError(f"R_m={self.R_m} must be positive, with 2^R_m finite, > 1")
        if not 0.0 < self.eta < math.inf:
            raise InvalidConfigError(f"power ratio eta={self.eta} must be positive and finite")
        if not (0.0 < self.rho_n < math.inf and 0.0 < self.rho_m < math.inf):
            raise InvalidConfigError(f"transmit SNRs rho_n={self.rho_n} and rho_m = rho_n/eta"
                                     f" = {self.rho_m} must be positive and finite")

    @classmethod
    def make(cls, M, m, n, R_m, beta, eta, snr_db) -> "SystemConfig":
        """Build a config from the power ratio ``eta`` and the SNR in dB:
        ``rho_n = 10^(snr_db/10)``."""
        check_number("snr_db", snr_db)
        return cls(M=M, m=m, n=n, R_m=R_m, beta=beta, eta=eta, rho_n=db_to_linear(snr_db))

    def with_snr(self, snr_db: float) -> "SystemConfig":
        """Same scenario at a different SNR, keeping eta fixed."""
        return replace(self, rho_n=db_to_linear(snr_db))

    @property
    def rho_m(self) -> float:
        """Transmit SNR of the legacy user (linear), rho_n / eta."""
        return self.rho_n / self.eta

    @property
    def snr_db(self) -> float:
        return linear_to_db(self.rho_n)

    @property
    def eps_m(self) -> float:
        """Target SINR of the legacy user, 2^R_m - 1."""
        return 2.0 ** self.R_m - 1.0

    @property
    def beta_sq(self) -> float:
        """beta^2 by Python's ``**`` (C ``pow``).  The boundary curves read
        it, so that on per-point arrays of many configs' attributes they
        keep each config's bits: numpy's array ``** 2`` is one multiply,
        which can differ from ``pow`` in the last bit."""
        return self.beta ** 2

    @property
    def alpha_m(self) -> float:
        """Legacy gain below which the interference cap is zero."""
        return self.eps_m / self.rho_m
