"""Per-draw achievable rates for OMA and the three hybrid-NOMA schemes.

The rates are computed in the linear domain on arrays of gains, one
draw per element; a single draw is a length-1 array.
"""

from __future__ import annotations

import enum

import numpy as np

from .config import SystemConfig


class Scheme(str, enum.Enum):
    OMA = "OMA"
    FSIC = "FSIC"
    HSIC_NPA = "HSIC-NPA"
    HSIC_PA = "HSIC-PA"


HNOMA_SCHEMES = (Scheme.FSIC, Scheme.HSIC_NPA, Scheme.HSIC_PA)


# branch codes of ``rate_factors``: not applicable (FSIC), type I, and
# type II decoded at the first stage (case 1) or at the cap (case 2)
_B_NA, _B_I, _B_II1, _B_II2 = 0, 1, 2, 3


def _select(mask, a, b, out):
    """``out = where(mask, a, b)`` bit for bit, without a per-draw branch.

    ``mask`` is int64, -1 (all bits set) or 0 per draw; ``a`` and ``out``
    are float64 arrays, ``b`` a float64 array or scalar.  ``out`` may be
    ``a`` but not ``b``.  A masked copy (``copyto`` with ``where=``)
    branches per element and costs several times as much when the two
    sides mix.
    """
    bits = out.view(np.int64)
    b = np.asarray(b, dtype=float).view(np.int64)
    np.bitwise_xor(a.view(np.int64), b, out=bits)
    np.bitwise_and(bits, mask, out=bits)
    np.bitwise_xor(bits, b, out=bits)


class DrawKernel:
    """NOMA-slot decision and loss test for chunks of up to ``rows`` draws.

    The one place the per-draw decision is written: ``rate_factors``, the
    Monte Carlo tally and the decomposition run it.  Each per-draw
    quantity is formed once, into buffers allocated once.  After ``run``
    these attributes are views onto the chunk, valid until the next
    ``run``:

    - ``factor``: the linear NOMA-slot rate argument (rate = log2(factor));
    - ``lose``: NOMA-slot plus reduced OMA-slot rate <= full-power OMA
      rate, compared in the linear domain as
      factor * (1 + beta rho_n g_n) <= 1 + rho_n g_n;
    - ``tau``: the largest interference power the legacy user tolerates
      at gain g_m, max(0, rho_m g_m / eps_m - 1) (not formed for FSIC);
    - ``over``: b > tau, i.e. not type I (not formed for FSIC);
    - ``adapt``: power scaled down to hit the cap (HSIC-PA only).

    Ties: equal received power and cap goes to the cap branch; an
    equal-rate tie in the power-adaptive case goes to the reduced-power
    branch (lower energy at the same rate).
    """

    def __init__(self, rows: int):
        self._reals = [np.empty(rows) for _ in range(8)]
        self._words = [np.empty(rows, dtype=np.int64) for _ in range(2)]
        self._masks = [np.empty(rows, dtype=bool) for _ in range(3)]

    def run(self, cfg: SystemConfig, scheme: Scheme, g_m, g_n, gamma) -> None:
        """Evaluate the 1-D float gain arrays ``g_m``, ``g_n``.

        For HSIC-PA the per-draw power-adaptation factor is written into
        ``gamma``; the other schemes leave it alone (their factor is 1).
        """
        if scheme not in HNOMA_SCHEMES:
            raise ValueError(f"no NOMA slot for scheme {scheme}")
        n = g_m.size
        tau, denom, b, one_b, first_stage, capped, factor, rhs = (
            a[:n] for a in self._reals)
        over_bits, adapt_bits = (a[:n] for a in self._words)
        over, adapt, lose = (a[:n] for a in self._masks)
        np.multiply(cfg.rho_m, g_m, out=tau)
        np.add(tau, 1.0, out=denom)
        np.multiply(cfg.beta * cfg.rho_n, g_n, out=b)   # received NOMA power of U_n
        np.add(b, 1.0, out=one_b)
        np.divide(b, denom, out=first_stage)
        np.add(first_stage, 1.0, out=first_stage)       # U_n decoded before U_m
        if scheme == Scheme.FSIC:
            factor = first_stage
        else:
            np.divide(tau, cfg.eps_m, out=tau)
            np.subtract(tau, 1.0, out=tau)
            np.maximum(0.0, tau, out=tau)
            np.greater(b, tau, out=over)
            np.negative(over.view(np.int8), out=over_bits)
            contended = first_stage
            if scheme == Scheme.HSIC_PA:
                # tie test in cleared form: tau >= b/denom without the 1+ rounding
                np.multiply(tau, denom, out=capped)
                np.greater_equal(capped, b, out=adapt)
                np.logical_and(adapt, over, out=adapt)
                np.negative(adapt.view(np.int8), out=adapt_bits)
                np.add(tau, 1.0, out=capped)            # power scaled down to hit the cap
                _select(adapt_bits, capped, first_stage, out=capped)
                contended = capped
                # tau / b is inf or nan only where b == 0, and overflows
                # only where b is far below tau: type-I draws, whose lanes
                # the select below drops
                with np.errstate(divide="ignore", invalid="ignore",
                                 over="ignore"):
                    np.divide(tau, b, out=gamma)
                _select(adapt_bits, gamma, 1.0, out=gamma)
            # type I: U_n decoded after U_m, free of interference
            _select(over_bits, contended, one_b, out=factor)
        # loss test: factor * (1 + b) <= 1 + rho_n g_n
        np.multiply(cfg.rho_n, g_n, out=rhs)
        np.add(rhs, 1.0, out=rhs)
        np.multiply(factor, one_b, out=capped)
        np.less_equal(capped, rhs, out=lose)
        self.tau, self.factor, self.over, self.adapt, self.lose = (
            tau, factor, over, adapt, lose)


def rate_factors(cfg: SystemConfig, g_m, g_n, scheme: Scheme):
    """Vectorized NOMA-slot decision.

    Returns ``(factor, branch_code, gamma)`` where ``factor`` is the linear
    rate argument (rate = log2(factor)); ties as in ``DrawKernel``.
    """
    scheme = Scheme(scheme)
    g_m, g_n = np.broadcast_arrays(np.asarray(g_m, dtype=float),
                                   np.asarray(g_n, dtype=float))
    shape = g_m.shape
    kernel = DrawKernel(g_m.size)
    gamma = np.ones(g_m.size)
    kernel.run(cfg, scheme, g_m.reshape(-1), g_n.reshape(-1), gamma)
    if scheme == Scheme.FSIC:
        branch = np.full(g_m.size, _B_NA, dtype=np.int8)
    elif scheme == Scheme.HSIC_NPA:
        branch = np.where(kernel.over, _B_II1, _B_I).astype(np.int8)
    else:
        branch = np.where(kernel.over, np.where(kernel.adapt, _B_II2, _B_II1),
                          _B_I).astype(np.int8)
    return (kernel.factor.reshape(shape), branch.reshape(shape),
            gamma.reshape(shape))

