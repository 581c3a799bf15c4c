"""Per-draw achievable rates for OMA and the three hybrid-NOMA schemes.

The rates are computed in the linear domain on arrays of gains, one
draw per element; a single draw is a length-1 array.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

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
        self._masks = [np.empty(rows, dtype=bool) for _ in range(4)]

    def run(self, cfg: SystemConfig, scheme: Scheme, g_m, g_n, gamma) -> None:
        """Evaluate the 1-D float gain arrays ``g_m``, ``g_n``.

        For HSIC-PA the per-draw power-adaptation factor is written into
        ``gamma``; the other schemes leave it alone (their factor is 1).
        ``run_at`` passes the kernel's own tau, rhs and denom buffers as
        ``g_m``, ``g_n`` and ``gamma``: each gain's first product goes in
        place, and denom is read for the last time before γ is formed.
        """
        if scheme not in HNOMA_SCHEMES:
            raise ValueError(f"no NOMA slot for scheme {scheme}")
        n = g_m.size
        tau, denom, b, one_b, first_stage, capped, factor, rhs = (
            a[:n] for a in self._reals)
        over_bits, adapt_bits = (a[:n] for a in self._words)
        over, adapt, lose = (a[:n] for a in self._masks[:3])
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

    def run_at(self, cfg: SystemConfig, scheme: Scheme, g_m, g_n, gamma, at) -> None:
        """``run`` on the draws ``g_m[at]``, ``g_n[at]`` (at most ``rows``
        of them), with HSIC-PA's γ scattered into ``gamma[at]``.

        The draws are gathered into the kernel's own buffers, so a gather
        needs no memory of its own.
        """
        n = at.size
        tau, denom, rhs = (self._reals[k][:n] for k in (0, 1, 7))
        # the positions are in range; "wrap" skips a buffered bounds check
        np.take(g_m, at, out=tau, mode="wrap")
        np.take(g_n, at, out=rhs, mode="wrap")
        self.run(cfg, scheme, tau, rhs, denom)
        if scheme == Scheme.HSIC_PA:
            gamma[at] = denom

    def contended_losses(self) -> int:
        """Draws of the last ``run`` (power-adaptive) that lose while not
        type I and with a positive cap: ``lose & over & (tau > 0)``."""
        hit = self._masks[3][:self.lose.size]
        np.greater(self.tau, 0.0, out=hit)
        np.logical_and(hit, self.over, out=hit)
        np.logical_and(hit, self.lose, out=hit)
        return int(np.count_nonzero(hit))

    def settled(self, cert: SettleCertificate, rho_n: float, g_m, g_n, at=None,
                adapting: bool = False):
        """Mask of the draws (of ``g_m[at]``, ``g_n[at]`` with ``at``) whose
        outcome ``cert`` shows fixed at ``rho_n`` and at every higher SNR
        of its sweep.  Such a draw is type I and winning, where ``run``
        would find no loss, no contended loss and γ = 1; or, for HSIC-NPA,
        won for good in either branch, or in the floor cone, where ``run``
        would find a loss; or, for HSIC-PA with ``adapting``, over,
        adapting and winning, where ``run`` would find no loss, no
        contended loss and γ = τ/b.  ``floor_draws`` is set to the number
        of floor-cone draws in the mask, ``adapting_draws`` to the number
        of adapting winners.

        The mask is a view onto the kernel's buffers, like the results of
        ``run``, and valid until the next ``run`` or ``settled``, which
        both reuse them.  See ``SettleCertificate`` for the tests and
        their floating-point argument.
        """
        n = g_m.size if at is None else at.size
        c, bg, s, q, a, b = (r[:n] for r in self._reals[:6])
        out, wins, fate, test = (m[:n] for m in self._masks)
        if at is not None:
            g_m = np.take(g_m, at, out=c, mode="wrap")
            g_n = np.take(g_n, at, out=bg, mode="wrap")
        self.floor_draws = self.adapting_draws = 0
        npa = cert.k_w is not None
        up = 1.0 + _SETTLE_MARGIN
        # the NPA and PA fates before the type-I test, which overwrites
        # the gathered gains
        if npa:
            won, cone = fate, test
            np.multiply(g_m, cert.k_o, out=s)
            np.less_equal(s, g_n, out=cone)             # over at every SNR
            np.multiply(g_n, cert.k_q, out=s)
            np.less_equal(s, g_m, out=won)              # and losing there
            np.logical_and(cone, won, out=cone)
            np.greater_equal(g_n, _SETTLE_MARGIN / rho_n, out=won)
            np.logical_and(cone, won, out=cone)
            self.floor_draws = int(np.count_nonzero(cone))
            np.multiply(g_n, cert.k_w, out=s)
            np.multiply(g_m, cert.k_l, out=q)
            np.subtract(s, q, out=s)
            np.greater_equal(s, up / rho_n, out=won)    # a type-II win
        elif adapting:
            np.multiply(g_m, cert.k_o, out=s)
            np.less_equal(s, g_n, out=fate)             # over at every SNR
            np.multiply(g_m, cert.k_a * rho_n, out=a)   # A
            np.multiply(g_n, cert.beta * rho_n, out=b)  # B
            np.multiply(g_m, cert.k_x * rho_n, out=s)
            np.add(s, 1.0, out=s)
            np.subtract(a, up, out=q)
            np.multiply(q, s, out=q)                    # (A - 1 - δ)(1 + X)
            np.multiply(b, up, out=s)
            np.greater_equal(q, s, out=test)            # adapting
            np.logical_and(fate, test, out=fate)
            np.add(b, 1.0, out=q)
            np.multiply(q, a, out=q)                    # A(1 + B)
            np.multiply(g_n, up * rho_n, out=s)
            np.add(s, up, out=s)                        # (1 + δ)(1 + y)
            np.greater_equal(q, s, out=test)            # and winning
            np.logical_and(fate, test, out=fate)
            self.adapting_draws = int(np.count_nonzero(fate))
        # the win test first: g_n may be bg, which the type-I test overwrites
        np.greater_equal(g_n, up / (rho_n * cert.k_d), out=wins)
        np.multiply(g_m, cert.k_a, out=c)
        np.multiply(g_n, cert.beta, out=bg)
        np.subtract(c, bg, out=c)                       # (1 - δ)a - βg_n
        np.greater_equal(c, up / rho_n, out=out)
        np.logical_and(out, wins, out=out)
        if npa:
            np.logical_or(out, won, out=out)
            np.logical_or(out, cone, out=out)
        elif adapting:
            np.logical_or(out, fate, out=out)
        return out

    def gamma_pass(self, cfg: SystemConfig, g_m, g_n, gamma) -> None:
        """γ = min(τ/b, 1) of every draw into ``gamma``, a chunk at a time,
        with the operations of ``run``.  That is ``run``'s γ bit for bit on
        an adapting draw, which has b > τ, and 1 on a type-I draw with
        τ >= b > 0; other draws get a value that ``run`` must overwrite.
        """
        rows = self._reals[0].size
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for lo in range(0, g_m.size, rows):
                tau = gamma[lo:lo + rows]
                b = self._reals[0][:tau.size]
                np.multiply(cfg.rho_m, g_m[lo:lo + rows], out=tau)
                np.divide(tau, cfg.eps_m, out=tau)
                np.subtract(tau, 1.0, out=tau)
                np.maximum(0.0, tau, out=tau)
                np.multiply(cfg.beta * cfg.rho_n, g_n[lo:lo + rows], out=b)
                np.divide(tau, b, out=tau)
                np.minimum(tau, 1.0, out=tau)


# δ of the settled-draw certificate
_SETTLE_MARGIN = 1e-6
# the smallest 1 - 2β at which the certificate's win test is used
_SETTLE_MIN_GAP = 1e-3
# the largest ρ_n it is used at: with gains below 1e50 no product overflows
_SETTLE_MAX_RHO = 1e100


class SettleCertificate(NamedTuple):
    """When a draw's outcome is fixed for the rest of a sweep: type I and
    winning at this SNR and at every higher one; or, for HSIC-NPA, won
    for good or in the floor cone; or, for HSIC-PA, over, adapting and
    winning.

    The sweep is cells of one scheme with a type-I branch (HSIC-NPA or
    HSIC-PA) that share β and ε_m, visited at rising ρ_n.  Write
    a = r g_m/ε_m, c = a - βg_n and d = β²g_n/(1 - 2β), where
    r <= ρ_m/ρ_n at every SNR of the sweep.  In exact arithmetic a draw
    is type I when ρ_n c >= 1, since τ >= ρ_n a - 1 >= b then, and a
    type-I draw wins when ρ_n d > 1, since for g_n > 0
    (1 + b)² > 1 + ρ_n g_n ⇔ β²ρ_n g_n > 1 - 2β.  Both only strengthen
    as ρ_n grows.  ``DrawKernel.settled`` asks, with δ = ``_SETTLE_MARGIN``,

        (1 - δ)a - βg_n >= (1 + δ)/ρ_n   and   g_n >= (1 + δ)/(ρ_n k_d),

    that is c >= (1 + δ)/ρ_n + δa, which bounds the cancellation in c,
    and ρ_n d >= 1 + δ.

    Floats, u = 2^-53: the left side of the first test is within 6ua of
    its exact value and the right sides within 6u of theirs, so a draw
    that passes at ρ_n has ρ c - 1 >= 0.99δ(1 + ρa) and ρ d >= 1 + 0.99δ
    at every ρ >= ρ_n of the sweep.  There the kernel's τ is at least
    T - 1 - 3uT, with T = ρ_m g_m/ε_m >= ρa, and its b at most
    βρg_n(1 + 2u) < ρa(1 + 2u), so τ - b >= 0.99δ(1 + ρa) - 5uρa > 0:
    a gap of δ = 1e-6 relative to the operands, against rounding of
    about 1e-15.  The type-I win gap (1 + b)² - (1 + ρg_n) is at least
    0.99δ(1 - 2β)² relative to (1 + b)² (at least 1e-12 with
    1 - 2β >= 1e-3), while the kernel's (1 + b)² and 1 + ρg_n are off
    by at most 9u of it.  The gap shrinks like δ(1 - 2β)² as β nears
    ½, so there the certificate is off.  The bounds assume that nothing
    overflows or underflows, which holds for ρ_n <= 1e100 and gains
    below 1e50 (sampled gains stay below 40).

    HSIC-NPA has two more fates and HSIC-PA one; ``k_w``, ``k_l`` and
    ``k_q`` are None for HSIC-PA, and ``k_x`` for HSIC-NPA.  Write
    x = ρ_m g_m, y = ρ_n g_n, S = 1 - 2β + β²y + (1 - β)x and
    W = β²y - (1 - β)x - (1 - 2β), and r⁺ >= ρ_m/ρ_n >= r⁻ at every
    SNR of the sweep (r⁻ is r).  For y > 0 a type-II draw loses iff
    W <= 0, since (1 + b/(1 + x))(1 + b) - (1 + y) = yW/(1 + x), and
    W > 0 implies the type-I win β²y > 1 - 2β.

    - Won for good: k_w g_n - k_l g_m >= (1 + δ)/ρ_n, that is
      ρ_n((1 - δ)β²g_n - (1 + δ)(1 - β)r⁺g_m) >= (1 + δ)(1 - 2β).  As
      above, in floats a draw that passes has W >= 0.99δS at ρ_n, and
      at every later ρ too, since the left side grows with ρ_n and
      x <= ρ_n r⁺g_m.  There y > 4(1 - 2β), and the kernel's loss test
      finds a win in either branch: the type-II gap yW/(1 + x) and the
      type-I gap y(β²y - 1 + 2β) >= yW are both at least
      0.99δ(1 - 2β)y/(1 + y) relative to the test's sides (at least
      3e-12 with 1 - 2β >= 1e-3), against rounding of at most 12u.
    - The floor cone: k_o g_m <= g_n, k_q g_n <= g_m and g_n >= δ/ρ_n.
      The first gives x/ε_m <= b/(1 + δ), so at every SNR the kernel's
      τ is at most x/ε_m(1 + 3u) - 1 + u and its b at least b(1 - 2u):
      b - τ >= 0.99δb + 1 - 5ub - u > 0, and b > 0, so the draw is
      over.  The δ keeps b > τ where b is so large that the 1 is lost
      to rounding.  The second gives β²y <= (1 - β)x/(1 + δ), so
      -W >= 1 - 2β + 0.99δ(1 - β)x and the loss gap is at least
      min(1 - 2β, 0.99δ(1 - β))·y/(1 + y) >= 0.49δy/(1 + y) relative to
      1 + y.  The third, y >= δ, makes that at least 4.9e-13, against
      12u: with y a few ulps, 1 + b and 1 + y round to neighbouring
      floats and a draw of the cone can win.  No test depends on ρ_n
      but the third, which only strengthens as ρ_n grows.
    - Zero gains: g_n = 0 fails the third test and g_m = 0 < g_n the
      second, so those draws stay live; the kernel finds the all-zero
      draw type I and losing (1·1 <= 1).

    HSIC-PA's fate is over, adapting and winning.  Such a draw's
    γ = τ/b still moves with ρ_n, so ``settled`` marks it only with
    ``adapting``, for sweeps whose later cells form γ by
    ``DrawKernel.gamma_pass``.  Write T = x/ε_m, so that an adapting
    draw has τ = T - 1 and the rate factor 1 + τ; A = (1 - δ)ρ_n a,
    X = r⁻ρ_n g_m and B = βρ_n g_n.  The tests are

        k_o g_m <= g_n,   (A - 1 - δ)(1 + X) >= (1 + δ)B   and
        A(1 + B) >= (1 + δ)(1 + ρ_n g_n).

    At fixed r the last two are convex quadratics in ρ_n, negative at
    ρ_n = 0, so once they hold they hold at every higher ρ_n; and they
    only strengthen as r grows, once A >= 1 + δ.

    - Over: the cone's first test, as above; b > 0 since T > 1.
    - Adapting: A, X, B and the products are within 9u of their
      values, so a draw that passes has
      ((1 - 0.99δ)T - 1 - 0.99δ)(1 + x) >= (1 + 0.99δ)b with r⁻ for
      ρ_m/ρ_n, and so at every later cell with its own ρ_m and ρ_n.
      There T > 1 + 1.9δ, so the kernel's τ is at least T - 1 - 3uT > 0,
      its τ·(1 + x) at least (T - 1)(1 + x) - 6uT(1 + x) and its b at
      most b(1 + 2u): the adapt gap τ(1 + x) - b is at least
      0.99δ((T + 1)(1 + x) + b) - 6uT(1 + x) - 2ub > 0.
    - Winning: likewise T(1 + b) >= (1 + 1.98δ)(1 + y) at every later
      cell, while the kernel's (1 + τ)(1 + b) is at least
      T(1 + b)(1 - 8u) and its 1 + y at most (1 + y)(1 + 2u).
    - γ: such a draw has τ < b in the kernel's floats, so the pass's
      min(τ/b, 1) is the kernel's τ/b bit for bit, and a retired type-I
      winner has τ >= b > 0 (its win test needs g_n > 0), so it gets 1.
    - Zero gains: g_n = 0 passes the over test only with g_m = 0, where
      the adapting test reads -(1 + δ) >= 0.
    - The products are within 1 + 2δ of at most ρ_m²g_m²/ε_m and
      ρ_m ρ_n g_m g_n/ε_m, and ``of`` leaves ``k_x`` None unless
      ρ_m max(ρ_m, ρ_n)/ε_m <= ``_SETTLE_MAX_RHO``², so with gains
      below 1e50 they stay below 1e300.
    """

    k_a: float      # (1 - δ) r / ε_m
    beta: float
    k_d: float      # β² / (1 - 2β)
    k_w: float = None   # (1 - δ) β² / (1 - 2β)
    k_l: float = None   # (1 + δ)(1 - β) r⁺ / (1 - 2β)
    k_o: float = None   # (1 + δ) r⁺ / (β ε_m)
    k_q: float = None   # (1 + δ) β² / ((1 - β) r⁻)
    k_x: float = None   # r⁻

    @classmethod
    def of(cls, cfgs, scheme: Scheme):
        """The certificate of a sweep over ``cfgs``, which share β and
        ε_m, or None: FSIC has no type-I branch, near β = ½ the win gap
        is too small, and past ``_SETTLE_MAX_RHO`` products may overflow
        (for HSIC-PA's fate, past its square)."""
        beta = cfgs[0].beta
        if (scheme == Scheme.FSIC or not 1.0 - 2.0 * beta >= _SETTLE_MIN_GAP
                or max(cfg.rho_n for cfg in cfgs) > _SETTLE_MAX_RHO):
            return None
        # bounds on every rho_m / rho_n: 8u beyond the least and greatest quotient
        quotients = [cfg.rho_m / cfg.rho_n for cfg in cfgs]
        r = min(quotients) * (1.0 - 2.0 ** -50)
        cert = cls(k_a=(1.0 - _SETTLE_MARGIN) * r / cfgs[0].eps_m, beta=beta,
                   k_d=beta ** 2 / (1.0 - 2.0 * beta))
        r_hi = max(quotients) * (1.0 + 2.0 ** -50)
        up, down = 1.0 + _SETTLE_MARGIN, 1.0 - _SETTLE_MARGIN
        k_o = up * r_hi / (beta * cfgs[0].eps_m)
        if scheme == Scheme.HSIC_PA:
            rho_m = max(cfg.rho_m for cfg in cfgs)
            rho = max(rho_m, max(cfg.rho_n for cfg in cfgs))
            if rho_m * rho / cfgs[0].eps_m > _SETTLE_MAX_RHO ** 2:
                return cert
            return cert._replace(k_o=k_o, k_x=r)
        return cert._replace(
            k_w=down * cert.k_d, k_l=up * (1.0 - beta) * r_hi / (1.0 - 2.0 * beta),
            k_o=k_o, k_q=up * beta ** 2 / ((1.0 - beta) * r))


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

