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
    Monte Carlo tally and ``mc.draw_counts`` run it.  Each per-draw
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
        of them), with HSIC-PA's γ in ``gamma[at]``.  ``at`` is a slice,
        whose views ``run`` reads and writes, or an int32 index, whose
        draws are gathered into the kernel's own buffers (so a gather
        needs no memory of its own) and whose γ is scattered.
        """
        if isinstance(at, slice):
            self.run(cfg, scheme, g_m[at], g_n[at], gamma[at])
            return
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

    def npa_losses(self) -> int:
        """HSIC-NPA's loss count on the draws of the last HSIC-PA ``run``:
        its buffers still hold the first-stage factor, 1 + b, 1 + ρ_n g_n
        and the over bits, and HSIC-NPA's own operations on them give
        ``run(HSIC_NPA)``'s loss mask."""
        n = self.lose.size
        one_b, first_stage, product, rhs = (self._reals[k][:n] for k in (3, 4, 5, 7))
        hit = self._masks[3][:n]
        _select(self._words[0][:n], first_stage, one_b, out=product)
        np.multiply(product, one_b, out=product)
        np.less_equal(product, rhs, out=hit)
        return int(np.count_nonzero(hit))

    def settled(self, cert: SettleCertificate, rho_n: float, g_m, g_n, at=slice(None),
                passing: bool = False):
        """Mask of the draws ``g_m[at]``, ``g_n[at]`` (``at`` as in
        ``run_at``) whose outcome ``cert`` shows fixed, in every scheme of its
        sweep, at ``rho_n`` and at every higher SNR of the sweep.  A draw that
        is type I and winning is settled in both schemes: ``run`` finds no
        loss, no contended loss and γ = 1.  HSIC-NPA's other fates are won for
        good, where ``run`` finds no loss, and the floor cone, where it finds
        one.  HSIC-PA's other fates count only with ``passing``, for sweeps
        whose later cells form γ by ``gamma_pass``: won for good, in any
        branch, or over, adapting and winning, where ``run`` finds no loss and
        no contended loss.  On a sweep of both schemes a floor-cone draw is
        settled only where it also adapts and wins.  ``floor_draws`` is set to
        the number of floor-cone draws in the mask, ``passed_draws`` to the
        number that are in it only by ``passing``.

        The mask is a view onto the kernel's buffers, like the results of
        ``run``, and valid until the next ``run`` or ``settled``, which
        both reuse them.  See ``SettleCertificate`` for the tests and
        their floating-point argument.
        """
        gathered = not isinstance(at, slice)
        n = at.size if gathered else g_m[at].size
        c, bg, s, q, a, b = (r[:n] for r in self._reals[:6])
        out, fate, won, wins = (m[:n] for m in self._masks)
        if gathered:
            g_m = np.take(g_m, at, out=c, mode="wrap")
            g_n = np.take(g_n, at, out=bg, mode="wrap")
        else:
            g_m, g_n = g_m[at], g_n[at]
        self.floor_draws = self.passed_draws = 0
        passing, won_for_good, adapting, cone = cert.tests(passing)
        up = 1.0 + _SETTLE_MARGIN
        # the type-II fates before the type-I test, which overwrites the
        # gathered gains
        if cone:
            np.multiply(g_m, cert.k_o, out=s)
            np.less_equal(s, g_n, out=fate)             # over at every SNR
            np.multiply(g_n, cert.k_q, out=s)
            np.less_equal(s, g_m, out=won)              # and losing there
            np.logical_and(fate, won, out=fate)
            np.greater_equal(g_n, _SETTLE_MARGIN / rho_n, out=won)
            np.logical_and(fate, won, out=fate)
        if adapting:
            adapts = out if cone else fate
            np.multiply(g_m, cert.k_o, out=s)
            np.less_equal(s, g_n, out=adapts)           # over at every SNR
            np.multiply(g_m, cert.k_a * rho_n, out=a)   # A
            np.multiply(g_n, cert.beta * rho_n, out=b)  # B
            np.multiply(g_m, cert.k_x * rho_n, out=s)
            np.add(s, 1.0, out=s)
            np.subtract(a, up, out=q)
            np.multiply(q, s, out=q)                    # (A - 1 - δ)(1 + X)
            np.multiply(b, up, out=s)
            np.greater_equal(q, s, out=won)             # adapting
            np.logical_and(adapts, won, out=adapts)
            np.add(b, 1.0, out=q)
            np.multiply(q, a, out=q)                    # A(1 + B)
            np.multiply(g_n, up * rho_n, out=s)
            np.add(s, up, out=s)                        # (1 + δ)(1 + y)
            np.greater_equal(q, s, out=won)             # and winning
            np.logical_and(adapts, won, out=adapts)
            if cone:
                np.logical_and(fate, adapts, out=fate)
        if cone:
            self.floor_draws = int(np.count_nonzero(fate))
        if won_for_good:
            np.multiply(g_n, cert.k_w, out=s)
            np.multiply(g_m, cert.k_l, out=q)
            np.subtract(s, q, out=s)
            np.greater_equal(s, up / rho_n, out=won)    # a type-II win
        # the win test first: g_n may be bg, which the type-I test overwrites
        np.greater_equal(g_n, up / (rho_n * cert.k_d), out=wins)
        np.multiply(g_m, cert.k_a, out=c)
        np.multiply(g_n, cert.beta, out=bg)
        np.subtract(c, bg, out=c)                       # (1 - δ)a - βg_n
        np.greater_equal(c, up / rho_n, out=out)
        np.logical_and(out, wins, out=out)
        type_i = int(np.count_nonzero(out)) if passing else 0
        if won_for_good:
            np.logical_or(out, won, out=out)
        if cone or adapting:
            np.logical_or(out, fate, out=out)
        if passing:
            self.passed_draws = int(np.count_nonzero(out)) - type_i
        return out

    def gamma_pass(self, cfg: SystemConfig, g_m, g_n, gamma) -> None:
        """``run``'s γ of every winner into ``gamma``, a chunk at a time,
        with ``run``'s operations: 1 where τ·(ρ_m g_m + 1) < b, else
        min(τ/b, 1).  That is γ bit for bit on every draw with b > 0:
        τ/b on an adapting draw (b > τ), 1 on a first-stage one and 1 on
        a type-I one (τ >= b).  τ is not floored at 0: a negative one
        (run's τ = 0) makes the first test pass, and γ is 1 either way.
        A draw with τ = b = 0 gets NaN, a value that ``run`` must
        overwrite.
        """
        rows = self._reals[0].size
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for lo in range(0, g_m.size, rows):
                tau = gamma[lo:lo + rows]
                denom, b = (r[:tau.size] for r in self._reals[1:3])
                first_stage = self._masks[0][:tau.size]
                np.multiply(cfg.rho_m, g_m[lo:lo + rows], out=tau)
                np.add(tau, 1.0, out=denom)
                np.divide(tau, cfg.eps_m, out=tau)
                np.subtract(tau, 1.0, out=tau)
                np.multiply(cfg.beta * cfg.rho_n, g_n[lo:lo + rows], out=b)
                np.multiply(tau, denom, out=denom)
                np.less(denom, b, out=first_stage)
                np.divide(tau, b, out=tau)
                np.minimum(tau, 1.0, out=tau)
                np.maximum(tau, first_stage, out=tau)   # 1 on the first stage


# δ of the settled-draw certificate
_SETTLE_MARGIN = 1e-6
# the smallest 1 - 2β at which the certificate's win test is used
_SETTLE_MIN_GAP = 1e-3
# the largest ρ_n it is used at: with gains below 1e50 no product overflows
_SETTLE_MAX_RHO = 1e100


class SettleCertificate(NamedTuple):
    """When a draw's outcome is fixed for the rest of a sweep: type I and
    winning at this SNR and at every higher one; or won for good, in any
    branch; or, for HSIC-NPA, in the floor cone; or, for HSIC-PA, over,
    adapting and winning.

    The sweep is HSIC-NPA and HSIC-PA cells (``npa`` and ``pa`` say which
    it has) that share β and ε_m, visited at rising ρ_n; a draw settles
    only where its outcome is fixed in each of them.  Write
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

    Both schemes can be won for good, HSIC-NPA's draws can also sit in
    the floor cone, and HSIC-PA's can adapt and win.  Write
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
      HSIC-PA's first-stage branch forms HSIC-NPA's factor fs with the
      same operations.  In its adapting branch the kernel's
      τ·(1 + x) >= b gives fl(1 + τ) >= fs(1 - 4u), so the loss test's
      product is at least 1 - 6u times the first-stage one, well inside
      the gap: the test marks an HSIC-PA win in every branch.  Its γ still moves
      with the branch and ρ_n, so ``settled`` marks it for HSIC-PA only
      with ``passing``.
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
      On a sweep with HSIC-PA cells a cone draw settles only where it
      also passes the adapting fate's tests.
    - Zero gains: g_n = 0 fails the third test and g_m = 0 < g_n the
      second, so those draws stay live; the kernel finds the all-zero
      draw type I and losing (1·1 <= 1).

    HSIC-PA's own fate is over, adapting and winning.  Such a draw's
    γ = τ/b still moves with ρ_n, so ``settled`` marks it only with
    ``passing``, for sweeps whose later cells form γ by
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
    - γ: ``DrawKernel.gamma_pass`` repeats the kernel's operations up
      to its adapt test τ·(1 + x) >= b, so it gives the kernel's γ bit
      for bit wherever b > 0, in any branch.  Every settled draw has
      b > 0: a type-I winner has y > (1 - 2β)/β², one won for good
      y > 4(1 - 2β), and an adapting one b > T > 1.
    - Zero gains: g_n = 0 passes the over test only with g_m = 0, where
      the adapting test reads -(1 + δ) >= 0.
    - The products are within 1 + 2δ of at most ρ_m²g_m²/ε_m and
      ρ_m ρ_n g_m g_n/ε_m, and ``of`` leaves ``k_x`` None unless
      ρ_m max(ρ_m, ρ_n)/ε_m <= ``_SETTLE_MAX_RHO``², so with gains
      below 1e50 they stay below 1e300.
    """

    npa: bool       # the sweep has HSIC-NPA cells
    pa: bool        # the sweep has HSIC-PA cells
    k_a: float      # (1 - δ) r / ε_m
    beta: float
    k_d: float      # β² / (1 - 2β)
    k_w: float      # (1 - δ) β² / (1 - 2β)
    k_l: float      # (1 + δ)(1 - β) r⁺ / (1 - 2β)
    k_o: float      # (1 + δ) r⁺ / (β ε_m)
    k_q: float      # (1 + δ) β² / ((1 - β) r⁻)
    k_x: float      # r⁻, or None where the adapting fate is off

    def tests(self, passing: bool) -> tuple:
        """Which of ``DrawKernel.settled``'s tests run, with or without
        ``passing``: ``(passing, won_for_good, adapting, cone)``."""
        passing = passing and self.pa
        adapting = passing and self.k_x is not None
        return passing, passing or not self.pa, adapting, self.npa and (adapting or not self.pa)

    @classmethod
    def of(cls, cfgs, *schemes: Scheme):
        """The certificate of a sweep over ``cfgs``, which share β and
        ε_m, with cells of ``schemes``, or None: FSIC has no type-I
        branch, near β = ½ the win gap is too small, and past
        ``_SETTLE_MAX_RHO`` products may overflow (for HSIC-PA's own
        fate, past its square)."""
        beta, eps_m = cfgs[0].beta, cfgs[0].eps_m
        if (Scheme.FSIC in schemes or not 1.0 - 2.0 * beta >= _SETTLE_MIN_GAP
                or max(cfg.rho_n for cfg in cfgs) > _SETTLE_MAX_RHO):
            return None
        # bounds on every rho_m / rho_n: 8u beyond the least and greatest quotient
        quotients = [cfg.rho_m / cfg.rho_n for cfg in cfgs]
        r = min(quotients) * (1.0 - 2.0 ** -50)
        r_hi = max(quotients) * (1.0 + 2.0 ** -50)
        up, down = 1.0 + _SETTLE_MARGIN, 1.0 - _SETTLE_MARGIN
        rho_m = max(cfg.rho_m for cfg in cfgs)
        rho = max(rho_m, max(cfg.rho_n for cfg in cfgs))
        k_d = beta ** 2 / (1.0 - 2.0 * beta)
        return cls(
            npa=Scheme.HSIC_NPA in schemes, pa=Scheme.HSIC_PA in schemes,
            k_a=down * r / eps_m, beta=beta, k_d=k_d, k_w=down * k_d,
            k_l=up * (1.0 - beta) * r_hi / (1.0 - 2.0 * beta),
            k_o=up * r_hi / (beta * eps_m), k_q=up * beta ** 2 / ((1.0 - beta) * r),
            k_x=r if rho_m * rho / eps_m <= _SETTLE_MAX_RHO ** 2 else None)


def rate_factors(cfg: SystemConfig, g_m, g_n, scheme: Scheme):
    """Vectorized NOMA-slot decision: each draw's linear rate argument
    (rate = log2(factor)), in the gains' broadcast shape; ties as in
    ``DrawKernel``."""
    g_m, g_n = np.broadcast_arrays(np.asarray(g_m, dtype=float),
                                   np.asarray(g_n, dtype=float))
    kernel = DrawKernel(g_m.size)
    kernel.run(cfg, Scheme(scheme), g_m.reshape(-1), g_n.reshape(-1), np.empty(g_m.size))
    return kernel.factor.reshape(g_m.shape)
