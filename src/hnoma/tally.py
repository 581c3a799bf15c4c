"""The Monte Carlo tally of one leaf of a gain block (see
``mc._rank_blocks``): the per-draw kernel over the cells of a curve, in
ascending ρ_n.  A draw retires, and the kernel no longer runs on it, once
``schemes.SettleCertificate`` shows its outcome fixed at this step and
every later one, in each scheme of the curve.

A curve plans its retiring once, on its first leaf (``plan_curve``):
each step with a later one probes the leaf's first ``_PROBE_ROWS``
draws.  HSIC-PA's fates other than type I (``passing``) switch on once
``1/_PASS_SHARE`` of the probe are winners that only they retire, and the
first step at which at most half of the probe is live starts the index;
the probe then stops.  On every leaf, that step's retire pass builds an
int32 index of the leaf's live draws, and each later step compacts it in
place with the same pass.  The kernel runs on ``CHUNK_ROWS`` slices of
the leaf, or pieces of the index once there is one.  Floor-cone draws
retired so far count as an HSIC-NPA loss at each later step.  Each
HSIC-PA step with an index first writes every draw's γ in one contiguous
pass (``DrawKernel.gamma_pass`` when passing, else 1, since only type-I
winners retire), then the kernel overwrites the live draws' γ: every
count and pairwise γ sum is the whole-leaf kernel's.
"""

from __future__ import annotations

import numpy as np

from .channel import CHUNK_ROWS
from .schemes import DrawKernel, Scheme, SettleCertificate

# draws whose settled share decides whether a curve builds its live index
_PROBE_ROWS = 4096
# the γ pass costs about 9 ns per block row and the kernel about 35 ns per
# indexed draw (x86, one core), so the pass pays once about a quarter of
# the draws are winners that only it can retire, and it switches on there;
# that share mostly grows at the SNRs that follow
_PASS_SHARE = 4


def curves(cells) -> list:
    """The cells ``(cfg, scheme, tally)`` grouped into curves, along which
    draws settle: the HSIC-NPA and HSIC-PA cells that share (m, n, β,
    R_m, η) form one, and FSIC's cells another.  A curve is a list of steps
    ``(cfg, [(scheme, tally), ...])``, one per config, in ascending ρ_n."""
    groups = {}
    for cfg, scheme, tally in cells:
        key = (cfg.m, cfg.n, cfg.beta, cfg.R_m, cfg.eta, scheme == Scheme.FSIC)
        groups.setdefault(key, {}).setdefault(cfg, []).append((scheme, tally))
    return [sorted(steps.items(), key=lambda step: step[0].rho_n)
            for steps in groups.values()]


def _chunks(size: int, live) -> list:
    """A step's chunks of a block of ``size`` draws: ``CHUNK_ROWS`` slices
    while there is no index (``live`` None), pieces of the index after."""
    if live is None:
        return [slice(lo, min(lo + CHUNK_ROWS, size)) for lo in range(0, size, CHUNK_ROWS)]
    return [live[lo:lo + CHUNK_ROWS] for lo in range(0, live.size, CHUNK_ROWS)]


def _retire(kernel: DrawKernel, cert: SettleCertificate, rho_n: float, g_m, g_n,
            live, passing: bool, out):
    """The int32 positions of the draws of ``live`` (all of ``g_m`` when
    None) not settled at ``rho_n``, and how many of the settled ones lose
    for good.  A new index is built in ``out``; ``live`` is compacted in
    place."""
    out = out if live is None else live
    end = floor = 0
    for at in _chunks(g_m.size, live):
        settled = kernel.settled(cert, rho_n, g_m, g_n, at, passing)
        floor += kernel.floor_draws
        positions = np.arange(at.start, at.stop, dtype=np.int32) if live is None else at
        kept = np.compress(np.logical_not(settled, out=settled), positions)
        out[end:end + kept.size] = kept   # after the copy: the two may overlap
        end += kept.size
    return out[:end], floor


def plan_curve(kernel: DrawKernel, curve, g_m, g_n) -> tuple:
    """How ``tally_curve`` retires draws along ``curve``, from the probe
    of the first ``_PROBE_ROWS`` of the draws (see the module docstring):
    ``(cert, passing, start)``, the curve's certificate, whether HSIC-PA's
    other fates are on and γ comes from the pass, and the step from which
    a live index is kept (``len(curve)``: none is).  No count or sum
    depends on the plan, so one plan serves every leaf of a curve."""
    schemes = {scheme for _, cells in curve for scheme, _ in cells}
    pa = Scheme.HSIC_PA in schemes
    cert = SettleCertificate.of([cfg for cfg, _ in curve], *schemes)
    passing = False
    # an index pays for itself only over the SNRs that follow
    for k, (cfg, _) in enumerate(curve[:-1] if cert is not None else ()):
        probe = kernel.settled(cert, cfg.rho_n, g_m, g_n, slice(0, _PROBE_ROWS), pa)
        passing = passing or _PASS_SHARE * kernel.passed_draws >= probe.size
        # the pass's winners count as settled only once it is on
        settled = int(np.count_nonzero(probe)) - (0 if passing else kernel.passed_draws)
        if 2 * settled >= probe.size:
            return cert, passing, k
    return cert, passing, len(curve)


def tally_curve(kernel: DrawKernel, curve, plan, g_m, g_n, gamma, index, want_pt: bool):
    """Tally one leaf for the cells of one curve (see ``curves`` and the
    module docstring), one kernel run per step and chunk, retiring draws
    as ``plan`` (``plan_curve``) says, with the live index in ``index``.
    A step with both HSIC-NPA and HSIC-PA cells runs HSIC-PA, and its
    buffers give HSIC-NPA's verdict too (``DrawKernel.npa_losses``).
    Counts add to each cell's tally, and the leaf's γ sum is appended to
    its ``leaf_sums``."""
    cert, passing, start = plan
    live = None
    floor = 0   # draws retired so far that lose HSIC-NPA at every SNR
    for k, (cfg, cells) in enumerate(curve):
        if k >= start:
            live, lost = _retire(kernel, cert, cfg.rho_n, g_m, g_n, live, passing, index)
            floor += lost
        here = {scheme for scheme, _ in cells}
        run = Scheme.HSIC_PA if Scheme.HSIC_PA in here else cells[0][0]
        shared = here == {Scheme.HSIC_NPA, Scheme.HSIC_PA}
        pt = want_pt and run == Scheme.HSIC_PA
        if run == Scheme.HSIC_PA and live is not None:
            if passing:
                kernel.gamma_pass(cfg, g_m, g_n, gamma)
            else:
                gamma.fill(1.0)
        hits = pt_hits = npa_hits = 0
        for at in _chunks(g_m.size, live):
            kernel.run_at(cfg, run, g_m, g_n, gamma, at)
            chunk_hits = int(np.count_nonzero(kernel.lose))
            hits += chunk_hits
            # the contended positive-cap loss: losing, not type I, tau > 0
            pt_hits += kernel.contended_losses() if pt else 0
            npa_hits += kernel.npa_losses() if shared else chunk_hits
        # γ is 1 off HSIC-PA, and a pairwise sum of ones is exact
        gamma_sum = float(gamma.sum()) if run == Scheme.HSIC_PA else float(g_m.size)
        for scheme, tally in cells:
            npa = scheme == Scheme.HSIC_NPA
            tally["hits"] += npa_hits + floor if npa else hits
            tally["pt_hits"] += 0 if npa else pt_hits
            tally["leaf_sums"].append(float(g_m.size) if npa else gamma_sum)
