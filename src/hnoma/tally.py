"""The Monte Carlo tally of one gain block: the per-draw kernel over the
cells of a curve, run only on the draws whose outcome is not yet fixed
(see ``mc.mc_summary`` and ``schemes.SettleCertificate``)."""

from __future__ import annotations

import numpy as np

from .channel import CHUNK_ROWS
from .config import SystemConfig
from .schemes import DrawKernel, Scheme, SettleCertificate

# draws whose settled share decides whether a curve builds its live index
_PROBE_ROWS = 4096
# the γ pass costs about 9 ns per block row and the kernel about 35 ns per
# indexed draw (x86, one core), so the pass pays once about a quarter of
# the draws are winners that only it can retire, and it switches on there;
# that share mostly grows at the SNRs that follow
_PASS_SHARE = 4


def tally_chunk(kernel: DrawKernel, cfg: SystemConfig, scheme: Scheme,
                g_m, g_n, gamma, want_pt: bool, at=None):
    """``(hits, pt_hits)`` of one chunk of draws, or of the draws ``at``;
    γ goes into ``gamma``."""
    if at is None:
        kernel.run(cfg, scheme, g_m, g_n, gamma)
    else:
        kernel.run_at(cfg, scheme, g_m, g_n, gamma, at)
    hits = int(np.count_nonzero(kernel.lose))
    # the contended positive-cap loss: losing, not type I, tau > 0
    return hits, kernel.contended_losses() if want_pt else 0


def curves(cells) -> list:
    """The cells ``(cfg, scheme, tally)`` grouped into curves, along which
    draws settle: the HSIC-NPA and HSIC-PA cells that share (β, R_m, η)
    form one, and FSIC's cells another.  A curve is a list of steps
    ``(cfg, [(scheme, tally), ...])``, one per config, in ascending ρ_n."""
    groups = {}
    for cfg, scheme, tally in cells:
        key = (cfg.beta, cfg.R_m, cfg.eta, scheme == Scheme.FSIC)
        groups.setdefault(key, {}).setdefault(cfg, []).append((scheme, tally))
    return [sorted(steps.items(), key=lambda step: step[0].rho_n)
            for steps in groups.values()]


def _live_index(kernel: DrawKernel, cert: SettleCertificate, rho_n: float, g_m, g_n,
                gamma, passing: bool):
    """Positions (int32, exactly sized) of the block's draws that are not
    settled at ``rho_n``, and how many of the settled ones lose for good
    (the floor cone).  The certificate runs once: its mask goes into the
    bytes of ``gamma``, which HSIC-PA overwrites next and HSIC-NPA never
    reads, and the index is counted and read from there."""
    mask = gamma.view(np.bool_)[:g_m.size]
    starts = range(0, g_m.size, CHUNK_ROWS)
    floor = 0
    for lo in starts:
        hi = lo + CHUNK_ROWS
        settled = kernel.settled(cert, rho_n, g_m[lo:hi], g_n[lo:hi], passing=passing)
        np.logical_not(settled, out=mask[lo:hi])
        floor += kernel.floor_draws
    live = np.empty(np.count_nonzero(mask), dtype=np.int32)
    end = 0
    for lo in starts:
        at = np.flatnonzero(mask[lo:lo + CHUNK_ROWS])
        np.add(at, lo, out=live[end:end + at.size], casting="unsafe")
        end += at.size
    return live, floor


def _retire(kernel: DrawKernel, cert: SettleCertificate, rho_n: float, g_m, g_n,
            live, gamma, passing: bool):
    """Drop the draws settled at ``rho_n`` from ``live``, in place, and
    give them γ = 1 in ``gamma`` (unless None); returns the live prefix
    and how many of the dropped draws lose for good."""
    end = floor = 0
    for lo in range(0, live.size, CHUNK_ROWS):
        at = live[lo:lo + CHUNK_ROWS]
        settled = kernel.settled(cert, rho_n, g_m, g_n, at, passing)
        floor += kernel.floor_draws
        if gamma is not None:
            gamma[at[settled]] = 1.0
        kept = np.compress(np.logical_not(settled, out=settled), at)
        live[end:end + kept.size] = kept   # after the copy: the two may overlap
        end += kept.size
    return live[:end], floor


def tally_curve(kernel: DrawKernel, curve, g_m, g_n, gamma, want_pt: bool):
    """Tally one block for the cells of one curve (see ``curves``), one
    kernel run per step and chunk, only on the draws not yet settled for
    every scheme of the curve.  A step with both HSIC-NPA and HSIC-PA
    cells runs HSIC-PA, and its buffers give HSIC-NPA's verdict too
    (``DrawKernel.npa_losses``).  Draws retired in the floor cone count
    as an HSIC-NPA loss at every later step.  HSIC-PA draws other than
    type-I winners retire once the probe finds enough of them: from then
    on each HSIC-PA step with an index forms the whole block's γ by
    ``DrawKernel.gamma_pass`` and the kernel overwrites the live draws'
    γ."""
    schemes = {scheme for _, cells in curve for scheme, _ in cells}
    pa = Scheme.HSIC_PA in schemes
    cert = SettleCertificate.of([cfg for cfg, _ in curve], *schemes)
    passing = False   # HSIC-PA's other fates are on, and γ comes from the pass
    live = None
    floor = 0   # draws retired so far that lose HSIC-NPA at every SNR
    for k, (cfg, cells) in enumerate(curve):
        probing = cert is not None and k + 1 < len(curve) and (
            live is None or pa and not passing)
        if probing:
            probe = kernel.settled(cert, cfg.rho_n, g_m[:_PROBE_ROWS], g_n[:_PROBE_ROWS],
                                   passing=pa)
            passing = passing or _PASS_SHARE * kernel.passed_draws >= probe.size
            # the pass's winners count as settled only once it is on
            settled = int(np.count_nonzero(probe)) - (0 if passing else kernel.passed_draws)
        if live is not None:
            live, lost = _retire(kernel, cert, cfg.rho_n, g_m, g_n, live,
                                 gamma if pa and not passing else None, passing)
            floor += lost
        elif probing and 2 * settled >= probe.size:
            # an index pays for itself only over the SNRs that follow; it
            # is built once at most half of the block's first draws are live
            live, floor = _live_index(kernel, cert, cfg.rho_n, g_m, g_n, gamma, passing)
            if pa and not passing:
                gamma.fill(1.0)
        here = {scheme for scheme, _ in cells}
        run = Scheme.HSIC_PA if Scheme.HSIC_PA in here else cells[0][0]
        shared = here == {Scheme.HSIC_NPA, Scheme.HSIC_PA}
        pt = want_pt and run == Scheme.HSIC_PA
        if run == Scheme.HSIC_PA and passing and live is not None:
            kernel.gamma_pass(cfg, g_m, g_n, gamma)
        hits = pt_hits = npa_hits = 0
        for lo in range(0, g_m.size if live is None else live.size, CHUNK_ROWS):
            hi = lo + CHUNK_ROWS
            chunk_hits, chunk_pt = (
                tally_chunk(kernel, cfg, run, g_m[lo:hi], g_n[lo:hi], gamma[lo:hi], pt)
                if live is None else
                tally_chunk(kernel, cfg, run, g_m, g_n, gamma, pt, live[lo:hi]))
            hits += chunk_hits
            pt_hits += chunk_pt
            npa_hits += kernel.npa_losses() if shared else chunk_hits
        # γ is 1 off HSIC-PA, and a pairwise sum of ones is exact
        gamma_sum = float(gamma.sum()) if run == Scheme.HSIC_PA else float(g_m.size)
        for scheme, tally in cells:
            npa = scheme == Scheme.HSIC_NPA
            tally["hits"] += npa_hits + floor if npa else hits
            tally["pt_hits"] += 0 if npa else pt_hits
            tally["gamma_sum"] += float(g_m.size) if npa else gamma_sum
