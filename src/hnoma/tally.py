"""The Monte Carlo tally of one gain block: the per-draw kernel over the
cells of a sweep, run only on the draws whose outcome is not yet fixed
(see ``mc.mc_summary`` and ``schemes.SettleCertificate``)."""

from __future__ import annotations

import numpy as np

from .channel import CHUNK_ROWS
from .config import SystemConfig
from .schemes import DrawKernel, Scheme, SettleCertificate

# draws whose settled share decides whether a sweep builds its live index
_PROBE_ROWS = 4096
# the γ pass costs about 5 ns per block row and the kernel about 35 ns per
# indexed draw (x86, one core), so the pass pays once more than a seventh
# of the draws are adapting winners; it switches on at a quarter of the
# probe, with a margin
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


def sweeps(cells) -> list:
    """The cells ``(cfg, scheme, tally)`` grouped by (β, R_m, η, scheme),
    each group in ascending ρ_n: the sweeps along which draws settle."""
    groups = {}
    for cell in cells:
        cfg, scheme, _ = cell
        groups.setdefault((cfg.beta, cfg.R_m, cfg.eta, scheme), []).append(cell)
    return [sorted(group, key=lambda cell: cell[0].rho_n) for group in groups.values()]


def _live_index(kernel: DrawKernel, cert: SettleCertificate, rho_n: float, g_m, g_n,
                gamma, adapting: bool):
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
        settled = kernel.settled(cert, rho_n, g_m[lo:hi], g_n[lo:hi], adapting=adapting)
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
            live, gamma, adapting: bool):
    """Drop the draws settled at ``rho_n`` from ``live``, in place, and
    give them γ = 1 in ``gamma`` (unless None); returns the live prefix
    and how many of the dropped draws lose for good."""
    end = floor = 0
    for lo in range(0, live.size, CHUNK_ROWS):
        at = live[lo:lo + CHUNK_ROWS]
        settled = kernel.settled(cert, rho_n, g_m, g_n, at, adapting)
        floor += kernel.floor_draws
        if gamma is not None:
            gamma[at[settled]] = 1.0
        kept = np.compress(np.logical_not(settled, out=settled), at)
        live[end:end + kept.size] = kept   # after the copy: the two may overlap
        end += kept.size
    return live[:end], floor


def tally_sweep(kernel: DrawKernel, sweep, g_m, g_n, gamma, want_pt: bool):
    """Tally one block for the cells of one sweep, ``(cfg, scheme, tally)``
    in ascending ρ_n, running the kernel only on draws not yet settled.
    Draws retired in the floor cone count as a loss at every later cell.
    HSIC-PA's adapting winners retire once the probe finds enough of
    them: from then on each cell with an index forms the whole block's γ
    by ``DrawKernel.gamma_pass`` and the kernel overwrites the live
    draws' γ."""
    scheme = sweep[0][1]
    pa = scheme == Scheme.HSIC_PA
    pt = want_pt and pa
    cert = SettleCertificate.of([cfg for cfg, _, _ in sweep], scheme)
    can_adapt = cert is not None and cert.k_x is not None
    passing = False   # the adapting fate is on, and γ comes from the pass
    live = None
    floor = 0   # draws retired so far that lose at every SNR
    for k, (cfg, _, tally) in enumerate(sweep):
        probing = cert is not None and k + 1 < len(sweep) and (
            live is None or can_adapt and not passing)
        if probing:
            probe = kernel.settled(cert, cfg.rho_n, g_m[:_PROBE_ROWS], g_n[:_PROBE_ROWS],
                                   adapting=can_adapt)
            passing = passing or _PASS_SHARE * kernel.adapting_draws >= probe.size
            # adapting winners count as settled only once the pass is on
            settled = int(np.count_nonzero(probe)) - (0 if passing else kernel.adapting_draws)
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
        if passing and live is not None:
            kernel.gamma_pass(cfg, g_m, g_n, gamma)
        for lo in range(0, g_m.size if live is None else live.size, CHUNK_ROWS):
            hi = lo + CHUNK_ROWS
            hits, pt_hits = (
                tally_chunk(kernel, cfg, scheme, g_m[lo:hi], g_n[lo:hi], gamma[lo:hi], pt)
                if live is None else
                tally_chunk(kernel, cfg, scheme, g_m, g_n, gamma, pt, live[lo:hi]))
            tally["hits"] += hits
            tally["pt_hits"] += pt_hits
        tally["hits"] += floor
        # γ is 1 off HSIC-PA, and a pairwise sum of ones is exact
        tally["gamma_sum"] += float(gamma.sum()) if pa else float(g_m.size)
