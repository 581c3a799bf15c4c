"""The Monte Carlo tally of one leaf of a gain block (see
``mc._rank_blocks``): the per-draw kernel over the cells of a curve, in
ascending ρ_n.  A draw retires, and the kernel no longer runs on it, once
``schemes.SettleCertificate`` shows its outcome fixed at this step and
every later one, in each scheme of the curve.

A curve plans its retiring once, on its first leaf (``plan_curve``):
each step with a later one probes the leaf's first ``_PROBE_ROWS``
draws with ``DrawKernel.settled``, in numpy whether or not the compiled
pass loaded.  HSIC-PA's fates other than type I (``passing``) switch on
once ``1/_PASS_SHARE`` of the probe are winners that only they retire,
and the first step at which at most half of the probe is live starts
the index; the probe then stops.  On every leaf, that step's retire pass
builds an int32 index of the leaf's live draws, and each later step
compacts it in place with the same pass.  The kernel runs on the whole
leaf, or on the index once there is one.  Floor-cone draws retired so far
count as an HSIC-NPA loss at each later step.  Each HSIC-PA step with an index first
writes every draw's γ in one contiguous pass (``DrawKernel.gamma_pass``
when passing, else 1, since only type-I winners retire), then the kernel
overwrites the live draws' γ: every count and pairwise γ sum is the
whole-leaf kernel's.

Each step of a leaf (its retire pass, γ, kernel and γ sum) is one call
of ``_step``: in C (``ctally.load()``, built on the first ``mc_summary``
call), one call into ``_tally.c`` per step, where it loaded; else in
numpy, through ``DrawKernel`` one ``CHUNK_ROWS`` chunk at a time.  The C
step walks the leaf or its index in tiles of a few thousand draws, whose
gains it copies to contiguous scratch: the retire pass flags a tile's
settled draws and compacts its positions and gains in place, in order,
the kernel runs on the kept gains, and their γ is scattered back to the
leaf.  Both give the same counts, γ, γ sum and live index bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channel import CHUNK_ROWS
from .config import SystemConfig
from .schemes import DrawKernel, Scheme, SettleCertificate

# draws whose settled share decides whether a curve builds its live index
_PROBE_ROWS = 4096
# the γ pass costs about 9 ns per block row and the kernel about 35 ns per
# indexed draw (x86, one core), so the pass pays once about a quarter of
# the draws are winners that only it can retire, and it switches on there;
# that share mostly grows at the SNRs that follow.  Compiled, the pass
# costs about 2 ns per leaf draw and a tiled step 3-5 ns per live draw of
# the index (AVX-512 clone), but a share of a half was no faster on fig1,
# fig3a or fig5a, so one value serves both paths
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


def _retire(kernel: DrawKernel, cert: SettleCertificate, rho_n: float, g_m, g_n, live,
            passing: bool, out):
    """The int32 positions of the draws of ``live`` (all of ``g_m`` when
    None) not settled at ``rho_n`` (``DrawKernel.settled``), and how many
    of the settled ones lose for good, in numpy.  A new index is built in
    ``out``; ``live`` is compacted in place."""
    out = out if live is None else live
    end = floor = 0
    for at in _chunks(g_m.size, live):
        settled = kernel.settled(cert, rho_n, g_m, g_n, at, passing)
        positions = np.arange(at.start, at.stop, dtype=np.int32) if isinstance(at, slice) else at
        kept = np.compress(np.logical_not(settled, out=settled), positions)
        out[end:end + kept.size] = kept   # after the copy: the two may overlap
        end += kept.size
        floor += kernel.floor_draws
    return out[:end], floor


class Step(NamedTuple):
    """One step of a curve as ``tally_curve`` runs it on every leaf."""
    cfg: SystemConfig
    cells: list        # the step's (scheme, tally) pairs
    run: Scheme        # the scheme the kernel runs: HSIC-PA where the step has it
    pt: bool           # count the contended loss
    shared: bool       # read HSIC-NPA's verdict off the HSIC-PA run
    cert: SettleCertificate | None   # retire draws first, by this certificate
    passing: bool      # HSIC-PA's other fates retire, and γ comes from the pass
    args: object       # the step as the compiled pass reads it, or None


def plan_curve(kernel: DrawKernel, lib, curve, g_m, g_n, want_pt: bool) -> list:
    """The steps (``Step``) of ``curve`` as ``tally_curve`` runs them,
    retiring draws as the probe of the first ``_PROBE_ROWS`` of the draws
    says (see the module docstring): the curve's certificate, whether
    HSIC-PA's other fates are on and γ comes from the pass, and the step
    from which a live index is kept.  The probe runs ``kernel.settled``
    in numpy, compiled pass or not.  No count or sum depends on the plan,
    so one plan serves every leaf of a curve.  A step with both HSIC-NPA
    and HSIC-PA cells runs HSIC-PA, and its buffers give HSIC-NPA's
    verdict too (``DrawKernel.npa_losses``); ``want_pt`` counts the
    contended loss on HSIC-PA runs."""
    schemes = {scheme for _, cells in curve for scheme, _ in cells}
    pa = Scheme.HSIC_PA in schemes
    cert = SettleCertificate.of([cfg for cfg, _ in curve], *schemes)
    probe = slice(0, min(_PROBE_ROWS, g_m.size))
    passing, start = False, len(curve)
    # an index pays for itself only over the SNRs that follow
    for k, (cfg, _) in enumerate(curve[:-1] if cert is not None else ()):
        mask = kernel.settled(cert, cfg.rho_n, g_m, g_n, probe, pa)
        passed = kernel.passed_draws
        passing = passing or _PASS_SHARE * passed >= probe.stop
        # the pass's winners count as settled only once it is on
        settled = int(np.count_nonzero(mask)) - (0 if passing else passed)
        if 2 * settled >= probe.stop:
            start = k
            break
    steps = []
    for k, (cfg, cells) in enumerate(curve):
        here = {scheme for scheme, _ in cells}
        run = Scheme.HSIC_PA if Scheme.HSIC_PA in here else cells[0][0]
        step = Step(cfg, cells, run, want_pt and run == Scheme.HSIC_PA,
                    here == {Scheme.HSIC_NPA, Scheme.HSIC_PA}, cert if k >= start else None,
                    passing, None)
        steps.append(step if lib is None else step._replace(args=lib.step_args(step)))
    return steps


def _step(kernel: DrawKernel, lib, step: Step, g_m, g_n, gamma, index, live, leaf) -> tuple:
    """One step of ``tally_curve`` on a leaf whose live draws are ``live``
    (all of them where None), through the compiled pass ``lib``
    (``ctally.load()``, with the leaf's buffers in ``leaf``) or, where it
    is None, ``kernel``: retire the draws settled at this step, building
    a live index in ``index`` or compacting ``live`` in place; write γ
    where the kernel then runs on the index only (by the pass with
    ``passing``, else 1: only type-I winners retire); run the kernel on
    the live draws.  Gives ``(live, (hits, pt_hits, npa_hits,
    floor_draws, gamma_sum))``: the live draws after the step, the losses,
    the contended losses with ``pt`` (else 0), HSIC-NPA's losses, read off
    an HSIC-PA run with ``shared`` (else the losses), the draws retired
    here that lose HSIC-NPA at every later SNR, and the leaf's γ sum as
    ``gamma.sum()`` gives it (the leaf's size off HSIC-PA, where γ is 1).
    HSIC-PA writes γ into ``gamma``."""
    if lib is not None:
        *counts, kept, gamma_sum = lib.step(step.args, leaf, -1 if live is None else live.size)
        return (None if kept < 0 else index[:kept]), (*counts, gamma_sum)
    lost = 0
    if step.cert is not None:
        live, lost = _retire(kernel, step.cert, step.cfg.rho_n, g_m, g_n, live, step.passing,
                             index)
    if step.run == Scheme.HSIC_PA and live is not None:
        if step.passing:
            kernel.gamma_pass(step.cfg, g_m, g_n, gamma)
        else:
            gamma.fill(1.0)
    hits = pt_hits = npa_hits = 0
    for at in _chunks(g_m.size, live):
        kernel.run_at(step.cfg, step.run, g_m, g_n, gamma, at)
        lose = int(np.count_nonzero(kernel.lose))
        hits += lose
        # the contended positive-cap loss: losing, not type I, tau > 0
        pt_hits += kernel.contended_losses() if step.pt else 0
        npa_hits += kernel.npa_losses() if step.shared else lose
    # γ is 1 off HSIC-PA, and a pairwise sum of ones is exact
    gamma_sum = float(gamma.sum()) if step.run == Scheme.HSIC_PA else float(g_m.size)
    return live, (hits, pt_hits, npa_hits, lost, gamma_sum)


def tally_curve(kernel: DrawKernel, lib, steps, g_m, g_n, gamma, index) -> None:
    """Tally one leaf for the cells of one curve (see ``curves`` and the
    module docstring), one ``_step`` per step of ``steps``
    (``plan_curve``), with the live index in ``index``, compiled where
    ``lib`` (``ctally.load()``) is not None, else in numpy.  Counts add to
    each cell's tally, and the leaf's γ sum is appended to its
    ``leaf_sums``."""
    leaf = None if lib is None else lib.leaf(g_m, g_n, gamma, index)
    live = None
    floor = 0   # draws retired so far that lose HSIC-NPA at every SNR
    for step in steps:
        live, (hits, pt_hits, npa_hits, lost, gamma_sum) = _step(kernel, lib, step, g_m, g_n,
                                                                 gamma, index, live, leaf)
        floor += lost
        for scheme, tally in step.cells:
            npa = scheme == Scheme.HSIC_NPA
            tally["hits"] += npa_hits + floor if npa else hits
            tally["pt_hits"] += 0 if npa else pt_hits
            tally["leaf_sums"].append(float(g_m.size) if npa else gamma_sum)
