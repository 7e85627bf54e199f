"""Quantum channels on one source arm and mixed-state HOM coincidences.

Three channels act independently on the three degrees of freedom of a pure
Fock-state arm and compose as E_total = E_broaden . E_depolarize . E_damp:

* amplitude damping (photon loss gamma): binomial thinning of the photon
  number, P(k survive of n) = C(n,k) (1-gamma)^k gamma^(n-k);
* depolarizing (probability p) on the arm's shared polarization label;
* spectral broadening: deterministic width scaling by xi.

A channel output is a classical mixture over (surviving photon number) x
(polarization eigenbranch); the coincidence probability of two mixed arms
is the weighted sum of the pure-state formula over branch pairs, which is
exact within this model because the detection probability is evaluated
per pure branch.

A contour evaluates that sum for all its cells at once.  Each arm holds
its branch *slots* (photon number k, polarization eigen-rank) along its
own channel axis, and each slot pair that holds a photon is one
:func:`fock.coincidence_raw` call per overlap grid (the c = 0 baseline
and the dip) over the cells that hold it.  A cell adds its terms in the
order of its own branch pairs, so every cell is bit-equal to the 1 x 1
evaluation of its two channel outputs (:func:`mixed_visibility`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import polarization as pol
from . import spectral as spc
from .fock import (Apparatus, IDEAL_APPARATUS, coincidence_raw, mode_overlap,
                   visibility_ratio)

__all__ = [
    "ChannelSpec", "SourceSpec", "MixedSource", "IDENTITY_CHANNEL",
    "damp_number", "apply_channel", "mixed_coincidence", "mixed_visibility",
    "channel_visibility_contour",
]

_TINY = 1e-15  # mixture terms of weight at or below this are dropped


@dataclass(frozen=True)
class ChannelSpec:
    """Loss, depolarization and broadening strengths of one channel."""

    gamma: float = 0.0
    p_depol: float = 0.0
    xi: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 <= self.p_depol <= 1.0:
            raise ValueError("p_depol must lie in [0, 1]")
        if self.xi <= 0.0:
            raise ValueError("broadening factor must be positive")


IDENTITY_CHANNEL = ChannelSpec()


@dataclass(frozen=True)
class SourceSpec:
    """Pure input arm: Fock photon number, polarization, spectrum."""

    photons: int
    pol: pol.PolarizationVector
    spec: spc.SpectralProfile

    def __post_init__(self):
        if self.photons < 0:
            raise ValueError("photon number must be non-negative")


@dataclass(frozen=True)
class MixedSource:
    """Channel output: photon-number mixture, 2x2 polarization, spectrum.

    ``eigen`` holds the two (eigenweight w, eigenvector) branches of the
    polarization density, decomposed once on construction.
    """

    number_dist: tuple[tuple[int, float], ...]
    pol: pol.PolarizationDensity
    spec: spc.SpectralProfile
    eigen: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        total = math.fsum(p for _, p in self.number_dist)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"number distribution sums to {total}, not 1")
        if any(k < 0 or p < -1e-15 for k, p in self.number_dist):
            raise ValueError("number distribution needs k >= 0 and p >= 0")
        object.__setattr__(self, "eigen", tuple(pol.eigendecompose(self.pol)))

    @property
    def branches(self) -> tuple:
        """(k, P(k), w, v) over photon numbers x polarization eigenbranches,
        dropping zero-weight terms: the mixture's pure branches."""
        return tuple((k, pk, w, v) for k, pk in self.number_dist if pk > _TINY
                     for w, v in self.eigen if w > _TINY)

    @staticmethod
    def pure(src: SourceSpec) -> "MixedSource":
        return MixedSource(((src.photons, 1.0),), src.pol.density(), src.spec)


def damp_number(n: int, gamma: float) -> tuple[tuple[int, float], ...]:
    """Photon-number distribution after amplitude damping of |n>.

    Applying the loss Kraus operators to |n><n| leaves the diagonal
    binomial weights C(n,k) (1-gamma)^k gamma^(n-k) over k survivors.
    """
    if n < 0:
        raise ValueError("photon number must be non-negative")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    return tuple((k, math.comb(n, k) * (1.0 - gamma) ** k * gamma ** (n - k))
                 for k in range(n, -1, -1))


def apply_channel(src: SourceSpec, ch: ChannelSpec) -> MixedSource:
    """Push a pure arm through damping, depolarization and broadening."""
    return MixedSource(
        number_dist=damp_number(src.photons, ch.gamma),
        pol=pol.depolarize(src.pol.density(), ch.p_depol),
        spec=src.spec.broadened(ch.xi),
    )


class _Arm:
    """One arm's branch slots along its channel axis.

    ``points`` gives, per point of the axis, its photon-number distribution
    and its two (w, v) polarization eigenbranches; every point lists the
    same photon numbers in the same order.  A slot is (photon number k,
    eigen-rank r): along the axis it holds the factors P(k) and w of its
    weight, and the points where both exceed ``_TINY``.  Slots run in the
    order of a point's own branches.  Per rank, the branch vectors are
    grouped by value, with the efficiencies they see at detectors A and B.
    """

    def __init__(self, points: Sequence[tuple], app: Apparatus):
        self.size = len(points)
        pk = np.array([[p for _, p in dist] for dist, _ in points])
        w = np.array([[wr for wr, _ in eigen] for _, eigen in points])
        self.groups, self.eta = [], []
        for r in range(2):
            where: dict = {}
            for i, (_, eigen) in enumerate(points):
                where.setdefault(eigen[r][1], []).append(i)
            groups = [(v, np.array(idx)) for v, idx in where.items()]
            eta = np.empty((2, self.size))
            for v, idx in groups:
                eta[0, idx] = pol.effective_efficiency(app.det_a, v)
                eta[1, idx] = pol.effective_efficiency(app.det_b, v)
            self.groups.append(groups)
            self.eta.append(eta)
        self.slots = []
        for j, (k, _) in enumerate(points[0][0]):
            for r in range(2):
                held = np.flatnonzero((pk[:, j] > _TINY) & (w[:, r] > _TINY))
                if held.size:
                    self.slots.append((k, r, pk[:, j], w[:, r], held))

    @staticmethod
    def of(src: MixedSource, app: Apparatus) -> "_Arm":
        return _Arm([(src.number_dist, src.eigen)], app)


def _mode_overlaps(groups_a: list, groups_b: list, cos_theta: np.ndarray) -> np.ndarray:
    """c = cos(Phi) cos(Theta) over a grid, one :func:`fock.mode_overlap`
    call per pair of distinct branch vectors."""
    c = np.empty(cos_theta.shape)
    for va, rows in groups_a:
        for vb, cols in groups_b:
            cells = np.ix_(rows, cols)
            c[cells] = mode_overlap(va, vb, cos_theta[cells])
    return c


def _branch_sums(arm_a: _Arm, arm_b: _Arm, app: Apparatus,
                 cos_thetas: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Mixed coincidences [i, j] of arm A's point i against arm B's point
    j, one grid per grid of spectral overlaps in ``cos_thetas``.

    Each slot pair that holds a photon is evaluated over the cells that
    hold it, with one :func:`coincidence_raw` call per overlap grid in
    turn; a cell adds ((P_A w_A) P_B) w_B times each term in the order of
    its own branch pairs.
    """
    sums = [np.zeros((arm_a.size, arm_b.size)) for _ in cos_thetas]
    overlaps: dict = {}  # (r_a, r_b) -> c per overlap grid, over every cell
    for ka, ra, pka, wa, rows in arm_a.slots:
        pwa = pka[rows, None] * wa[rows, None]
        eta_a = arm_a.eta[ra][:, rows, None]
        for kb, rb, pkb, wb, cols in arm_b.slots:
            if ka + kb < 1:
                continue
            cells = np.ix_(rows, cols)
            weight = pwa * pkb[cols] * wb[cols]
            eta_b = arm_b.eta[rb][:, cols]
            da = pol.click_from_efficiencies(eta_a[0], eta_b[0], ka, kb)
            db = pol.click_from_efficiencies(eta_a[1], eta_b[1], ka, kb)
            if (ra, rb) not in overlaps:
                overlaps[ra, rb] = [_mode_overlaps(arm_a.groups[ra], arm_b.groups[rb], ct)
                                    for ct in cos_thetas]
            for total, c in zip(sums, overlaps[ra, rb]):
                total[cells] += weight * coincidence_raw(ka, kb, c[cells], app.bs, da, db)
    return sums


def _cos_theta_cell(src_a: MixedSource, src_b: MixedSource,
                    ctheta: float | None) -> np.ndarray:
    """The 1 x 1 grid of the pair's spectral overlap, or of ``ctheta``."""
    if ctheta is None:
        ctheta = spc.overlap(src_a.spec, src_b.spec).magnitude
    return np.full((1, 1), ctheta)


def mixed_coincidence(src_a: MixedSource, src_b: MixedSource,
                      app: Apparatus = IDEAL_APPARATUS,
                      ctheta: float | None = None) -> float:
    """Coincidence probability for two channel outputs.

    Enumerates (photon number x polarization eigenvector) branches per arm
    and averages the pure-state coincidence; branches with no photons at
    all contribute zero.  ``ctheta`` overrides the spectral overlap (the
    tau -> infinity baseline passes 0).
    """
    (p,) = _branch_sums(_Arm.of(src_a, app), _Arm.of(src_b, app), app,
                        [_cos_theta_cell(src_a, src_b, ctheta)])
    return p.item()


def mixed_visibility(src_a: MixedSource, src_b: MixedSource,
                     app: Apparatus = IDEAL_APPARATUS,
                     ctheta: float | None = None) -> float:
    """Visibility of the mixed-state dip against the analytic baseline.

    ``ctheta`` overrides the spectral overlap, as in
    :func:`mixed_coincidence`.  The 1 x 1 case of
    :func:`channel_visibility_contour`.
    """
    ct = _cos_theta_cell(src_a, src_b, ctheta)
    p_inf, p_0 = _branch_sums(_Arm.of(src_a, app), _Arm.of(src_b, app), app,
                              [np.zeros_like(ct), ct])
    return visibility_ratio(p_inf, p_0).item()


def _channel_arm(src: SourceSpec, channels: Sequence[ChannelSpec], app: Apparatus) -> _Arm:
    """The arm of ``src`` along ``channels``, each distinct depolarized
    density decomposed once."""
    eigen: dict = {}
    for ch in channels:
        if ch.p_depol not in eigen:
            eigen[ch.p_depol] = tuple(pol.eigendecompose(
                pol.depolarize(src.pol.density(), ch.p_depol)))
    return _Arm([(damp_number(src.photons, ch.gamma), eigen[ch.p_depol])
                 for ch in channels], app)


def channel_visibility_contour(src_a: SourceSpec, src_b: SourceSpec,
                               channels_a: list[ChannelSpec],
                               channels_b: list[ChannelSpec],
                               app: Apparatus = IDEAL_APPARATUS) -> list[list[float]]:
    """Visibility grid over per-arm channel parameter lists.

    Entry [i][j] applies channels_a[i] to arm A and channels_b[j] to arm
    B, and equals :func:`mixed_visibility` of the two channel outputs bit
    for bit.  The grid's spectral overlaps are one :func:`spectral.overlaps`
    call on arm A's (len A, 1) family of broadened spectra against arm B's
    (len B,) one; each arm decomposes each of its distinct depolarized
    densities once, and each slot pair is one :func:`coincidence_raw` call
    for the baseline and one for the dip.
    """
    if not channels_a or not channels_b:
        return [[] for _ in channels_a]
    xi_a, xi_b = (np.array([ch.xi for ch in chans]) for chans in (channels_a, channels_b))
    cos_theta = spc.overlaps(src_a.spec.broadened(xi_a[:, None]), src_b.spec.broadened(xi_b))
    p_inf, p_0 = _branch_sums(_channel_arm(src_a, channels_a, app),
                              _channel_arm(src_b, channels_b, app), app,
                              [np.zeros_like(cos_theta), cos_theta])
    return visibility_ratio(p_inf, p_0).tolist()
