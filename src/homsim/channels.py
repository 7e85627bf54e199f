"""Quantum channels on one source arm and mixed-state HOM coincidences.

Three channels act independently on the three degrees of freedom of a pure
Fock-state arm and compose as E_total = E_broaden . E_depolarize . E_damp:

* amplitude damping (photon loss gamma): binomial thinning of the photon
  number, P(k survive of n) = C(n,k) (1-gamma)^k gamma^(n-k);
* depolarizing (probability p) on the arm's shared polarization label;
* spectral broadening: deterministic width scaling by xi.

A channel output is a classical mixture over (surviving photon number) x
(polarization branch: weight w on the input polarization, 1 - w on its
orthogonal); the coincidence probability of two mixed arms is the
weighted sum of the pure-state formula over branch pairs, which is exact
within this model because the detection probability is evaluated per
pure branch.

:func:`channel_visibility_contour` is the one entry: it evaluates that sum
for all its cells at once.  Each pair of branch *slots* (photon number k,
branch vector; one per arm) that holds a photon is one
:func:`fock.coincidence_raw` call per overlap grid (the c = 0 baseline and
the dip) over the cells that hold it, and every cell adds its terms in the
same slot-pair order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import polarization as pol
from . import spectral as spc
from .fock import (Apparatus, IDEAL_APPARATUS, coincidence_raw, mode_overlap,
                   visibility_ratio)

__all__ = [
    "ChannelSpec", "SourceSpec", "damp_number", "channel_visibility_contour",
    "MAX_PHOTONS",
]

_TINY = 1e-15  # mixture terms of weight at or below this are dropped
# the largest photon number of an arm or a damped histogram: damp_number's
# exact binomials C(n, k) take about n^2 bit operations, and a `channels
# --grid 2` job at this n about 0.75 s on a 2-vCPU VM
MAX_PHOTONS = 30_000


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
        if not self.xi > 0.0:
            raise ValueError("broadening factor must be positive")


@dataclass(frozen=True)
class SourceSpec:
    """Pure input arm: Fock photon number, polarization, spectrum."""

    photons: int
    pol: pol.PolarizationVector
    spec: spc.SpectralProfile

    def __post_init__(self):
        if self.photons < 0:
            raise ValueError("photon number must be non-negative")


def damp_number(n: int, gamma: float) -> tuple[tuple[int, float], ...]:
    """Photon-number distribution after amplitude damping of |n>.

    Applying the loss Kraus operators to |n><n| leaves the diagonal
    binomial weights C(n,k) (1-gamma)^k gamma^(n-k) over k survivors.
    From n = 1,030 on the middle C(n, k) pass the float range; those
    weights are exp(log C(n,k) + k log(1-gamma) + (n-k) log gamma), and
    every other weight is the direct product.
    """
    if n < 0:
        raise ValueError("photon number must be non-negative")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    dist = []
    c = 1  # C(n, k), exact
    for k in range(n, -1, -1):
        try:
            p = c * (1.0 - gamma) ** k * gamma ** (n - k)
        except OverflowError:  # c past the float range, so 0 < k < n
            p = (math.exp(math.log(c) + k * math.log(1.0 - gamma) + (n - k) * math.log(gamma))
                 if 0.0 < gamma < 1.0 else 0.0)
        dist.append((k, p))
        c = c * k // (n - k + 1)
    return tuple(dist)


class _Arm:
    """One arm's branch slots along its channel axis.

    Each point holds its photon-number distribution (the same photon
    numbers in the same order at every point), weight w on ``state`` and
    1 - w on ``orthogonal(state)``.  A slot (photon number k, branch
    vector) holds P(k) and its branch weight along the axis, and the
    points where both exceed ``_TINY``; slots run k by k, ``state`` first.
    """

    def __init__(self, number_dists: Sequence[tuple], w: np.ndarray,
                 state: pol.PolarizationVector):
        self.size = len(w)
        pk = np.array([[p for _, p in dist] for dist in number_dists])
        self.slots = []
        for j, (k, _) in enumerate(number_dists[0]):
            for v, wv in ((state, w), (pol.orthogonal(state), 1.0 - w)):
                held = np.flatnonzero((pk[:, j] > _TINY) & (wv > _TINY))
                if held.size:
                    self.slots.append((k, v, pk[:, j], wv, held))


def _branch_sums(arm_a: _Arm, arm_b: _Arm, app: Apparatus,
                 cos_thetas: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Mixed coincidences [i, j] of arm A's point i against arm B's point
    j, one grid per grid of spectral overlaps in ``cos_thetas``.

    Each slot pair that holds a photon is evaluated over the cells that
    hold it, with one :func:`coincidence_raw` call per overlap grid in
    turn; a cell adds ((P_A w_A) P_B) w_B times each term in the order of
    the slot pairs.
    """
    sums = [np.zeros((arm_a.size, arm_b.size)) for _ in cos_thetas]
    for ka, va, pka, wa, rows in arm_a.slots:
        pwa = pka[rows, None] * wa[rows, None]
        for kb, vb, pkb, wb, cols in arm_b.slots:
            if ka + kb < 1:
                continue
            cells = np.ix_(rows, cols)
            weight = pwa * pkb[cols] * wb[cols]
            da = pol.click_probability(app.det_a, va, vb, ka, kb)
            db = pol.click_probability(app.det_b, va, vb, ka, kb)
            for total, ct in zip(sums, cos_thetas):
                c = mode_overlap(va, vb, ct[cells])
                total[cells] += weight * coincidence_raw(ka, kb, c, app.bs, da, db)
    return sums


def _channel_arm(src: SourceSpec, channels: Sequence[ChannelSpec]) -> _Arm:
    """The arm of ``src`` along ``channels``."""
    return _Arm([damp_number(src.photons, ch.gamma) for ch in channels],
                np.array([pol.depolarize(1.0, ch.p_depol) for ch in channels]),
                src.pol)


def channel_visibility_contour(src_a: SourceSpec, src_b: SourceSpec,
                               channels_a: list[ChannelSpec],
                               channels_b: list[ChannelSpec],
                               app: Apparatus = IDEAL_APPARATUS) -> list[list[float]]:
    """Visibility grid over per-arm channel parameter lists.

    Entry [i][j] is the visibility of the mixed-state dip against its
    c = 0 baseline, with channels_a[i] applied to arm A and channels_b[j]
    to arm B.  The grid's spectral overlaps are one
    :func:`spectral.overlaps` call on arm A's (len A, 1) family of broadened
    spectra against arm B's (len B,) one, and each slot pair is one
    :func:`coincidence_raw` call for the baseline and one for the dip.
    """
    if not channels_a or not channels_b:
        return [[] for _ in channels_a]
    xi_a, xi_b = (np.array([ch.xi for ch in chans]) for chans in (channels_a, channels_b))
    cos_theta = spc.overlaps(src_a.spec.broadened(xi_a[:, None]), src_b.spec.broadened(xi_b))
    p_inf, p_0 = _branch_sums(_channel_arm(src_a, channels_a),
                              _channel_arm(src_b, channels_b), app,
                              [np.zeros_like(cos_theta), cos_theta])
    return visibility_ratio(p_inf, p_0).tolist()
