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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import polarization as pol
from . import spectral as spc
from .fock import (Apparatus, IDEAL_APPARATUS, _deltas, coincidence_raw,
                   dip_visibility, mode_overlap)

__all__ = [
    "ChannelSpec", "SourceSpec", "MixedSource", "IDENTITY_CHANNEL",
    "damp_number", "apply_channel", "mixed_coincidence", "mixed_visibility",
    "channel_visibility_contour",
]


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
    """Channel output: photon-number mixture, 2x2 polarization, spectrum."""

    number_dist: tuple[tuple[int, float], ...]
    pol: pol.PolarizationDensity
    spec: spc.SpectralProfile

    def __post_init__(self):
        total = math.fsum(p for _, p in self.number_dist)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"number distribution sums to {total}, not 1")
        if any(k < 0 or p < -1e-15 for k, p in self.number_dist):
            raise ValueError("number distribution needs k >= 0 and p >= 0")

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


def _branches(src: MixedSource):
    pol_branches = [(w, v) for w, v in pol.eigendecompose(src.pol) if w > 1e-15]
    return [(k, pk, w, v)
            for k, pk in src.number_dist if pk > 1e-15
            for w, v in pol_branches]


def mixed_coincidence(src_a: MixedSource, src_b: MixedSource,
                      app: Apparatus = IDEAL_APPARATUS,
                      ctheta: float | None = None) -> float:
    """Coincidence probability for two channel outputs.

    Enumerates (photon number x polarization eigenvector) branches per arm
    and averages the pure-state coincidence; branches with no photons at
    all contribute zero.  ``ctheta`` overrides the spectral overlap (the
    tau -> infinity baseline passes 0).
    """
    if ctheta is None:
        ctheta = spc.overlap(src_a.spec, src_b.spec).magnitude
    total = 0.0
    for ka, pka, wa, va in _branches(src_a):
        for kb, pkb, wb, vb in _branches(src_b):
            weight = pka * wa * pkb * wb
            if ka + kb < 1:
                continue
            da, db = _deltas(ka, kb, va, vb, app)
            total += weight * coincidence_raw(ka, kb, mode_overlap(va, vb, ctheta),
                                              app.bs, da, db)
    return total


def mixed_visibility(src_a: MixedSource, src_b: MixedSource,
                     app: Apparatus = IDEAL_APPARATUS) -> float:
    """Visibility of the mixed-state dip against the analytic baseline."""
    return dip_visibility(lambda ct: mixed_coincidence(src_a, src_b, app, ct),
                          spc.overlap(src_a.spec, src_b.spec).magnitude)


def channel_visibility_contour(src_a: SourceSpec, src_b: SourceSpec,
                               channels_a: list[ChannelSpec],
                               channels_b: list[ChannelSpec],
                               app: Apparatus = IDEAL_APPARATUS) -> list[list[float]]:
    """Visibility grid over per-arm channel parameter lists.

    Entry [i][j] applies channels_a[i] to arm A and channels_b[j] to arm
    B.  Spectral overlaps are recomputed only when the broadening factors
    change.
    """
    out: list[list[float]] = []
    overlap_cache: dict[tuple[float, float], float] = {}
    for ch_a in channels_a:
        row = []
        mixed_a = apply_channel(src_a, ch_a)
        for ch_b in channels_b:
            mixed_b = apply_channel(src_b, ch_b)
            key = (ch_a.xi, ch_b.xi)
            if key not in overlap_cache:
                overlap_cache[key] = spc.overlap(mixed_a.spec, mixed_b.spec).magnitude
            row.append(dip_visibility(
                lambda ct: mixed_coincidence(mixed_a, mixed_b, app, ct),
                overlap_cache[key]))
        out.append(row)
    return out
