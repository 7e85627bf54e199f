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
from dataclasses import dataclass, field

import numpy as np

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
    """Channel output: photon-number mixture, 2x2 polarization, spectrum.

    ``branches`` holds the (photon number k, P(k), eigenweight w,
    eigenvector) terms of the mixture, decomposed once on construction.
    """

    number_dist: tuple[tuple[int, float], ...]
    pol: pol.PolarizationDensity
    spec: spc.SpectralProfile
    branches: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        total = math.fsum(p for _, p in self.number_dist)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"number distribution sums to {total}, not 1")
        if any(k < 0 or p < -1e-15 for k, p in self.number_dist):
            raise ValueError("number distribution needs k >= 0 and p >= 0")
        object.__setattr__(self, "branches", _branches(self))

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


def _branches(src: MixedSource) -> tuple:
    """(k, P(k), w, v) over photon numbers x polarization eigenbranches,
    dropping zero-weight terms; built once per :class:`MixedSource`."""
    pol_branches = [(w, v) for w, v in pol.eigendecompose(src.pol) if w > 1e-15]
    return tuple((k, pk, w, v)
                 for k, pk in src.number_dist if pk > 1e-15
                 for w, v in pol_branches)


def _branch_pairs(src_a: MixedSource, src_b: MixedSource, app: Apparatus) -> list:
    """(weight, ka, kb, va, vb, Delta_A, Delta_B) of every branch pair that
    holds a photon: the parts of a pair's term that do not depend on the
    spectral overlap, formed once and shared by a dip and its baseline."""
    terms = []
    for ka, pka, wa, va in src_a.branches:
        for kb, pkb, wb, vb in src_b.branches:
            if ka + kb < 1:
                continue
            terms.append((pka * wa * pkb * wb, ka, kb, va, vb,
                          *_deltas(ka, kb, va, vb, app)))
    return terms


def _branch_sum(terms: list, app: Apparatus, ctheta: float) -> float:
    """Weighted sum of the pure-branch coincidences at spectral overlap ctheta."""
    total = 0.0
    for weight, ka, kb, va, vb, da, db in terms:
        total += weight * coincidence_raw(ka, kb, mode_overlap(va, vb, ctheta),
                                          app.bs, da, db)
    return total


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
    return _branch_sum(_branch_pairs(src_a, src_b, app), app, ctheta)


def mixed_visibility(src_a: MixedSource, src_b: MixedSource,
                     app: Apparatus = IDEAL_APPARATUS,
                     ctheta: float | None = None) -> float:
    """Visibility of the mixed-state dip against the analytic baseline.

    ``ctheta`` overrides the spectral overlap, as in
    :func:`mixed_coincidence`.  The branch pairs are formed once and serve
    both the dip and its baseline.
    """
    if ctheta is None:
        ctheta = spc.overlap(src_a.spec, src_b.spec).magnitude
    terms = _branch_pairs(src_a, src_b, app)
    return dip_visibility(lambda ct: _branch_sum(terms, app, ct), ctheta)


def channel_visibility_contour(src_a: SourceSpec, src_b: SourceSpec,
                               channels_a: list[ChannelSpec],
                               channels_b: list[ChannelSpec],
                               app: Apparatus = IDEAL_APPARATUS) -> list[list[float]]:
    """Visibility grid over per-arm channel parameter lists.

    Entry [i][j] applies channels_a[i] to arm A and channels_b[j] to arm
    B.  Each arm's channel output is built (and its density decomposed)
    once per channel value, and each row's spectral overlaps are one
    :func:`spectral.overlaps` call on arm B's family of broadened spectra.
    """
    mixed_bs = [apply_channel(src_b, ch_b) for ch_b in channels_b]
    spec_bs = src_b.spec.broadened(np.array([ch_b.xi for ch_b in channels_b]))
    out: list[list[float]] = []
    for ch_a in channels_a:
        mixed_a = apply_channel(src_a, ch_a)
        cos_theta = spc.overlaps(mixed_a.spec, spec_bs).tolist()
        out.append([mixed_visibility(mixed_a, mixed_b, app, ct)
                    for mixed_b, ct in zip(mixed_bs, cos_theta)])
    return out
