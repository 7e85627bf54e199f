"""Multi-photon HOM coincidence probabilities and interference visibility.

For m photons in arm A and n in arm B (one shared polarization and spectral
mode per arm), the probability that both output detectors click is

    P = Delta_A Delta_B - (T^m R^n Delta_A + T^n R^m Delta_B) P_bunch,

where P_bunch = sum_j C(m,j) C(n,j) c^{2j} with c = cos(Phi) cos(Theta) the
combined polarization/spectral overlap, and Delta_A/B are the threshold
detector click probabilities.  The Delta_A Delta_B term treats the two
detectors as independent, which is exact for ideal detectors (where the
expression reduces to one minus the two all-photons-one-side terms) but
can push the value negative for very lossy detectors under strong
bunching; that regime raises :class:`InvalidRegimeError`.  The tau ->
infinity baseline used by the visibility is evaluated analytically by
sending the spectral overlap to zero (P_bunch -> 1), which every envelope
family satisfies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import polarization as pol
from . import spectral as spc

__all__ = [
    "BeamSplitter", "FockPair", "Apparatus", "InvalidRegimeError", "mode_overlap",
    "bunching_factor", "p_all_one_side", "coincidence", "coincidence_raw",
    "dip_curve", "visibility", "visibility_from_c", "visibility_vs_polarization",
]

_LOG_BINOM_CUTOFF = 62  # exact integer binomials up to here, log-domain beyond


class InvalidRegimeError(ValueError):
    """Eq.-level coincidence fell outside [0,1]: parameters beyond the
    model's independence approximation (e.g. strong bunching with very
    lossy detectors)."""


@dataclass(frozen=True)
class BeamSplitter:
    """Lossless beam splitter with intensity transmissivity/reflectivity."""

    transmissivity: float
    reflectivity: float

    def __post_init__(self):
        if not (0.0 <= self.transmissivity <= 1.0 and 0.0 <= self.reflectivity <= 1.0):
            raise ValueError("T and R must lie in [0, 1]")
        if abs(self.transmissivity + self.reflectivity - 1.0) > 1e-12:
            raise ValueError("T + R must equal 1 (unitarity)")

    @staticmethod
    def balanced() -> "BeamSplitter":
        return BeamSplitter(0.5, 0.5)


def mode_overlap(pol_a: pol.PolarizationVector, pol_b: pol.PolarizationVector,
                 spec_a: spc.SpectralProfile | None = None,
                 spec_b: spc.SpectralProfile | None = None) -> float:
    """c = cos(Phi) cos(Theta) for two mode labels (Theta = 0 if no spectra).

    The one place the combined overlap is formed; Fock and coherent pairs
    both delegate here.
    """
    c = pol.cos_phi(pol_a, pol_b)
    if spec_a is not None and spec_b is not None:
        c *= spc.overlap(spec_a, spec_b).magnitude
    return c


@dataclass(frozen=True)
class FockPair:
    """Photon-number inputs for the two arms with their mode labels."""

    m: int
    n: int
    pol_a: pol.PolarizationVector = pol.H
    pol_b: pol.PolarizationVector = pol.H
    spec_a: spc.SpectralProfile | None = None
    spec_b: spc.SpectralProfile | None = None

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("photon numbers must be non-negative")

    def mode_overlap(self) -> float:
        return mode_overlap(self.pol_a, self.pol_b, self.spec_a, self.spec_b)


@dataclass(frozen=True)
class Apparatus:
    """Beam splitter plus the two output-port detectors."""

    bs: BeamSplitter = BeamSplitter.balanced()
    det_a: pol.Detector = pol.IDEAL_DETECTOR
    det_b: pol.Detector = pol.IDEAL_DETECTOR


IDEAL_APPARATUS = Apparatus()


def _binom(n: int, k: int) -> float:
    if n <= _LOG_BINOM_CUTOFF:
        return float(math.comb(n, k))
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))


def bunching_factor(m: int, n: int, c: float) -> float:
    """P_bunch = sum_{j=0}^{min(m,n)} C(m,j) C(n,j) c^{2j}; >= 1, symmetric."""
    if m < 0 or n < 0:
        raise ValueError("photon numbers must be non-negative")
    if not 0.0 <= c <= 1.0 + 1e-12:
        raise ValueError("mode overlap c must lie in [0, 1]")
    c2 = min(c, 1.0) ** 2
    total = 0.0
    term_pow = 1.0
    for j in range(min(m, n) + 1):
        total += _binom(m, j) * _binom(n, j) * term_pow
        term_pow *= c2
    return total


def p_all_one_side(pair: FockPair, bs: BeamSplitter) -> tuple[float, float]:
    """(P all m+n photons exit toward detector A, same toward B).

    T^m R^n P_bunch and T^n R^m P_bunch respectively.
    """
    c = pair.mode_overlap()
    p = bunching_factor(pair.m, pair.n, c)
    t, r = bs.transmissivity, bs.reflectivity
    return (t**pair.m * r**pair.n * p, t**pair.n * r**pair.m * p)


def _deltas(pair_m: int, pair_n: int, pol_a: pol.PolarizationVector,
            pol_b: pol.PolarizationVector, app: Apparatus) -> tuple[float, float]:
    da = pol.click_probability(app.det_a, pol_a, pol_b, pair_m, pair_n)
    db = pol.click_probability(app.det_b, pol_a, pol_b, pair_m, pair_n)
    return da, db


def coincidence_raw(m: int, n: int, c: float, bs: BeamSplitter,
                    delta_a: float, delta_b: float) -> float:
    """Coincidence probability from pre-computed overlaps and click terms.

    Raises :class:`InvalidRegimeError` if the formula leaves [0,1] by more
    than 1e-9; sub-tolerance excursions are clamped.
    """
    if m + n < 1:
        raise ValueError("coincidence requires at least one photon")
    t, r = bs.transmissivity, bs.reflectivity
    p = bunching_factor(m, n, c)
    val = delta_a * delta_b - (t**m * r**n * delta_a + t**n * r**m * delta_b) * p
    if val < -1e-9 or val > 1.0 + 1e-9:
        raise InvalidRegimeError(
            f"coincidence {val:.6g} outside [0,1] for m={m}, n={n}, c={c:.4g}; "
            "parameter set lies outside the detection model's validity")
    return min(max(val, 0.0), 1.0)


def coincidence(pair: FockPair, app: Apparatus = IDEAL_APPARATUS) -> float:
    """Coincidence probability for a Fock pair through the apparatus."""
    da, db = _deltas(pair.m, pair.n, pair.pol_a, pair.pol_b, app)
    return coincidence_raw(pair.m, pair.n, pair.mode_overlap(), app.bs, da, db)


def dip_curve(pair: FockPair, taus: Iterable[float],
              app: Apparatus = IDEAL_APPARATUS,
              cos_theta: Sequence[float] | None = None) -> list[tuple[float, float]]:
    """Coincidence vs relative arrival delay of arm B (the HOM dip).

    Arm B's profile is shifted by each tau on top of its configured delay;
    polarization and detectors are held fixed, so only cos(Theta) moves.
    cos(Theta(tau)) is computed once per scan by
    :func:`spectral.overlap_curve`; callers sweeping several (m, n, Phi)
    over the same spectra and delays pass that array as ``cos_theta``
    so each point only evaluates :func:`coincidence_raw`.
    """
    if pair.spec_a is None or pair.spec_b is None:
        raise ValueError("dip_curve needs spectral profiles on both arms")
    taus = list(taus)
    da, db = _deltas(pair.m, pair.n, pair.pol_a, pair.pol_b, app)
    if cos_theta is None:
        cos_theta = spc.overlap_curve(pair.spec_a, pair.spec_b, taus)
    elif len(cos_theta) != len(taus):
        raise ValueError("cos_theta needs one value per tau")
    cphi = pol.cos_phi(pair.pol_a, pair.pol_b)
    return [(tau, coincidence_raw(pair.m, pair.n, cphi * float(ctheta),
                                  app.bs, da, db))
            for tau, ctheta in zip(taus, cos_theta)]


def visibility_from_c(m: int, n: int, c0: float, app: Apparatus,
                      pol_a: pol.PolarizationVector = pol.H,
                      pol_b: pol.PolarizationVector = pol.H) -> float:
    """(P_inf - P_0) / P_inf with P_0 at overlap c0 and P_inf at c = 0.

    c0 already includes cos(Phi); the infinite-delay baseline keeps the
    polarization factor out because cos(Theta) -> 0 kills the whole
    product (Riemann-Lebesgue for every envelope family).
    """
    da, db = _deltas(m, n, pol_a, pol_b, app)
    p_inf = coincidence_raw(m, n, 0.0, app.bs, da, db)
    if p_inf == 0.0:
        raise ZeroDivisionError("baseline coincidence vanishes; visibility undefined")
    p_0 = coincidence_raw(m, n, c0, app.bs, da, db)
    return (p_inf - p_0) / p_inf


def visibility(pair: FockPair, app: Apparatus = IDEAL_APPARATUS) -> float:
    """HOM visibility of the dip at the pair's configured delays."""
    return visibility_from_c(pair.m, pair.n, pair.mode_overlap(), app,
                             pair.pol_a, pair.pol_b)


def visibility_vs_polarization(m: int, n: int, phis: Sequence[float],
                               app: Apparatus = IDEAL_APPARATUS
                               ) -> list[tuple[float, float]]:
    """Visibility as the polarization mismatch angle sweeps (Theta = 0)."""
    out = []
    for phi in phis:
        pb = pol.rotate(pol.H, phi)
        out.append((phi, visibility_from_c(m, n, pol.cos_phi(pol.H, pb),
                                           app, pol.H, pb)))
    return out
