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
from typing import Callable, Iterable, Sequence

import numpy as np

from . import polarization as pol
from . import spectral as spc

__all__ = [
    "BeamSplitter", "FockPair", "Apparatus", "InvalidRegimeError", "mode_overlap",
    "bunching_factor", "p_all_one_side", "coincidence", "coincidence_raw",
    "dip_curve", "dip_visibility", "visibility", "visibility_from_c",
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
                 cos_theta: float | np.ndarray = 1.0) -> float | np.ndarray:
    """c = cos(Phi) cos(Theta) for two polarizations and a spectral overlap.

    The one place the combined overlap is formed: pairs, dips, contours
    and mixed-state branches all come here with the cos(Theta) they hold
    (1 without spectra).  An array of cos(Theta) gives an array of c.
    """
    return pol.cos_phi(pol_a, pol_b) * cos_theta


def _cos_theta(spec_a: spc.SpectralProfile | None,
               spec_b: spc.SpectralProfile | None) -> float:
    """cos(Theta) of a pair's spectra; 1 when either arm has none."""
    if spec_a is None or spec_b is None:
        return 1.0
    return spc.overlap(spec_a, spec_b).magnitude


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
        return mode_overlap(self.pol_a, self.pol_b, _cos_theta(self.spec_a, self.spec_b))


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


def _deltas(m: int, n: int, pol_a: pol.PolarizationVector,
            pol_b: pol.PolarizationVector, app: Apparatus) -> tuple[float, float]:
    """Click terms (Delta_A, Delta_B) of one pure branch: m photons in
    pol_a and n in pol_b reaching each detector."""
    da = pol.click_probability(app.det_a, pol_a, pol_b, m, n)
    db = pol.click_probability(app.det_b, pol_a, pol_b, m, n)
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
    cos(Theta(tau)) is one :func:`spectral.overlaps` call per scan, on
    arm B's family of delayed profiles; callers sweeping several (m, n,
    Phi) over the same spectra and delays pass that array as
    ``cos_theta`` so each point only evaluates :func:`coincidence_raw`.
    """
    if pair.spec_a is None or pair.spec_b is None:
        raise ValueError("dip_curve needs spectral profiles on both arms")
    taus = list(taus)
    da, db = _deltas(pair.m, pair.n, pair.pol_a, pair.pol_b, app)
    if cos_theta is None:
        cos_theta = spc.overlaps(pair.spec_a, pair.spec_b.delayed(np.asarray(taus, float)))
    elif len(cos_theta) != len(taus):
        raise ValueError("cos_theta needs one value per tau")
    cs = mode_overlap(pair.pol_a, pair.pol_b, np.asarray(cos_theta, dtype=float))
    return [(tau, coincidence_raw(pair.m, pair.n, float(c), app.bs, da, db))
            for tau, c in zip(taus, cs)]


def dip_visibility(p_at: Callable[[float], float], c: float) -> float:
    """V = (P(0) - P(c)) / P(0): the dip at overlap c against its baseline.

    ``p_at`` maps an overlap to a coincidence probability; the far-delay
    baseline is its value at 0, where cos(Theta) -> 0 kills the overlap
    (Riemann-Lebesgue for every envelope family).  The one visibility
    rule: Fock, mixed-state and coherent inputs all come here.
    """
    p_inf = p_at(0.0)
    if p_inf == 0.0:
        raise ZeroDivisionError("baseline coincidence vanishes; visibility undefined")
    p_0 = p_at(c)
    return (p_inf - p_0) / p_inf


def visibility_from_c(m: int, n: int, c0: float, app: Apparatus,
                      pol_a: pol.PolarizationVector = pol.H,
                      pol_b: pol.PolarizationVector = pol.H) -> float:
    """Fock visibility at the mode overlap c0 (which includes cos(Phi))."""
    da, db = _deltas(m, n, pol_a, pol_b, app)
    return dip_visibility(lambda c: coincidence_raw(m, n, c, app.bs, da, db), c0)


def visibility(pair: FockPair, app: Apparatus = IDEAL_APPARATUS) -> float:
    """HOM visibility of the dip at the pair's configured delays."""
    return visibility_from_c(pair.m, pair.n, pair.mode_overlap(), app,
                             pair.pol_a, pair.pol_b)
