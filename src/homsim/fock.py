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
family satisfies.  Each formula takes c as a float or an array (a sweep row,
or a dip's (Phi, tau) grid).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import polarization as pol
from . import spectral as spc

__all__ = [
    "BeamSplitter", "FockPair", "Apparatus", "InvalidRegimeError", "mode_overlap",
    "bunching_factor", "p_all_one_side", "coincidence", "coincidence_raw",
    "dip_blocks", "dip_curve", "dip_visibility", "visibility", "visibility_from_c",
    "visibility_ratio",
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


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


@functools.lru_cache(maxsize=4096)
def _binom_products(m: int, n: int) -> tuple[float, ...]:
    """C(m,j) C(n,j), j = 0..min(m, n), from exact integers (up to the cutoff)."""
    return tuple(float(math.comb(m, j)) * float(math.comb(n, j))
                 for j in range(min(m, n) + 1))


@functools.lru_cache(maxsize=4096)
def _log_binom_products(m: int, n: int) -> tuple[float, ...]:
    """log(C(m,j) C(n,j)), j = 0..min(m, n): the terms past the cutoff."""
    return tuple(_log_binom(m, j) + _log_binom(n, j) for j in range(min(m, n) + 1))


def _overlap_squared(c: float | np.ndarray) -> float | np.ndarray:
    """c^2 for an overlap c checked to lie in [0, 1]; an array squares
    through libm's pow, as a float's ``**`` does (``c * c`` differs on
    about 0.1% of inputs)."""
    array = isinstance(c, np.ndarray)
    if not (np.all((c >= 0.0) & (c <= 1.0 + 1e-12)) if array else 0.0 <= c <= 1.0 + 1e-12):
        raise ValueError("mode overlap c must lie in [0, 1]")
    return np.float_power(np.minimum(c, 1.0), 2.0) if array else min(c, 1.0) ** 2


def _even_series(coefs: Iterable[float], c: float | np.ndarray) -> float | np.ndarray:
    """sum_j coefs[j] c^{2j}, shaped like the overlap c."""
    c2 = _overlap_squared(c)
    total, term_pow = 0.0 * c2, 1.0
    for coef in coefs:
        total += coef * term_pow
        term_pow *= c2
    return total


def _log_even_series(logs: Sequence[float], c: float | np.ndarray) -> float | np.ndarray:
    """sum_j exp(logs[j]) c^{2j}, summed about its largest term so that no
    term overflows on its own: finite wherever the sum is, inf beyond."""
    c2 = _overlap_squared(c)
    with np.errstate(divide="ignore", over="ignore"):
        log_c2 = np.log(c2)  # -inf at c = 0, where only j = 0 survives

        def exponents():
            return (lg + j * log_c2 if j else lg for j, lg in enumerate(logs))
        top = functools.reduce(np.maximum, exponents())
        total = np.exp(top + np.log(sum(np.exp(e - top) for e in exponents())))
    return total if isinstance(c, np.ndarray) else float(total)


def bunching_factor(m: int, n: int, c: float | np.ndarray) -> float | np.ndarray:
    """P_bunch = sum_{j=0}^{min(m,n)} C(m,j) C(n,j) c^{2j}; >= 1, symmetric.

    Past the exact-integer cutoff the sum is taken in the log domain, so it
    is inf only where P_bunch itself leaves the float range.
    """
    if m < 0 or n < 0:
        raise ValueError("photon numbers must be non-negative")
    if max(m, n) <= _LOG_BINOM_CUTOFF:
        return _even_series(_binom_products(m, n), c)
    return _log_even_series(_log_binom_products(m, n), c)


def _one_side(m: int, n: int, c, bs: BeamSplitter) -> tuple:
    """(w_A, w_B, p) with T^m R^n P_bunch = w_A p and T^n R^m P_bunch = w_B p.

    Past the cutoff P_bunch overflows where T^m R^n underflows, so there
    each T^m R^n C(m,j) C(n,j) (at most 1) is formed in the log domain.
    """
    t, r = bs.transmissivity, bs.reflectivity
    if max(m, n) <= _LOG_BINOM_CUTOFF:
        return t**m * r**n, t**n * r**m, bunching_factor(m, n, c)
    logs = _log_binom_products(m, n)

    def weighted(a, b):  # T^a R^b P_bunch, with 0^0 = 1
        log_w = sum(k * math.log(x) if x > 0.0 else -math.inf for k, x in ((a, t), (b, r)) if k)
        return _even_series([math.exp(log_w + lg) for lg in logs], c)
    return weighted(m, n), weighted(n, m), 1.0


def p_all_one_side(pair: FockPair, bs: BeamSplitter) -> tuple[float, float]:
    """(P all m+n photons exit toward detector A, same toward B):
    T^m R^n P_bunch and T^n R^m P_bunch."""
    w_a, w_b, p = _one_side(pair.m, pair.n, pair.mode_overlap(), bs)
    return (w_a * p, w_b * p)


def _deltas(m: int, n: int, pol_a: pol.PolarizationVector,
            pol_b: pol.PolarizationVector, app: Apparatus) -> tuple[float, float]:
    """Click terms (Delta_A, Delta_B) of one pure branch: m photons in
    pol_a and n in pol_b reaching each detector."""
    return (pol.click_probability(app.det_a, pol_a, pol_b, m, n),
            pol.click_probability(app.det_b, pol_a, pol_b, m, n))


def coincidence_raw(m: int, n: int, c: float | np.ndarray, bs: BeamSplitter,
                    delta_a: float | np.ndarray,
                    delta_b: float | np.ndarray) -> float | np.ndarray:
    """Coincidence probability from pre-computed overlaps and click terms.

    ``c``, ``delta_a`` and ``delta_b`` are floats or arrays that broadcast
    together (a dip's (Phi, tau) grid of c with (Phi, 1) click columns), and
    each element equals its float result.  Raises
    :class:`InvalidRegimeError`, naming the first failing point in C order,
    if the formula is not finite or leaves [0,1] by more than 1e-9;
    sub-tolerance excursions are clamped.
    """
    if m + n < 1:
        raise ValueError("coincidence requires at least one photon")
    w_a, w_b, p = _one_side(m, n, c, bs)
    val = delta_a * delta_b - (w_a * delta_a + w_b * delta_b) * p
    if isinstance(val, np.ndarray):
        bad = np.flatnonzero(~((val >= -1e-9) & (val <= 1.0 + 1e-9)))
        if not bad.size:
            return np.clip(val, 0.0, 1.0)
        val, c = val.flat[bad[0]], np.broadcast_to(c, val.shape).flat[bad[0]]
    elif -1e-9 <= val <= 1.0 + 1e-9:
        return min(max(val, 0.0), 1.0)
    raise InvalidRegimeError(
        f"coincidence {val:.6g} outside [0,1] for m={m}, n={n}, c={c:.4g}; "
        "parameter set lies outside the detection model's validity")


def coincidence(pair: FockPair, app: Apparatus = IDEAL_APPARATUS) -> float:
    """Coincidence probability for a Fock pair through the apparatus."""
    da, db = _deltas(pair.m, pair.n, pair.pol_a, pair.pol_b, app)
    return coincidence_raw(pair.m, pair.n, pair.mode_overlap(), app.bs, da, db)


def dip_blocks(m: int, n: int, pol_a: pol.PolarizationVector,
               pols_b: Sequence[pol.PolarizationVector], app: Apparatus,
               cos_theta: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coincidences of one photon pair against each arm-B polarization over
    one delay scan: row k is the dip of m photons in ``pol_a`` and n in
    ``pols_b[k]`` at each cos(Theta(tau)) of ``cos_theta``.

    The (Phi, tau) array of c comes from :func:`mode_overlap`, one row per
    polarization, and the click terms are (Phi, 1) columns, so the pair is
    one :func:`coincidence_raw` call; each row equals that row's own call.
    A failing point is the first in row order, then delay order.
    """
    cos_theta = np.asarray(cos_theta, dtype=float)
    cs = np.array([mode_overlap(pol_a, pol_b, cos_theta) for pol_b in pols_b])
    deltas = np.array([_deltas(m, n, pol_a, pol_b, app) for pol_b in pols_b])
    return coincidence_raw(m, n, cs, app.bs, deltas[:, :1], deltas[:, 1:])


def dip_curve(pair: FockPair, taus: Iterable[float],
              app: Apparatus = IDEAL_APPARATUS,
              cos_theta: Sequence[float] | None = None) -> list[tuple[float, float]]:
    """Coincidence vs relative arrival delay of arm B (the HOM dip).

    Arm B's profile is shifted by each tau on top of its configured delay;
    polarization and detectors are held fixed, so only cos(Theta) moves.
    cos(Theta(tau)) is one :func:`spectral.overlaps` call per scan, on
    arm B's family of delayed profiles, and the curve is the one-row
    :func:`dip_blocks` call.  Callers sweeping several (m, n, Phi) over the
    same spectra and delays pass that cos(Theta) array as ``cos_theta``,
    or call :func:`dip_blocks` once per photon pair.
    """
    if pair.spec_a is None or pair.spec_b is None:
        raise ValueError("dip_curve needs spectral profiles on both arms")
    taus = list(taus)
    if cos_theta is None:
        cos_theta = spc.overlaps(pair.spec_a, pair.spec_b.delayed(np.asarray(taus, float)))
    elif len(cos_theta) != len(taus):
        raise ValueError("cos_theta needs one value per tau")
    row, = dip_blocks(pair.m, pair.n, pair.pol_a, [pair.pol_b], app, cos_theta)
    return list(zip(taus, row.tolist()))


def _nonzero_baseline(p_inf: float | np.ndarray) -> float | np.ndarray:
    if np.any(p_inf == 0.0) if isinstance(p_inf, np.ndarray) else p_inf == 0.0:
        raise ZeroDivisionError("baseline coincidence vanishes; visibility undefined")
    return p_inf


def visibility_ratio(p_inf: float | np.ndarray, p_0: float | np.ndarray
                     ) -> float | np.ndarray:
    """V = (P(0) - P(c)) / P(0) from a c = 0 baseline and a dip, each a
    float or an array (a grid of cells against their own baselines).

    Raises :class:`ZeroDivisionError` if any baseline vanishes.
    """
    return (_nonzero_baseline(p_inf) - p_0) / p_inf


def dip_visibility(p_at: Callable, c: float | np.ndarray) -> float | np.ndarray:
    """V = (P(0) - P(c)) / P(0): the dip at overlap c against its baseline.

    ``p_at`` maps an overlap to a coincidence probability; the far-delay
    baseline is its value at 0, where cos(Theta) -> 0 kills the overlap
    (Riemann-Lebesgue for every envelope family).  The one visibility
    rule: Fock, mixed-state and coherent inputs all come here or to
    :func:`visibility_ratio`.  An array ``c`` gives an array of
    visibilities against the one baseline.  A vanishing baseline raises
    before the dip is evaluated.
    """
    p_inf = _nonzero_baseline(p_at(0.0))
    return visibility_ratio(p_inf, p_at(c))


def visibility_from_c(m: int, n: int, c0: float | np.ndarray, app: Apparatus,
                      pol_a: pol.PolarizationVector = pol.H,
                      pol_b: pol.PolarizationVector = pol.H) -> float | np.ndarray:
    """Fock visibility at the mode overlap c0 (which includes cos(Phi)); for
    a sweep row of c0 the click terms and the c = 0 baseline are formed once."""
    da, db = _deltas(m, n, pol_a, pol_b, app)
    return dip_visibility(lambda c: coincidence_raw(m, n, c, app.bs, da, db), c0)


def visibility(pair: FockPair, app: Apparatus = IDEAL_APPARATUS) -> float:
    """HOM visibility of the dip at the pair's configured delays."""
    return visibility_from_c(pair.m, pair.n, pair.mode_overlap(), app,
                             pair.pol_a, pair.pol_b)
