"""Single-photon spectral envelopes and their overlap integrals.

Four normalized envelope families are supported (Gaussian, sinc, Lorentzian,
hyperbolic secant), each parameterized by a center frequency, one width
parameter, an arrival-time delay tau (a pure phase e^{i omega tau} on the
amplitude) and a multiplicative broadening factor.  All frequencies are
angular, in rad/ps; times are in ps.  Inputs quoted in THz ordinary
frequency or nm wavelength are converted by the config literals
(:mod:`homsim.config`).

The spectro-temporal mismatch between two wavepackets is the magnitude of

    integral  phi_A*(omega) phi_B(omega) d omega  =  cos(Theta),

evaluated here in the time domain via Plancherel's theorem.  Every envelope
has a closed-form time profile (the sinc's is a rectangle of duration T,
the Lorentzian's a two-sided exponential), which turns the slowly decaying
or oscillatory frequency-domain tails into compactly supported or
exponentially decaying integrands.  All 16 ordered pairings are exact
closed forms, behind one dispatch that serves :func:`overlap` and
:func:`overlaps` alike:

* Gaussian with Gaussian: a closed form in the frequency domain;
* sinc or Lorentzian with sinc or Lorentzian: the time-domain product is
  piecewise exponential, so the integral is elementary and exact (at most
  three segments);
* Gaussian with sinc or Lorentzian, in either order: a Gaussian times a
  rectangle or a two-sided exponential, a few values of the Faddeeva
  function (Weideman's rational form in numpy, one evaluation per call);
* a sech with any envelope: the sech is the alternating series
  sech(u) = 2 sum_k (-1)^k e^{-(2k+1)|u|} of Lorentzian-type envelopes,
  summed by the Cohen-Rodriguez Villegas-Zagier acceleration from its
  first 24 terms to within 2 (3 + sqrt 8)^-24 < 1e-18, so its overlap is
  a fixed weighted sum of overlaps of the two kinds above (24 x 24 term
  pairs for sech with sech, which cost one exponential per photon term
  and only arithmetic per pair).

A profile with numpy array fields is a *profile family*: :func:`overlaps`
evaluates every pairing as one array formula over it (a dip scan, a
contour grid, a width-search round), in chunks of a fixed number of term
pairs, and :func:`overlap` is its 0-d case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .quadrature import IntegrationError

__all__ = [
    "Shape", "SpectralProfile", "OverlapResult",
    "amplitude", "overlap", "overlaps",
    "gaussian_overlap_closed_form", "fwhm",
    "wavelength_width_to_frequency",
    "SPEED_OF_LIGHT_NM_PS",
]

SPEED_OF_LIGHT_NM_PS = 299792.458  # nm / ps

TWO_PI = 2.0 * math.pi
_TINY = np.finfo(float).tiny  # the smallest normal float


class Shape(enum.Enum):
    GAUSSIAN = "gaussian"
    SINC = "sinc"
    LORENTZIAN = "lorentzian"
    SECH = "sech"


@dataclass(frozen=True)
class SpectralProfile:
    """A normalized single-photon spectral amplitude, or a family of them.

    Attributes
    ----------
    shape : Shape
        Envelope family.
    center : float or ndarray
        Central angular frequency omega_0, rad/ps.
    width : float or ndarray
        Shape parameter: sigma (rad/ps) for Gaussian and sech, the photon
        duration T (ps) for sinc, the conventional linewidth gamma (rad/ps)
        for Lorentzian.
    delay : float or ndarray
        Arrival time tau in ps; multiplies the amplitude by e^{i omega tau}
        and leaves |phi| unchanged.
    broadening : float or ndarray
        Dimensionless factor xi > 0 scaling the spectral width (for the
        sinc this divides the duration T, so the spectrum broadens for
        xi > 1 for every family).

    Numeric fields may be numpy arrays that broadcast together: such a
    profile family stands for one photon per element of the broadcast
    shape, and serves :func:`overlaps`, :func:`fwhm`, :meth:`delayed` and
    :meth:`broadened`.  :func:`overlap`, :func:`amplitude` and hashing
    take scalar fields.
    """

    shape: Shape
    center: float | np.ndarray
    width: float | np.ndarray
    delay: float | np.ndarray = 0.0
    broadening: float | np.ndarray = 1.0

    def __post_init__(self):
        for value, name in ((self.width, "width"), (self.broadening, "broadening"),
                            (self.center, "center frequency")):
            if not _positive(value):
                raise ValueError(f"{name} must be positive")

    @property
    def effective_width(self) -> float:
        """Width parameter after broadening (T shrinks, all others grow)."""
        if self.shape is Shape.SINC:
            return self.width / self.broadening
        return self.width * self.broadening

    def broadened(self, xi) -> "SpectralProfile":
        """Profile with an additional broadening factor applied (an array
        of factors gives a family)."""
        return replace(self, broadening=self.broadening * xi)

    def delayed(self, tau) -> "SpectralProfile":
        """Profile with an additional arrival delay tau (ps) (an array of
        delays gives a family)."""
        return replace(self, delay=self.delay + tau)

    @staticmethod
    def from_fwhm(shape: Shape | str, center, fwhm,
                  delay_ps=0.0, broadening=1.0) -> "SpectralProfile":
        """Build from a target FWHM of |phi|^2 in rad/ps (gamma for
        Lorentzian); arrays give a family."""
        shape = Shape(shape)
        return SpectralProfile(shape, center, _width_from_fwhm(shape, fwhm),
                               delay_ps, broadening)


def _positive(x) -> bool:
    """x > 0, for every element of an array x; NaN is not positive."""
    return np.greater(x, 0.0).all() if isinstance(x, np.ndarray) else x > 0


@dataclass(frozen=True)
class OverlapResult:
    """Spectral overlap integral with its mismatch angle."""

    value: complex
    magnitude: float
    theta: float


def wavelength_width_to_frequency(center_nm: float, width_nm: float) -> float:
    """Convert a wavelength bandwidth to an angular-frequency bandwidth.

    d omega = 2 pi c d lambda / lambda_0^2 with c in nm/ps; exact for the
    linewidths used here (first-order dispersion of omega = 2 pi c/lambda).
    """
    if center_nm <= 0 or width_nm < 0:
        raise ValueError("center_nm must be positive and width_nm non-negative")
    return TWO_PI * SPEED_OF_LIGHT_NM_PS * width_nm / center_nm**2


# ---------------------------------------------------------------------------
# amplitudes
# ---------------------------------------------------------------------------

def amplitude(profile: SpectralProfile, omega) -> np.ndarray | complex:
    """Normalized spectral amplitude phi(omega), including the delay phase.

    The modulus squared of each family integrates to one:
    Gaussian (1/sigma sqrt(2 pi))^(1/2) e^{-x^2/4 sigma^2}; sinc
    sqrt(T/2 pi) sinc(T x / 2); Lorentzian sqrt(gamma^3/4 pi)/(x^2 +
    (gamma/2)^2); sech sqrt(1/2 sigma) sech(x/sigma), with x = omega -
    omega_0.
    """
    w = profile.effective_width
    x = np.asarray(omega, dtype=float) - profile.center
    if profile.shape is Shape.GAUSSIAN:
        env = (1.0 / (w * math.sqrt(TWO_PI))) ** 0.5 * np.exp(-(x * x) / (4.0 * w * w))
    elif profile.shape is Shape.SINC:
        env = math.sqrt(w / TWO_PI) * np.sinc(w * x / TWO_PI)
    elif profile.shape is Shape.LORENTZIAN:
        env = math.sqrt(w**3 / (4.0 * math.pi)) / (x * x + 0.25 * w * w)
    elif profile.shape is Shape.SECH:
        env = math.sqrt(0.5 / w) / np.cosh(np.clip(x / w, -700, 700))
    else:  # pragma: no cover
        raise ValueError(f"unknown shape {profile.shape}")
    phase = np.exp(1j * np.asarray(omega, dtype=float) * profile.delay)
    out = env * phase
    return complex(out) if np.isscalar(omega) else out


def _envelope_norm(shape: Shape, w):
    """Peak prefactor of the square-normalized time envelope G(t) (phi's
    inverse Fourier transform) for effective width(s) ``w``.

    ``np.float_power`` calls libm's pow, as Python's ``**`` does;
    ``np.power`` may round differently in the last place.
    """
    if shape is Shape.GAUSSIAN:
        return np.float_power(2.0 * w * w / math.pi, 0.25)
    if shape is Shape.SINC:
        return 1.0 / np.sqrt(w)
    if shape is Shape.LORENTZIAN:
        return np.sqrt(0.5 * w)
    if shape is Shape.SECH:
        return 0.5 * np.sqrt(math.pi * w)
    raise ValueError(f"unknown shape {shape}")  # pragma: no cover


# ---------------------------------------------------------------------------
# overlap
# ---------------------------------------------------------------------------

def overlap(a: SpectralProfile, b: SpectralProfile) -> OverlapResult:
    """Overlap integral int phi_a*(omega) phi_b(omega) d omega.

    The 0-d case of :func:`overlaps`, with the same bits and the complex
    value kept: the magnitude is cos(Theta) in [0, 1], ``theta`` its angle.
    """
    value, mag = _checked_overlaps(a, b)
    return OverlapResult(value=complex(value), magnitude=float(mag), theta=math.acos(mag))


def overlaps(a: SpectralProfile, b: SpectralProfile) -> np.ndarray:
    """|overlap(a_i, b_i)| over the broadcast shape of the profile families
    ``a`` and ``b`` (``a`` is often one photon), as one array formula.

    Each element equals :func:`overlap` on its pair of photons, bit for
    bit.  The first point in C order that fails the Cauchy-Schwarz check
    raises an :class:`IntegrationError` naming it.
    """
    return _checked_overlaps(a, b)[1]


def _checked_overlaps(a: SpectralProfile, b: SpectralProfile) -> tuple:
    """(complex overlaps, cos(Theta) = |value| clamped to 1 within the
    Cauchy-Schwarz slack).  The kernels and the check run without numpy's
    warnings: a point that overflows ends non-finite and fails the check."""
    with np.errstate(all="ignore"):
        values = _overlap_values(a, b)
        # hypot, as Python's abs(complex): numpy's complex abs may round differently
        mag = np.hypot(values.real, values.imag)
        bad = ~(mag <= 1.0 + 1e-9)
        if bad.any():
            at = np.unravel_index(np.argmax(bad), bad.shape)
            center, width, delay = (np.broadcast_to(x, bad.shape)[at]
                                    for x in (b.center, b.effective_width, b.delay))
            raise IntegrationError(
                f"{a.shape.value}-{b.shape.value} overlap magnitude is not finite or "
                f"exceeds the Cauchy-Schwarz bound at B center {center:.6g} rad/ps, "
                f"effective width {width:.6g}, delay {delay:.6g} ps", mag[at] - 1.0)
    return values, np.minimum(mag, 1.0)


def _overlap_values(a: SpectralProfile, b: SpectralProfile) -> np.ndarray:
    """The one pairing dispatch: the complex overlaps of ``a``'s photons
    with ``b``'s, in the two families' broadcast shape.

    The photon pairs go to the kernel in chunks of at most
    ``_PAIR_BUDGET`` term-pair points (one point per photon pair and term
    pair; a sech has 24 terms, the other envelopes one), so a call's
    memory does not grow with the family.  Every kernel works elementwise
    on each point and sums its term pairs in a fixed order, so a point's
    bits do not depend on the chunk or the family it is in, nor on
    whether ``a`` is one photon or a family.
    """
    if a.shape is Shape.GAUSSIAN and b.shape is Shape.GAUSSIAN:
        kernel = _gaussian_overlaps
    elif a.shape is Shape.GAUSSIAN:
        kernel = _gaussian_exp_overlaps
    elif b.shape is Shape.GAUSSIAN:
        def kernel(ca, cb):
            return np.conj(_gaussian_exp_overlaps(cb, ca))
    else:
        kernel = _exponential_overlaps
    shape = np.broadcast_shapes(_shape(a), _shape(b))
    points_b = _points(b, shape)
    one = _shape(a) == ()  # one photon a: its columns, formed once, meet every chunk
    points_a = _points(a, () if one else shape)
    ca = _columns(a.shape, points_a, 0) if one else None
    step = max(1, _PAIR_BUDGET // (_terms(a.shape) * _terms(b.shape)))
    values = np.empty(points_b.shape[1], dtype=complex)
    for start in range(0, values.size, step):
        part = slice(start, start + step)
        values[part] = kernel(ca if one else _columns(a.shape, points_a[:, part], 0),
                              _columns(b.shape, points_b[:, part], 1))
    return values.reshape(shape)


_PAIR_BUDGET = 1 << 12  # term-pair points per kernel call: 32 KB per array


def _pair_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the term axes of a kernel array (terms of a, terms of b,
    points), by halving the term pairs in a fixed order: each point's sum
    is the same whatever the other points are."""
    x = values.reshape(-1, values.shape[-1])
    while len(x) > 1:
        half = len(x) // 2
        pairs = x[:half] + x[half:2 * half]
        if len(x) % 2:
            pairs[-1] += x[-1]
        x = pairs
    return x[0]


def _gaussian_overlaps(a: tuple, b: tuple) -> np.ndarray:
    """Exact overlaps of Gaussian photons, ``a``'s columns against ``b``'s
    (see :func:`_columns`), broadcast.

    Written in the frequency domain about the mean center (u = omega -
    (c_a + c_b)/2), so the exponent carries only the detuning d and delay
    difference dt; the naive completion of the square about omega = 0
    loses ~6 digits to cancellation at telecom center frequencies.
    """
    _, sa, _, delay_a, center_a = a
    _, sb, _, delay_b, center_b = b
    d = center_b - center_a
    dt = delay_b - delay_a
    wbar = 0.5 * (center_a + center_b)
    # phi_a*(u) phi_b(u) = N exp(-(u+d/2)^2/(4sa^2) - (u-d/2)^2/(4sb^2) + i(u+wbar)dt)
    alpha = 0.25 / (sa * sa) + 0.25 / (sb * sb)
    beta = 0.25 * d * (1.0 / (sb * sb) - 1.0 / (sa * sa))
    # (beta + i dt)^2 / (4 alpha) - alpha d^2 / 4 + i wbar dt, in real arithmetic;
    # its detuning part beta^2 / (4 alpha) - alpha d^2 / 4 is summed as the one
    # term -d^2 / (4 (sa^2 + sb^2)): the two terms cancel to (sb / sa)^2 ulps
    exponent_re = -(dt * dt) / (4.0 * alpha) - d * d / (4.0 * (sa * sa + sb * sb))
    exponent_im = (beta * dt + dt * beta) / (4.0 * alpha) + wbar * dt
    norm = (np.float_power(1.0 / (sa * math.sqrt(TWO_PI)), 0.5)
            * np.float_power(1.0 / (sb * math.sqrt(TWO_PI)), 0.5))
    return (norm * np.sqrt(math.pi / alpha) * np.exp(exponent_re + 1j * exponent_im)).reshape(-1)


_SECH_TERMS = 24  # the series' a-priori error, 2 (3 + sqrt 8)^-24, is below 1e-18


def _sech_series() -> tuple[np.ndarray, np.ndarray]:
    """Lorentzian widths, per unit sech width, and weights of the sech series.

    1/cosh(pi w t / 2) = 2 sum_k (-1)^k e^{-(2k+1) pi w |t| / 2}: term k is
    the envelope of a Lorentzian of width (2k+1) pi w.  Against any partner
    the terms' overlaps are the moments of a complex measure on [0, 1]
    (x = e^{-pi w |t|}), so Algorithm 1 of Cohen, Rodriguez Villegas and
    Zagier (Experimental Math. 9, 2000) sums the series from its first N
    terms, with weights c_k / d that carry the signs, to within
    2 (3 + sqrt 8)^-N times the measure's total variation; since
    e^{-|u|} <= sech u, Cauchy-Schwarz bounds that variation by 1, detuned
    and delayed partners alike.  Each weight here includes the factor 2.
    """
    n = _SECH_TERMS
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b, c, weights = -1.0, -d, []
    for k in range(n):
        c = b - c
        weights.append(2.0 * c / d)
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1))
    return math.pi * (2.0 * np.arange(n) + 1.0), np.array(weights)


_SECH_WIDTHS, _SECH_WEIGHTS = _sech_series()


def _shape(p: SpectralProfile) -> tuple:
    """The broadcast shape of ``p``'s fields: () for one photon."""
    return np.broadcast(p.width, p.broadening, p.delay, p.center).shape


def _points(p: SpectralProfile, shape: tuple) -> np.ndarray:
    """(effective width, delay, centre) of ``p``'s photons broadcast to
    ``shape``, in C order, as the rows of a (3, n) array."""
    cols = np.empty((3,) + shape)
    cols[0], cols[1], cols[2] = p.effective_width, p.delay, p.center
    return cols.reshape(3, -1)


def _terms(shape: Shape) -> int:
    """Number of Lorentzian-type terms the kernels see for one photon."""
    return _SECH_TERMS if shape is Shape.SECH else 1


def _columns(shape: Shape, points: np.ndarray, axis: int) -> tuple:
    """(kind, width, norm, delay, centre): the kernels' view of photons of
    ``shape`` with the given :func:`_points` rows.

    ``kind`` is the envelope family the kernels see, and the four columns
    hold the photons' values along the last of three axes.  A sech photon
    is its series of Lorentzian-type terms (kind Lorentzian), laid along
    ``axis``: 0 for photon a and 1 for the photons b, so that the kernels
    pair every term of a with every term of each b.
    """
    width, delay, center = points.reshape(3, 1, 1, -1)
    norm = _envelope_norm(shape, width)
    if shape is not Shape.SECH:
        return shape, width, norm, delay, center
    terms = (-1,) + (1,) * (2 - axis)
    return (Shape.LORENTZIAN, width * _SECH_WIDTHS.reshape(terms),
            norm * _SECH_WEIGHTS.reshape(terms), delay, center)


_EXPM1_BELOW = 1.0  # |kappa L| under which a segment takes the expm1 form


def _exponential_overlaps(a: tuple, b: tuple) -> np.ndarray:
    """Exact overlaps of sinc or Lorentzian photons, ``a``'s columns
    against ``b``'s (see :func:`_columns`), summed over their term pairs.

    On its support each of these envelopes is N e^{-g |t - tau|}: g = 0
    on the sinc's rectangle |t - tau| <= T/2, g = gamma/2 everywhere for
    the Lorentzian.  Times are taken from tau_a.  The support ends and the
    two kinks (0 and dt = tau_b - tau_a) cut the line into at most three
    segments, on each of which the integrand
    F(x) = G_a(x) G_b(x - dt) e^{-i dw x} has F' = kappa F for one complex
    kappa = rho - i dw (rho a sum of +-g_a and +-g_b).  A segment
    [x0, x1] therefore integrates to (F(x1) - F(x0)) / kappa, with F = 0
    at an infinite end, and the overlap is a sum over the segment ends of
    F there times a difference of 1/kappa.  F at an end is one exponential
    of each photon's term times one phase per point, so a sech photon
    costs one exponential per term and end, a term pair only arithmetic,
    and the sums over the term pairs are real.

    On a segment of length L > 0 with |kappa L| < 1 the difference would
    cancel, so there the term pair adds F(x0) L expm1(kappa L) / (kappa L)
    instead (F(x0) L once kappa L is below the smallest normal float):
    the one transcendental that depends on the pair, taken on that subset
    alone.  A segment of zero length adds nothing.  A priori, the
    difference's rounding is a few ulps of max |F| / |kappa|, and with
    |kappa L| >= 1 that is within a few ulps of the integral of |F| over
    the segment (1/|kappa| is at most L and at most 1/|rho|), as the
    expm1 form is.  So the overlap is within a few eps times
    S = sum_ij |N_a,i N_b,j| int e^{-g_a,i |x| - g_b,j |x - dt|} dx, and
    by Cauchy-Schwarz S <= 1 for two single terms, 7.6 for a sech against
    one, and 58 for two sechs (46 when their widths are equal; a few
    1e-15 are seen there).  Disjoint supports give exactly 0, and the
    large phase omega_b dt multiplies the sum once.
    """
    shape_a, wa, norm_a, delay_a, center_a = a
    shape_b, wb, norm_b, delay_b, center_b = b
    dt, dw = delay_b - delay_a, center_b - center_a

    def support(shape, w, arrival):
        """Support ends and decay rate g of an envelope arriving at ``arrival``."""
        if shape is Shape.SINC:
            return arrival - 0.5 * w, arrival + 0.5 * w, 0.0 * w
        return arrival - np.inf, arrival + np.inf, 0.5 * w

    lo_a, hi_a, ga = support(shape_a, wa, 0.0)
    lo_b, hi_b, gb = support(shape_b, wb, dt)
    lo, hi = np.maximum(lo_a, lo_b), np.minimum(hi_a, hi_b)
    kink_a, kink_b = np.clip(0.0, lo, hi), np.clip(dt, lo, hi)
    ends = [lo, np.minimum(kink_a, kink_b), np.maximum(kink_a, kink_b), hi]
    tails = Shape.SINC not in (shape_a, shape_b)  # both outer segments infinite

    if tails and not (ends[2] > ends[1]).any():
        # dt = 0 at every point: both kinks sit at 0, where F = N_a N_b, and
        # the tails add F(0) (1/kappa_left - 1/kappa_right) = 2 F(0) rho/|kappa|^2
        rho = ga + gb
        total = 2.0 * _pair_sum((norm_a * norm_b) * (rho / (rho * rho + dw * dw)))
    else:
        total = _segment_sums(ends, tails, ga, gb, norm_a, norm_b, dt, dw)
    # named factors, not in place: numpy reuses a large temporary right factor
    # in place, swapping the factors of a complex product, which rounds a
    # point differently in a longer family, as does an in-place product
    phase = np.exp(1j * center_b * dt)
    total = total * phase
    return np.where(lo < hi, total, 0.0).reshape(-1)


class _Segment(NamedTuple):
    """One segment of :func:`_segment_sums`: its start, length, rho,
    ``small`` (the term pairs with 0 < |kappa L| < 1; None on a tail),
    1/|kappa|^2 and rho/|kappa|^2 (both 0 on the small pairs)."""

    x0: np.ndarray
    length: np.ndarray | None
    rho: np.ndarray | None
    small: np.ndarray | None
    inv: np.ndarray
    y: np.ndarray


def _segment_sums(ends: list, tails: bool, ga, gb, norm_a, norm_b, dt, dw) -> np.ndarray:
    """The sum over the segment ends of :func:`_exponential_overlaps`, and
    the expm1 form on its subset, before the phase e^{i omega_b dt}."""
    dw2 = dw * dw

    def segment(x0, x1, tail) -> _Segment | None:
        """The segment [x0, x1], None if it has zero length at every point."""
        length = x1 - x0
        if not (length > 0.0).any():
            return None
        # each envelope rises towards its kink and falls away from it
        rho = np.where(x1 <= 0.0, ga, -ga) + np.where(x1 <= dt, gb, -gb)
        den = rho * rho + dw2
        if tail:
            return _Segment(x0, length, rho, None, 1.0 / den, rho / den)
        big = den * (length * length) >= _EXPM1_BELOW * _EXPM1_BELOW
        return _Segment(x0, length, rho, ~big & (length > 0.0),
                        np.divide(1.0, den, out=np.zeros(den.shape), where=big),
                        np.divide(rho, den, out=np.zeros(den.shape), where=big))

    segments = [segment(ends[0], ends[1], tails), segment(ends[1], ends[2], False)]
    if tails:  # the right tail mirrors the left: rho changes sign, |kappa| does not
        left = segments[0]
        segments.append(_Segment(ends[2], None, None, None, left.inv, -left.y))
    else:
        segments.append(segment(ends[2], ends[3], False))

    total, pairs = 0.0, [None] * 4
    for k, x in enumerate(ends):
        left = segments[k - 1] if k > 0 else None
        right = segments[k] if k < 3 else None
        if (tails and k in (0, 3)) or (left is None and right is None):
            continue  # F = 0 at an infinite end
        pair = (norm_a * np.exp(-ga * np.abs(x))) * (norm_b * np.exp(-gb * np.abs(x - dt)))
        pairs[k] = pair
        # F(x) / kappa is added by the segment ending at x and subtracted by
        # the one starting there
        if right is None:
            y, inv = left.y, left.inv
        elif left is None:
            y, inv = -right.y, -right.inv
        else:
            y, inv = left.y - right.y, left.inv - right.inv
        phase = np.exp(-1j * dw * x)
        total = total + phase * (_pair_sum(pair * y) + 1j * dw * _pair_sum(pair * inv))

    for seg, pair in zip(segments, pairs):
        if seg is None or seg.small is None:
            continue
        at = np.flatnonzero(seg.small)
        if not at.size:
            continue
        point = at % dw.size
        run, beat = seg.length.ravel()[point], dw.ravel()[point]
        z = (seg.rho.ravel()[at] - 1j * beat) * run
        ratio = np.ones_like(z)
        nonzero = np.abs(z) >= _TINY
        ratio[nonzero] = np.expm1(z[nonzero]) / z[nonzero]
        f0 = pair.ravel()[at] * np.exp(-1j * beat * seg.x0.ravel()[point])
        part = f0 * run * ratio
        total = total + (np.bincount(point, part.real, dw.size)
                         + 1j * np.bincount(point, part.imag, dw.size))
    return total


def _gaussian_exp_overlaps(g: tuple, e: tuple) -> np.ndarray:
    """Exact overlaps of Gaussian photons ``g`` with sinc or Lorentzian
    photons ``e``, columns as from :func:`_columns`, broadcast.

    Times are taken from the Gaussian's arrival, with dt = tau_E - tau_G and
    dw = omega_E - omega_G for the other photon E and x = dw / 2 sigma, so
    that V = int phi_G* phi_E = e^{i omega_E dt} N_G N_E (sqrt(pi) / 2 sigma) S
    with the Faddeeva function w:

    * sinc: S = e^{-x^2} [erf(u1) - erf(u0)], u = sigma s + i x at the
      edges s0, s1 = dt -+ T/2;
    * Lorentzian: S = A(dt, dw) + A(-dt, -dw), with
      A = e^{-sigma^2 dt^2 - i dw dt} w(iu), u = sigma dt + gamma / 4 sigma + i x;
      at zero delay S = 2 Re w(x + ih), h = gamma / 4 sigma, since the two
      arguments are x + ih and its reflection -x + ih.

    erfc(u) = e^{-u^2} w(iu), and each argument in the lower half plane is
    reflected, w(z) = 2 e^{-z^2} - w(-z), with the prefactor's exponent
    folded into e^{-z^2}, so every exponential stays at or below 1.  All
    arguments of the call go through one :func:`_faddeeva` evaluation: half
    as many for a Lorentzian when sigma dt is 0 at every point of the call,
    which gives the general form's bits, since Weideman's form satisfies
    w(-conj z) = conj w(z) exactly and :func:`_faddeeva` rounds each point
    the same at every array length.
    With the Gaussian second the overlap is the complex conjugate.
    """
    _, sigma, norm_g, delay_g, center_g = g
    shape, we, norm_e, delay_e, center_e = e
    dt, dw = delay_e - delay_g, center_e - center_g
    x, q = dw / (2.0 * sigma), sigma * dt
    if shape is Shape.SINC:
        r = q + np.multiply.outer([-0.5, 0.5], sigma * we)  # sigma s at both edges
        flip = r < 0.0
        sign = np.where(flip, -1.0, 1.0)
        # e^{-x^2} erfc(u) = e^{-r^2 - 2irx} w(iu) for r >= 0, and 2 e^{-x^2}
        # minus the same with w(-iu) for r < 0
        f = sign * np.exp(-r * (r + 2j * x)) * _faddeeva(sign * 1j * (r + 1j * x))
        total = 2.0 * np.exp(-x * x) * (flip[0] & ~flip[1]) + f[0] - f[1]
    elif not q.any():
        # zero delay at every point: A(0, dw)'s argument -x + ih is -conj z
        # for A(0, -dw)'s z = x + ih, and w(-conj z) = conj w(z), bit for bit
        total = 2.0 * _faddeeva(x + 1j * (0.25 * we / sigma)).real
    else:
        h = 0.25 * we / sigma
        p = np.multiply.outer([1.0, -1.0], q + 1j * x)  # A(dt, dw), A(-dt, -dw)
        z = 1j * (h + p)
        flip = z.imag < 0.0
        sign = np.where(flip, -1.0, 1.0)
        # a reflected term's e^{-q^2 - 2iqx - z^2}, written with its large
        # parts cancelled; -inf leaves the other terms at 0
        folded = np.where(flip, 2.0 * h * p + h * h - x * x, -np.inf)
        terms = (sign * np.exp(-q * (q + 2j * x)) * _faddeeva(sign * z)
                 + 2.0 * np.exp(folded))
        total = terms[0] + terms[1]
    return _pair_sum(norm_g * norm_e * math.sqrt(math.pi) / (2.0 * sigma)
                     * np.exp(1j * center_e * dt) * total)


_W_TERMS = 40  # Weideman's N: about 2e-15 absolute in the upper half plane
_W_L = math.sqrt(_W_TERMS / math.sqrt(2.0))


@lru_cache(maxsize=None)
def _weideman_coefficients() -> np.ndarray:
    """Coefficients of Weideman's polynomial, lowest power first.

    The real-even discrete Fourier transform of
    f(t) = e^{-t^2} (L^2 + t^2) at t = L tan(k pi / 4N), k = 1-2N .. 2N-1,
    written as a cosine sum; formed on first use, so that importing homsim
    costs nothing for it.
    """
    m = 2 * _W_TERMS
    k = np.arange(1 - m, m)
    t = _W_L * np.tan(0.5 * math.pi * k / m)
    f = np.exp(-t * t) * (_W_L * _W_L + t * t)
    return np.cos(np.outer(np.arange(1, _W_TERMS + 1), k) * (math.pi / m)) @ f / (2 * m)


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """w(z) = e^{-z^2} erfc(-iz) for Im z >= 0, elementwise.

    Weideman's rational approximation (SIAM J. Numer. Anal. 31, 1994):
    w(z) = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)) with
    Z = (L + iz) / (L - iz), |Z| <= 1.  p is evaluated by Horner's rule,
    so the memory is a few arrays of the argument's size.  Each element's
    bits do not depend on the array's length: the Horner product is formed
    out of place, since numpy's in-place complex product of a one-element
    array rounds differently from its loop over longer arrays.
    """
    iz = 1j * z
    d = _W_L - iz
    big_z = (_W_L + iz) / d
    coefficients = _weideman_coefficients()
    poly = np.full(big_z.shape, coefficients[-1], dtype=complex)
    for c in coefficients[-2::-1]:
        poly = poly * big_z
        poly += c
    return 2.0 * poly / (d * d) + 1.0 / (math.sqrt(math.pi) * d)


def gaussian_overlap_closed_form(sigma_b: float, sigma_c: float,
                                 center_b: float = 0.0, center_c: float = 0.0) -> float:
    """Magnitude of the Gaussian-Gaussian overlap integral.

    (2 s_b s_c / (s_b^2 + s_c^2))^(1/2) exp(-(w_b - w_c)^2 / (2 (s_b^2 +
    s_c^2))); the zero-delay form used by the entanglement-swap closed
    forms.  Here sigma is the standard deviation of the *amplitude*
    e^{-x^2/(2 sigma^2)}, i.e. sqrt(2) times a :class:`SpectralProfile`
    width; the width-ratio prefactor is convention-free but the detuning
    suppression is not, so mixing the two conventions shifts detuned
    values.
    """
    if sigma_b <= 0 or sigma_c <= 0:
        raise ValueError("widths must be positive")
    s2 = sigma_b**2 + sigma_c**2
    return math.sqrt(2.0 * sigma_b * sigma_c / s2) * math.exp(
        -((center_b - center_c) ** 2) / (2.0 * s2))


# ---------------------------------------------------------------------------
# widths and normalization
# ---------------------------------------------------------------------------

# Unit-width FWHMs of |phi|^2: 4 u for sinc (T = 1), sin u / u = 1/sqrt(2),
# and 2 asinh 1 for sech (sigma = 1).  Each literal is 2.5-2.8 ulp below the
# exact value; outputs carry these bits, so the exact ones would move them.
_SINC_FWHM = 5.566229513006038  # 0x1.643d1ab619053p+2
_SECH_FWHM = 1.7627471740390854  # 0x1.c34366179d424p+0


def fwhm(profile: SpectralProfile) -> float:
    """Full width at half maximum of the spectral intensity, rad/ps.

    Gaussian: 2 sqrt(2 ln 2) sigma.  Lorentzian: the linewidth parameter
    gamma itself (the conventional resonance width; the literal
    half-maximum width of this family's |phi|^2 is sqrt(sqrt(2)-1) gamma).
    Sinc and sech: the unit-width FWHM (``_SINC_FWHM``, ``_SECH_FWHM``),
    scaled by the effective width.
    """
    w = profile.effective_width
    if profile.shape is Shape.GAUSSIAN:
        return 2.0 * math.sqrt(2.0 * math.log(2.0)) * w
    if profile.shape is Shape.LORENTZIAN:
        return w
    if profile.shape is Shape.SINC:
        return _SINC_FWHM / w
    return _SECH_FWHM * w


def _width_from_fwhm(shape: Shape, target):
    if not _positive(target):
        raise ValueError("FWHM must be positive")
    if shape is Shape.GAUSSIAN:
        return target / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    if shape is Shape.LORENTZIAN:
        return target
    if shape is Shape.SINC:
        with np.errstate(over="ignore"):
            duration = _SINC_FWHM / target
        if not np.isfinite(duration).all():
            raise ValueError(f"a sinc FWHM of {np.min(target):g} rad/ps gives a "
                             "duration T past the float range")
        return duration
    return target / _SECH_FWHM
