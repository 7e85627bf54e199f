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
  a fixed weighted sum of overlaps of the two kinds above (24 x 24 terms
  for sech with sech).

A profile with numpy array fields is a *profile family*: :func:`overlaps`
evaluates every pairing as one array formula over it (a dip scan, a
contour row, a width-search round), and :func:`overlap` is its 0-d case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache

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
    """|overlap(a, b_i)| for one photon ``a`` and each photon b_i of the
    profile family ``b``, in its broadcast shape, as one array formula.

    Each element equals :func:`overlap` on its photon, bit for bit.  The
    first point in C order that fails the Cauchy-Schwarz check raises an
    :class:`IntegrationError` naming it.
    """
    return _checked_overlaps(a, b)[1]


def _checked_overlaps(a: SpectralProfile, b: SpectralProfile) -> tuple:
    """(complex overlaps, cos(Theta) = |value| clamped to 1 within the
    Cauchy-Schwarz slack).  The kernels run without numpy's warnings: a
    point that overflows ends non-finite and fails the check."""
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
    """The one pairing dispatch: the complex overlap of ``a`` with each of
    ``b``'s photons, in ``b``'s broadcast shape."""
    ca, cb = _columns(a, 0), _columns(b, 1)
    if ca[0] is Shape.GAUSSIAN and cb[0] is Shape.GAUSSIAN:
        values = _gaussian_overlaps(ca, cb)
    elif ca[0] is Shape.GAUSSIAN:
        values = _gaussian_exp_overlaps(ca, cb)
    elif cb[0] is Shape.GAUSSIAN:
        values = np.conj(_gaussian_exp_overlaps(cb, ca))
    else:
        values = _exponential_overlaps(ca, cb)
    # a sech's terms, summed one after another for each point, so that a
    # point's value does not depend on the other points
    terms, points = values.shape[0] * values.shape[1], values.shape[2]
    total = np.add.accumulate(values.reshape(terms, points), axis=0)[-1]
    return total.reshape(np.broadcast(b.width, b.broadening, b.delay, b.center).shape)


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
    # (beta + i dt)^2 / (4 alpha) - alpha d^2 / 4 + i wbar dt, in real arithmetic
    exponent_re = (beta * beta - dt * dt) / (4.0 * alpha) - 0.25 * alpha * d * d
    exponent_im = (beta * dt + dt * beta) / (4.0 * alpha) + wbar * dt
    norm = (np.float_power(1.0 / (sa * math.sqrt(TWO_PI)), 0.5)
            * np.float_power(1.0 / (sb * math.sqrt(TWO_PI)), 0.5))
    return norm * np.sqrt(math.pi / alpha) * np.exp(exponent_re + 1j * exponent_im)


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


def _columns(p: SpectralProfile, axis: int) -> tuple:
    """(kind, width, norm, delay, centre): the kernels' view of ``p``.

    ``kind`` is the envelope family the kernels see, and the four columns
    hold the photons' values, in C order of the fields' broadcast shape,
    along the last of three axes.  A sech photon is its series of
    Lorentzian-type terms (kind Lorentzian), laid along ``axis``: 0 for
    photon a and 1 for the photons b, so that the kernels pair every term
    of a with every term of each b.
    """
    w = p.effective_width
    cols = np.empty((3,) + np.broadcast(w, p.delay, p.center).shape)
    cols[0], cols[1], cols[2] = w, p.delay, p.center
    width, delay, center = cols.reshape(3, 1, 1, -1)
    norm = _envelope_norm(p.shape, width)
    if p.shape is not Shape.SECH:
        return p.shape, width, norm, delay, center
    terms = (-1,) + (1,) * (2 - axis)
    return (Shape.LORENTZIAN, width * _SECH_WIDTHS.reshape(terms),
            norm * _SECH_WEIGHTS.reshape(terms), delay, center)


def _exponential_overlaps(a: tuple, b: tuple) -> np.ndarray:
    """Exact overlaps of sinc or Lorentzian photons, ``a``'s columns
    against ``b``'s (see :func:`_columns`), broadcast.

    On its support each of these envelopes is N e^{-g |t - tau|}: g = 0
    on the sinc's rectangle |t - tau| <= T/2, g = gamma/2 everywhere for
    the Lorentzian.  Between the support ends and the two kinks (at most
    three segments) the integrand G_a G_b e^{i(phase - dw t)} is therefore
    F0 e^{kappa s}, s the distance from an anchoring end where it equals
    F0.  Each segment is anchored at the end from which it decays, so
    Re kappa <= 0 and it integrates to F0 L expm1(kappa L) / (kappa L)
    (F0 L once |kappa L| is below the smallest normal float), or -F0 / kappa
    when it runs to infinity.  Disjoint supports give exactly 0.  Times are
    taken from tau_a, so the large phase omega_b (tau_b - tau_a) multiplies
    the sum once.
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
    total = 0.0
    for x0, x1 in zip(ends, ends[1:]):
        # each envelope rises towards its kink and falls away from it
        kappa = (np.where(x1 <= 0.0, ga, -ga) + np.where(x1 <= dt, gb, -gb)
                 - 1j * dw)
        forward = kappa.real <= 0.0
        anchor = np.where(forward, x0, x1)
        kappa = np.where(forward, kappa, -kappa)
        f0 = np.exp(-ga * np.abs(anchor) - gb * np.abs(anchor - dt) - 1j * dw * anchor)
        length = x1 - x0
        infinite = np.isinf(length)
        length = np.where(infinite, 0.0, length)
        z = kappa * length
        # expm1(z) / z is 1 below the smallest normal float, where numpy's
        # complex division gives NaN, and on the infinite segments (length
        # 0 here), which skip the costly complex expm1
        big = np.abs(z) >= _TINY
        ratio = np.divide(np.expm1(z, out=np.zeros_like(z), where=big), z,
                          out=np.ones_like(z), where=big)
        finite = length * ratio
        tail = np.divide(-1.0, kappa, out=np.zeros_like(kappa), where=infinite)
        segment = np.where(infinite, tail, finite)
        total = total + f0 * segment
    # named factors, not in place: numpy reuses a large temporary right factor
    # in place, swapping the factors of a complex product, which rounds a
    # point differently in a longer family, as does an in-place product
    phase = norm_a * norm_b * np.exp(1j * center_b * dt)
    total = total * phase
    return np.where(lo < hi, total, 0.0)


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
      A = e^{-sigma^2 dt^2 - i dw dt} w(iu), u = sigma dt + gamma / 4 sigma + i x.

    erfc(u) = e^{-u^2} w(iu), and each argument in the lower half plane is
    reflected, w(z) = 2 e^{-z^2} - w(-z), with the prefactor's exponent
    folded into e^{-z^2}, so every exponential stays at or below 1.  All
    arguments of the call go through one :func:`_faddeeva` evaluation.
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
    return (norm_g * norm_e * math.sqrt(math.pi) / (2.0 * sigma)
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
    Z = (L + iz) / (L - iz), |Z| <= 1.  p is evaluated for every argument
    at once as a power matrix times the coefficients.
    """
    iz = 1j * z.ravel()
    d = _W_L - iz
    powers = np.empty((d.size, _W_TERMS), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = ((_W_L + iz) / d)[:, None]
    poly = np.cumprod(powers, axis=1) @ _weideman_coefficients()
    return (2.0 * poly / (d * d) + 1.0 / (math.sqrt(math.pi) * d)).reshape(z.shape)


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

@lru_cache(maxsize=None)
def _unit_fwhm(shape: Shape) -> float:
    """FWHM of |phi|^2 for a unit-width profile, solved by bisection.

    Gaussian and Lorentzian have analytic conventions and are not routed
    here.  For sinc (width T=1) and sech (sigma=1) the half-maximum point
    of the intensity is bracketed and bisected to 1e-14.
    """
    if shape is Shape.SINC:
        def g(x):  # |phi|^2 ratio to peak for T=1
            return np.sinc(x / TWO_PI) ** 2 - 0.5
        lo_x, hi_x = 1e-9, math.pi  # first zero of sinc(Tx/2) at x=2 pi/T
    elif shape is Shape.SECH:
        def g(x):
            return 1.0 / np.cosh(x) ** 2 - 0.5
        lo_x, hi_x = 1e-9, 5.0
    else:
        raise ValueError("analytic shapes do not use bisection")
    if not (g(lo_x) > 0 > g(hi_x)):
        raise RuntimeError("FWHM bracketing failed; degenerate parameters")
    for _ in range(200):
        mid = 0.5 * (lo_x + hi_x)
        if g(mid) > 0:
            lo_x = mid
        else:
            hi_x = mid
        if hi_x - lo_x < 1e-15 * hi_x:
            break
    return lo_x + hi_x  # 2 * midpoint: full width


def fwhm(profile: SpectralProfile) -> float:
    """Full width at half maximum of the spectral intensity, rad/ps.

    Gaussian: 2 sqrt(2 ln 2) sigma.  Lorentzian: the linewidth parameter
    gamma itself (the conventional resonance width; the literal
    half-maximum width of this family's |phi|^2 is sqrt(sqrt(2)-1) gamma).
    Sinc and sech: bisection on the unit-width intensity, scaled exactly
    by the effective width.
    """
    w = profile.effective_width
    if profile.shape is Shape.GAUSSIAN:
        return 2.0 * math.sqrt(2.0 * math.log(2.0)) * w
    if profile.shape is Shape.LORENTZIAN:
        return w
    if profile.shape is Shape.SINC:
        return _unit_fwhm(Shape.SINC) / w
    return _unit_fwhm(Shape.SECH) * w


def _width_from_fwhm(shape: Shape, target):
    if not _positive(target):
        raise ValueError("FWHM must be positive")
    if shape is Shape.GAUSSIAN:
        return target / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    if shape is Shape.LORENTZIAN:
        return target
    if shape is Shape.SINC:
        return _unit_fwhm(Shape.SINC) / target
    return target / _unit_fwhm(Shape.SECH)
