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
exponentially decaying integrands.  One dispatch, behind :func:`overlap`
and :func:`overlaps` alike, sorts the 16 ordered pairings into four kinds;
the first three, 9 pairings, are exact closed forms:

* Gaussian with Gaussian: a closed form in the frequency domain;
* sinc or Lorentzian with sinc or Lorentzian: the time-domain product is
  piecewise exponential, so the integral is elementary and exact (at most
  three segments, vectorised over a dip scan or a contour row);
* Gaussian with sinc or Lorentzian, in either order: a Gaussian times a
  rectangle or a two-sided exponential, a few values of the Faddeeva
  function (Weideman's rational form in numpy, one evaluation per call,
  vectorised likewise);
* the 7 pairings with a sech: adaptive quadrature of the time-domain
  product to the requested 1e-10.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .quadrature import IntegrationError, integrate, integrate_family

__all__ = [
    "Shape", "SpectralProfile", "OverlapResult",
    "amplitude", "time_envelope", "overlap", "overlaps", "overlap_curve",
    "gaussian_overlap_closed_form", "fwhm", "norm_squared",
    "wavelength_width_to_frequency",
    "SPEED_OF_LIGHT_NM_PS",
]

SPEED_OF_LIGHT_NM_PS = 299792.458  # nm / ps

TWO_PI = 2.0 * math.pi
_REL_TOL = 1e-10  # relative accuracy of every overlap and norm quadrature
# overlaps are bounded by 1, so 1e-12 absolute keeps cos(Theta) two orders
# under the relative target even when the integral is tiny
_ABS_TOL = 1e-12
_TAIL_EPS = 1e-16  # tail mass of G(t)^2 left outside the time support


class Shape(enum.Enum):
    GAUSSIAN = "gaussian"
    SINC = "sinc"
    LORENTZIAN = "lorentzian"
    SECH = "sech"


# families whose time envelopes are piecewise exponential (closed-form pairs)
_EXPONENTIAL = (Shape.SINC, Shape.LORENTZIAN)


@dataclass(frozen=True)
class SpectralProfile:
    """A normalized single-photon spectral amplitude.

    Attributes
    ----------
    shape : Shape
        Envelope family.
    center : float
        Central angular frequency omega_0, rad/ps.
    width : float
        Shape parameter: sigma (rad/ps) for Gaussian and sech, the photon
        duration T (ps) for sinc, the conventional linewidth gamma (rad/ps)
        for Lorentzian.
    delay : float
        Arrival time tau in ps; multiplies the amplitude by e^{i omega tau}
        and leaves |phi| unchanged.
    broadening : float
        Dimensionless factor xi > 0 scaling the spectral width (for the
        sinc this divides the duration T, so the spectrum broadens for
        xi > 1 for every family).
    """

    shape: Shape
    center: float
    width: float
    delay: float = 0.0
    broadening: float = 1.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.broadening <= 0:
            raise ValueError("broadening must be positive")
        if self.center <= 0:
            raise ValueError("center frequency must be positive")

    @property
    def effective_width(self) -> float:
        """Width parameter after broadening (T shrinks, all others grow)."""
        if self.shape is Shape.SINC:
            return self.width / self.broadening
        return self.width * self.broadening

    def broadened(self, xi: float) -> "SpectralProfile":
        """Profile with an additional broadening factor applied."""
        return replace(self, broadening=self.broadening * xi)

    def delayed(self, tau: float) -> "SpectralProfile":
        """Profile with an additional arrival delay tau (ps)."""
        return replace(self, delay=self.delay + tau)

    @staticmethod
    def from_fwhm(shape: Shape | str, center: float, fwhm: float,
                  delay_ps: float = 0.0, broadening: float = 1.0) -> "SpectralProfile":
        """Build from a target FWHM of |phi|^2 in rad/ps (gamma for Lorentzian)."""
        shape = Shape(shape)
        return SpectralProfile(shape, center, _width_from_fwhm(shape, fwhm),
                               delay_ps, broadening)


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


def time_envelope(profile: SpectralProfile, t) -> np.ndarray | float:
    """Real time-domain envelope G(t): phi's inverse Fourier transform.

    With psi(t) = (1/sqrt(2 pi)) int phi(omega) e^{-i omega t} d omega the
    full wavepacket is psi(t) = e^{-i omega_0 (t - tau)} G(t - tau); only
    the real envelope G is returned here.  Each family's G is closed form
    and square-normalized, which is what makes time-domain overlap
    evaluation exact and fast (the sinc's G is a rectangle).
    """
    w = profile.effective_width
    return _envelope(profile.shape, w, _envelope_norm(profile.shape, w),
                     np.asarray(t, dtype=float))


def _envelope_norm(shape: Shape, w: float) -> float:
    """Peak-normalization prefactor of G(t) for effective width ``w``.

    Python scalar arithmetic, one call per profile: numpy's vectorised
    power and sqrt may round differently in the last place.
    """
    if shape is Shape.GAUSSIAN:
        return (2.0 * w * w / math.pi) ** 0.25
    if shape is Shape.SINC:
        return 1.0 / math.sqrt(w)
    if shape is Shape.LORENTZIAN:
        return math.sqrt(0.5 * w)
    if shape is Shape.SECH:
        return 0.5 * math.sqrt(math.pi * w)
    raise ValueError(f"unknown shape {shape}")  # pragma: no cover


def _envelope(shape: Shape, w, norm, t: np.ndarray) -> np.ndarray:
    """G(t) of the family ``shape``: the four envelope formulas.

    ``w`` and ``norm`` (from :func:`_envelope_norm`) are floats for one
    profile or columns that broadcast one profile's values over its
    quadrature nodes; either way each node sees the same operations.
    """
    if shape is Shape.GAUSSIAN:
        return norm * np.exp(-(w * t) ** 2)
    if shape is Shape.SINC:
        return np.where(np.abs(t) <= 0.5 * w, norm, 0.0)
    if shape is Shape.LORENTZIAN:
        return norm * np.exp(-0.5 * w * np.abs(t))
    if shape is Shape.SECH:
        return norm / np.cosh(np.clip(0.5 * math.pi * w * t, -700, 700))
    raise ValueError(f"unknown shape {shape}")  # pragma: no cover


def _time_radius(profile: SpectralProfile) -> float:
    """Half-width of the support of G(t)^2 up to tail mass ~_TAIL_EPS."""
    w = profile.effective_width
    if profile.shape is Shape.GAUSSIAN:
        return math.sqrt(-math.log(_TAIL_EPS) / 2.0) / w
    if profile.shape is Shape.SINC:
        return 0.5 * w
    if profile.shape is Shape.LORENTZIAN:
        return -math.log(_TAIL_EPS) / w
    if profile.shape is Shape.SECH:
        return -math.log(_TAIL_EPS / 4.0) / (math.pi * w)
    raise ValueError(f"unknown shape {profile.shape}")  # pragma: no cover


# ---------------------------------------------------------------------------
# overlap
# ---------------------------------------------------------------------------

def overlap(a: SpectralProfile, b: SpectralProfile) -> OverlapResult:
    """Overlap integral int phi_a*(omega) phi_b(omega) d omega.

    The one-member case of :func:`overlaps`, whose pairing dispatch it
    shares, with the complex value kept: the magnitude is cos(Theta) in
    [0, 1] and ``theta`` its angle.
    """
    (value,) = _overlap_values(a, [b])
    mag = _magnitude(value)
    return OverlapResult(value=value, magnitude=mag, theta=math.acos(mag))


def overlaps(a: SpectralProfile, bs) -> np.ndarray:
    """|overlap(a, b)| for each profile b of ``bs``, all of one shape.

    Equal, bit for bit, to calling :func:`overlap` on each b.  A closed
    form runs over ``bs`` b by b for Gaussian pairs and as one array
    formula otherwise; a quadrature pairing runs as one lockstep family
    (:func:`~homsim.quadrature.integrate_family`) that pays the per-call
    overhead once per round.  The first b in order whose overlap fails, in
    its quadrature or the Cauchy-Schwarz check, raises its own
    :class:`IntegrationError`, as a loop over :func:`overlap` would.
    """
    return np.array([_magnitude(value) for value in _overlap_values(a, list(bs))])


def _overlap_values(a: SpectralProfile,
                    bs: list[SpectralProfile]) -> list[complex | IntegrationError]:
    """The one pairing dispatch: the complex overlap of ``a`` with each b,
    in order, up to the first b whose quadrature fails; the list then ends
    with that b's :class:`IntegrationError`."""
    if not bs:
        return []
    shape = bs[0].shape
    if any(b.shape is not shape for b in bs):
        raise ValueError("overlaps() needs profiles of one shape")
    if a.shape is Shape.GAUSSIAN and shape is Shape.GAUSSIAN:
        return [_gaussian_pair_overlap(a, b) for b in bs]
    if a.shape in _EXPONENTIAL and shape in _EXPONENTIAL:
        return _exponential_overlaps(a, bs).tolist()
    if Shape.SECH not in (a.shape, shape):  # a Gaussian with a sinc or Lorentzian
        return _gaussian_exp_overlaps(a, bs).tolist()
    values: list = [0.0 + 0.0j] * len(bs)
    windows = [_overlap_window(a, b) for b in bs]
    meet = [k for k, win in enumerate(windows) if win is not None]
    if meet:
        found = integrate_family(
            _overlap_integrand(a, [bs[k] for k in meet]),
            [_seed_points(a, bs[k], *windows[k]) for k in meet],
            rel_tol=_REL_TOL, abs_tol=_ABS_TOL)
        for k, value in zip(meet, found):
            values[k] = value
        if isinstance(found[-1], IntegrationError):
            del values[meet[len(found) - 1] + 1:]
    return values


def _magnitude(value) -> float:
    """cos(Theta) = |value|, clamped to 1 within the Cauchy-Schwarz slack.

    ``value`` may be the IntegrationError a family member ran into; it is
    raised here, in the member's order.
    """
    if isinstance(value, IntegrationError):
        raise value
    mag = abs(value)
    if mag > 1.0 + 1e-9:
        raise IntegrationError("overlap magnitude exceeds Cauchy-Schwarz bound",
                               mag - 1.0)
    return min(mag, 1.0)


def overlap_curve(a: SpectralProfile, b: SpectralProfile, taus) -> np.ndarray:
    """cos(Theta(tau)) = |overlap(a, b.delayed(tau))| for each delay tau.

    The one owner of the delay family behind every HOM dip: cos(Theta)
    depends only on the two spectra and tau, so a scan computes it once,
    as one :func:`overlaps` call, and shares it across photon numbers and
    polarizations.
    """
    return overlaps(a, [b.delayed(tau) for tau in taus])


def _gaussian_pair_overlap(a: SpectralProfile, b: SpectralProfile) -> complex:
    """Closed-form Gaussian-Gaussian overlap including delays and detuning.

    Written about the mean center (u = omega - (c_a + c_b)/2) so the
    exponent carries only the detuning d and delay difference dt; the
    naive completion of the square about omega = 0 loses ~6 digits to
    cancellation at telecom center frequencies.
    """
    sa, sb = a.effective_width, b.effective_width
    d = b.center - a.center
    dt = b.delay - a.delay
    wbar = 0.5 * (a.center + b.center)
    # phi_a*(u) phi_b(u) = N exp(-(u+d/2)^2/(4sa^2) - (u-d/2)^2/(4sb^2) + i(u+wbar)dt)
    alpha = 0.25 / (sa * sa) + 0.25 / (sb * sb)
    beta = complex(0.25 * d * (1.0 / (sb * sb) - 1.0 / (sa * sa)), dt)
    norm = (1.0 / (sa * math.sqrt(TWO_PI))) ** 0.5 * (1.0 / (sb * math.sqrt(TWO_PI))) ** 0.5
    val = (norm * math.sqrt(math.pi / alpha)
           * np.exp(beta * beta / (4.0 * alpha) - 0.25 * alpha * d * d + 1j * wbar * dt))
    return complex(val)


def _exponential_overlaps(a: SpectralProfile, bs: list[SpectralProfile]) -> np.ndarray:
    """Exact overlaps of ``a`` with each b of ``bs``, sinc or Lorentzian.

    On its support each of these envelopes is N e^{-g |t - tau|}: g = 0
    on the sinc's rectangle |t - tau| <= T/2, g = gamma/2 everywhere for
    the Lorentzian.  Between the support ends and the two kinks (at most
    three segments) the integrand G_a G_b e^{i(phase - dw t)} is therefore
    F0 e^{kappa s}, s the distance from an anchoring end where it equals
    F0.  Each segment is anchored at the end from which it decays, so
    Re kappa <= 0 and it integrates to F0 L expm1(kappa L) / (kappa L) (F0 L
    at kappa L = 0), or -F0 / kappa when it runs to infinity.  Disjoint
    supports give exactly 0.  Times are taken from tau_a, so the large
    phase omega_b (tau_b - tau_a) multiplies the sum once.  Vectorised over
    ``bs`` (one shape); each b's columns are gathered as in
    :func:`_overlap_integrand`.
    """
    wa, norm_a = a.effective_width, _envelope_norm(a.shape, a.effective_width)
    wb, norm_b, dt, dw, center_b = np.array(
        [(b.effective_width, _envelope_norm(b.shape, b.effective_width),
          b.delay - a.delay, b.center - a.center, b.center) for b in bs]).T

    def support(shape, w, arrival):
        """Support ends and decay rate g of an envelope arriving at ``arrival``."""
        if shape is Shape.SINC:
            return arrival - 0.5 * w, arrival + 0.5 * w, 0.0 * w
        return arrival - np.inf, arrival + np.inf, 0.5 * w

    lo_a, hi_a, ga = support(a.shape, wa, 0.0)
    lo_b, hi_b, gb = support(bs[0].shape, wb, dt)
    lo, hi = np.maximum(lo_a, lo_b), np.minimum(hi_a, hi_b)
    kink_a, kink_b = np.clip(0.0, lo, hi), np.clip(dt, lo, hi)
    ends = [lo, np.minimum(kink_a, kink_b), np.maximum(kink_a, kink_b), hi]
    total = np.zeros(len(bs), dtype=complex)
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
        finite = length * np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0.0)
        tail = np.divide(-1.0, kappa, out=np.zeros_like(kappa), where=infinite)
        total += f0 * np.where(infinite, tail, finite)
    # not in place: numpy's in-place complex product of one element rounds
    # differently from its product over a longer array
    total = total * (norm_a * norm_b * np.exp(1j * center_b * dt))
    return np.where(lo < hi, total, 0.0)


def _gaussian_exp_overlaps(a: SpectralProfile, bs: list[SpectralProfile]) -> np.ndarray:
    """Exact overlaps of a Gaussian with sinc or Lorentzian photons, either order.

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
    With the Gaussian second the value is the complex conjugate.
    """
    gaussian_first = a.shape is Shape.GAUSSIAN
    shape = bs[0].shape if gaussian_first else a.shape
    pairs = ((a, b) if gaussian_first else (b, a) for b in bs)
    sigma, norm_g, we, norm_e, dt, dw, center_e = np.array(
        [(g.effective_width, _envelope_norm(Shape.GAUSSIAN, g.effective_width),
          e.effective_width, _envelope_norm(shape, e.effective_width),
          e.delay - g.delay, e.center - g.center, e.center) for g, e in pairs]).T
    x, q = dw / (2.0 * sigma), sigma * dt
    if shape is Shape.SINC:
        r = q + np.array([[-0.5], [0.5]]) * (sigma * we)  # sigma s at both edges
        flip = r < 0.0
        sign = np.where(flip, -1.0, 1.0)
        # e^{-x^2} erfc(u) = e^{-r^2 - 2irx} w(iu) for r >= 0, and 2 e^{-x^2}
        # minus the same with w(-iu) for r < 0
        f = sign * np.exp(-r * (r + 2j * x)) * _faddeeva(sign * 1j * (r + 1j * x))
        total = 2.0 * np.exp(-x * x) * (flip[0] & ~flip[1]) + f[0] - f[1]
    else:
        h = 0.25 * we / sigma
        p = np.array([[1.0], [-1.0]]) * (q + 1j * x)  # A(dt, dw), A(-dt, -dw)
        z = 1j * (h + p)
        flip = z.imag < 0.0
        sign = np.where(flip, -1.0, 1.0)
        # a reflected term's e^{-q^2 - 2iqx - z^2}, written with its large
        # parts cancelled; -inf leaves the other terms at 0
        folded = np.where(flip, 2.0 * h * p + h * h - x * x, -np.inf)
        terms = (sign * np.exp(-q * (q + 2j * x)) * _faddeeva(sign * z)
                 + 2.0 * np.exp(folded))
        total = terms[0] + terms[1]
    value = (norm_g * norm_e * math.sqrt(math.pi) / (2.0 * sigma)
             * np.exp(1j * center_e * dt) * total)
    return value if gaussian_first else np.conj(value)


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


def _overlap_window(a: SpectralProfile, b: SpectralProfile) -> tuple[float, float] | None:
    """Intersection (lo, hi) of the two envelope supports; None if empty."""
    ra, rb = _time_radius(a), _time_radius(b)
    lo = max(a.delay - ra, b.delay - rb)
    hi = min(a.delay + ra, b.delay + rb)
    return (lo, hi) if lo < hi else None


def _overlap_integrand(a: SpectralProfile, bs: list[SpectralProfile]):
    """Family integrand of the overlaps of ``a`` with each b of ``bs``.

    f(t, k) = G_a(t - tau_a) G_b(t - tau_b) e^{i (phase - dw t)} for
    b = bs[k], all b of one shape.  Each b's parameters are computed with
    Python scalars, as for a single pair, and gathered per panel by the
    member column ``k`` (an int for a single pair).
    """
    shape = bs[0].shape
    wa = a.effective_width
    norm_a = _envelope_norm(a.shape, wa)
    wb, norm_b, delay_b, dw, static_phase = np.array(
        [(b.effective_width, _envelope_norm(shape, b.effective_width), b.delay,
          b.center - a.center, b.center * b.delay - a.center * a.delay)
         for b in bs]).T

    def f(t: np.ndarray, k) -> np.ndarray:
        ga = _envelope(a.shape, wa, norm_a, t - a.delay)
        gb = _envelope(shape, wb[k], norm_b[k], t - delay_b[k])
        return ga * gb * np.exp(1j * (static_phase[k] - dw[k] * t))

    return f


def _seed_points(a: SpectralProfile, b: SpectralProfile,
                 lo: float, hi: float) -> np.ndarray:
    """Initial panel boundaries: kinks, envelope scales, beat period.

    In no particular order and possibly repeated; the quadrature sorts
    them and drops repeats.
    """
    dw = b.center - a.center
    pts = [lo, hi]
    for p in (a, b):
        # envelope scale ladder about each arrival time
        scale = 1.0 / p.effective_width if p.shape is not Shape.SINC \
            else 0.25 * p.effective_width
        for k in (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0):
            x = p.delay + k * scale
            if lo < x < hi:
                pts.append(x)
        if p.shape in (Shape.LORENTZIAN, Shape.SECH):
            if lo < p.delay < hi:
                pts.append(p.delay)  # kink / peak
    if dw != 0.0:
        period = TWO_PI / abs(dw)
        n = int((hi - lo) / period) + 1
        if n > 2:
            m = min(n, 2000)
            step = (hi - lo) / m
            # the same bits as lo + i * step in scalar code, for i < m
            return np.concatenate([pts, lo + np.arange(1, m) * step])
    return np.array(pts)


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


def _width_from_fwhm(shape: Shape, target: float) -> float:
    if target <= 0:
        raise ValueError("FWHM must be positive")
    if shape is Shape.GAUSSIAN:
        return target / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    if shape is Shape.LORENTZIAN:
        return target
    if shape is Shape.SINC:
        return _unit_fwhm(Shape.SINC) / target
    return target / _unit_fwhm(Shape.SECH)


def norm_squared(profile: SpectralProfile) -> float:
    """int |phi|^2 d omega, evaluated in the time domain (== int G^2 dt)."""
    r = _time_radius(profile)

    def f(t: np.ndarray) -> np.ndarray:
        g = time_envelope(profile, t)
        return (g * g).astype(complex)

    scale = r / 8.0
    pts = sorted({-r, -4 * scale, -2 * scale, -scale, 0.0, scale, 2 * scale,
                  4 * scale, r})
    return float(integrate(f, pts, rel_tol=_REL_TOL).real)
