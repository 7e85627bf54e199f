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
exponentially decaying integrands that the adaptive quadrature resolves to
the requested 1e-10.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .quadrature import IntegrationError, integrate

__all__ = [
    "Shape", "SpectralProfile", "OverlapResult",
    "amplitude", "time_envelope", "overlap", "overlap_curve",
    "gaussian_overlap_closed_form", "fwhm", "norm_squared",
    "wavelength_width_to_frequency",
    "SPEED_OF_LIGHT_NM_PS",
]

SPEED_OF_LIGHT_NM_PS = 299792.458  # nm / ps

TWO_PI = 2.0 * math.pi
_REL_TOL = 1e-10  # relative accuracy of every overlap and norm quadrature
_TAIL_EPS = 1e-16  # tail mass of G(t)^2 left outside the time support


class Shape(enum.Enum):
    GAUSSIAN = "gaussian"
    SINC = "sinc"
    LORENTZIAN = "lorentzian"
    SECH = "sech"


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
    t = np.asarray(t, dtype=float)
    if profile.shape is Shape.GAUSSIAN:
        return (2.0 * w * w / math.pi) ** 0.25 * np.exp(-(w * t) ** 2)
    if profile.shape is Shape.SINC:
        return np.where(np.abs(t) <= 0.5 * w, 1.0 / math.sqrt(w), 0.0)
    if profile.shape is Shape.LORENTZIAN:
        return math.sqrt(0.5 * w) * np.exp(-0.5 * w * np.abs(t))
    if profile.shape is Shape.SECH:
        return 0.5 * math.sqrt(math.pi * w) / np.cosh(np.clip(0.5 * math.pi * w * t, -700, 700))
    raise ValueError(f"unknown shape {profile.shape}")  # pragma: no cover


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

    Identical Gaussians-with-Gaussians use the closed form; all other
    pairings integrate the product of time envelopes against the beat
    oscillation e^{-i (omega_b - omega_a) t}, over the intersection of the
    two envelope supports.  The magnitude is cos(Theta) in [0, 1].
    """
    if a.shape is Shape.GAUSSIAN and b.shape is Shape.GAUSSIAN:
        value = _gaussian_pair_overlap(a, b)
    else:
        value = _quadrature_overlap(a, b)
    mag = abs(value)
    if mag > 1.0 + 1e-9:
        raise IntegrationError("overlap magnitude exceeds Cauchy-Schwarz bound",
                               mag - 1.0)
    mag = min(mag, 1.0)
    return OverlapResult(value=value, magnitude=mag, theta=math.acos(mag))


def overlap_curve(a: SpectralProfile, b: SpectralProfile, taus) -> np.ndarray:
    """cos(Theta(tau)) = |overlap(a, b.delayed(tau))| for each delay tau.

    The one owner of the delay family behind every HOM dip: cos(Theta)
    depends only on the two spectra and tau, so a scan computes it once
    and shares it across photon numbers and polarizations.
    """
    return np.array([overlap(a, b.delayed(tau)).magnitude for tau in taus])


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


def _quadrature_overlap(a: SpectralProfile, b: SpectralProfile) -> complex:
    ra, rb = _time_radius(a), _time_radius(b)
    lo = max(a.delay - ra, b.delay - rb)
    hi = min(a.delay + ra, b.delay + rb)
    if lo >= hi:
        return 0.0 + 0.0j
    dw = b.center - a.center
    static_phase = b.center * b.delay - a.center * a.delay

    def f(t: np.ndarray) -> np.ndarray:
        ga = time_envelope(a, t - a.delay)
        gb = time_envelope(b, t - b.delay)
        return ga * gb * np.exp(1j * (static_phase - dw * t))

    pts = _seed_points(a, b, lo, hi, dw)
    # overlaps are bounded by 1, so 1e-12 absolute keeps cos(Theta) two
    # orders under the relative target even when the integral is tiny
    return integrate(f, pts, rel_tol=_REL_TOL, abs_tol=1e-12)


def _seed_points(a: SpectralProfile, b: SpectralProfile,
                 lo: float, hi: float, dw: float) -> list[float]:
    """Initial panel boundaries: kinks, envelope scales, beat period."""
    pts = {lo, hi}
    for p in (a, b):
        # envelope scale ladder about each arrival time
        scale = 1.0 / p.effective_width if p.shape is not Shape.SINC \
            else 0.25 * p.effective_width
        for k in (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0):
            x = p.delay + k * scale
            if lo < x < hi:
                pts.add(x)
        if p.shape in (Shape.LORENTZIAN, Shape.SECH):
            if lo < p.delay < hi:
                pts.add(p.delay)  # kink / peak
    if dw != 0.0:
        period = TWO_PI / abs(dw)
        n = int((hi - lo) / period) + 1
        if n > 2:
            step = (hi - lo) / min(n, 2000)
            pts.update(lo + i * step for i in range(1, min(n, 2000)))
    return sorted(pts)


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
