"""The normalized spectral amplitude phi(omega) of each envelope family.

The library works with closed-form overlaps only; the sampled amplitude is
the reference that the overlaps, the FWHM conventions and the sampled JSAs
in these tests are checked against.
"""

import math

import numpy as np

from homsim import spectral as spc


def amplitude(profile: spc.SpectralProfile, omega) -> np.ndarray | complex:
    """Normalized spectral amplitude phi(omega), including the delay phase.

    The modulus squared of each family integrates to one:
    Gaussian (1/sigma sqrt(2 pi))^(1/2) e^{-x^2/4 sigma^2}; sinc
    sqrt(T/2 pi) sinc(T x / 2); Lorentzian sqrt(gamma^3/4 pi)/(x^2 +
    (gamma/2)^2); sech sqrt(1/2 sigma) sech(x/sigma), with x = omega -
    omega_0.
    """
    w = profile.effective_width
    x = np.asarray(omega, dtype=float) - profile.center
    if profile.shape is spc.Shape.GAUSSIAN:
        env = (1.0 / (w * math.sqrt(spc.TWO_PI))) ** 0.5 * np.exp(-(x * x) / (4.0 * w * w))
    elif profile.shape is spc.Shape.SINC:
        env = math.sqrt(w / spc.TWO_PI) * np.sinc(w * x / spc.TWO_PI)
    elif profile.shape is spc.Shape.LORENTZIAN:
        env = math.sqrt(w**3 / (4.0 * math.pi)) / (x * x + 0.25 * w * w)
    elif profile.shape is spc.Shape.SECH:
        env = math.sqrt(0.5 / w) / np.cosh(np.clip(x / w, -700, 700))
    else:  # pragma: no cover
        raise ValueError(f"unknown shape {profile.shape}")
    phase = np.exp(1j * np.asarray(omega, dtype=float) * profile.delay)
    out = env * phase
    return complex(out) if np.isscalar(omega) else out
