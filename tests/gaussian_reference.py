"""The Gaussian overlap closed form: a test-only reference for the Gaussian
kernel, the swap closed forms and the transverse-mode overlaps."""

import math


def gaussian_overlap_closed_form(sigma_b: float, sigma_c: float,
                                 center_b: float = 0.0, center_c: float = 0.0) -> float:
    """Magnitude of the Gaussian-Gaussian overlap integral.

    (2 s_b s_c / (s_b^2 + s_c^2))^(1/2) exp(-(w_b - w_c)^2 / (2 (s_b^2 +
    s_c^2))).  Here sigma is the standard deviation of the *amplitude*
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
