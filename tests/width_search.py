"""The max-visibility table's width search: the test-only derivation of the
FWHM ratios that `sweeps` commits as constants."""

import math

import numpy as np

from homsim import spectral as spc

WIDTH_SPAN = 64.0  # width search bracket: photon A's FWHM / and * this
WIDTH_ROUNDS = 9  # each round narrows the bracket 16-fold, to 1e-10 in log FWHM
WIDTH_POINTS = 33


def max_overlap_width(profile_a: spc.SpectralProfile,
                      shape_b: spc.Shape) -> tuple[float, float]:
    """(best FWHM for photon B, cos Theta there) at matched centers.

    Each round of the search on log(FWHM_B) around photon A's width is one
    :func:`spectral.overlaps` call on a log-spaced grid, and narrows the
    bracket to the best point's neighbours.  Matched centers are optimal
    for all four families (their time envelopes are non-negative, so any
    detuning only dephases the product).
    """
    target = spc.fwhm(profile_a)
    lo, hi = math.log(target / WIDTH_SPAN), math.log(target * WIDTH_SPAN)
    for _ in range(WIDTH_ROUNDS):
        log_w = np.linspace(lo, hi, WIDTH_POINTS)
        widths = np.exp(log_w)
        cos = spc.overlaps(profile_a, spc.SpectralProfile.from_fwhm(
            shape_b, profile_a.center, widths))
        k = int(np.argmax(cos))
        lo, hi = log_w[max(k - 1, 0)], log_w[min(k + 1, WIDTH_POINTS - 1)]
    best = spc.SpectralProfile.from_fwhm(shape_b, profile_a.center, float(widths[k]))
    return float(widths[k]), spc.overlap(profile_a, best).magnitude


def unit_optimum(shape_a: spc.Shape, shape_b: spc.Shape) -> tuple[float, float]:
    """(FWHM ratio B / A, cos Theta) of the search against photon A of unit
    FWHM at center 1 rad/ps, the reference photon of the table's constants."""
    return max_overlap_width(spc.SpectralProfile.from_fwhm(shape_a, 1.0, 1.0), shape_b)
