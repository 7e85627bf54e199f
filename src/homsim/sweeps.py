"""Grid sweeps behind the command-line front end.

Pure functions producing the max-visibility tables (with the FWHM ratio
at the optimum) and the visibility contours over photon B's spectral
parameters, for Fock and coherent inputs alike.  Everything is
deterministic: fixed grids, fixed golden-section iteration counts, no
randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fock
from . import polarization as pol
from . import spectral as spc

__all__ = [
    "TableEntry", "max_overlap_width", "max_visibility_table",
    "contour_grid", "log_grid",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_WIDTH_SPAN = 64.0  # golden-section bracket: photon A's FWHM / and * this
_GOLDEN_ITERS = 90


def log_grid(center: float, factor: float, n: int) -> np.ndarray:
    """n log-spaced points spanning center/factor .. center*factor."""
    return center * np.exp(np.linspace(-math.log(factor), math.log(factor), n))


@dataclass(frozen=True)
class TableEntry:
    """One pairing's optimum: best visibility and the width ratio there."""

    visibility: dict[tuple[int, int], float]
    cos_theta: float
    fwhm_ratio: float


def max_overlap_width(profile_a: spc.SpectralProfile,
                      shape_b: spc.Shape) -> tuple[float, float]:
    """(best FWHM for photon B, cos Theta there) at matched centers.

    Golden-section search on log(FWHM_B) around photon A's width; matched
    centers are optimal for all four families (their time envelopes are
    non-negative, so any detuning only dephases the product).  Once the
    bracket reaches floating-point resolution the steps revisit widths
    already probed, so each width's overlap is computed once.
    """
    target = spc.fwhm(profile_a)
    probed: dict[spc.SpectralProfile, float] = {}

    def cos_at(log_w: float) -> float:
        prof_b = spc.SpectralProfile.from_fwhm(shape_b, profile_a.center,
                                               math.exp(log_w))
        if prof_b not in probed:
            probed[prof_b] = spc.overlap(profile_a, prof_b).magnitude
        return probed[prof_b]

    lo = math.log(target / _WIDTH_SPAN)
    hi = math.log(target * _WIDTH_SPAN)
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = cos_at(c), cos_at(d)
    for _ in range(_GOLDEN_ITERS):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = cos_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = cos_at(d)
    best = 0.5 * (a + b)
    return math.exp(best), cos_at(best)


def max_visibility_table(center: float, fwhm_a: float,
                         photon_pairs: list[tuple[int, int]]
                         ) -> dict[tuple[spc.Shape, spc.Shape], TableEntry]:
    """Optimal-visibility table over all (shape_B row, shape_A column) pairs.

    Photon A is fixed at (center, fwhm_a); photon B's width is optimized.
    The reported ratio is fwhm(B at optimum) / fwhm(A).  The optimum width
    is photon-number independent, so all requested (m, n) reuse it.
    """
    shapes = list(spc.Shape)
    out: dict[tuple[spc.Shape, spc.Shape], TableEntry] = {}
    app = fock.IDEAL_APPARATUS
    for shape_a in shapes:
        prof_a = spc.SpectralProfile.from_fwhm(shape_a, center, fwhm_a)
        for shape_b in shapes:
            if shape_b is shape_a:
                w, c = fwhm_a, 1.0  # matched profiles are the exact optimum
            else:
                w, c = max_overlap_width(prof_a, shape_b)
            vis = {mn: fock.visibility_from_c(mn[0], mn[1], c, app)
                   for mn in photon_pairs}
            out[(shape_b, shape_a)] = TableEntry(vis, c, w / fwhm_a)
    return out


def contour_grid(visibility_at: Callable[[float], float],
                 profile_a: spc.SpectralProfile, shape_b: spc.Shape,
                 centers_b: np.ndarray, fwhms_b: np.ndarray,
                 pol_b: pol.PolarizationVector) -> np.ndarray:
    """Visibility over photon B's (center, FWHM) grid, photon A fixed.

    Photon A is H-polarized and photon B carries ``pol_b``; at each grid
    point the mode overlap c = cos(Phi) cos(Theta) comes from
    :func:`fock.mode_overlap` and ``visibility_at(c)`` turns it into the
    visibility of the input at hand (Fock or coherent, with its
    apparatus).  Each row (one center, every FWHM) gets its cos(Theta)
    values from one :func:`spectral.overlaps` call.  Returns an array
    indexed [i_center, j_fwhm].
    """
    out = np.empty((len(centers_b), len(fwhms_b)))
    for i, cb in enumerate(centers_b):
        row = [spc.SpectralProfile.from_fwhm(shape_b, cb, wb) for wb in fwhms_b]
        for j, cos_theta in enumerate(spc.overlaps(profile_a, row).tolist()):
            out[i, j] = visibility_at(fock.mode_overlap(pol.H, pol_b, cos_theta))
    return out
