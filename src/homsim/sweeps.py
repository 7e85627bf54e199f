"""Grid sweeps behind the command-line front end.

Pure functions producing the max-visibility tables (with the FWHM ratio
at the optimum) and the visibility contours over photon B's spectral
parameters, for Fock and coherent inputs alike.  Everything is
deterministic: fixed grids, a fixed number of width-search rounds, no
randomness.  Each contour grid, and each width-search round, is one
:func:`spectral.overlaps` call on a profile family, and each contour one
visibility call on its flat array of mode overlaps.  At matched centers
and zero delay an overlap depends only on the two shapes and their width
ratio, so each table cell is a constant of its pairing: its width search
runs once per process, on a fixed reference photon.  Only a second table
in the same process gains from this; a ``homsim tables`` run makes one
table per process, so it always searches.
"""

from __future__ import annotations

import functools
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

_WIDTH_SPAN = 64.0  # width search bracket: photon A's FWHM / and * this
_WIDTH_ROUNDS = 9  # each round narrows the bracket 16-fold, to 1e-10 in log FWHM
_WIDTH_POINTS = 33
_UNIT_CENTER = 1.0  # the reference photon A of the table: unit FWHM at this center


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

    Each round of the search on log(FWHM_B) around photon A's width is one
    :func:`spectral.overlaps` call on a log-spaced grid, and narrows the
    bracket to the best point's neighbours.  Matched centers are optimal
    for all four families (their time envelopes are non-negative, so any
    detuning only dephases the product).
    """
    target = spc.fwhm(profile_a)
    lo, hi = math.log(target / _WIDTH_SPAN), math.log(target * _WIDTH_SPAN)
    for _ in range(_WIDTH_ROUNDS):
        log_w = np.linspace(lo, hi, _WIDTH_POINTS)
        widths = np.exp(log_w)
        cos = spc.overlaps(profile_a, spc.SpectralProfile.from_fwhm(
            shape_b, profile_a.center, widths))
        k = int(np.argmax(cos))
        lo, hi = log_w[max(k - 1, 0)], log_w[min(k + 1, _WIDTH_POINTS - 1)]
    best = spc.SpectralProfile.from_fwhm(shape_b, profile_a.center, float(widths[k]))
    return float(widths[k]), spc.overlap(profile_a, best).magnitude


@functools.lru_cache(maxsize=None)
def _unit_optimum(shape_a: spc.Shape, shape_b: spc.Shape) -> tuple[float, float]:
    """(FWHM ratio B / A, cos Theta) at the optimum of photon B's width.

    One :func:`max_overlap_width` search against a reference photon A of
    unit FWHM at a fixed center, never the caller's photon, so the value
    does not depend on which call filled the cache.
    """
    prof_a = spc.SpectralProfile.from_fwhm(shape_a, _UNIT_CENTER, 1.0)
    width_b, cos_theta = max_overlap_width(prof_a, shape_b)
    return width_b / spc.fwhm(prof_a), cos_theta


def max_visibility_table(photon_pairs: list[tuple[int, int]]
                         ) -> dict[tuple[spc.Shape, spc.Shape], TableEntry]:
    """Optimal-visibility table over all (shape_B row, shape_A column) pairs.

    Photon B's width is optimized against photon A at matched centers.
    The reported ratio is fwhm(B at optimum) / fwhm(A).  Both depend only
    on the pairing, not on photon A's center or width, and the optimum is
    photon-number independent, so each cell comes from
    :func:`_unit_optimum` and all requested (m, n) reuse it.
    """
    shapes = list(spc.Shape)
    out: dict[tuple[spc.Shape, spc.Shape], TableEntry] = {}
    for shape_a in shapes:
        for shape_b in shapes:
            if shape_b is shape_a:
                ratio, c = 1.0, 1.0  # matched profiles are the exact optimum
            else:
                ratio, c = _unit_optimum(shape_a, shape_b)
            vis = {mn: fock.visibility_from_c(mn[0], mn[1], c, fock.IDEAL_APPARATUS)
                   for mn in photon_pairs}
            out[(shape_b, shape_a)] = TableEntry(vis, c, ratio)
    return out


def contour_grid(visibility_at: Callable[[np.ndarray], np.ndarray],
                 profile_a: spc.SpectralProfile, shape_b: spc.Shape,
                 centers_b: np.ndarray, fwhms_b: np.ndarray,
                 pol_b: pol.PolarizationVector) -> np.ndarray:
    """Visibility over photon B's (center, FWHM) grid, photon A fixed.

    Photon A is H-polarized and photon B carries ``pol_b``.  The grid's
    cos(Theta) values come from one :func:`spectral.overlaps` call on the
    (center, FWHM) profile family, its mode overlaps c = cos(Phi) cos(Theta)
    from :func:`fock.mode_overlap`, and its visibilities from one
    ``visibility_at(c)`` call on the flat array of c in C order, which maps
    an array of c to the visibilities of the input at hand (Fock or
    coherent, with its apparatus).  Returns an array indexed
    [i_center, j_fwhm].
    """
    grid = spc.SpectralProfile.from_fwhm(shape_b, centers_b[:, None], fwhms_b)
    c = fock.mode_overlap(pol.H, pol_b, spc.overlaps(profile_a, grid))
    return np.asarray(visibility_at(c.ravel()), dtype=float).reshape(c.shape)
