"""Grid sweeps behind the command-line front end.

Pure functions producing the max-visibility tables (with the FWHM ratio
at the optimum) and the visibility contours over photon B's spectral
parameters, for Fock and coherent inputs alike.  Everything is
deterministic: fixed grids, no search and no randomness.  Each contour
grid is one :func:`spectral.overlaps` call on a profile family, and each
contour one visibility call on its flat array of mode overlaps.  At
matched centers and zero delay an overlap depends only on the two shapes
and their width ratio, so each table cell is a constant of its pairing:
the FWHM ratio at its optimum is a committed constant, and its cos Theta
one :func:`spectral.overlap` there, made once per pairing and process.
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

__all__ = ["TableEntry", "max_visibility_table", "contour_grid", "log_grid"]

# (shape A, shape B) -> FWHM of photon B at its largest overlap with photon
# A of unit FWHM at matched centers (FWHM from spectral.fwhm's conventions);
# tests/width_search.py finds each by a log-width search and checks these bits
_OPTIMAL_FWHM_RATIO = {
    (spc.Shape.GAUSSIAN, spc.Shape.SINC): float.fromhex("0x1.31a2e1ff74871p+0"),
    (spc.Shape.GAUSSIAN, spc.Shape.LORENTZIAN): float.fromhex("0x1.1c89fa64ba08fp+0"),
    (spc.Shape.GAUSSIAN, spc.Shape.SECH): float.fromhex("0x1.b078a9120a67ep-1"),
    (spc.Shape.SINC, spc.Shape.GAUSSIAN): float.fromhex("0x1.acd98108e4577p-1"),
    (spc.Shape.SINC, spc.Shape.LORENTZIAN): float.fromhex("0x1.ce4859faceb16p-1"),
    (spc.Shape.SINC, spc.Shape.SECH): float.fromhex("0x1.5d02166ecd4a0p-1"),
    (spc.Shape.LORENTZIAN, spc.Shape.GAUSSIAN): float.fromhex("0x1.cca59a851d41ap-1"),
    (spc.Shape.LORENTZIAN, spc.Shape.SINC): float.fromhex("0x1.1b883d05584d9p+0"),
    (spc.Shape.LORENTZIAN, spc.Shape.SECH): float.fromhex("0x1.8a59f918d3711p-1"),
    (spc.Shape.SECH, spc.Shape.GAUSSIAN): float.fromhex("0x1.2f13a50e6df14p+0"),
    (spc.Shape.SECH, spc.Shape.SINC): float.fromhex("0x1.778e41e1a2729p+0"),
    (spc.Shape.SECH, spc.Shape.LORENTZIAN): float.fromhex("0x1.4c5fa1d707823p+0"),
}


def log_grid(center: float, factor: float, n: int) -> np.ndarray:
    """n log-spaced points spanning center/factor .. center*factor."""
    return center * np.exp(np.linspace(-math.log(factor), math.log(factor), n))


@dataclass(frozen=True)
class TableEntry:
    """One pairing's optimum: best visibility and the width ratio there."""

    visibility: dict[tuple[int, int], float]
    fwhm_ratio: float


@functools.lru_cache(maxsize=None)
def _unit_optimum(shape_a: spc.Shape, shape_b: spc.Shape) -> tuple[float, float]:
    """(FWHM ratio B / A, cos Theta) at the optimum of photon B's width:
    the committed ratio, and one overlap of photon A of unit FWHM with
    photon B at that FWHM, at matched centers."""
    ratio = _OPTIMAL_FWHM_RATIO[(shape_a, shape_b)]
    best = spc.overlap(spc.SpectralProfile.from_fwhm(shape_a, 1.0, 1.0),
                       spc.SpectralProfile.from_fwhm(shape_b, 1.0, ratio))
    return ratio, best


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
            out[(shape_b, shape_a)] = TableEntry(vis, ratio)
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
