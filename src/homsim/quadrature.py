"""Deterministic adaptive quadrature.

A Gauss-Kronrod 7/15 rule is applied on a worklist of panels; panels whose
local error estimate exceeds their share of the tolerance budget are
bisected.  Evaluation is vectorised: one integrand call per refinement
round covers the nodes of every panel being refined.

Results are deterministic: each panel's Kronrod and Gauss sums are formed
from its own 15 node values, the integrand is evaluated element by
element, and the total is accumulated with ``math.fsum``, which is exactly
rounded and so does not depend on the order in which panels are held.

No overlap in :mod:`homsim.spectral` needs this module any more (all 16
pairings are closed forms); :func:`integrate` is the tests' independent
reference, and :class:`IntegrationError` is the numerical failure the
overlaps' Cauchy-Schwarz check raises.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = ["IntegrationError", "integrate"]

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1] (symmetric; 15 digits).
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# Gauss-7 weights attached to the odd Kronrod nodes (indices 1,3,...,13).
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


class IntegrationError(RuntimeError):
    """Quadrature failed to converge; carries the achieved residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def _panel_values(f: Callable[[np.ndarray], np.ndarray],
                  lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod-15 value and |K15-G7| error estimate for each [lo, hi] panel,
    from one call of ``f`` on every panel's nodes."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * _XK
    y = np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)
    # an infinite node value meets the zero imaginary part of a weight
    # (inf * 0); it reaches the caller as a non-finite error estimate
    with np.errstate(invalid="ignore"):
        k15 = (y * _WK).sum(axis=1) * half
        g7 = (y[:, 1::2] * _WG).sum(axis=1) * half
        return k15, np.abs(k15 - g7)


def integrate(f: Callable[[np.ndarray], np.ndarray],
              points: Sequence[float],
              rel_tol: float = 1e-10,
              abs_tol: float = 1e-14,
              max_panels: int = 20000) -> complex:
    """Integrate a complex-valued function over [min(points), max(points)].

    Parameters
    ----------
    f : callable
        Vectorised integrand mapping a 1-D ndarray of abscissas to complex
        values.  Must decay outside the hinted window.
    points : sequence of float
        Window endpoints plus any interior seed points (envelope scales,
        kinks, oscillation periods).  Seeding spends subdivision depth
        where the caller knows structure lives.
    rel_tol, abs_tol : float
        Convergence: total error estimate below
        ``max(rel_tol * |integral|, abs_tol)``.
    max_panels : int
        Subdivision budget; exceeding it raises :class:`IntegrationError`
        with the residual achieved so far.  A NaN or infinite integrand
        value raises it as soon as it reaches the error estimate, and
        nothing else (no numpy warning).

    Returns
    -------
    complex
        The integral; deterministic for identical inputs (fixed panel
        rule and exactly rounded summation).
    """
    seeds = _boundaries(points)
    lo, hi = seeds[:-1], seeds[1:]
    vals, errs = _panel_values(f, lo, hi)
    while True:
        err_total = math.fsum(errs)
        if not math.isfinite(err_total):
            # a NaN or infinite node value makes its panel's error
            # non-finite (so a finite sum means finite values): the loop
            # would never converge, and with NaN never split
            raise IntegrationError("integrand returned a non-finite value", err_total)
        total = complex(math.fsum(vals.real), math.fsum(vals.imag))
        bound = max(rel_tol * abs(total), abs_tol)
        if err_total <= bound:
            return total
        if lo.size >= max_panels:
            raise IntegrationError("quadrature exceeded panel budget", err_total)
        # split every panel holding more than its share of the budget, or
        # if none does, the worst panel(s)
        split = errs > bound / (2.0 * lo.size)
        if not split.any():
            split = errs == errs.max()
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_vals, new_errs = _panel_values(f, new_lo, new_hi)
        lo, hi, vals, errs = (np.concatenate([old[keep], new])
                              for old, new in ((lo, new_lo), (hi, new_hi),
                                               (vals, new_vals), (errs, new_errs)))


def _boundaries(points: Sequence[float]) -> np.ndarray:
    """The distinct points in ascending order (np.unique without its
    set-up cost, which a single small integral would notice)."""
    pts = np.sort(np.asarray(points, dtype=float))
    distinct = np.empty(pts.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(pts[1:], pts[:-1], out=distinct[1:])
    pts = pts[distinct]
    if pts.size < 2:
        raise ValueError("integrate() needs at least two distinct points")
    return pts
