"""Deterministic adaptive quadrature for the spectral overlap integrals.

A Gauss-Kronrod 7/15 rule is applied on a worklist of panels; panels whose
local error estimate exceeds their share of the tolerance budget are
bisected.  Evaluation is vectorised: one integrand call per refinement
round covers the nodes of every panel being refined.

:func:`integrate_family` runs several integrals in lockstep.  Each member
keeps its own panels, its own convergence test, the split rule and its
own panel budget, exactly as if it ran alone; only the integrand calls are
shared, one per round for all members still refining.  This pays the
per-call overhead of small numpy arrays once per round instead of once per
member, which is what a contour row of similar overlaps needs.
:func:`integrate` is the family of one.

Results are bit-identical to running each member alone, and regardless of
how callers parallelise around this module: each panel's Kronrod and Gauss
sums are formed from its own 15 node values, the integrand is evaluated
element by element, and each member's total is accumulated with
``math.fsum``, which is exactly rounded and so does not depend on the order
in which a member's panels are held.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

__all__ = ["IntegrationError", "integrate", "integrate_family"]

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


def _panel_values(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  lo: np.ndarray, hi: np.ndarray,
                  member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod-15 value and |K15-G7| error estimate for each [lo, hi] panel.

    One call of the family integrand covers every panel: it gets the
    (npanels, 15) nodes and the (npanels, 1) column of member indices.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * _XK[None, :]
    y = np.asarray(f(x, member[:, None]), dtype=complex)
    k15 = (y * _WK[None, :]).sum(axis=1) * half
    g7 = (y[:, 1::2] * _WG[None, :]).sum(axis=1) * half
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
        value raises it as soon as it reaches the error estimate.

    Returns
    -------
    complex
        The integral; deterministic for identical inputs (fixed panel
        rule and exactly rounded summation).
    """
    def family(x: np.ndarray, member: np.ndarray) -> np.ndarray:
        return np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)

    (result,) = _lockstep(family, [points], rel_tol, abs_tol, max_panels)
    if isinstance(result, IntegrationError):
        raise result
    return result


def integrate_family(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     points_list: Sequence[Sequence[float]],
                     rel_tol: float = 1e-10,
                     abs_tol: float = 1e-14,
                     max_panels: int = 20000) -> list[complex | IntegrationError]:
    """Integrate a family of complex-valued functions in lockstep.

    Member k integrates ``f(x, k)`` over [min(points_list[k]),
    max(points_list[k])] with the rule, tolerances and panel budget of
    :func:`integrate`; each member converges, or runs out of panels, on
    its own, and its value is bit-identical to ``integrate`` run on it
    alone.

    Parameters
    ----------
    f : callable
        ``f(x, member)`` maps an (npanels, 15) ndarray of abscissas and an
        (npanels, 1) integer column of member indices to the complex
        values of each member's integrand at those abscissas.  Per-member
        parameters gathered with the column broadcast over the nodes.
    points_list : sequence of sequences of float
        Each member's window endpoints and seed points, as for
        :func:`integrate`.
    rel_tol, abs_tol, max_panels
        As for :func:`integrate`, applied to each member separately.

    Returns
    -------
    list
        Per member, the integral (complex) or the :class:`IntegrationError`
        it ran into (over budget, or a non-finite value); one member's
        failure leaves the others' values alone.
    """
    return _lockstep(f, points_list, rel_tol, abs_tol, max_panels)


def _lockstep(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
              points_list: Sequence[Sequence[float]], rel_tol: float,
              abs_tol: float, max_panels: int) -> list[complex | IntegrationError]:
    """The one adaptive loop behind :func:`integrate` and
    :func:`integrate_family` (kept private so that each public call is one
    span to a tracer)."""
    seeds = []
    for points in points_list:
        pts = np.unique(np.asarray(sorted(points), dtype=float))
        if pts.size < 2:
            raise ValueError("integrate() needs at least two distinct points")
        seeds.append(pts)
    results: list = [None] * len(seeds)
    # panels of the members still refining, grouped by member in `live`
    # order; `own` holds each panel's member
    live = list(range(len(seeds)))
    counts = [pts.size - 1 for pts in seeds]
    lo = np.concatenate([pts[:-1] for pts in seeds])
    hi = np.concatenate([pts[1:] for pts in seeds])
    own = np.arange(len(seeds)).repeat(counts)
    vals, errs = _panel_values(f, lo, hi, own)

    while True:
        # memoryviews hand fsum one float at a time: no per-panel list
        re, im, er = memoryview(vals.real), memoryview(vals.imag), memoryview(errs)
        # each member's share of its error budget; inf for a finished
        # member, so that none of its panels splits
        shares = [math.inf] * len(seeds)
        ends = list(itertools.accumulate(counts))
        for k, n, start, stop in zip(live, counts, [0] + ends, ends):
            err_total = math.fsum(er[start:stop])
            if not math.isfinite(err_total):
                # a NaN or infinite node value makes its panel's error
                # non-finite (so a finite sum means finite values): such a
                # member would never converge, and with NaN never split
                results[k] = IntegrationError("integrand returned a non-finite value",
                                              err_total)
                continue
            total = complex(math.fsum(re[start:stop]), math.fsum(im[start:stop]))
            bound = max(rel_tol * abs(total), abs_tol)
            if err_total <= bound:
                results[k] = total
            elif n >= max_panels:
                results[k] = IntegrationError("quadrature exceeded panel budget",
                                              err_total)
            else:
                shares[k] = bound / (2.0 * n)
        refining = [k for k in live if results[k] is None]
        if not refining:
            return results
        # split every panel holding more than its member's share of the budget
        split = errs > np.array(shares)[own]
        split_own = own[split]
        n_split = np.bincount(split_own, minlength=len(seeds)).tolist()
        stuck = [k for k in refining if not n_split[k]]
        for k in stuck:  # none over its share: split the worst panel(s)
            mine = own == k
            split[mine] = errs[mine] == errs[mine].max()
        if stuck:
            split_own = own[split]
            n_split = np.bincount(split_own, minlength=len(seeds)).tolist()
        keep = ~split
        if len(refining) < len(live):
            keep &= np.array([r is None for r in results])[own]
        split_lo, split_hi = lo[split], hi[split]
        mid = 0.5 * (split_lo + split_hi)
        child_lo = np.concatenate([split_lo, mid])
        child_hi = np.concatenate([mid, split_hi])
        child_own = np.concatenate([split_own, split_own])
        child_vals, child_errs = _panel_values(f, child_lo, child_hi, child_own)
        own = np.concatenate([own[keep], child_own])
        lo = np.concatenate([lo[keep], child_lo])
        hi = np.concatenate([hi[keep], child_hi])
        vals = np.concatenate([vals[keep], child_vals])
        errs = np.concatenate([errs[keep], child_errs])
        if len(refining) > 1:
            order = np.argsort(own, kind="stable")
            own, lo, hi = own[order], lo[order], hi[order]
            vals, errs = vals[order], errs[order]
        counts = [counts[i] + n_split[k] for i, k in enumerate(live)
                  if results[k] is None]
        live = refining
