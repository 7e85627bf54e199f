"""Deterministic adaptive quadrature for the spectral overlap integrals.

A Gauss-Kronrod 7/15 rule is applied on a worklist of panels; panels whose
local error estimate exceeds their share of the tolerance budget are
bisected.  Evaluation is vectorised: one integrand call per refinement
round covers the nodes of every panel being refined.

:func:`integrate_family` runs several integrals in lockstep.  Each member
keeps its own panels, its own convergence test, the split rule and its
own panel budget, exactly as if it ran alone; only the integrand calls are
shared, one per round for the members in that round.  This pays the
per-call overhead of small numpy arrays once per round instead of once per
member, which is what a contour row or a dip's delay scan needs.
:func:`integrate` is the family of one.  Two scheduling rules decide which
members a round holds; neither changes any member's panels:

* Round budget.  A round takes the unfinished members in member order,
  counting the panels each will hold after the round's split (a member not
  yet started counts its seed panels), and stops before the member that
  would take the total past ``_ROUND_PANELS``; it always takes at least
  one.  The others keep their panels and wait; new members start in order
  as room frees up.  So an integrand call holds at most ``_ROUND_PANELS``
  panels, or one member's.
* First failure ends the family.  Once member k fails (panel budget or a
  non-finite value), members after k are neither refined nor started; the
  members before k finish, and if one of them fails too, the earlier
  failure wins.  A failing member that runs alone therefore costs what it
  costs on its own, and a caller looping over the members would have met
  the same error first.

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

# Panels a lockstep round may hold (see the module docstring).  One call of
# a sech-Lorentzian overlap family integrand costs about 50 us plus
# 1.2-1.4 us per panel (2-vCPU x86-64 VM, numpy 2.4), and the per-panel
# cost is flat from about 300 panels up, so at 2,048 the fixed cost is
# about 2% of a full round.  The budget must stay below twice the 2,018
# seed panels of an overlap whose beat seeds reach spectral's cap of 2,000,
# so that such a member, which may well fail, runs alone and costs what it
# costs on its own.
_ROUND_PANELS = 2048


class IntegrationError(RuntimeError):
    """Quadrature failed to converge; carries the achieved residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def _panel_values(f: Callable[[np.ndarray, np.ndarray | int], np.ndarray],
                  lo: np.ndarray, hi: np.ndarray,
                  member: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod-15 value and |K15-G7| error estimate for each [lo, hi] panel.

    One call of the family integrand covers every panel: it gets the
    (npanels, 15) nodes and the (npanels, 1) column of member indices, or
    the index itself when every panel belongs to one member.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * _XK
    y = np.asarray(f(x, member), dtype=complex)
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
    def family(x: np.ndarray, member: np.ndarray) -> np.ndarray:
        return np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)

    (result,) = _lockstep(family, [points], rel_tol, abs_tol, max_panels)
    if isinstance(result, IntegrationError):
        raise result
    return result


def integrate_family(f: Callable[[np.ndarray, np.ndarray | int], np.ndarray],
                     points_list: Sequence[Sequence[float]],
                     rel_tol: float = 1e-10,
                     abs_tol: float = 1e-14,
                     max_panels: int = 20000) -> list[complex | IntegrationError]:
    """Integrate a family of complex-valued functions in lockstep.

    Member k integrates ``f(x, k)`` over [min(points_list[k]),
    max(points_list[k])] with the rule, tolerances and panel budget of
    :func:`integrate`; each member converges, or runs out of panels, on
    its own, and its value is bit-identical to ``integrate`` run on it
    alone.  Rounds take members in order within a panel budget, and the
    first failure ends the family (see the module docstring).

    Parameters
    ----------
    f : callable
        ``f(x, member)`` maps an (npanels, 15) ndarray of abscissas and an
        (npanels, 1) integer column of member indices to the complex
        values of each member's integrand at those abscissas.  Per-member
        parameters gathered with the column broadcast over the nodes.  A
        call whose panels all belong to one member gets its index as an
        int instead of the column.
    points_list : sequence of sequences of float
        Each member's window endpoints and seed points, as for
        :func:`integrate`.
    rel_tol, abs_tol, max_panels
        As for :func:`integrate`, applied to each member separately.

    Returns
    -------
    list
        Per member in order, the integral (complex), up to the first
        member that fails: the list then ends with the
        :class:`IntegrationError` it ran into (over budget, or a non-finite
        value), and the members after it get no entry.
    """
    return _lockstep(f, points_list, rel_tol, abs_tol, max_panels)


def _lockstep(f: Callable[[np.ndarray, np.ndarray | int], np.ndarray],
              points_list: Sequence[Sequence[float]], rel_tol: float,
              abs_tol: float, max_panels: int) -> list[complex | IntegrationError]:
    """The one adaptive loop behind :func:`integrate` and
    :func:`integrate_family` (kept private so that each public call is one
    span to a tracer)."""
    seeds = [_boundaries(points) for points in points_list]
    results: list = [None] * len(seeds)
    shares = [0.0] * len(seeds)  # each refining member's share of its error budget
    end = len(seeds)  # a failure cuts off the members from here on
    new = 0  # the next member to start
    # the started, unfinished members in member order, the panels each
    # holds, and those panels grouped by member in the same order
    live: list[int] = []
    counts: list[int] = []
    lo = hi = vals = errs = np.empty(0)

    while True:
        # each live member splits every panel holding more than its share of
        # the budget, or if none does, its worst panel(s)
        n_split = []
        if live:
            if len(live) == 1:
                split = errs > shares[live[0]]
                n_split = [int(np.count_nonzero(split))]
            else:
                split = errs > np.repeat([shares[k] for k in live], counts)
                firsts = list(itertools.accumulate(counts[:-1], initial=0))
                n_split = np.add.reduceat(split, firsts).tolist()
            start = 0
            for i, n in enumerate(counts):
                if not n_split[i]:
                    mine = errs[start:start + n]
                    split[start:start + n] = mine == mine.max()
                    n_split[i] = int(np.count_nonzero(split[start:start + n]))
                start += n

        # this round's members: the live ones, then new ones, in member
        # order while the panels they will hold fit in _ROUND_PANELS (a new
        # member holds its seed panels); always at least one
        held = n_old = 0
        for n, s in zip(counts, n_split):
            if n_old and held + n + s > _ROUND_PANELS:
                break
            held += n + s
            n_old += 1
        starting = []
        if n_old == len(live):
            while new < end:
                n = seeds[new].size - 1
                if (n_old or starting) and held + n > _ROUND_PANELS:
                    break
                held += n
                starting.append(new)
                new += 1
        old = live[:n_old]
        members = old + starting
        del n_split[n_old:]  # the others wait, and split the same next round

        new_lo, new_hi, sizes = [], [], []
        if n_old:
            cut = sum(counts[:n_old])
            split = split[:cut]
            split_lo, split_hi = lo[:cut][split], hi[:cut][split]
            mid = 0.5 * (split_lo + split_hi)
            new_lo += [split_lo, mid]
            new_hi += [mid, split_hi]
            sizes += n_split + n_split
        for k in starting:
            new_lo.append(seeds[k][:-1])
            new_hi.append(seeds[k][1:])
            sizes.append(seeds[k].size - 1)
        if len(members) == 1:
            member = members[0]
        else:
            member = np.repeat(old + old + starting, sizes)[:, None]
        eval_lo, eval_hi = np.concatenate(new_lo), np.concatenate(new_hi)
        eval_vals, eval_errs = _panel_values(f, eval_lo, eval_hi, member)
        if not n_old:
            lo, hi, vals, errs = eval_lo, eval_hi, eval_vals, eval_errs
        else:
            # kept and new panels, then those of the members that wait
            keep = ~split
            lo, hi, vals, errs = (
                np.concatenate([arr[:cut][keep], now, arr[cut:]])
                for arr, now in ((lo, eval_lo), (hi, eval_hi),
                                 (vals, eval_vals), (errs, eval_errs)))
            if n_old > 1:
                # regroup the kept panels and both halves of the split ones
                # by member
                size = cut + sum(n_split)
                order = np.argsort(np.repeat(list(range(n_old)) * 3,
                                             [n - s for n, s in zip(counts, n_split)]
                                             + n_split + n_split), kind="stable")
                for arr in (lo, hi, vals, errs):
                    arr[:size] = arr[:size][order]
            counts[:n_old] = [n + s for n, s in zip(counts, n_split)]
        counts[n_old:n_old] = [seeds[k].size - 1 for k in starting]
        live[n_old:n_old] = starting

        # check this round's members in member order
        re, im, er = memoryview(vals.real), memoryview(vals.imag), memoryview(errs)
        stop = 0
        for k, n in zip(members, counts):
            start, stop = stop, stop + n
            err_total = math.fsum(er[start:stop])
            if not math.isfinite(err_total):
                # a NaN or infinite node value makes its panel's error
                # non-finite (so a finite sum means finite values): such a
                # member would never converge, and with NaN never split
                results[k] = IntegrationError("integrand returned a non-finite value",
                                              err_total)
            else:
                total = complex(math.fsum(re[start:stop]), math.fsum(im[start:stop]))
                bound = max(rel_tol * abs(total), abs_tol)
                if err_total <= bound:
                    results[k] = total
                    continue
                if n < max_panels:
                    shares[k] = bound / (2.0 * n)
                    continue
                results[k] = IntegrationError("quadrature exceeded panel budget",
                                              err_total)
            end = k + 1  # the first failure ends the family
            break

        # drop the finished members' panels and those of the members cut off
        stays = [results[k] is None and k < end for k in live]
        if not all(stays):
            if any(stays):
                keep = np.repeat(stays, counts)
                lo, hi, vals, errs = lo[keep], hi[keep], vals[keep], errs[keep]
            live = [k for k, s in zip(live, stays) if s]
            counts = [n for n, s in zip(counts, stays) if s]
        if not live and new >= end:
            return results[:end]


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
