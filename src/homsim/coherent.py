"""Coincidence statistics for phase-randomized coherent inputs.

Phase randomization reduces each source to a Poisson mixture of Fock
states, so the total coincidence probability is the Poisson-weighted sum of
the multi-photon formula.  Carrying that sum out analytically collapses it
into modified-Bessel-function form:

    P = 1 - e^{-mu_A eta_A' - mu_B eta_B'} - e^{-mu_A eta_A - mu_B eta_B}
        + e^{mu_A (eta_A eta_A' - eta_A - eta_A') + mu_B (...)}
        - e^{-mu_A - mu_B} (e^{mu_A R + mu_B T} + e^{mu_A T + mu_B R})
          I0(2 sqrt(mu_A mu_B R T) c)
        + e^{-mu_A - mu_B + A + B} I0(2 sqrt(A B) c)
        + e^{-mu_A - mu_B + C + D} I0(2 sqrt(C D) c)

with A = mu_A R (1 - eta_A'), B = mu_B T (1 - eta_B'), C = mu_A T (1 -
eta_A), D = mu_B R (1 - eta_B), c = cos(Phi) cos(Theta), unprimed
efficiencies belonging to detector A and primed to detector B (subscript =
source arm).  The truncated double sum is retained as an in-build oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import polarization as pol
from . import spectral as spc
from .fock import (Apparatus, BeamSplitter, IDEAL_APPARATUS, _cos_theta,
                   dip_visibility, mode_overlap)

__all__ = [
    "CoherentPair", "bessel_i0", "total_coincidence", "total_coincidence_series",
    "coherent_visibility", "visibility_from_params", "visibility_ratio_map",
]

_I0_SERIES_CUTOFF = 15.0


@dataclass(frozen=True)
class CoherentPair:
    """Two phase-randomized coherent sources feeding the beam splitter."""

    mu_a: float
    mu_b: float
    pol_a: pol.PolarizationVector = pol.H
    pol_b: pol.PolarizationVector = pol.H
    spec_a: spc.SpectralProfile | None = None
    spec_b: spc.SpectralProfile | None = None

    def __post_init__(self):
        if self.mu_a < 0 or self.mu_b < 0:
            raise ValueError("mean photon numbers must be non-negative")

    def mode_overlap(self) -> float:
        return mode_overlap(self.pol_a, self.pol_b, _cos_theta(self.spec_a, self.spec_b))


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Power series below x = 15 (all terms positive, no cancellation),
    truncated asymptotic expansion e^x/sqrt(2 pi x) sum_k a_k x^-k above;
    the crossover keeps the relative error below 1e-13 on both sides.
    """
    if x < 0:
        raise ValueError("bessel_i0 defined here for x >= 0")
    if x < _I0_SERIES_CUTOFF:
        total = 1.0
        term = 1.0
        k = 0
        q = 0.25 * x * x
        while True:
            k += 1
            term *= q / (k * k)
            total += term
            if term < 1e-18 * total:
                return total
    # asymptotic: a_k = ((2k-1)!!)^2 / (8^k k!), truncate at smallest term
    total = 1.0
    term = 1.0
    k = 0
    while k < 30:
        k += 1
        term *= (2 * k - 1) ** 2 / (8.0 * k * x)
        if term > abs(total) or term < 1e-18 * total:
            break
        total += term
    return math.exp(x) / math.sqrt(2.0 * math.pi * x) * total


def _b5_terms(mu_a: float, mu_b: float, bs: BeamSplitter,
              eta_aa: float, eta_ab: float, eta_ba: float, eta_bb: float,
              c: float) -> float:
    """Evaluate the closed form with explicit efficiency assignments.

    eta_aa / eta_ab: detector A's efficiency for arm-A / arm-B photons;
    eta_ba / eta_bb: the same for detector B.
    """
    t, r = bs.transmissivity, bs.reflectivity
    ca = mu_a * r * (1.0 - eta_ba)
    cb = mu_b * t * (1.0 - eta_bb)
    cc = mu_a * t * (1.0 - eta_aa)
    cd = mu_b * r * (1.0 - eta_ab)
    val = (1.0
           - math.exp(-mu_a * eta_ba - mu_b * eta_bb)
           - math.exp(-mu_a * eta_aa - mu_b * eta_ab)
           + math.exp(mu_a * (eta_aa * eta_ba - eta_aa - eta_ba)
                      + mu_b * (eta_ab * eta_bb - eta_ab - eta_bb))
           - math.exp(-mu_a - mu_b)
           * (math.exp(mu_a * r + mu_b * t) + math.exp(mu_a * t + mu_b * r))
           * bessel_i0(2.0 * math.sqrt(mu_a * mu_b * r * t) * c)
           + math.exp(-mu_a - mu_b + ca + cb) * bessel_i0(2.0 * math.sqrt(ca * cb) * c)
           + math.exp(-mu_a - mu_b + cc + cd) * bessel_i0(2.0 * math.sqrt(cc * cd) * c))
    # not clamped: like the Fock formula, the expression can leave [0, 1]
    # outside the detection model's validity regime, and the series oracle
    # must see the same raw value
    return val


def _efficiencies(pair: CoherentPair, app: Apparatus) -> tuple[float, float, float, float]:
    return (pol.effective_efficiency(app.det_a, pair.pol_a),
            pol.effective_efficiency(app.det_a, pair.pol_b),
            pol.effective_efficiency(app.det_b, pair.pol_a),
            pol.effective_efficiency(app.det_b, pair.pol_b))


def total_coincidence(pair: CoherentPair, app: Apparatus = IDEAL_APPARATUS,
                      c: float | None = None) -> float:
    """Total coincidence probability from the closed form.

    ``c`` overrides the combined overlap cos(Phi) cos(Theta) when the
    caller has already computed it (dip sweeps, baselines).
    """
    if c is None:
        c = pair.mode_overlap()
    ea, eb, fa, fb = _efficiencies(pair, app)
    try:
        return _b5_terms(pair.mu_a, pair.mu_b, app.bs, ea, eb, fa, fb, c)
    except OverflowError:
        raise OverflowError(
            f"coherent coincidence overflows double precision at "
            f"mu_a={pair.mu_a:.6g}, mu_b={pair.mu_b:.6g}") from None


def total_coincidence_series(pair: CoherentPair, app: Apparatus = IDEAL_APPARATUS,
                             tail_mass: float = 1e-12,
                             c: float | None = None) -> float:
    """Poisson-truncated double sum over the Fock formula (oracle route).

    Photon numbers are truncated once each Poisson tail is below
    ``tail_mass``; agreement with :func:`total_coincidence` at 1e-10 is an
    acceptance criterion.
    """
    if c is None:
        c = pair.mode_overlap()
    n_a = _poisson_cutoff(pair.mu_a, tail_mass)
    n_b = _poisson_cutoff(pair.mu_b, tail_mass)
    w_a = _poisson_weights(pair.mu_a, n_a)
    w_b = _poisson_weights(pair.mu_b, n_b)
    ea, eb, fa, fb = _efficiencies(pair, app)
    t, r = app.bs.transmissivity, app.bs.reflectivity

    m = np.arange(n_a + 1)[:, None]
    n = np.arange(n_b + 1)[None, :]
    delta_a = 1.0 - (1.0 - ea) ** m * (1.0 - eb) ** n
    delta_b = 1.0 - (1.0 - fa) ** m * (1.0 - fb) ** n
    jmax = min(n_a, n_b)
    j = np.arange(jmax + 1)
    cm = np.array([[math.comb(int(mm), int(jj)) if jj <= mm else 0.0 for jj in j]
                   for mm in range(n_a + 1)])
    cn = np.array([[math.comb(int(nn), int(jj)) if jj <= nn else 0.0 for jj in j]
                   for nn in range(n_b + 1)])
    bunch = (cm * (c * c) ** j) @ cn.T
    p_co = delta_a * delta_b - (t**m * r**n * delta_a + t**n * r**m * delta_b) * bunch
    p_co[0, 0] = 0.0  # vacuum branch: no photons, no clicks
    return float(w_a @ p_co @ w_b)


def _poisson_cutoff(mu: float, tail: float) -> int:
    if mu == 0.0:
        return 0
    n = int(mu)
    p = math.exp(-mu) * mu**n / math.factorial(n)
    cum = sum(math.exp(-mu) * mu**k / math.factorial(k) for k in range(n + 1))
    while 1.0 - cum > tail and n < 400:
        n += 1
        p *= mu / n
        cum += p
    return n


def _poisson_weights(mu: float, n_max: int) -> np.ndarray:
    ks = np.arange(n_max + 1)
    logs = -mu + ks * (math.log(mu) if mu > 0 else 0.0) - np.array(
        [math.lgamma(k + 1.0) for k in ks])
    w = np.exp(logs)
    if mu == 0.0:
        w = np.zeros(n_max + 1)
        w[0] = 1.0
    return w


def coherent_visibility(mu: float, phi: float) -> float:
    """Spectrally matched coherent visibility (I0(mu cos Phi) - 1)/(2 sinh^2(mu/2)).

    The mu -> 0 limit is cos^2(Phi)/2 (ceiling 1/2); below mu = 1e-4 the
    series form is used to dodge the 0/0 cancellation.
    """
    if mu < 0:
        raise ValueError("mu must be non-negative")
    x = mu * math.cos(phi)
    if mu < 1e-4:
        c2 = math.cos(phi) ** 2
        return 0.5 * c2 * (1.0 + x * x / 16.0) / (1.0 + mu * mu / 12.0)
    try:
        return (bessel_i0(x) - 1.0) / (2.0 * math.sinh(0.5 * mu) ** 2)
    except OverflowError:
        raise OverflowError(
            f"coherent visibility overflows double precision at mu={mu:.6g}") from None


def visibility_from_params(pair: CoherentPair, app: Apparatus = IDEAL_APPARATUS,
                           c: float | None = None) -> float:
    """General coherent visibility: dip at the pair's overlap vs c = 0 baseline.

    ``c`` overrides the pair's overlap, as in :func:`total_coincidence`.
    """
    if c is None:
        c = pair.mode_overlap()
    return dip_visibility(lambda x: total_coincidence(pair, app, x), c)


def visibility_ratio_map(mu_ratios: Sequence[float], tr_ratios: Sequence[float],
                         app: Apparatus = IDEAL_APPARATUS, mu_mean: float = 1.0,
                         fixed_mu_b: float | None = None) -> np.ndarray:
    """Visibility over (mu_A/mu_B, T/R) grids for H-polarized inputs.

    By default the geometric mean of the two intensities is held at
    ``mu_mean``, which makes the arm-swap relabeling (both ratios
    inverted) an exact symmetry of the map and pins the ideal-detector
    optimum to exactly (1, 1).  Passing ``fixed_mu_b`` instead holds arm
    B's intensity constant while mu_A sweeps; in that convention
    polarization-dependent detector losses visibly displace the optimum.
    Returns an array indexed [i_mu_ratio, j_tr_ratio].
    """
    out = np.empty((len(mu_ratios), len(tr_ratios)))
    for i, q in enumerate(mu_ratios):
        if fixed_mu_b is None:
            mu_a = mu_mean * math.sqrt(q)
            mu_b = mu_mean / math.sqrt(q)
        else:
            mu_b = fixed_mu_b
            mu_a = q * fixed_mu_b
        for j, s in enumerate(tr_ratios):
            t = s / (1.0 + s)
            bs = BeamSplitter(t, 1.0 - t)
            pair = CoherentPair(mu_a, mu_b)
            out[i, j] = visibility_from_params(
                pair, Apparatus(bs, app.det_a, app.det_b))
    return out
