"""Joint spectral amplitudes and Bell-measurement entanglement swapping.

Photons B and C of two polarization-singlet pair sources AB and CD, each
weighted by a joint spectral amplitude (JSA), meet on a 50:50 beam
splitter and polarizing beam splitters.  Each of the four conclusive
patterns fires with probability 1/8 and leaves AD with the singlet
fidelity F = (cos^2 Phi / 2)(1 + X), X = II |I f_AB(w_A, w) f_CD*(w, w_D)
dw|^2 dw_A dw_D the exchange integral.  Every JSA is exact, separable or
Gaussian (pump x phase-matching), and so is every pairing of the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import spectral as spc

__all__ = ["Pump", "PhaseMatching", "SeparableJSA", "GaussianJSA", "SwapScenario",
           "GridResolutionError", "bsm_outcome_probabilities", "swap_fidelity",
           "swap_fidelity_separable", "detuned_bandwidth_sweep"]


# q, t, A's entries and det A stay within the fourth root of the float range,
# where the closed forms' products and quotients of up to four of them are
# normal floats; a width sigma keeps 1 / sigma^2 there
_LO, _HI = 2.0 ** -255, 2.0 ** 255
_WIDTHS = (_HI ** -0.5, _LO ** -0.5)


def _check_width(sigma, name: str) -> None:
    if not np.all((_WIDTHS[0] <= sigma) & (sigma <= _WIDTHS[1])):
        raise ValueError(f"{name} bandwidth must lie in [{_WIDTHS[0]:.3g}, {_WIDTHS[1]:.3g}]")


class GridResolutionError(ValueError):
    """A separable JSA against a Gaussian one of so low a Schmidt purity that
    the trapezoid rule over the outer photon needs more nodes than its cap."""


@dataclass(frozen=True)
class Pump:
    """Gaussian pump envelope: center omega_p, bandwidth(s) sigma_p (rad/ps)."""

    center: float
    sigma: float | np.ndarray

    def __post_init__(self):
        _check_width(self.sigma, "pump")


@dataclass(frozen=True)
class PhaseMatching:
    """Gaussian phase-matching window with linear dispersion slopes."""

    sigma: float
    slope_s: float = 1.0
    slope_i: float = -0.5

    def __post_init__(self):
        _check_width(self.sigma, "phase-matching")


@dataclass(frozen=True)
class SeparableJSA:
    """Product-form JSA f(w1, w2) = phi_first(w1) phi_second(w2)."""

    spec_first: spc.SpectralProfile
    spec_second: spc.SpectralProfile

    def transposed(self) -> "SeparableJSA":
        return SeparableJSA(self.spec_second, self.spec_first)


@dataclass(frozen=True)
class GaussianJSA:
    """The normalized JSA (det A / pi^2)^(1/4) exp(-z^T A z / 2), z = (w_1 -
    center_first, w_2 - center_second), A = q [[1, 1], [1, 1]] + t s s^T
    with q = 1 / sigma_p^2, t = 1 / sigma_pm^2 and s = (slope_first,
    slope_second).  det A = q t (slope_first - slope_second)^2 has no
    cancellation.  Equal slopes (det A = 0, no norm) raise ValueError, and
    so do q, t, A's entries or det A outside [2^-255, 2^255].  An array
    ``q`` stands for one source per element."""

    q: float | np.ndarray
    t: float
    slope_first: float
    slope_second: float
    center_first: float
    center_second: float

    def __post_init__(self):
        if self.slope_first == self.slope_second:
            raise ValueError("slope_s == slope_i leaves det A = 0: the JSA depends "
                             "only on w_s + w_i and cannot be normalized")
        with np.errstate(over="ignore", invalid="ignore"):
            a_11, a_12, a_22, det, _ = self.bsm(True)
        if not (all(np.all((_LO <= v) & (v <= _HI)) for v in (self.q, self.t, a_11, a_22, det))
                and np.all(np.abs(a_12) <= _HI)):
            raise ValueError("the widths and slopes leave q, t, A = q [[1, 1], [1, 1]] + "
                             "t s s^T or det A = q t (slope_s - slope_i)^2 outside "
                             "[2^-255, 2^255]")

    @staticmethod
    def from_pump(pump: Pump, pm: PhaseMatching) -> "GaussianJSA":
        """The source's JSA, signal first, both centred on omega_p / 2."""
        half = 0.5 * pump.center
        return GaussianJSA(1.0 / pump.sigma**2, 1.0 / pm.sigma**2,
                           pm.slope_s, pm.slope_i, half, half)

    def bsm(self, first: bool) -> tuple:
        """(A_bb, A_bo, A_oo, det A, centre of b) for b the photon on the
        first axis if ``first`` (else the second) and o the other one."""
        (s_b, m_b), (s_o, _) = ((self.slope_first, self.center_first),
                                (self.slope_second, self.center_second))[::1 if first else -1]
        q, t, d = self.q, self.t, s_b - s_o
        return (q + t * s_b * s_b, q + t * s_b * s_o, q + t * s_o * s_o,
                q * t * (d * d), m_b)

    def transposed(self) -> "GaussianJSA":
        return GaussianJSA(self.q, self.t, self.slope_second, self.slope_first,
                           self.center_second, self.center_first)


JointSpectralAmplitude = SeparableJSA | GaussianJSA


@dataclass(frozen=True)
class SwapScenario:
    """Two sources and the polarization misalignment between them: the
    beam-splitter photons are B on ``jsa_ab``'s second axis and C on
    ``jsa_cd``'s first."""

    jsa_ab: JointSpectralAmplitude
    jsa_cd: JointSpectralAmplitude
    phi: float = 0.0


def _gaussian_exchange(ab: GaussianJSA, cd: GaussianJSA):
    """X = Tr(rho_B rho_C) for two Gaussian JSAs, their 4-D Gaussian integral.

    Each reduced state's quadratic form has the eigenvectors (1, 1) and
    (1, -1), with eigenvalues A_bb and e = det A / A_oo (the photon's
    marginal is e^{-e x^2}), so the integral's determinant factors along
    them; with d the detuning of C's centre from B's (the exponent keeps
    its digits), X = 2 sqrt(e_B e_C / ((e_B + e_C)(A_BB + A_CC)))
    e^{-d^2 e_B e_C / (e_B + e_C)}: the Schmidt purity sqrt(det A / (A_11
    A_22)) for identical sources, an array for an array field."""
    a_b, _, a_a, det_ab, center_b = ab.bsm(first=False)
    a_c, _, a_d, det_cd, center_c = cd.bsm(first=True)
    e_b, e_c = det_ab / a_a, det_cd / a_d
    d, e_sum, e_prod = center_c - center_b, e_b + e_c, e_b * e_c
    return 2.0 * np.sqrt(e_prod / (e_sum * (a_b + a_c))) * np.exp(-d * d * (e_prod / e_sum))


_TRAPEZOID_E, _MAX_NODES = 38.0, 1 << 18  # the rule's error exponent, its node cap


def _separable_gaussian_exchange(photon: spc.SpectralProfile, source: GaussianJSA,
                                 first: bool) -> float:
    """X for a separable JSA with beam-splitter photon ``photon`` against
    the Gaussian JSA ``source``.  Given the source's outer photon at m_o +
    y, its beam-splitter photon is the normalized Gaussian g_y of amplitude
    e^{-A_bb x^2 / 2} about m_b - (A_bo / A_bb) y, and y has the density
    sqrt(e / pi) e^{-e y^2}, e = det A / A_bb, so X = int sqrt(e / pi)
    e^{-e y^2} |<photon, g_y>|^2 dy.  In y = u / sqrt(e) the integrand
    pi^{-1/2} e^{-u^2} F(u) is entire with |F(u + ib)| <= e^{(kappa - 1) b^2}
    (Cauchy-Schwarz), kappa = A_11 A_22 / det A = 1 / P^2 for the Schmidt
    purity P.  So the trapezoid rule of step h = pi / sqrt(E kappa) errs by
    at most 2 e^{kappa b^2} / (e^{2 pi b / h} - 1) = 1/sinh(E) at b = pi /
    (kappa h) (Trefethen and Weideman, SIAM Rev. 56, 2014, Thm 5.1), and
    nodes out to |u| >= sqrt(E) omit at most erfc(sqrt E) < e^{-E}: a
    priori, E = 38 holds it within 1e-16 of X on about 24 sqrt(kappa)
    nodes, to which the overlaps add their rounding, a few 1e-15 at most."""
    a_b, a_bo, a_o, det, center = source.bsm(first)
    kappa = a_b * a_o / det
    h = math.pi / math.sqrt(_TRAPEZOID_E * kappa)
    last = math.ceil(math.sqrt(_TRAPEZOID_E) / h)
    if 2 * last + 1 > _MAX_NODES:
        raise GridResolutionError(f"a Gaussian JSA of Schmidt purity {kappa ** -0.5:.3g} needs "
                                  f"{2 * last + 1} > {_MAX_NODES} nodes against a separable one")
    u = h * np.arange(-last, last + 1)
    offsets = -a_bo / a_b * (u / math.sqrt(det / a_b))
    # |<photon, g_y>| depends on centre differences only: about a small
    # origin in place of m_b the centres keep their digits; past 2^52 the
    # origin's 1 rounds away, and doubling it keeps every centre positive
    spread = float(np.max(np.abs(offsets)))
    origin = 1.0 + spread + abs(photon.center - center)
    if origin - spread < 0.5:
        origin *= 2.0
    g = spc.SpectralProfile(spc.Shape.GAUSSIAN, origin + offsets, 1.0 / math.sqrt(2.0 * a_b))
    cos = spc.overlaps(replace(photon, center=origin + (photon.center - center)), g)
    return h / math.sqrt(math.pi) * float(np.exp(-u * u) @ (cos * cos))


def _exchange_integral(scenario: SwapScenario):
    """The real double integral II K_ABCD K_CDAB dw_A dw_D in [0, 1]."""
    ab, cd = scenario.jsa_ab, scenario.jsa_cd
    if isinstance(ab, SeparableJSA) and isinstance(cd, SeparableJSA):
        return spc.overlap(ab.spec_second, cd.spec_first) ** 2
    if isinstance(ab, SeparableJSA):
        x = _separable_gaussian_exchange(ab.spec_second, cd, first=True)
    elif isinstance(cd, SeparableJSA):
        x = _separable_gaussian_exchange(cd.spec_first, ab, first=False)
    else:
        x = _gaussian_exchange(ab, cd)
    return np.minimum(x, 1.0)  # X <= 1 but for rounding


def bsm_outcome_probabilities(scenario: SwapScenario) -> dict[str, float]:
    """Probabilities of the four conclusive detector patterns (each 1/8).

    Each pattern leaves four orthogonal AD polarization sectors of squared
    norms cos^2(Phi)/16, sin^2(Phi)/16, sin^2(Phi)/16 and cos^2(Phi)/16
    times the two JSA norms, both 1, so it sums to 1/8 whatever the
    misalignment and the spectra."""
    return dict.fromkeys(("M0", "M1", "M2", "M3"), 1.0 / 8.0)


def _fidelity(phi: float, exchange):
    """F = (cos^2 Phi / 2)(1 + X): the one place the fidelity is formed."""
    return 0.5 * math.cos(phi) ** 2 * (1.0 + exchange)


def swap_fidelity(scenario: SwapScenario):
    """Fidelity of the post-measurement AD pair with the singlet: a float,
    or an array for two Gaussian JSAs with an array field."""
    x = _exchange_integral(scenario)
    return _fidelity(scenario.phi, x if np.ndim(x) else float(x))


def swap_fidelity_separable(phi: float, theta_bc: float) -> float:
    """Closed form (cos^2 Phi / 2)(1 + cos^2 Theta_BC) for separable JSAs."""
    return _fidelity(phi, math.cos(theta_bc) ** 2)


def detuned_bandwidth_sweep(detunings: list[float], sigma_b_grid: list[float],
                            sigma_c: float) -> list[list[tuple[float, float]]]:
    """Aligned (Phi = 0) fidelity curves, one list of (sigma_B, F) per
    center detuning, from one :func:`spectral.overlaps` call.  Each sigma is
    the standard deviation of a Gaussian amplitude, sqrt(2) times a
    profile's width.  C sits at |d| and B at 2 |d| (both at 1 for d = 0),
    exactly |d| apart; B's centre past the float range raises ValueError."""
    widths = np.array([sigma_c] + list(sigma_b_grid)) / math.sqrt(2.0)
    lag = np.abs(np.array(detunings, dtype=float))[:, None]
    if not np.all(lag <= 0.5 * np.finfo(float).max):
        raise ValueError("photon B's centre, twice the detuning, leaves the float range")
    base = np.where(lag > 0.0, lag, 1.0)
    photon_c = spc.SpectralProfile(spc.Shape.GAUSSIAN, base, widths[0])
    grid = spc.SpectralProfile(spc.Shape.GAUSSIAN, base + lag, widths[1:])
    return [[(sb, _fidelity(0.0, ov * ov)) for sb, ov in zip(sigma_b_grid, row)]
            for row in spc.overlaps(photon_c, grid).tolist()]
