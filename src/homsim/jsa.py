"""Joint spectral amplitudes and Bell-measurement entanglement swapping.

Photons B and C of two polarization-singlet pair sources AB and CD, each
weighted by a joint spectral amplitude (JSA), meet on a 50:50 beam
splitter and polarizing beam splitters.  Each of the four conclusive
patterns fires with probability 1/8 and leaves AD with the singlet
fidelity F = (cos^2 Phi / 2)(1 + X), X = II |I f_AB(w_A, w) f_CD*(w, w_D)
dw|^2 dw_A dw_D the exchange integral: exact for separable and Gaussian
(pump x phase-matching) JSAs, on the trapezoid rule for two gridded ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import spectral as spc

__all__ = ["Pump", "PhaseMatching", "GridSpec", "SeparableJSA", "GaussianJSA",
           "GriddedJSA", "SwapScenario", "GridResolutionError", "UnsupportedPairingError",
           "separable_to_grid", "bsm_outcome_probabilities", "swap_fidelity",
           "swap_fidelity_separable", "detuned_bandwidth_sweep"]


class GridResolutionError(ValueError):
    """The sampling grid is too coarse or narrow for the requested JSA."""


class UnsupportedPairingError(TypeError):
    """A gridded JSA meets a separable or Gaussian one: no exact pairing."""


@dataclass(frozen=True)
class Pump:
    """Gaussian pump envelope: center omega_p, bandwidth(s) sigma_p (rad/ps)."""

    center: float
    sigma: float | np.ndarray

    def __post_init__(self):
        if not np.all(np.greater(self.sigma, 0.0)):
            raise ValueError("pump bandwidth must be positive")


@dataclass(frozen=True)
class PhaseMatching:
    """Gaussian phase-matching window with linear dispersion slopes."""

    sigma: float
    slope_s: float = 1.0
    slope_i: float = -0.5

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("phase-matching bandwidth must be positive")


@dataclass(frozen=True)
class GridSpec:
    """Square sampling grid: n points per axis spanning center +- span."""

    n: int = 256
    span: float = 5.0  # in combined-width units

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("grid needs at least 16 points per axis")
        if self.span <= 0:
            raise ValueError("span must be positive")


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
    cancellation; equal slopes (det A = 0, no norm) raise ValueError.  An
    array ``q`` stands for one source per element."""

    q: float | np.ndarray
    t: float
    slope_first: float
    slope_second: float
    center_first: float
    center_second: float

    def __post_init__(self):
        if not np.all(np.greater(self.bsm(True)[3], 0.0)):
            raise ValueError("slope_s == slope_i leaves det A = 0: the JSA depends "
                             "only on w_s + w_i and cannot be normalized")

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
        q, t = self.q, self.t
        return (q + t * s_b * s_b, q + t * s_b * s_o, q + t * s_o * s_o,
                q * t * (s_b - s_o) ** 2, m_b)

    def transposed(self) -> "GaussianJSA":
        return GaussianJSA(self.q, self.t, self.slope_second, self.slope_first,
                           self.center_second, self.center_first)


@dataclass(frozen=True)
class GriddedJSA:
    """JSA sampled on a rectangular grid, trapezoid-normalized to 1.  Real
    samples stay float64 and complex ones complex128, so a pair of real
    JSAs meets in a real kernel."""

    axis_first: np.ndarray
    axis_second: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        a1, a2 = (np.asarray(a, dtype=float) for a in (self.axis_first, self.axis_second))
        v = np.asarray(self.values)
        v = v.astype(np.result_type(v, float), copy=False)
        if a1.ndim != 1 or a2.ndim != 1 or v.shape != (a1.size, a2.size):
            raise ValueError("values must be shaped (len(axis_first), len(axis_second))")
        if np.any(np.diff(a1) <= 0) or np.any(np.diff(a2) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        for name, value in (("axis_first", a1), ("axis_second", a2), ("values", v)):
            object.__setattr__(self, name, value)

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        return _trapezoid_weights(self.axis_first), _trapezoid_weights(self.axis_second)

    def norm_squared(self) -> float:
        w1, w2 = self.weights()
        return float(np.einsum("i,ij,j->", w1, _modulus_squared(self.values), w2))


JointSpectralAmplitude = SeparableJSA | GaussianJSA | GriddedJSA


@dataclass(frozen=True)
class SwapScenario:
    """Two sources and the polarization misalignment between them: the
    beam-splitter photons are B on ``jsa_ab``'s second axis and C on
    ``jsa_cd``'s first."""

    jsa_ab: JointSpectralAmplitude
    jsa_cd: JointSpectralAmplitude
    phi: float = 0.0


def _modulus_squared(v: np.ndarray) -> np.ndarray:
    """|v|^2 as a real array, without complex temporaries for real data."""
    return np.abs(v) ** 2 if np.iscomplexobj(v) else v * v


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.gradient(axis)  # (x[i+1] - x[i-1]) / 2 inside, one spacing at the ends
    w[[0, -1]] *= 0.5
    return w


def separable_to_grid(jsa: SeparableJSA, grid: GridSpec,
                      axis_first: np.ndarray | None = None,
                      axis_second: np.ndarray | None = None) -> GriddedJSA:
    """Sample a separable JSA, normalized on the trapezoid rule; axes
    default to each profile's support.  The grid must resolve both
    photons: the sampling is not checked."""
    def support(p: spc.SpectralProfile) -> np.ndarray:
        w = p.effective_width
        w = 2.0 * math.pi / w if p.shape is spc.Shape.SINC else w
        return np.linspace(p.center - grid.span * w, p.center + grid.span * w, grid.n)

    a1 = support(jsa.spec_first) if axis_first is None else axis_first
    a2 = support(jsa.spec_second) if axis_second is None else axis_second
    vals = np.outer(spc.amplitude(jsa.spec_first, a1),
                    spc.amplitude(jsa.spec_second, a2))
    norm = GriddedJSA(a1, a2, vals).norm_squared()
    if norm <= 0.0:
        raise GridResolutionError("JSA vanishes on the grid")
    return GriddedJSA(a1, a2, vals / math.sqrt(norm))


def _gridded_exchange(ab: GriddedJSA, cd: GriddedJSA) -> float:
    """X on the trapezoid rule.  The two beam-splitter axes may differ by
    rounding only (1e-9 of a spacing): an offset of a sizeable fraction of
    one would pair detuned photons as if they met at one frequency."""
    axis_b, axis_c = ab.axis_second, cd.axis_first
    if axis_b.shape != axis_c.shape or np.max(np.abs(axis_b - axis_c)) > (
            1e-9 * np.min(np.abs(np.diff(axis_b)))):
        raise ValueError("jsa_ab second axis must match jsa_cd first axis "
                         "(the two photons meeting at the beam splitter)")
    wa, wb = ab.weights()
    v = cd.values  # two real JSAs make a real (dgemm) kernel K(w_A, w_D)
    k = (ab.values * wb[None, :]) @ (np.conj(v) if np.iscomplexobj(v) else v)
    # K_CDAB(w_D, w_A) = conj(K_ABCD(w_A, w_D)), so the integrand is |K|^2,
    # which Cauchy-Schwarz bounds by 1: clamp rounding, reject anything more
    x = float(np.einsum("i,ij,j->", wa, _modulus_squared(k), cd.weights()[1]))
    if x > 1.0 + 1e-9:
        raise GridResolutionError(
            f"exchange integral {x:.6g} exceeds its Cauchy-Schwarz bound of 1")
    return min(x, 1.0)


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
    # origin in place of m_b the centres keep their digits
    origin = 1.0 + float(np.max(np.abs(offsets))) + abs(photon.center - center)
    g = spc.SpectralProfile(spc.Shape.GAUSSIAN, origin + offsets, 1.0 / math.sqrt(2.0 * a_b))
    cos = spc.overlaps(replace(photon, center=origin + (photon.center - center)), g)
    return h / math.sqrt(math.pi) * float(np.exp(-u * u) @ (cos * cos))


def _exchange_integral(scenario: SwapScenario):
    """The real double integral II K_ABCD K_CDAB dw_A dw_D in [0, 1]."""
    ab, cd = scenario.jsa_ab, scenario.jsa_cd
    gridded = isinstance(ab, GriddedJSA), isinstance(cd, GriddedJSA)
    if all(gridded):
        return _gridded_exchange(ab, cd)
    if any(gridded):
        raise UnsupportedPairingError(
            "a GriddedJSA pairs only with another GriddedJSA; sample both on one grid")
    if isinstance(ab, SeparableJSA) and isinstance(cd, SeparableJSA):
        return spc.overlap(ab.spec_second, cd.spec_first).magnitude ** 2
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
    times the two JSA norms, so it sums to N_AB N_CD / 8 whatever the
    misalignment and the spectra."""
    n_ab, n_cd = (j.norm_squared() if isinstance(j, GriddedJSA) else 1.0
                  for j in (scenario.jsa_ab, scenario.jsa_cd))
    return dict.fromkeys(("M0", "M1", "M2", "M3"), n_ab * n_cd / 8.0)


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
    center detuning, from the Gaussian overlap closed form."""
    return [[(sb, _fidelity(0.0, ov * ov)) for sb in sigma_b_grid
             for ov in (spc.gaussian_overlap_closed_form(sb, sigma_c, d, 0.0),)]
            for d in detunings]
