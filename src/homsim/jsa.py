"""Joint spectral amplitudes and Bell-measurement entanglement swapping.

Two photon-pair sources AB and CD, each in a polarization-singlet state
weighted by a joint spectral amplitude, interfere photons B and C on a
50:50 beam splitter followed by polarizing beam splitters.  Each of the
four conclusive detector patterns fires with probability 1/8 regardless of
polarization misalignment or spectral mismatch; conditioned on one, the
fidelity of the surviving AD pair to the polarization singlet is

    F = (cos^2 Phi / 2) [1 + II  K_ABCD(w_A, w_D) K_CDAB(w_D, w_A) dw_A dw_D]

with K_ABCD(w_A, w_D) = I f_AB(w_A, w) f_CD*(w, w_D) dw.  For separable
JSAs the double integral collapses to cos^2(Theta_BC) of the two photons
meeting at the beam splitter.

Gridded JSAs are trapezoid-sampled pump-envelope x phase-matching products
exp(-(w_s + w_i - w_p)^2 / 2 sigma_p^2) exp(-dk^2 / 2 sigma_pm^2) with a
linear phase-mismatch model dk = slope_s (w_s - w_s0) + slope_i (w_i -
w_i0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral as spc

__all__ = [
    "Pump", "PhaseMatching", "GridSpec", "SeparableJSA", "GriddedJSA",
    "SwapScenario", "GridResolutionError",
    "build_gaussian_jsa", "separable_to_grid", "schmidt_weights",
    "bsm_outcome_probabilities",
    "swap_fidelity", "swap_fidelity_separable", "detuned_bandwidth_sweep",
]


class GridResolutionError(ValueError):
    """The sampling grid is too coarse or narrow for the requested JSA."""


@dataclass(frozen=True)
class Pump:
    """Gaussian pump envelope: center omega_p and bandwidth sigma_p (rad/ps)."""

    center: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
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


@dataclass(frozen=True)
class GriddedJSA:
    """JSA sampled on a rectangular grid, trapezoid-normalized to 1."""

    axis_first: np.ndarray
    axis_second: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        a1 = np.asarray(self.axis_first, dtype=float)
        a2 = np.asarray(self.axis_second, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if a1.ndim != 1 or a2.ndim != 1 or v.shape != (a1.size, a2.size):
            raise ValueError("values must be shaped (len(axis_first), len(axis_second))")
        if np.any(np.diff(a1) <= 0) or np.any(np.diff(a2) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        object.__setattr__(self, "axis_first", a1)
        object.__setattr__(self, "axis_second", a2)
        object.__setattr__(self, "values", v)

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        return _trapezoid_weights(self.axis_first), _trapezoid_weights(self.axis_second)

    def norm_squared(self) -> float:
        w1, w2 = self.weights()
        return float(np.einsum("i,ij,j->", w1, np.abs(self.values) ** 2, w2).real)


JointSpectralAmplitude = SeparableJSA | GriddedJSA


@dataclass(frozen=True)
class SwapScenario:
    """Two sources and the polarization misalignment between them.

    ``jsa_ab`` must carry the beam-splitter photon (B) on its second axis
    and ``jsa_cd`` on its first axis (C); the outer photons A and D sit on
    the remaining axes.
    """

    jsa_ab: JointSpectralAmplitude
    jsa_cd: JointSpectralAmplitude
    phi: float = 0.0


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.empty_like(axis)
    w[1:-1] = 0.5 * (axis[2:] - axis[:-2])
    w[0] = 0.5 * (axis[1] - axis[0])
    w[-1] = 0.5 * (axis[-1] - axis[-2])
    return w


def build_gaussian_jsa(pump: Pump, pm: PhaseMatching, grid: GridSpec,
                       center_s: float | None = None,
                       center_i: float | None = None) -> GriddedJSA:
    """Sample the pump-envelope x phase-matching product on a grid.

    Signal/idler centers default to the degenerate point omega_p / 2.  The
    grid spans +-span combined widths about the centers; a Richardson-style
    half-resolution check guards against under-sampling.
    """
    ws0 = 0.5 * pump.center if center_s is None else center_s
    wi0 = 0.5 * pump.center if center_i is None else center_i
    width = math.hypot(pump.sigma, pm.sigma)
    half = grid.span * width
    axis_s = np.linspace(ws0 - half, ws0 + half, grid.n)
    axis_i = np.linspace(wi0 - half, wi0 + half, grid.n)
    ws = axis_s[:, None]
    wi = axis_i[None, :]
    pef = np.exp(-((ws + wi - pump.center) ** 2) / (2.0 * pump.sigma**2))
    dk = pm.slope_s * (ws - ws0) + pm.slope_i * (wi - wi0)
    pmf = np.exp(-(dk**2) / (2.0 * pm.sigma**2))
    values = pef * pmf
    return _normalized_grid(axis_s, axis_i, values.astype(complex))


def _profile_axis(p: spc.SpectralProfile, grid: GridSpec) -> np.ndarray:
    scale = p.effective_width if p.shape is not spc.Shape.SINC \
        else 2.0 * math.pi / p.effective_width
    half = grid.span * scale
    return np.linspace(p.center - half, p.center + half, grid.n)


def separable_to_grid(jsa: SeparableJSA, grid: GridSpec,
                      axis_first: np.ndarray | None = None,
                      axis_second: np.ndarray | None = None) -> GriddedJSA:
    """Sample a separable JSA; axes default to each profile's support."""
    a1 = _profile_axis(jsa.spec_first, grid) if axis_first is None else axis_first
    a2 = _profile_axis(jsa.spec_second, grid) if axis_second is None else axis_second
    vals = np.outer(spc.amplitude(jsa.spec_first, a1),
                    spc.amplitude(jsa.spec_second, a2))
    return _normalized_grid(np.asarray(a1, float), np.asarray(a2, float), vals)


def _half_indices(n: int) -> np.ndarray:
    """Stride-2 subsample that always keeps both endpoints."""
    idx = list(range(0, n, 2))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return np.asarray(idx)


def _normalized_grid(a1: np.ndarray, a2: np.ndarray,
                     values: np.ndarray) -> GriddedJSA:
    jsa = GriddedJSA(a1, a2, values)
    norm = jsa.norm_squared()
    if norm <= 0.0:
        raise GridResolutionError("JSA vanishes on the grid")
    i1, i2 = _half_indices(a1.size), _half_indices(a2.size)
    coarse = GriddedJSA(a1[i1], a2[i2], values[np.ix_(i1, i2)])
    residual = abs(coarse.norm_squared() / norm - 1.0)
    if residual > 1e-6:
        raise GridResolutionError(
            f"grid too coarse for this JSA (half-resolution residual {residual:.2e})")
    return GriddedJSA(a1, a2, values / math.sqrt(norm))


def schmidt_weights(jsa: GriddedJSA, count: int = 8) -> np.ndarray:
    """Leading Schmidt weights (squared singular values, summing to 1)."""
    w1, w2 = jsa.weights()
    g = np.sqrt(w1)[:, None] * jsa.values * np.sqrt(w2)[None, :]
    s = np.linalg.svd(g, compute_uv=False)
    lam = s**2
    return lam[:count] / lam.sum()


def _overlap_kernel(jsa_ab: GriddedJSA, jsa_cd: GriddedJSA) -> np.ndarray:
    """K(w_A, w_D) = integral f_AB(w_A, w) f_CD*(w, w_D) dw."""
    if jsa_ab.axis_second.shape != jsa_cd.axis_first.shape or not np.allclose(
            jsa_ab.axis_second, jsa_cd.axis_first):
        raise ValueError("jsa_ab second axis must match jsa_cd first axis "
                         "(the two photons meeting at the beam splitter)")
    w = _trapezoid_weights(jsa_ab.axis_second)
    return (jsa_ab.values * w[None, :]) @ np.conj(jsa_cd.values)


def _exchange_integral(scenario: SwapScenario, grid: GridSpec) -> float:
    """The real double integral II K_ABCD K_CDAB dw_A dw_D in [0, 1]."""
    ab, cd = scenario.jsa_ab, scenario.jsa_cd
    if isinstance(ab, SeparableJSA) and isinstance(cd, SeparableJSA):
        return spc.overlap(ab.spec_second, cd.spec_first).magnitude ** 2
    if isinstance(ab, SeparableJSA):
        shared = cd.axis_first if isinstance(cd, GriddedJSA) else None
        ab = separable_to_grid(ab, grid, axis_second=shared)
    if isinstance(cd, SeparableJSA):
        cd = separable_to_grid(cd, grid, axis_first=ab.axis_second)
    k = _overlap_kernel(ab, cd)
    wa = _trapezoid_weights(ab.axis_first)
    wd = _trapezoid_weights(cd.axis_second)
    # K_CDAB(w_D, w_A) = conj(K_ABCD(w_A, w_D)), so the integrand is |K|^2
    x = float(np.einsum("i,ij,j->", wa, np.abs(k) ** 2, wd).real)
    # Cauchy-Schwarz bounds it by 1 for normalized JSAs: clamp rounding
    # excursions, reject anything larger (as spectral.overlap does)
    if x > 1.0 + 1e-9:
        raise GridResolutionError(
            f"exchange integral {x:.6g} exceeds its Cauchy-Schwarz bound of 1")
    return min(x, 1.0)


def bsm_outcome_probabilities(scenario: SwapScenario) -> dict[str, float]:
    """Probabilities of the four conclusive detector patterns (each 1/8).

    Projecting the post-beam-splitter state on any of the four patterns
    leaves four mutually orthogonal AD polarization sectors whose squared
    norms are cos^2(Phi)/16, sin^2(Phi)/16, sin^2(Phi)/16, cos^2(Phi)/16
    times the two JSA normalizations (only the sectors' signs differ
    between patterns).  Each pattern therefore sums to N_AB N_CD / 8
    independent of the misalignment and of the spectra.
    """
    ab, cd = scenario.jsa_ab, scenario.jsa_cd
    n_ab = 1.0 if isinstance(ab, SeparableJSA) else ab.norm_squared()
    n_cd = 1.0 if isinstance(cd, SeparableJSA) else cd.norm_squared()
    return dict.fromkeys(("M0", "M1", "M2", "M3"), n_ab * n_cd / 8.0)


def _fidelity(phi: float, exchange: float) -> float:
    """F = (cos^2 Phi / 2)(1 + X) from the exchange integral X: the one
    place the swap fidelity is formed."""
    return 0.5 * math.cos(phi) ** 2 * (1.0 + exchange)


def swap_fidelity(scenario: SwapScenario, grid: GridSpec = GridSpec()) -> float:
    """Fidelity of the post-measurement AD pair with the singlet."""
    return _fidelity(scenario.phi, _exchange_integral(scenario, grid))


def swap_fidelity_separable(phi: float, theta_bc: float) -> float:
    """Closed form (cos^2 Phi / 2)(1 + cos^2 Theta_BC) for separable JSAs."""
    return _fidelity(phi, math.cos(theta_bc) ** 2)


def detuned_bandwidth_sweep(detunings: list[float], sigma_b_grid: list[float],
                            sigma_c: float) -> list[list[tuple[float, float]]]:
    """Aligned (Phi = 0) fidelity curves F(sigma_B) per center detuning.

    Uses the Gaussian overlap closed form; one curve (list of (sigma_B, F))
    per detuning value.
    """
    curves = []
    for d in detunings:
        curve = []
        for sb in sigma_b_grid:
            ov = spc.gaussian_overlap_closed_form(sb, sigma_c, d, 0.0)
            curve.append((sb, _fidelity(0.0, ov * ov)))
        curves.append(curve)
    return curves
