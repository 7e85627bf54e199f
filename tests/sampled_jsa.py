"""Joint spectral amplitudes sampled on a grid, on the trapezoid rule.

The tests' reference for the library's exact swap closed forms: a JSA's
values on an axis_first x axis_second grid, the exchange integral X and
the fidelity F = (cos^2 Phi / 2)(1 + X) as weighted sums over that grid,
and the Schmidt weights as singular values.
"""

import math
from dataclasses import dataclass

import numpy as np

from homsim import jsa
from homsim import spectral as spc
from spectral_amplitude import amplitude


def trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.gradient(axis)  # (x[i+1] - x[i-1]) / 2 inside, one spacing at the ends
    w[[0, -1]] *= 0.5
    return w


@dataclass(frozen=True)
class Sampled:
    """A JSA's values f(axis_first[i], axis_second[j])."""

    axis_first: np.ndarray
    axis_second: np.ndarray
    values: np.ndarray

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        return trapezoid_weights(self.axis_first), trapezoid_weights(self.axis_second)

    def norm_squared(self) -> float:
        w1, w2 = self.weights()
        return float(w1 @ np.abs(self.values) ** 2 @ w2)

    def transposed(self) -> "Sampled":
        return Sampled(self.axis_second, self.axis_first, self.values.T)


def support(profile: spc.SpectralProfile, n: int, span: float) -> np.ndarray:
    """n points over the profile's centre +- span effective widths (for a
    sinc, whose width is a time, span times 2 pi / width)."""
    w = profile.effective_width
    w = 2.0 * math.pi / w if profile.shape is spc.Shape.SINC else w
    return np.linspace(profile.center - span * w, profile.center + span * w, n)


def separable(j: jsa.SeparableJSA, axis_first: np.ndarray,
              axis_second: np.ndarray) -> Sampled:
    """``j`` sampled with :func:`spectral.amplitude` and normalized to 1 on
    the trapezoid rule."""
    values = np.outer(amplitude(j.spec_first, axis_first),
                      amplitude(j.spec_second, axis_second))
    norm = Sampled(axis_first, axis_second, values).norm_squared()
    return Sampled(axis_first, axis_second, values / math.sqrt(norm))


def gaussian(j: jsa.GaussianJSA, n: int = 192, span: float = 8.0) -> Sampled:
    """The Gaussian JSA's own amplitude (det A / pi^2)^(1/4) e^{-z^T A z / 2},
    sampled on an n x n grid spanning +-span marginal widths per axis."""
    a11, a12, a22, det, c1 = j.bsm(True)
    axes = [c + span * math.sqrt(a / det) * np.linspace(-1.0, 1.0, n)
            for c, a in ((c1, a22), (j.center_second, a11))]
    x, y = axes[0][:, None] - c1, axes[1][None, :] - j.center_second
    values = (det / math.pi**2) ** 0.25 * np.exp(-0.5 * (a11 * x * x + 2 * a12 * x * y + a22 * y * y))
    return Sampled(*axes, values)


def exchange(ab: Sampled, cd: Sampled) -> float:
    """X = II |I f_AB(w_A, w) f_CD*(w, w_D) dw|^2 dw_A dw_D on the trapezoid
    rule; photons B and C meet on ``ab``'s second axis, ``cd``'s first."""
    assert np.array_equal(ab.axis_second, cd.axis_first)
    wa, wb = ab.weights()
    k = (ab.values * wb[None, :]) @ np.conj(cd.values)
    return float(wa @ np.abs(k) ** 2 @ cd.weights()[1])


def fidelity(ab: Sampled, cd: Sampled, phi: float = 0.0) -> float:
    return 0.5 * math.cos(phi) ** 2 * (1.0 + exchange(ab, cd))


def schmidt_weights(s: Sampled, count: int = 8) -> np.ndarray:
    """Leading Schmidt weights (squared singular values, summing to 1)."""
    w1, w2 = s.weights()
    g = np.sqrt(w1)[:, None] * s.values * np.sqrt(w2)[None, :]
    lam = np.linalg.svd(g, compute_uv=False) ** 2
    return lam[:count] / lam.sum()
