"""Polarization states, the cos(Phi) mismatch kernel, and detector response.

Pure polarizations are complex two-vectors alpha |H> + beta |V>; a mixed
one is a weight on a pure state and the rest on its orthogonal complement.
Detectors carry separate efficiencies for the H and V directions; the
efficiency seen by an arbitrary polarization is the weighted average
|alpha|^2 eta_H + |beta|^2 eta_V, and a threshold detector hit by m photons
of one polarization and n of another clicks with probability
1 - (1-eta_1)^m (1-eta_2)^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolarizationVector", "PolarizationDensity", "Detector",
    "H", "V", "D", "A",
    "cos_phi", "rotate", "effective_efficiency", "click_probability",
    "depolarize", "orthogonal",
]


@dataclass(frozen=True)
class PolarizationVector:
    """Normalized pure polarization alpha |H> + beta |V>."""

    h: complex
    v: complex

    def __post_init__(self):
        n = abs(self.h) ** 2 + abs(self.v) ** 2
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"polarization vector not normalized (|.|^2 = {n})")

    def as_array(self) -> np.ndarray:
        return np.array([self.h, self.v], dtype=complex)

    def density(self) -> "PolarizationDensity":
        return PolarizationDensity(1.0, self)


H = PolarizationVector(1.0, 0.0)
V = PolarizationVector(0.0, 1.0)
D = PolarizationVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
A = PolarizationVector(1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))


@dataclass(frozen=True)
class PolarizationDensity:
    """2x2 polarization density held as its spectral decomposition, which
    every density has: weight ``w`` on ``state``, 1 - w on its orthogonal."""

    w: float
    state: PolarizationVector

    def __post_init__(self):
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("density weight must lie in [0, 1]")

    @property
    def rho(self) -> np.ndarray:
        """The matrix w |s><s| + (1 - w) |s_perp><s_perp|."""
        s = self.state.as_array()
        return (1.0 - self.w) * np.eye(2) + (2.0 * self.w - 1.0) * np.outer(s, s.conj())

    @staticmethod
    def from_matrix(rho) -> "PolarizationDensity":
        """The density of a Hermitian, unit-trace, PSD 2x2 matrix.

        rho = (I + r.sigma) / 2 has weight (1 + |r|) / 2 on the state whose
        Bloch vector is r / |r| (H when r = 0); PSD means |r| <= 1.
        """
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError("density matrix must be 2x2")
        if not np.allclose(rho, rho.conj().T, atol=1e-12):
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-12:
            raise ValueError("density matrix must have unit trace")
        z = float((rho[0, 0] - rho[1, 1]).real)
        xy = complex(rho[1, 0] + rho[0, 1].conjugate())  # x + iy
        r = math.hypot(z, abs(xy))
        if r > 1.0 + 2e-12:  # smallest eigenvalue (1 - |r|) / 2 below -1e-12
            raise ValueError("density matrix must be positive semidefinite")
        if r == 0.0:
            return PolarizationDensity(0.5, H)
        # the top eigenvector is (1 + z/r, (x + iy)/r), or the same ray as
        # ((x - iy)/r, 1 - z/r) when z/r is near -1; dividing by r first keeps
        # both in normal range when r is subnormal
        nz, nxy = z / r, xy / r
        h, v = (1.0 + nz, nxy) if nz >= 0.0 else (nxy.conjugate(), 1.0 - nz)
        n = math.hypot(abs(h), abs(v))
        return PolarizationDensity(min(0.5 + 0.5 * r, 1.0),
                                   PolarizationVector(complex(h / n), complex(v / n)))


def cos_phi(a: PolarizationVector, b: PolarizationVector) -> float:
    """Polarization overlap |alpha_a alpha_b* + beta_a beta_b*| in [0, 1]."""
    return min(abs(a.h * b.h.conjugate() + a.v * b.v.conjugate()), 1.0)


def rotate(v: PolarizationVector, phi: float) -> PolarizationVector:
    """Rotate by phi in the H/V plane: [[cos, -sin], [sin, cos]]."""
    c, s = math.cos(phi), math.sin(phi)
    return PolarizationVector(c * v.h - s * v.v, s * v.h + c * v.v)


def orthogonal(v: PolarizationVector) -> PolarizationVector:
    """The unique (up to phase) polarization orthogonal to v."""
    return PolarizationVector(-v.v.conjugate(), v.h.conjugate())


@dataclass(frozen=True)
class Detector:
    """Threshold detector with per-polarization efficiencies."""

    eta_h: float
    eta_v: float

    def __post_init__(self):
        for name, eta in (("eta_h", self.eta_h), ("eta_v", self.eta_v)):
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


IDEAL_DETECTOR = Detector(1.0, 1.0)


def effective_efficiency(d: Detector, p: PolarizationVector) -> float:
    """Efficiency seen by polarization p: |alpha|^2 eta_H + |beta|^2 eta_V."""
    return abs(p.h) ** 2 * d.eta_h + abs(p.v) ** 2 * d.eta_v


def click_probability(d: Detector, pol_a: PolarizationVector,
                      pol_b: PolarizationVector, m: int, n: int) -> float:
    """P(at least one click) for m photons at pol_a plus n at pol_b:
    1 - (1 - eta(pol_a))^m (1 - eta(pol_b))^n."""
    if m < 0 or n < 0:
        raise ValueError("photon counts must be non-negative")
    return (1.0 - (1.0 - effective_efficiency(d, pol_a)) ** m
            * (1.0 - effective_efficiency(d, pol_b)) ** n)


def depolarize(rho: PolarizationDensity, p: float) -> PolarizationDensity:
    """Isotropic depolarizing channel (1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z).

    It contracts the Bloch vector by (1 - 4p/3) and keeps the eigenvectors,
    so w' = 1/2 + (w - 1/2)(1 - 4p/3); p = 3/4 maps everything to I/2.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing probability must lie in [0, 1]")
    return PolarizationDensity(0.5 + (rho.w - 0.5) * (1.0 - 4.0 * p / 3.0), rho.state)

