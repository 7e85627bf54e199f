"""Polarization states, the cos(Phi) mismatch kernel, and detector response.

Pure polarizations are complex two-vectors alpha |H> + beta |V>; mixed ones
are 2x2 density matrices.  Detectors carry separate efficiencies for the H
and V directions; the efficiency seen by an arbitrary polarization is the
weighted average |alpha|^2 eta_H + |beta|^2 eta_V, and a threshold detector
hit by m photons of one polarization and n of another clicks with
probability 1 - (1-eta_1)^m (1-eta_2)^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolarizationVector", "PolarizationDensity", "Detector",
    "H", "V", "D", "A",
    "cos_phi", "rotate", "effective_efficiency", "click_probability",
    "click_from_efficiencies", "depolarize", "eigendecompose", "orthogonal",
]

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


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
        vec = self.as_array()
        return PolarizationDensity(np.outer(vec, vec.conj()), self)


H = PolarizationVector(1.0, 0.0)
V = PolarizationVector(0.0, 1.0)
D = PolarizationVector(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
A = PolarizationVector(1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))


@dataclass(frozen=True)
class PolarizationDensity:
    """2x2 polarization density operator (Hermitian, unit trace, PSD).

    ``basis`` is the frame :func:`eigendecompose` splits a maximally mixed
    density in, which has no eigenbasis of its own: H/V unless the
    density comes from a pure state (that state) or from depolarizing
    one (the input's frame, which the channel keeps at every p).
    """

    rho: np.ndarray
    basis: PolarizationVector = H

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError("density matrix must be 2x2")
        if not np.allclose(rho, rho.conj().T, atol=1e-12):
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-12:
            raise ValueError("density matrix must have unit trace")
        if np.linalg.eigvalsh(rho).min() < -1e-12:
            raise ValueError("density matrix must be positive semidefinite")
        object.__setattr__(self, "rho", rho)


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


def click_from_efficiencies(eta_a: float | np.ndarray, eta_b: float | np.ndarray,
                            m: int, n: int) -> float | np.ndarray:
    """Delta = 1 - (1 - eta_a)^m (1 - eta_b)^n: P(at least one click) for m
    photons seen at efficiency eta_a plus n at eta_b.

    Arrays of efficiencies broadcast, each element bit-equal to its float
    result (the powers go through libm's pow, as a float's ``**`` does).
    """
    if m < 0 or n < 0:
        raise ValueError("photon counts must be non-negative")
    if isinstance(eta_a, np.ndarray) or isinstance(eta_b, np.ndarray):
        return 1.0 - np.float_power(1.0 - eta_a, m) * np.float_power(1.0 - eta_b, n)
    return 1.0 - (1.0 - eta_a) ** m * (1.0 - eta_b) ** n


def click_probability(d: Detector, pol_a: PolarizationVector,
                      pol_b: PolarizationVector, m: int, n: int) -> float:
    """P(at least one click) for m photons at pol_a plus n at pol_b:
    :func:`click_from_efficiencies` at eta(pol_a) and eta(pol_b)."""
    return click_from_efficiencies(effective_efficiency(d, pol_a),
                                   effective_efficiency(d, pol_b), m, n)


def depolarize(rho: PolarizationDensity, p: float) -> PolarizationDensity:
    """Isotropic depolarizing channel (1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z).

    Contracts the Bloch vector by (1 - 4p/3); p = 3/4 maps everything to
    the maximally mixed state.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing probability must lie in [0, 1]")
    r = rho.rho
    out = (1.0 - p) * r + (p / 3.0) * (
        _PAULI_X @ r @ _PAULI_X + _PAULI_Y @ r @ _PAULI_Y + _PAULI_Z @ r @ _PAULI_Z)
    return PolarizationDensity(out, rho.basis)


def eigendecompose(rho: PolarizationDensity
                   ) -> list[tuple[float, PolarizationVector]]:
    """Spectral decomposition into two (weight, pure state) branches.

    Weights are clipped to [0, 1], ordered descending, and the vectors'
    phases fixed so the largest-magnitude component is real positive.
    A degenerate density (within 1e-12 of I/2) is split in its ``basis``
    and that state's orthogonal complement, weighted by <basis|rho|basis>.
    """
    r = rho.rho
    if abs(r[0, 0] - r[1, 1]) < 1e-12 and abs(r[0, 1]) < 1e-12:
        vec = rho.basis.as_array()
        w = float((vec.conj() @ r @ vec).real)
        return [(w, rho.basis), (1.0 - w, orthogonal(rho.basis))]
    vals, vecs = np.linalg.eigh(r)
    branches = []
    for i in (1, 0):  # eigh sorts ascending; emit largest weight first
        w = float(min(max(vals[i], 0.0), 1.0))
        vec = vecs[:, i]
        k = int(np.argmax(np.abs(vec)))
        phase = vec[k] / abs(vec[k])
        vec = vec / phase
        nrm = math.sqrt(float(np.sum(np.abs(vec) ** 2)))
        branches.append((w, PolarizationVector(complex(vec[0] / nrm),
                                               complex(vec[1] / nrm))))
    return branches
