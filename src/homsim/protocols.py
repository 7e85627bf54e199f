"""Application-level figures of merit built on the interference kernels.

MDI-QKD outcome table
    Alice and Bob send BB84 polarization states to a relay whose 50:50
    beam splitter + polarizing beam splitters realize four two-detector
    patterns M12, M34 (both photons at one port) and M23, M14 (split
    ports).  A relative misalignment Phi between the stations is modeled
    as a half-angle rotation R(+Phi/2) / R(-Phi/2) applied to the
    diagonal-basis preparations; rectilinear preparations are defined by
    the relay's own PBS axes and stay put, which keeps the rectilinear
    rows of the outcome table independent of both mismatch angles.  With
    that convention the conclusive-outcome probability for anti-correlated
    diagonal inputs is exactly (1/8) cos^2(Phi) (1 + cos^2(Theta)).

Also here: the additive error budget with the spectral term sin^2(Theta)/2,
the secret-key lower bound, the NOON-state phase-sensing signal, the
two-photon optical-classifier coincidence kernel, and the cluster-state
fusion fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import polarization as pol

__all__ = [
    "BB84State", "MdiScenario", "ErrorBudget", "KeyRateInputs",
    "mdi_outcome_table", "mdi_conclusive_probability", "spectral_error",
    "total_error", "binary_entropy", "key_rate_bound",
    "noon_signal", "noon_sensitivity_scale",
    "classifier_coincidence", "classifier_floor", "fusion_fidelity",
]

BB84State = str  # one of "H", "V", "D", "A"
_STATES = {"H": pol.H, "V": pol.V, "D": pol.D, "A": pol.A}
_DIAGONAL = {"D", "A"}
OUTCOMES = ("M12", "M34", "M23", "M14")


@dataclass(frozen=True)
class MdiScenario:
    """One relay round: the two prepared states and the mismatch angles."""

    state_a: BB84State
    state_b: BB84State
    phi: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        for s in (self.state_a, self.state_b):
            if s not in _STATES:
                raise ValueError(f"unknown BB84 state {s!r}")
        if not (0.0 <= self.phi <= 0.5 * math.pi and 0.0 <= self.theta <= 0.5 * math.pi):
            raise ValueError("mismatch angles must lie in [0, pi/2]")


def _prepared(state: BB84State, rotation: float) -> pol.PolarizationVector:
    vec = _STATES[state]
    if state in _DIAGONAL and rotation != 0.0:
        return pol.rotate(vec, rotation)
    return vec


def mdi_outcome_table(scenario: MdiScenario) -> dict[str, float]:
    """Probabilities of the four detector patterns for one input pair.

    After the balanced beam splitter the two-photon state splits into
    same-port and split-port components whose squared norms are

        p(M34) = p(M12) = q + r ,   p(M23) = p(M14) = q - r ,
        q = (|u_H v_V|^2 + |u_V v_H|^2) / 4 ,
        r = Re(u_H v_V conj(u_V v_H)) cos^2(Theta) / 2 ,

    with u, v the (possibly rotated) preparation vectors.  The remaining
    probability sits in same-polarization patterns that the H/V detector
    pairs cannot resolve.
    """
    u = _prepared(scenario.state_a, 0.5 * scenario.phi)
    v = _prepared(scenario.state_b, -0.5 * scenario.phi)
    ct2 = math.cos(scenario.theta) ** 2
    a_hv = u.h * v.v
    a_vh = u.v * v.h
    q = 0.25 * (abs(a_hv) ** 2 + abs(a_vh) ** 2)
    r = 0.5 * (a_hv * a_vh.conjugate()).real * ct2
    return {"M12": q + r, "M34": q + r, "M23": q - r, "M14": q - r}


def mdi_conclusive_probability(phi: float, theta: float) -> float:
    """(1/8) cos^2(Phi) (1 + cos^2(Theta)): each of M23, M14 for DA or AD."""
    return 0.125 * math.cos(phi) ** 2 * (1.0 + math.cos(theta) ** 2)


def spectral_error(theta: float) -> float:
    """QBER contribution of spectral mismatch, e_f = sin^2(Theta) / 2.

    Equals the conditional error probability of the diagonal basis: the
    correlated rows leak sin^2(Theta)/8 into each conclusive pattern while
    the anti-correlated rows keep (1 + cos^2(Theta))/8.
    """
    if not 0.0 <= theta <= 0.5 * math.pi:
        raise ValueError("theta must lie in [0, pi/2]")
    return 0.5 * math.sin(theta) ** 2


@dataclass(frozen=True)
class ErrorBudget:
    """Additive QBER contributions; e_total = sum of the five terms."""

    e_background: float = 0.0
    e_asymmetry: float = 0.0
    e_polarization: float = 0.0
    e_temporal: float = 0.0
    e_spectral: float = 0.0

    def __post_init__(self):
        for name, val in self.__dict__.items():
            if val < 0.0:
                raise ValueError(f"{name} must be non-negative")


def total_error(budget: ErrorBudget) -> float:
    """Linear sum of the contributions (values above 1/2 are useless but
    reported as-is)."""
    return math.fsum(vars(budget).values())  # exactly rounded, so order-free


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2(1-x), with H2(0) = H2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary entropy defined on [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class KeyRateInputs:
    """Quantities entering the measurement-device-independent key bound."""

    p_z11: float
    y_z11: float
    e_z11: float
    q_z: float
    e_z: float
    f_e: float = 1.16

    def __post_init__(self):
        for name in ("p_z11", "y_z11", "e_z11", "q_z", "e_z"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.f_e < 1.0:
            raise ValueError("error-correction inefficiency f_e must be >= 1")


def key_rate_bound(inputs: KeyRateInputs) -> float:
    """R >= P_Z^{1,1} Y_Z^{1,1} [1 - H2(e_Z^{1,1})] - Q_Z f_e H2(E_Z).

    May be negative (no key extractable); returned as-is.
    """
    gain = inputs.p_z11 * inputs.y_z11 * (1.0 - binary_entropy(inputs.e_z11))
    leak = inputs.q_z * inputs.f_e * binary_entropy(inputs.e_z)
    return gain - leak


def noon_signal(n: int, theta_ab: float, phase: float) -> float:
    """Detector intensity difference -N cos(Theta_AB) sin(phase)."""
    if n < 1:
        raise ValueError("photon number N must be >= 1")
    return -n * math.cos(theta_ab) * math.sin(phase)


def noon_sensitivity_scale(n: int, theta_ab: float) -> float:
    """Phase-estimation scale 1/(N cos Theta_AB); undefined at Theta = pi/2."""
    if n < 1:
        raise ValueError("photon number N must be >= 1")
    c = math.cos(theta_ab)
    if abs(c) < 1e-12:
        raise ZeroDivisionError("sensitivity undefined for orthogonal spectra")
    return 1.0 / (n * c)


def classifier_coincidence(theta_ab: float, theta_perp: float) -> float:
    """Two-detector coincidence p0 = (1 - cos^2 Theta cos^2 Theta_perp)/2."""
    return 0.5 * (1.0 - math.cos(theta_ab) ** 2 * math.cos(theta_perp) ** 2)


def classifier_floor(theta_ab: float) -> float:
    """Residual floor sin^2(Theta)/2 when the transverse mismatch is tuned out."""
    return 0.5 * math.sin(theta_ab) ** 2


def fusion_fidelity(theta_ab: float) -> float:
    """Cluster-fusion output fidelity (1 + cos^2 Theta_AB)/2 in [1/2, 1]."""
    return 0.5 * (1.0 + math.cos(theta_ab) ** 2)
