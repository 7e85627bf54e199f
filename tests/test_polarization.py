import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsim import polarization as pol


def random_vector(seed: int) -> pol.PolarizationVector:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return pol.PolarizationVector(complex(v[0]), complex(v[1]))


unit_vectors = st.builds(random_vector, st.integers(0, 10_000))


_PAULIS = [np.array(m, dtype=complex)
           for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]


def bloch_vector(rho: pol.PolarizationDensity) -> np.ndarray:
    """(x, y, z) Bloch components of a 2x2 density matrix."""
    return np.array([np.trace(m @ rho.rho).real for m in _PAULIS])


# ---------------------------------------------------------------------------
# cos_phi / rotate
# ---------------------------------------------------------------------------

def test_cos_phi_basic_values():
    assert pol.cos_phi(pol.H, pol.H) == pytest.approx(1.0)
    assert pol.cos_phi(pol.H, pol.V) == 0.0
    assert pol.cos_phi(pol.H, pol.D) == pytest.approx(1 / math.sqrt(2), rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(unit_vectors, unit_vectors, st.floats(0, 2 * math.pi))
def test_cos_phi_global_phase_invariance(a, b, phase):
    z = cmath.exp(1j * phase)
    b2 = pol.PolarizationVector(b.h * z, b.v * z)
    assert pol.cos_phi(a, b2) == pytest.approx(pol.cos_phi(a, b), abs=1e-12)


def test_rotate_identity_and_quarter_turn():
    assert pol.rotate(pol.H, 0.0) == pol.H
    r = pol.rotate(pol.H, math.pi / 2)
    assert abs(r.h) < 1e-15 and abs(abs(r.v) - 1.0) < 1e-15


def test_rotations_compose():
    v = pol.rotate(pol.rotate(pol.D, 0.3), 0.5)
    w = pol.rotate(pol.D, 0.8)
    assert v.h == pytest.approx(w.h, abs=1e-14)
    assert v.v == pytest.approx(w.v, abs=1e-14)


def test_orthogonal_vector():
    for v in (pol.H, pol.D, random_vector(3)):
        o = pol.orthogonal(v)
        assert pol.cos_phi(v, o) < 1e-14


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------

def test_effective_efficiency_weighted_average():
    det = pol.Detector(0.8, 0.83)  # polarization-dependent SNSPD pair
    assert pol.effective_efficiency(det, pol.D) == pytest.approx(0.815, rel=1e-12)
    assert pol.effective_efficiency(det, pol.H) == 0.8
    flat = pol.Detector(0.9, 0.9)
    assert pol.effective_efficiency(flat, random_vector(7)) == pytest.approx(0.9)


def test_click_probability_values():
    ideal = pol.Detector(1.0, 1.0)
    assert pol.click_probability(ideal, pol.H, pol.V, 1, 0) == 1.0
    assert pol.click_probability(ideal, pol.H, pol.V, 3, 2) == 1.0
    assert pol.click_probability(pol.Detector(0.4, 0.4), pol.H, pol.V, 0, 0) == 0.0
    half = pol.Detector(0.5, 0.5)
    assert pol.click_probability(half, pol.H, pol.V, 1, 1) == pytest.approx(0.75)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.floats(0, 1), st.floats(0, 1))
def test_click_probability_monotone(m, n, eta_h, eta_v):
    det_lo = pol.Detector(eta_h, eta_v)
    det_hi = pol.Detector(min(eta_h + 0.1, 1.0), min(eta_v + 0.1, 1.0))
    p = pol.click_probability(det_lo, pol.D, pol.A, m, n)
    assert pol.click_probability(det_lo, pol.D, pol.A, m + 1, n) >= p
    assert pol.click_probability(det_lo, pol.D, pol.A, m, n + 1) >= p
    assert pol.click_probability(det_hi, pol.D, pol.A, m, n) >= p - 1e-15


def test_detector_validation():
    with pytest.raises(ValueError):
        pol.Detector(1.2, 0.5)
    with pytest.raises(ValueError):
        pol.click_probability(pol.Detector(1, 1), pol.H, pol.V, -1, 0)


# ---------------------------------------------------------------------------
# depolarizing channel
# ---------------------------------------------------------------------------

def pauli_depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    """Reference channel (1 - p) rho + (p/3)(X rho X + Y rho Y + Z rho Z)."""
    return (1.0 - p) * rho + (p / 3.0) * sum(s @ rho @ s for s in _PAULIS)


def random_matrix(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_density(seed: int) -> pol.PolarizationDensity:
    return pol.PolarizationDensity.from_matrix(random_matrix(seed))


def bloch_matrix(seed: int, length: float) -> np.ndarray:
    """(I + r.sigma)/2 with |r| = length in a random direction."""
    n = np.random.default_rng(seed).normal(size=3)
    r = length * n / np.linalg.norm(n)
    return 0.5 * (np.eye(2) + sum(c * s for c, s in zip(r, _PAULIS)))


# random Wishart densities, and Bloch lengths out to the pure and the
# maximally mixed edge
density_matrices = st.one_of(
    st.builds(random_matrix, st.integers(0, 10_000)),
    st.builds(bloch_matrix, st.integers(0, 10_000),
              st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-12, 1.0 - 1e-12, 1.0]))))


def test_depolarize_identity_at_zero():
    rho = random_density(1)
    assert np.allclose(pol.depolarize(rho, 0.0).rho, rho.rho, atol=1e-15)


def test_depolarize_fixed_point():
    for seed in range(4):
        out = pol.depolarize(random_density(seed), 0.75)
        assert np.allclose(out.rho, np.eye(2) / 2, atol=1e-12)


def test_depolarize_full_strength_on_h():
    out = pol.depolarize(pol.H.density(), 1.0)
    assert np.allclose(np.diag(out.rho).real, [1 / 3, 2 / 3], atol=1e-14)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.4, 0.75, 1.0])
def test_depolarize_preserves_density_invariants(p):
    for seed in range(6):
        out = pol.depolarize(random_density(seed), p)  # validates in ctor
        assert abs(np.trace(out.rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out.rho).min() > -1e-12


@pytest.mark.parametrize("p", [0.0, 0.2, 0.6, 1.0])
def test_depolarize_contracts_bloch_vector(p):
    rho = random_density(11)
    before = bloch_vector(rho)
    after = bloch_vector(pol.depolarize(rho, p))
    assert np.allclose(after, (1 - 4 * p / 3) * before, atol=1e-12)


# ---------------------------------------------------------------------------
# branches: weight w on the state, 1 - w on its orthogonal
# ---------------------------------------------------------------------------

def branches(rho: pol.PolarizationDensity) -> list:
    return [(rho.w, rho.state), (1.0 - rho.w, pol.orthogonal(rho.state))]


def test_eigendecompose_maximally_mixed_uses_hv():
    rho = pol.PolarizationDensity.from_matrix(np.eye(2) / 2)
    assert branches(rho) == [(0.5, pol.H), (0.5, pol.V)]


@pytest.mark.parametrize("psi", [pol.D, pol.rotate(pol.H, 0.3),
                                 pol.PolarizationVector(0.6, 0.8j)])
def test_fully_depolarized_state_splits_in_its_input_basis(psi):
    # I/2 has no eigenbasis of its own: a depolarized pure state keeps
    # its input's frame, (1 - 2p/3, psi) and (2p/3, psi_perp), at p = 3/4
    (w0, v0), (w1, v1) = branches(pol.depolarize(psi.density(), 0.75))
    assert (v0, v1) == (psi, pol.orthogonal(psi))
    assert w0 == pytest.approx(0.5, abs=1e-15) and w1 == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(density_matrices)
def test_from_matrix_gives_orthonormal_descending_branches(matrix):
    rho = pol.PolarizationDensity.from_matrix(matrix)
    (w0, v0), (w1, v1) = branches(rho)
    assert 0.0 <= w1 <= w0 <= 1.0 and w0 + w1 == 1.0
    vs = np.array([v0.as_array(), v1.as_array()])
    assert np.abs(vs.conj() @ vs.T - np.eye(2)).max() <= 1e-15
    acc = sum(w * np.outer(v.as_array(), v.as_array().conj()) for w, v in branches(rho))
    assert np.abs(acc - matrix).max() <= 1e-14
    assert np.abs(rho.rho - matrix).max() <= 1e-14


@settings(max_examples=200, deadline=None)
@given(density_matrices, st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.75, 1.0])))
def test_depolarize_matches_pauli_sum(matrix, p):
    rho = pol.PolarizationDensity.from_matrix(matrix)
    got = pol.depolarize(rho, p).rho
    assert np.abs(got - pauli_depolarize(rho.rho, p)).max() <= 1e-15


def test_eigendecompose_reconstructs():
    for seed in range(8):
        rho = random_density(seed)
        acc = np.zeros((2, 2), dtype=complex)
        for w, v in branches(rho):
            vec = v.as_array()
            acc += w * np.outer(vec, vec.conj())
        assert np.allclose(acc, rho.rho, atol=1e-10)
        ws = [w for w, _ in branches(rho)]
        assert sum(ws) == pytest.approx(1.0, abs=1e-12)
        vs = [v.as_array() for _, v in branches(rho)]
        assert abs(np.vdot(vs[0], vs[1])) < 1e-10


def test_density_validation():
    with pytest.raises(ValueError):
        pol.PolarizationDensity.from_matrix(np.array([[0.5, 0.5], [0.4, 0.5]]))
    with pytest.raises(ValueError):
        pol.PolarizationDensity.from_matrix(np.eye(2))
    with pytest.raises(ValueError, match="positive semidefinite"):
        pol.PolarizationDensity.from_matrix(np.diag([1.1, -0.1]))
    with pytest.raises(ValueError):
        pol.PolarizationVector(1.0, 1.0)
