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


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """(x, y, z) Bloch components of a 2x2 density matrix."""
    return np.array([np.trace(m @ rho).real for m in _PAULIS])


def density(w: float, state: pol.PolarizationVector) -> np.ndarray:
    """The matrix w |s><s| + (1 - w) |s_perp><s_perp| of weight w on s."""
    s = np.array([state.h, state.v], dtype=complex)
    return (1.0 - w) * np.eye(2) + (2.0 * w - 1.0) * np.outer(s, s.conj())


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


def random_weighted(seed: int) -> tuple[float, pol.PolarizationVector]:
    """A random weight on a random pure state."""
    return float(np.random.default_rng(seed).random()), random_vector(seed)


# random weights on random states, out to the pure and the maximally
# mixed edge
weighted_states = st.tuples(
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 0.5 + 1e-12, 1.0 - 1e-12, 1.0])),
    st.one_of(st.sampled_from([pol.H, pol.V, pol.D, pol.A]), unit_vectors))


def test_depolarize_identity_at_zero():
    w, s = random_weighted(1)
    assert np.allclose(density(pol.depolarize(w, 0.0), s), density(w, s), atol=1e-15)


def test_depolarize_fixed_point():
    for seed in range(4):
        w, s = random_weighted(seed)
        assert np.allclose(density(pol.depolarize(w, 0.75), s), np.eye(2) / 2, atol=1e-12)


def test_depolarize_full_strength_on_h():
    out = density(pol.depolarize(1.0, 1.0), pol.H)
    assert np.allclose(np.diag(out).real, [1 / 3, 2 / 3], atol=1e-14)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.4, 0.75, 1.0])
def test_depolarize_preserves_density_invariants(p):
    for seed in range(6):
        w, s = random_weighted(seed)
        out = pol.depolarize(w, p)
        assert 0.0 <= out <= 1.0
        assert abs(np.trace(density(out, s)).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(density(out, s)).min() > -1e-12


@pytest.mark.parametrize("p", [0.0, 0.2, 0.6, 1.0])
def test_depolarize_contracts_bloch_vector(p):
    w, s = random_weighted(11)
    before = bloch_vector(density(w, s))
    after = bloch_vector(density(pol.depolarize(w, p), s))
    assert np.allclose(after, (1 - 4 * p / 3) * before, atol=1e-12)


# ---------------------------------------------------------------------------
# branches: weight w on the state, 1 - w on its orthogonal
# ---------------------------------------------------------------------------

def branches(w: float, state: pol.PolarizationVector) -> list:
    return [(w, state), (1.0 - w, pol.orthogonal(state))]


@pytest.mark.parametrize("psi", [pol.D, pol.rotate(pol.H, 0.3),
                                 pol.PolarizationVector(0.6, 0.8j)])
def test_fully_depolarized_state_splits_in_its_input_basis(psi):
    # I/2 has no eigenbasis of its own: a depolarized pure state keeps
    # its input's frame, (1 - 2p/3, psi) and (2p/3, psi_perp), at p = 3/4
    (w0, v0), (w1, v1) = branches(pol.depolarize(1.0, 0.75), psi)
    assert (v0, v1) == (psi, pol.orthogonal(psi))
    assert w0 == pytest.approx(0.5, abs=1e-15) and w1 == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(weighted_states, st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.75, 1.0])))
def test_depolarize_matches_pauli_sum(weighted, p):
    w, s = weighted
    got = density(pol.depolarize(w, p), s)
    assert np.abs(got - pauli_depolarize(density(w, s), p)).max() <= 1e-15


def test_eigendecompose_reconstructs():
    for seed in range(8):
        w, s = random_weighted(seed)
        acc = np.zeros((2, 2), dtype=complex)
        for wv, v in branches(w, s):
            vec = np.array([v.h, v.v], dtype=complex)
            acc += wv * np.outer(vec, vec.conj())
        assert np.allclose(acc, density(w, s), atol=1e-10)
        assert sum(wv for wv, _ in branches(w, s)) == pytest.approx(1.0, abs=1e-12)
        vs = [np.array([v.h, v.v], dtype=complex) for _, v in branches(w, s)]
        assert abs(np.vdot(vs[0], vs[1])) < 1e-10


def test_density_validation():
    with pytest.raises(ValueError):
        pol.depolarize(0.5, 1.5)
    with pytest.raises(ValueError):
        pol.depolarize(0.5, -0.1)
    with pytest.raises(ValueError):
        pol.PolarizationVector(1.0, 1.0)
