import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsim import fock
from homsim import oracle
from homsim import polarization as pol
from homsim import spectral as spc

CENTER = 2 * math.pi * 193.55
BALANCED = fock.BeamSplitter.balanced()


def identical_pair(m, n):
    return fock.FockPair(m, n, pol.H, pol.H)


def test_canonical_hom_distribution():
    dist = oracle.expand(identical_pair(1, 1), BALANCED)
    # all population in |2,0> and |0,2> of the shared mode
    two_zero = dist.probs.get(((2, 0, 0, 0), (0, 0, 0, 0)), 0.0)
    zero_two = dist.probs.get(((0, 0, 0, 0), (2, 0, 0, 0)), 0.0)
    one_one = dist.probs.get(((1, 0, 0, 0), (1, 0, 0, 0)), 0.0)
    assert two_zero == pytest.approx(0.5, abs=1e-14)
    assert zero_two == pytest.approx(0.5, abs=1e-14)
    assert one_one == pytest.approx(0.0, abs=1e-14)


def test_single_photon_routing():
    bs = fock.BeamSplitter(0.3, 0.7)
    dist = oracle.expand(identical_pair(1, 0), bs)
    at_a = dist.probs.get(((1, 0, 0, 0), (0, 0, 0, 0)), 0.0)
    at_b = dist.probs.get(((0, 0, 0, 0), (1, 0, 0, 0)), 0.0)
    assert at_a == pytest.approx(0.3, abs=1e-14)
    assert at_b == pytest.approx(0.7, abs=1e-14)


def test_two_one_bunching_weights():
    dist = oracle.expand(identical_pair(2, 1), BALANCED)
    assert dist.probs.get(((3, 0, 0, 0), (0, 0, 0, 0))) == pytest.approx(3 / 8, abs=1e-14)
    assert dist.probs.get(((0, 0, 0, 0), (3, 0, 0, 0))) == pytest.approx(3 / 8, abs=1e-14)
    assert dist.probs.get(((2, 0, 0, 0), (1, 0, 0, 0))) == pytest.approx(1 / 8, abs=1e-14)
    assert dist.probs.get(((1, 0, 0, 0), (2, 0, 0, 0))) == pytest.approx(1 / 8, abs=1e-14)


def test_distribution_normalized_with_partial_overlap():
    spec_b = spc.SpectralProfile(spc.Shape.SECH, CENTER + 0.4, 0.3, delay=0.2)
    spec_a = spc.SpectralProfile(spc.Shape.GAUSSIAN, CENTER, 0.5)
    for m, n in ((1, 1), (2, 3), (4, 2), (0, 5)):
        pair = fock.FockPair(m, n, pol.rotate(pol.H, 0.3), pol.D, spec_a, spec_b)
        for t in (0.25, 0.5, 0.85):
            dist = oracle.expand(pair, fock.BeamSplitter(t, 1 - t))
            assert dist.total() == pytest.approx(1.0, abs=1e-10)


def test_size_guard():
    with pytest.raises(ValueError):
        oracle.expand(identical_pair(7, 6), BALANCED)


def test_ideal_coincidence_is_antibunching_complement():
    pair = fock.FockPair(2, 2, pol.H, pol.rotate(pol.H, 0.5))
    bs = fock.BeamSplitter(0.4, 0.6)
    dist = oracle.expand(pair, bs)
    all_a = sum(p for (ca, cb), p in dist.probs.items() if sum(cb) == 0)
    all_b = sum(p for (ca, cb), p in dist.probs.items() if sum(ca) == 0)
    got = oracle.coincidence_from_distribution(dist, pol.IDEAL_DETECTOR,
                                               pol.IDEAL_DETECTOR)
    assert got == pytest.approx(1.0 - all_a - all_b, abs=1e-14)


def test_dead_detector_kills_coincidence():
    dist = oracle.expand(identical_pair(3, 2), BALANCED)
    dead = pol.Detector(0.0, 0.0)
    assert oracle.coincidence_from_distribution(dist, dead, pol.IDEAL_DETECTOR) == 0.0


def test_partial_overlap_example():
    pair = fock.FockPair(1, 1, pol.H, pol.PolarizationVector(0.7, math.sqrt(1 - 0.49)))
    got = oracle.oracle_coincidence(pair, BALANCED)
    assert got == pytest.approx(1.0 - (1.0 + 0.49) / 2.0, abs=1e-14)
    assert got == pytest.approx(fock.coincidence(pair), abs=1e-14)


def test_oracle_with_polarization_dependent_detectors():
    # per-mode polarization efficiencies: H photons see eta_h, the
    # orthogonal-mode photons eta_v when the parallel basis is H
    pair = fock.FockPair(1, 1, pol.H, pol.V)
    det = pol.Detector(0.9, 0.3)
    got = oracle.oracle_coincidence(pair, BALANCED, det, det)
    # photons are fully distinguishable; enumerate the four routings
    p_split = 0.5  # both configurations with one photon per port
    expected = 0.0
    # (H at a, V at b) and (V at a, H at b) each with probability 1/4
    expected += 0.25 * (0.9 * 0.3) * 2
    assert got == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# an independent expansion in the detectors' H/V basis
# ---------------------------------------------------------------------------

def _compositions(total, parts):
    """Every tuple of ``parts`` non-negative integers that sum to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for k in range(total + 1):
        for rest in _compositions(total - k, parts - 1):
            yield (k,) + rest


def _multinomial_terms(photons, u):
    """(u . a^dagger)^photons / photons! as {occupations: coefficient}: the
    multinomial expansion, one term per way to place the photons in the
    modes where ``u`` is non-zero."""
    support = [mu for mu, x in enumerate(u) if x != 0]
    terms = {}
    for ks in _compositions(photons, len(support)) if support else ():
        occ = [0] * len(u)
        coeff = 1.0 + 0.0j
        for mu, k in zip(support, ks):
            occ[mu] = k
            coeff *= u[mu] ** k / math.factorial(k)
        terms[tuple(occ)] = coeff
    return terms


def hv_coincidence(pair, bs, det_a, det_b, phase=1.0):
    """P(both detectors click), expanded in the detectors' own basis.

    The eight output modes are port x (H, V) x (spec_a, spec_a_perp), in
    that nesting.  The input (u_A . a^dagger)^m (u_B . a^dagger)^n |0> /
    sqrt(m! n!) gives the output pattern N the amplitude sqrt(m! n! prod N!)
    times the sum, over the splits N = k_A + k_B, of the two arms'
    multinomial terms prod u^k / k!.  H and V are the detectors' eigenmodes,
    so a detector stays dark with probability prod (1 - eta_H)^N_H
    (1 - eta_V)^N_V over its port's modes.  The splitter is the symmetric
    (t, i r; i r, t), which gives the same photon statistics as any other
    phase convention.  Arm B's component along arm A's spectrum is
    cos(Theta) times the unit-modulus ``phase``.
    """
    t, r = math.sqrt(bs.transmissivity), math.sqrt(bs.reflectivity)
    cs = phase * (spc.overlap(pair.spec_a, pair.spec_b)
                  if pair.spec_a is not None and pair.spec_b is not None else 1.0)
    ss = math.sqrt(max(0.0, 1.0 - abs(cs) ** 2))
    u_a = np.kron(np.kron([t, 1j * r], [pair.pol_a.h, pair.pol_a.v]), [1.0, 0.0])
    u_b = np.kron(np.kron([1j * r, t], [pair.pol_b.h, pair.pol_b.v]), [cs, ss])
    amps = {}
    for occ_a, c_a in _multinomial_terms(pair.m, u_a).items():
        for occ_b, c_b in _multinomial_terms(pair.n, u_b).items():
            occ = tuple(x + y for x, y in zip(occ_a, occ_b))
            amps[occ] = amps.get(occ, 0.0) + c_a * c_b
    total = 0.0
    for occ, amp in amps.items():
        weight = abs(amp) ** 2 * math.prod(math.factorial(k) for k in occ)
        dark = [math.prod((1.0 - eta) ** k for eta, k in
                          zip((d.eta_h, d.eta_h, d.eta_v, d.eta_v), occ[4 * port:4 * port + 4]))
                for port, d in enumerate((det_a, det_b))]
        total += weight * (1.0 - dark[0]) * (1.0 - dark[1])
    return total * math.factorial(pair.m) * math.factorial(pair.n)


def _random_polarization(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return pol.PolarizationVector(complex(v[0]), complex(v[1]))


_polarizations = st.one_of(st.sampled_from([pol.H, pol.V, pol.D, pol.A]),
                           st.builds(_random_polarization, st.integers(0, 10_000)))
_detectors = st.builds(pol.Detector, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
_SPECTRA = [(None, None),
            (spc.SpectralProfile(spc.Shape.GAUSSIAN, CENTER, 0.5),
             spc.SpectralProfile(spc.Shape.SECH, CENTER + 0.4, 0.3, delay=0.2))]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(int(m == 0), 8 - m))),
       _polarizations, _polarizations, st.floats(0.0, 1.0), _detectors, _detectors,
       st.sampled_from(_SPECTRA))
def test_oracle_matches_hv_basis_expansion(mn, pol_a, pol_b, t, det_a, det_b, spectra):
    pair = fock.FockPair(*mn, pol_a, pol_b, *spectra)
    bs = fock.BeamSplitter(t, 1.0 - t)
    got = oracle.oracle_coincidence(pair, bs, det_a, det_b)
    assert abs(got - hv_coincidence(pair, bs, det_a, det_b)) <= 1e-14
    # the overlap's phase is global to arm B's photons, so the oracle can
    # leave it out
    assert abs(got - hv_coincidence(pair, bs, det_a, det_b, np.exp(0.7j))) <= 1e-14


@pytest.mark.parametrize("det, exact", [(pol.Detector(1.0, 0.0), 0.0),
                                        (pol.Detector(0.9, 0.6), 0.27)])
def test_oracle_counts_diagonal_photons_in_the_detectors_basis(det, exact):
    # one D and one A photon never interfere, and leave as |2H> or |2V>
    # with the |HV> terms cancelled; the D/A basis read 0.125 and 0.28125
    got = oracle.oracle_coincidence(fock.FockPair(1, 1, pol.D, pol.A), BALANCED, det, det)
    assert got == pytest.approx(exact, abs=1e-15)
