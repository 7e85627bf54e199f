import itertools
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
GAUSS = spc.SpectralProfile(spc.Shape.GAUSSIAN, CENTER, math.pi)  # 0.5 THz
BALANCED = fock.BeamSplitter.balanced()


def pair_with_overlap(m: int, n: int, c: float) -> fock.FockPair:
    """Photon-number pair whose combined mode overlap is exactly c."""
    pol_b = pol.PolarizationVector(c, math.sqrt(1.0 - c * c))
    return fock.FockPair(m, n, pol.H, pol_b)


# ---------------------------------------------------------------------------
# bunching factor
# ---------------------------------------------------------------------------

def test_bunching_small_cases():
    c = 0.37
    assert fock.bunching_factor(1, 1, c) == pytest.approx(1 + c * c, rel=1e-15)
    assert fock.bunching_factor(2, 2, c) == pytest.approx(
        1 + 4 * c**2 + c**4, rel=1e-15)
    assert fock.bunching_factor(2, 2, 1.0) == 6.0
    assert fock.bunching_factor(2, 1, 1.0) == 3.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.floats(0, 1))
def test_bunching_properties(m, n, c):
    p = fock.bunching_factor(m, n, c)
    assert p >= 1.0
    assert fock.bunching_factor(n, m, c) == pytest.approx(p, rel=1e-14)
    assert fock.bunching_factor(m, n, 0.0) == 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10))
def test_bunching_at_full_overlap_is_vandermonde(m, n):
    # sum_j C(m,j) C(n,j) = C(m+n, m): an independent closed form for c = 1
    assert fock.bunching_factor(m, n, 1.0) == float(math.comb(m + n, m))


def test_equal_input_visibility_closed_forms():
    # V(m=n, matched) = (C(2m, m) - 1) / (2^(2m-1) - 1); mismatched cases
    # interpolate below their balanced neighbours
    for m, n, expected in ((1, 1, 1.0), (2, 2, 5 / 7), (3, 3, 19 / 31),
                           (1, 2, 2 / 3), (1, 3, 3 / 7), (2, 3, 3 / 5)):
        got = fock.visibility_from_c(m, n, 1.0, fock.IDEAL_APPARATUS)
        assert got == pytest.approx(expected, rel=1e-13), (m, n)


def test_bunching_log_domain_consistency():
    # above the exact-integer cutoff the log-gamma path takes over
    exact = fock.bunching_factor(62, 62, 0.2)
    big = fock.bunching_factor(63, 63, 0.2)
    assert big > exact > 1.0
    assert math.isfinite(big)


# ---------------------------------------------------------------------------
# one-sided exits and coincidence
# ---------------------------------------------------------------------------

def test_p_all_one_side_values():
    pa, pb = fock.p_all_one_side(pair_with_overlap(1, 1, 1.0), BALANCED)
    assert (pa, pb) == (pytest.approx(0.5), pytest.approx(0.5))
    pa, pb = fock.p_all_one_side(pair_with_overlap(2, 1, 1.0), BALANCED)
    assert (pa, pb) == (pytest.approx(3 / 8), pytest.approx(3 / 8))
    pa, pb = fock.p_all_one_side(pair_with_overlap(1, 1, 0.0), BALANCED)
    assert (pa, pb) == (pytest.approx(1 / 4), pytest.approx(1 / 4))
    assert pa + pb <= 1.0


def test_coincidence_canonical_values():
    assert fock.coincidence(pair_with_overlap(1, 1, 1.0)) == 0.0
    assert fock.coincidence(pair_with_overlap(1, 1, 0.0)) == pytest.approx(0.5)
    assert fock.coincidence(pair_with_overlap(2, 1, 1.0)) == pytest.approx(0.25)


def test_coincidence_rejects_vacuum():
    with pytest.raises(ValueError):
        fock.coincidence(fock.FockPair(0, 0))


def test_invalid_regime_raises():
    # strong bunching with very lossy detectors drives the formula negative
    lossy = pol.Detector(0.5, 0.5)
    app = fock.Apparatus(BALANCED, lossy, lossy)
    with pytest.raises(fock.InvalidRegimeError):
        fock.coincidence(pair_with_overlap(1, 1, 1.0), app)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.floats(0, 1), st.floats(0, 1))
def test_coincidence_monotone_in_overlap(m, c1, c2):
    lo, hi = sorted((c1, c2))
    p_hi = fock.coincidence(pair_with_overlap(m, m, hi))
    p_lo = fock.coincidence(pair_with_overlap(m, m, lo))
    assert p_hi <= p_lo + 1e-12


# ---------------------------------------------------------------------------
# swap symmetries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_exact_relabeling_symmetries(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(0, 4)), int(rng.integers(1, 4))
    t = float(rng.uniform(0.2, 0.8))
    c = float(rng.uniform(0, 1))
    det_a = pol.Detector(*rng.uniform(0.6, 1.0, 2))
    det_b = pol.Detector(*rng.uniform(0.6, 1.0, 2))
    pol_b = pol.PolarizationVector(c, math.sqrt(1 - c * c))
    bs = fock.BeamSplitter(t, 1 - t)
    bs_swapped = fock.BeamSplitter(1 - t, t)
    try:
        base = fock.coincidence(fock.FockPair(m, n, pol.H, pol_b),
                                fock.Apparatus(bs, det_a, det_b))
    except fock.InvalidRegimeError:
        return
    # arm swap + detector swap, T fixed
    swapped_dets = fock.coincidence(fock.FockPair(n, m, pol_b, pol.H),
                                    fock.Apparatus(bs, det_b, det_a))
    # arm swap + T <-> R, detectors fixed
    swapped_tr = fock.coincidence(fock.FockPair(n, m, pol_b, pol.H),
                                  fock.Apparatus(bs_swapped, det_a, det_b))
    assert swapped_dets == pytest.approx(base, abs=1e-14)
    assert swapped_tr == pytest.approx(base, abs=1e-14)


def test_triple_swap_holds_for_matched_detectors():
    det = pol.Detector(0.85, 0.7)
    bs = fock.BeamSplitter(0.3, 0.7)
    pair = pair_with_overlap(2, 1, 0.6)
    base = fock.coincidence(pair, fock.Apparatus(bs, det, det))
    flipped = fock.coincidence(fock.FockPair(1, 2, pair.pol_b, pair.pol_a),
                               fock.Apparatus(fock.BeamSplitter(0.7, 0.3), det, det))
    assert flipped == pytest.approx(base, abs=1e-14)


# ---------------------------------------------------------------------------
# oracle agreement
# ---------------------------------------------------------------------------

def test_formula_matches_operator_expansion():
    for m, n in itertools.product(range(4), range(4)):
        if m + n < 1:
            continue
        for t in (0.3, 0.5, 0.7):
            bs = fock.BeamSplitter(t, 1 - t)
            for c in (0.0, 0.3, 0.7, 1.0):
                pair = pair_with_overlap(m, n, c)
                expected = oracle.oracle_coincidence(pair, bs)
                got = fock.coincidence(pair, fock.Apparatus(bs))
                assert got == pytest.approx(expected, abs=1e-12)


def test_formula_matches_oracle_with_spectra_and_delay():
    spec_b = GAUSS.delayed(0.4)
    pair = fock.FockPair(2, 2, pol.H, pol.rotate(pol.H, 0.4), GAUSS, spec_b)
    bs = fock.BeamSplitter(0.6, 0.4)
    assert fock.coincidence(pair, fock.Apparatus(bs)) == pytest.approx(
        oracle.oracle_coincidence(pair, bs), abs=1e-12)


# ---------------------------------------------------------------------------
# dip curves and visibility
# ---------------------------------------------------------------------------

def test_dip_curve_matched_single_photons():
    pair = fock.FockPair(1, 1, pol.H, pol.H, GAUSS, GAUSS)
    taus = [-6.0, -3.6, -2.4, -1.2, 0.0, 1.2, 2.4, 3.6, 6.0]
    curve = dict(fock.dip_curve(pair, taus))
    assert curve[0.0] < 1e-9
    assert curve[6.0] == pytest.approx(0.5, abs=1e-9)
    assert curve[-6.0] == pytest.approx(0.5, abs=1e-9)
    for tau in (1.2, 2.4, 3.6):
        assert curve[tau] == pytest.approx(curve[-tau], abs=1e-12)


def test_dip_curve_orthogonal_polarization_is_flat():
    pair = fock.FockPair(1, 1, pol.H, pol.V, GAUSS, GAUSS)
    for _, p in fock.dip_curve(pair, np.linspace(-3, 3, 11)):
        assert p == pytest.approx(0.5, abs=1e-9)


def test_dip_curve_two_photon_endpoints():
    pair = fock.FockPair(2, 2, pol.H, pol.H, GAUSS, GAUSS)
    curve = dict(fock.dip_curve(pair, [0.0, 8.0]))
    assert curve[0.0] == pytest.approx(0.25, abs=1e-9)
    assert curve[8.0] == pytest.approx(7 / 8, abs=1e-9)


def test_dip_curve_shared_cos_theta_matches_per_block_scan():
    # one overlap scan shared by every (m, n, Phi) block gives exactly the
    # numbers of each block scanning its own overlaps
    a = spc.SpectralProfile(spc.Shape.SECH, CENTER, 0.8 * math.pi)
    b = spc.SpectralProfile(spc.Shape.SINC, CENTER + 1.2, 2.5)
    app = fock.Apparatus(BALANCED, pol.Detector(0.9, 0.8), pol.Detector(0.85, 0.95))
    taus = np.linspace(-4.0, 4.0, 17)
    cos_theta = spc.overlap_curve(a, b, taus)
    for (m, n), phi in itertools.product([(1, 1), (2, 2), (3, 3)],
                                         [0.0, 0.25 * math.pi, 0.5 * math.pi]):
        pair = fock.FockPair(m, n, pol.H, pol.rotate(pol.H, phi), a, b)
        assert (fock.dip_curve(pair, taus, app, cos_theta)
                == fock.dip_curve(pair, taus, app))


def test_dip_curve_rejects_mismatched_cos_theta():
    pair = fock.FockPair(1, 1, pol.H, pol.H, GAUSS, GAUSS)
    with pytest.raises(ValueError):
        fock.dip_curve(pair, [0.0, 1.0], cos_theta=[1.0])


def test_mode_overlap_is_shared_by_fock_and_coherent_pairs():
    from homsim import coherent as coh
    pol_b = pol.rotate(pol.H, 0.4)
    b = GAUSS.delayed(0.7)
    c = pol.cos_phi(pol.H, pol_b) * spc.overlap(GAUSS, b).magnitude
    assert fock.mode_overlap(pol.H, pol_b, spc.overlap(GAUSS, b).magnitude) == c
    assert fock.FockPair(1, 2, pol.H, pol_b, GAUSS, b).mode_overlap() == c
    assert coh.CoherentPair(0.5, 1.0, pol.H, pol_b, GAUSS, b).mode_overlap() == c
    assert fock.mode_overlap(pol.H, pol_b) == pol.cos_phi(pol.H, pol_b)


def test_visibility_values():
    pair = fock.FockPair(1, 1, pol.H, pol.H, GAUSS, GAUSS)
    assert fock.visibility(pair) == pytest.approx(1.0, abs=1e-12)
    pair22 = fock.FockPair(2, 2, pol.H, pol.H, GAUSS, GAUSS)
    assert fock.visibility(pair22) == pytest.approx(5 / 7, rel=1e-12)


def test_visibility_gaussian_vs_sinc_pairing():
    # the tables report the best visibility over photon B's width; at the
    # exact FWHM match the dip is slightly shallower
    from homsim.sweeps import max_overlap_width
    fw = spc.wavelength_width_to_frequency(2 * math.pi * spc.SPEED_OF_LIGHT_NM_PS / CENTER, 1.0)
    prof_a = spc.SpectralProfile.from_fwhm("gaussian", CENTER, fw)
    _, c_best = max_overlap_width(prof_a, spc.Shape.SINC)
    assert c_best**2 == pytest.approx(0.89, abs=0.02)
    prof_b = spc.SpectralProfile.from_fwhm("sinc", CENTER, fw)
    pair = fock.FockPair(1, 1, pol.H, pol.H, prof_a, prof_b)
    assert fock.visibility(pair) == pytest.approx(0.87, abs=0.03)


def test_visibility_undefined_for_dead_detectors():
    dead = pol.Detector(0.0, 0.0)
    with pytest.raises(ZeroDivisionError):
        fock.visibility_from_c(1, 1, 0.5, fock.Apparatus(BALANCED, dead, dead))


def test_visibility_vs_polarization():
    vals = dict(fock.visibility_vs_polarization(1, 1, [0.0, math.pi / 2]))
    assert vals[0.0] == pytest.approx(1.0)
    assert vals[math.pi / 2] == pytest.approx(0.0, abs=1e-12)
    v22 = dict(fock.visibility_vs_polarization(2, 2, [0.0]))[0.0]
    assert v22 == pytest.approx(5 / 7, rel=1e-12)
    # decreasing on [0, pi/2] for fixed m = n
    phis = np.linspace(0, math.pi / 2, 12)
    vs = [v for _, v in fock.visibility_vs_polarization(2, 2, phis)]
    assert all(a >= b - 1e-12 for a, b in zip(vs, vs[1:]))


def test_mismatched_photon_numbers_order():
    # equal photon numbers interfere more strongly than mismatched ones
    v22 = dict(fock.visibility_vs_polarization(2, 2, [0.0]))[0.0]
    v12 = dict(fock.visibility_vs_polarization(1, 2, [0.0]))[0.0]
    assert v22 == pytest.approx(5 / 7, rel=1e-12)
    assert v12 == pytest.approx(2 / 3, rel=1e-12)
    assert v22 > v12


def test_large_delay_matches_analytic_baseline():
    # 40 pulse widths out, the dip has fully relaxed for every shape
    for shape, width in (("gaussian", 0.5), ("sinc", 3.0),
                         ("lorentzian", 0.5), ("sech", 0.4)):
        prof = spc.SpectralProfile(spc.Shape(shape), CENTER, width)
        scale = width if shape == "sinc" else 1.0 / width
        pair = fock.FockPair(1, 1, pol.H, pol.H, prof, prof.delayed(40 * scale))
        p_far = fock.coincidence(pair)
        assert p_far == pytest.approx(0.5, abs=1e-6)


def test_beam_splitter_validation():
    with pytest.raises(ValueError):
        fock.BeamSplitter(0.6, 0.5)
    with pytest.raises(ValueError):
        fock.BeamSplitter(-0.1, 1.1)
    with pytest.raises(ValueError):
        fock.FockPair(-1, 2)
