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


def visibility_vs_polarization(m: int, n: int, phis) -> list[tuple[float, float]]:
    """Ideal-apparatus visibility as the polarization mismatch angle sweeps
    (Theta = 0)."""
    out = []
    for phi in phis:
        pb = pol.rotate(pol.H, phi)
        out.append((phi, fock.visibility_from_c(m, n, fock.mode_overlap(pol.H, pb),
                                                fock.IDEAL_APPARATUS, pol.H, pb)))
    return out


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

def p_all_one_side(m, n, c, bs):
    """(P all m+n photons exit toward detector A, same toward B):
    T^m R^n P_bunch and T^n R^m P_bunch."""
    w_a, w_b, p = fock._one_side(m, n, c, bs)
    return w_a * p, w_b * p


def test_p_all_one_side_values():
    pa, pb = p_all_one_side(1, 1, 1.0, BALANCED)
    assert (pa, pb) == (pytest.approx(0.5), pytest.approx(0.5))
    pa, pb = p_all_one_side(2, 1, 1.0, BALANCED)
    assert (pa, pb) == (pytest.approx(3 / 8), pytest.approx(3 / 8))
    pa, pb = p_all_one_side(1, 1, 0.0, BALANCED)
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

def dip(m, n, pol_b, taus):
    """One HOM dip of m photons in H against n in ``pol_b``, arm B delayed
    by each tau: the one-row :func:`fock.dip_blocks` call."""
    cos_theta = spc.overlaps(GAUSS, GAUSS.delayed(np.asarray(taus, float)))
    row, = fock.dip_blocks(m, n, pol.H, [pol_b], fock.IDEAL_APPARATUS, cos_theta)
    return dict(zip(taus, row.tolist()))


def test_dip_curve_matched_single_photons():
    taus = [-6.0, -3.6, -2.4, -1.2, 0.0, 1.2, 2.4, 3.6, 6.0]
    curve = dip(1, 1, pol.H, taus)
    assert curve[0.0] < 1e-9
    assert curve[6.0] == pytest.approx(0.5, abs=1e-9)
    assert curve[-6.0] == pytest.approx(0.5, abs=1e-9)
    for tau in (1.2, 2.4, 3.6):
        assert curve[tau] == pytest.approx(curve[-tau], abs=1e-12)


def test_dip_curve_orthogonal_polarization_is_flat():
    for p in dip(1, 1, pol.V, np.linspace(-3, 3, 11).tolist()).values():
        assert p == pytest.approx(0.5, abs=1e-9)


def test_dip_curve_two_photon_endpoints():
    curve = dip(2, 2, pol.H, [0.0, 8.0])
    assert curve[0.0] == pytest.approx(0.25, abs=1e-9)
    assert curve[8.0] == pytest.approx(7 / 8, abs=1e-9)


def test_mode_overlap_is_shared_by_fock_and_coherent_pairs():
    from homsim import coherent as coh
    pol_b = pol.rotate(pol.H, 0.4)
    b = GAUSS.delayed(0.7)
    c = pol.cos_phi(pol.H, pol_b) * spc.overlap(GAUSS, b)
    assert fock.mode_overlap(pol.H, pol_b, spc.overlap(GAUSS, b)) == c
    assert fock.FockPair(1, 2, pol.H, pol_b, GAUSS, b).mode_overlap() == c
    assert fock.mode_overlap(pol.H, pol_b) == pol.cos_phi(pol.H, pol_b)
    assert coh.CoherentPair(0.5, 1.0, pol.H, pol_b).mode_overlap() == pol.cos_phi(pol.H, pol_b)


def test_visibility_values():
    c = fock.FockPair(1, 1, pol.H, pol.H, GAUSS, GAUSS).mode_overlap()
    assert fock.visibility_from_c(1, 1, c, fock.IDEAL_APPARATUS) == pytest.approx(1.0, abs=1e-12)
    assert fock.visibility_from_c(2, 2, c, fock.IDEAL_APPARATUS) == pytest.approx(5 / 7,
                                                                                  rel=1e-12)


def test_visibility_gaussian_vs_sinc_pairing():
    # the tables report the best visibility over photon B's width; at the
    # exact FWHM match the dip is slightly shallower
    from width_search import max_overlap_width
    fw = spc.wavelength_width_to_frequency(2 * math.pi * spc.SPEED_OF_LIGHT_NM_PS / CENTER, 1.0)
    prof_a = spc.SpectralProfile.from_fwhm("gaussian", CENTER, fw)
    _, c_best = max_overlap_width(prof_a, spc.Shape.SINC)
    assert c_best**2 == pytest.approx(0.89, abs=0.02)
    prof_b = spc.SpectralProfile.from_fwhm("sinc", CENTER, fw)
    c = fock.FockPair(1, 1, pol.H, pol.H, prof_a, prof_b).mode_overlap()
    assert fock.visibility_from_c(1, 1, c, fock.IDEAL_APPARATUS) == pytest.approx(0.87, abs=0.03)


def test_visibility_undefined_for_dead_detectors():
    dead = pol.Detector(0.0, 0.0)
    with pytest.raises(ZeroDivisionError):
        fock.visibility_from_c(1, 1, 0.5, fock.Apparatus(BALANCED, dead, dead))


def test_visibility_vs_polarization():
    vals = dict(visibility_vs_polarization(1, 1, [0.0, math.pi / 2]))
    assert vals[0.0] == pytest.approx(1.0)
    assert vals[math.pi / 2] == pytest.approx(0.0, abs=1e-12)
    v22 = dict(visibility_vs_polarization(2, 2, [0.0]))[0.0]
    assert v22 == pytest.approx(5 / 7, rel=1e-12)
    # decreasing on [0, pi/2] for fixed m = n
    phis = np.linspace(0, math.pi / 2, 12)
    vs = [v for _, v in visibility_vs_polarization(2, 2, phis)]
    assert all(a >= b - 1e-12 for a, b in zip(vs, vs[1:]))


def test_mismatched_photon_numbers_order():
    # equal photon numbers interfere more strongly than mismatched ones
    v22 = dict(visibility_vs_polarization(2, 2, [0.0]))[0.0]
    v12 = dict(visibility_vs_polarization(1, 2, [0.0]))[0.0]
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


# ---------------------------------------------------------------------------
# arrays of c: one call per sweep row, bit for bit the float results
# ---------------------------------------------------------------------------

LOSSY = fock.Apparatus(fock.BeamSplitter(0.6, 0.4), pol.Detector(0.9, 0.8),
                       pol.Detector(0.85, 0.95))
ROW_C = np.concatenate([[0.0, 1.0, 1.0 + 1e-13],
                        np.random.default_rng(13).random(40)])


def _hex(values):
    return [float(v).hex() for v in values]


def _float_results(f, cs):
    """Per-point float results of f, or the first failure (type, message)."""
    try:
        return _hex(f(float(c)) for c in cs), None
    except (fock.InvalidRegimeError, ZeroDivisionError) as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("m, n", [(m, n) for m in range(7) for n in range(7)])
@pytest.mark.parametrize("app", [fock.IDEAL_APPARATUS, LOSSY], ids=["ideal", "lossy"])
def test_array_c_equals_float_c_bit_for_bit(m, n, app):
    assert _hex(fock.bunching_factor(m, n, ROW_C)) == _hex(
        fock.bunching_factor(m, n, float(c)) for c in ROW_C)
    if m + n < 1:
        return
    pol_b = pol.rotate(pol.H, 0.4)
    da, db = fock._deltas(m, n, pol.H, pol_b, app)
    for f in (lambda c: fock.coincidence_raw(m, n, c, app.bs, da, db),
              lambda c: fock.visibility_from_c(m, n, c, app, pol.H, pol_b)):
        expected, message = _float_results(f, ROW_C)
        if message is None:
            got = f(ROW_C)
            assert isinstance(got, np.ndarray) and got.shape == ROW_C.shape
            assert _hex(got) == expected
        else:
            # the first failing element raises its float call's error
            with pytest.raises(message[0]) as exc:
                f(ROW_C)
            assert (type(exc.value), str(exc.value)) == message


def test_array_c_raises_at_the_first_failing_point():
    # eta = 0.8 on both detectors: (1, 1) goes negative past c ~ 0.96
    det = pol.Detector(0.8, 0.8)
    app = fock.Apparatus(BALANCED, det, det)
    da, db = fock._deltas(1, 1, pol.H, pol.H, app)
    cs = np.linspace(0.9, 1.0, 11)
    failing = []
    for c in cs:
        try:
            fock.coincidence_raw(1, 1, float(c), BALANCED, da, db)
        except fock.InvalidRegimeError as exc:
            failing.append(str(exc))
    assert 1 < len(failing) < len(cs) - 1
    with pytest.raises(fock.InvalidRegimeError) as exc:
        fock.coincidence_raw(1, 1, cs, BALANCED, da, db)
    assert str(exc.value) == failing[0]


def test_array_c_outside_unit_interval_is_rejected():
    with pytest.raises(ValueError, match="mode overlap c must lie in"):
        fock.bunching_factor(1, 1, np.array([0.5, 1.1]))
    with pytest.raises(ValueError, match="mode overlap c must lie in"):
        fock.bunching_factor(1, 1, np.array([0.5, np.nan]))


def test_non_finite_coincidence_is_rejected():
    with pytest.raises(fock.InvalidRegimeError, match=r"coincidence nan .* m=1, n=1, c=0.5;"):
        fock.coincidence_raw(1, 1, 0.5, BALANCED, math.nan, 1.0)
    with pytest.raises(fock.InvalidRegimeError, match=r"coincidence nan .* m=1, n=1, c=0.25;"):
        fock.coincidence_raw(1, 1, np.array([0.5, 0.25]), BALANCED, 1.0,
                             np.array([1.0, math.nan]))


@pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (70, 70)])
@pytest.mark.parametrize("app", [fock.IDEAL_APPARATUS, LOSSY], ids=["ideal", "lossy"])
def test_dip_blocks_rows_equal_one_coincidence_call_per_phi(m, n, app):
    # one call on a (Phi, tau) array of c with (Phi, 1) click columns: each
    # row is bit-equal to its Phi's own call on a 1-D row with float clicks
    a = spc.SpectralProfile(spc.Shape.SECH, CENTER, 0.8 * math.pi)
    b = spc.SpectralProfile(spc.Shape.SINC, CENTER + 1.2, 2.5)
    cos_theta = spc.overlaps(a, b.delayed(np.linspace(-4.0, 4.0, 17)))
    pols_b = [pol.rotate(pol.D, phi) for phi in (0.0, 0.3, 0.5 * math.pi)]
    rows = fock.dip_blocks(m, n, pol.D, pols_b, app, cos_theta)
    assert rows.shape == (3, 17)
    for row, pol_b in zip(rows, pols_b):
        da, db = fock._deltas(m, n, pol.D, pol_b, app)
        cs = fock.mode_overlap(pol.D, pol_b, cos_theta)
        assert _hex(row) == _hex(fock.coincidence_raw(m, n, cs, app.bs, da, db))


def test_dip_blocks_name_the_first_failing_point_in_row_order():
    # eta = 0.95: (1, 1) leaves [0, 1] near c = 1, so the V row (c = 0)
    # passes and the first H row fails at its last delay
    det = pol.Detector(0.95, 0.95)
    app = fock.Apparatus(BALANCED, det, det)
    cos_theta = np.array([0.0, 0.5, 1.0])
    with pytest.raises(fock.InvalidRegimeError) as exc:
        fock.dip_blocks(1, 1, pol.H, [pol.V, pol.H, pol.H], app, cos_theta)
    with pytest.raises(fock.InvalidRegimeError) as one_point:
        fock.coincidence_raw(1, 1, 1.0, BALANCED, *fock._deltas(1, 1, pol.H, pol.H, app))
    assert str(exc.value) == str(one_point.value)
    # a float c against array click terms names the same point
    da, db = fock._deltas(1, 1, pol.H, pol.H, app)
    with pytest.raises(fock.InvalidRegimeError) as broadcast:
        fock.coincidence_raw(1, 1, 1.0, BALANCED, np.array([[1.0], [da]]),
                             np.array([[1.0], [db]]))
    assert str(broadcast.value) == str(one_point.value)


# ---------------------------------------------------------------------------
# large photon numbers
# ---------------------------------------------------------------------------

def _coincidence_reference(m, n, c, t, r):
    """1 - (T^m R^n + T^n R^m) P_bunch in 50-digit arithmetic (ideal detectors)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        c2, t, r = mpmath.mpf(c) ** 2, mpmath.mpf(t), mpmath.mpf(r)
        p = mpmath.fsum(math.comb(m, j) * math.comb(n, j) * c2**j
                        for j in range(min(m, n) + 1))
        return float(1 - (t**m * r**n + t**n * r**m) * p)


@pytest.mark.parametrize("m", [300, 520, 600, 1000])
@pytest.mark.parametrize("c", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("t", [0.5, 0.3])
def test_large_photon_coincidence_matches_mpmath(m, c, t):
    # T^m R^n underflows and P_bunch overflows here; their product does not
    bs = fock.BeamSplitter(t, 1.0 - t)
    got = fock.coincidence(pair_with_overlap(m, m, c), fock.Apparatus(bs))
    assert math.isfinite(got)
    assert got == pytest.approx(_coincidence_reference(m, m, c, t, 1.0 - t), abs=1e-12)
    pa, pb = p_all_one_side(m, m, pair_with_overlap(m, m, c).mode_overlap(), bs)
    assert 1.0 - (pa + pb) == pytest.approx(got, abs=1e-15)


def test_large_photon_closed_forms():
    # 1 - 2 C(2m, m) / 4^m at c = 1 on a balanced splitter (mpmath values)
    for m, expected in ((520, 0.950529193582379), (600, 0.953943709462795)):
        got = fock.coincidence_raw(m, m, np.array([0.0, 1.0]), BALANCED, 1.0, 1.0)
        assert got[0] == pytest.approx(1.0, abs=1e-15)
        assert got[1] == pytest.approx(expected, abs=1e-13)


def test_large_unequal_photon_numbers_with_a_one_sided_splitter():
    # T = 1: every photon of arm A reaches detector A and of arm B detector
    # B, so both click whenever both arms hold photons
    bs = fock.BeamSplitter(1.0, 0.0)
    for m, n in ((100, 0), (0, 100), (100, 3), (3, 100)):
        expected = 0.0 if 0 in (m, n) else 1.0
        assert fock.coincidence(pair_with_overlap(m, n, 0.7), fock.Apparatus(bs)) == expected


def _bunching_reference(m, n, c):
    """sum_j C(m,j) C(n,j) c^{2j} in 50-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        c2 = mpmath.mpf(c) ** 2
        return mpmath.fsum(math.comb(m, j) * math.comb(n, j) * c2**j
                           for j in range(min(m, n) + 1))


@pytest.mark.parametrize("m, n", [(63, 63), (300, 300), (600, 600), (600, 250), (1000, 1000)])
@pytest.mark.parametrize("c", [0.0, 0.05, 0.3, 0.7])
def test_large_photon_bunching_factor_is_finite_where_p_bunch_is(m, n, c):
    # past the exact-integer cutoff C(m,j) C(n,j) overflows on its own while
    # P_bunch does not: inf times an underflowed c^{2j} must not become NaN
    exact = _bunching_reference(m, n, c)
    got = fock.bunching_factor(m, n, c)
    if exact > 1.7e308:
        assert got == math.inf
    else:
        assert got == pytest.approx(float(exact), rel=1e-12)
    row = fock.bunching_factor(m, n, np.array([c, c]))
    assert isinstance(row, np.ndarray) and row.tolist() == [got, got]


def test_large_photon_bunching_factor_limits():
    assert fock.bunching_factor(600, 600, 0.0) == 1.0
    assert fock.bunching_factor(600, 600, np.array([0.0]))[0] == 1.0
    # P_bunch(c = 1) = C(1200, 600), about 4e359: it overflows to inf, not NaN
    assert fock.bunching_factor(600, 600, 1.0) == math.inf
    assert fock.bunching_factor(600, 600, np.array([0.3, 1.0]))[1] == math.inf
    # C(126, 63) from the log-domain path (the cutoff is 62)
    assert fock.bunching_factor(63, 63, 1.0) == pytest.approx(math.comb(126, 63), rel=1e-12)
