import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from homsim import polarization as pol
from homsim import spectral as spc
from homsim import sweeps
from homsim.quadrature import IntegrationError

CENTER = 2 * math.pi * 193.55  # telecom C-band, rad/ps

SHAPES = list(spc.Shape)
WIDTHS = [0.05, 0.2, 1.0]  # rad/ps (duration ps for sinc: still fine)


def profile(shape, width, center=CENTER, delay=0.0, broadening=1.0):
    return spc.SpectralProfile(spc.Shape(shape), center, width, delay, broadening)


def quad_integral(f, points, rel_tol, abs_tol=1e-14):
    """The integral of a scalar complex function f over [min(points),
    max(points)] by QUADPACK's adaptive rule (scipy's quad), split at the
    interior points, where the caller knows structure lives.  The real and
    imaginary parts each converge to max(rel_tol * |part|, abs_tol)."""
    lo, *inner, hi = sorted(set(points))
    return quad(lambda x: complex(f(x)), lo, hi, points=inner or None, complex_func=True,
                epsrel=rel_tol, epsabs=abs_tol, limit=200)[0]


def time_envelope(p, t):
    """Real time-domain envelope G(t), phi's inverse Fourier transform: with
    psi(t) = (1/sqrt(2 pi)) int phi(omega) e^{-i omega t} d omega the full
    wavepacket is psi(t) = e^{-i omega_0 (t - tau)} G(t - tau)."""
    w = p.effective_width
    norm = spc._envelope_norm(p.shape, w)
    t = np.asarray(t, dtype=float)
    if p.shape is spc.Shape.GAUSSIAN:
        return norm * np.exp(-(w * t) ** 2)
    if p.shape is spc.Shape.SINC:
        return np.where(np.abs(t) <= 0.5 * w, norm, 0.0)
    if p.shape is spc.Shape.LORENTZIAN:
        return norm * np.exp(-0.5 * w * np.abs(t))
    return norm / np.cosh(np.clip(0.5 * math.pi * w * t, -700, 700))


# ---------------------------------------------------------------------------
# amplitude values
# ---------------------------------------------------------------------------

def test_gaussian_peak_amplitude():
    sigma = 0.4
    p = profile("gaussian", sigma)
    expected = (1.0 / (sigma * math.sqrt(2 * math.pi))) ** 0.5
    assert spc.amplitude(p, CENTER) == pytest.approx(expected, rel=1e-14)


def test_delay_phase_at_center():
    tau = 0.73
    for shape in SHAPES:
        p = profile(shape, 0.5, delay=tau)
        val = spc.amplitude(p, CENTER)
        assert cmath.phase(val) == pytest.approx(
            math.remainder(CENTER * tau, 2 * math.pi), abs=1e-10)


def test_delay_leaves_modulus_unchanged():
    omegas = CENTER + np.linspace(-2.0, 2.0, 7)
    for shape in SHAPES:
        p0 = profile(shape, 0.5)
        p1 = profile(shape, 0.5, delay=1.3)
        assert np.allclose(np.abs(spc.amplitude(p0, omegas)),
                           np.abs(spc.amplitude(p1, omegas)), atol=1e-14)


def test_lorentzian_line_half_width():
    # the underlying resonance line |phi| ~ 1/((w-w0)^2 + (gamma/2)^2) falls
    # to half its peak at w0 +- gamma/2 (so |phi|^2 falls to a quarter)
    gamma = 0.8
    p = profile("lorentzian", gamma)
    peak = abs(spc.amplitude(p, CENTER))
    side = abs(spc.amplitude(p, CENTER + gamma / 2))
    assert side == pytest.approx(peak / 2, rel=1e-12)
    half_int = abs(spc.amplitude(p, CENTER + spc.fwhm(p) * math.sqrt(math.sqrt(2) - 1) / 2))
    assert half_int**2 == pytest.approx(peak**2 / 2, rel=1e-9)


# ---------------------------------------------------------------------------
# normalization and Fourier consistency
# ---------------------------------------------------------------------------

_REL_TOL = 1e-10  # relative accuracy of the norm quadrature
_TAIL_EPS = 1e-16  # tail mass of G(t)^2 left outside the time support


def _time_radius(p):
    """Half-width of the support of G(t)^2 up to tail mass ~_TAIL_EPS."""
    w = p.effective_width
    return {spc.Shape.GAUSSIAN: math.sqrt(-math.log(_TAIL_EPS) / 2.0) / w,
            spc.Shape.SINC: 0.5 * w,
            spc.Shape.LORENTZIAN: -math.log(_TAIL_EPS) / w,
            spc.Shape.SECH: -math.log(_TAIL_EPS / 4.0) / (math.pi * w)}[p.shape]


def norm_squared(p):
    """int |phi|^2 d omega, evaluated in the time domain (== int G^2 dt)."""
    r = _time_radius(p)

    def f(t):
        return time_envelope(p, t) ** 2

    scale = r / 8.0
    pts = [-r, -4 * scale, -2 * scale, -scale, 0.0, scale, 2 * scale, 4 * scale, r]
    return quad_integral(f, pts, rel_tol=_REL_TOL).real


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("width", WIDTHS)
def test_norm_squared_unity(shape, width):
    assert norm_squared(profile(shape, width)) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("shape", ["gaussian", "lorentzian", "sech"])
def test_frequency_domain_normalization(shape):
    # sinc's 1/x^2 intensity tails cannot reach 1e-8 in the frequency
    # domain; it is covered by the time-domain norm plus the Fourier
    # consistency check below
    p = profile(shape, 0.4)
    # window outside which the tail mass of |phi|^2 is below ~1e-10; the
    # Lorentzian's x^-4 intensity tail needs a radius of order w eps^(-1/3)
    w, eps = p.effective_width, 1e-10
    r = {"gaussian": 2.0 * w * math.sqrt(-math.log(eps)),
         "lorentzian": w * (1.0 / (6.0 * math.pi * eps)) ** (1.0 / 3.0),
         "sech": 0.5 * w * -math.log(eps)}[shape]
    win = (p.center - r, p.center + r)

    def f(w):
        return abs(spc.amplitude(p, w)) ** 2

    seeds = list(np.linspace(win[0], win[1], 9)) + [p.center - 0.4, p.center,
                                                    p.center + 0.4]
    val = quad_integral(f, seeds, rel_tol=1e-10)
    assert val.real == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("shape", SHAPES)
def test_amplitude_is_fourier_transform_of_envelope(shape):
    # phi(w) = (1/sqrt(2 pi)) int G(t) e^{i (w - w0) t} dt for tau = 0
    p = profile(shape, 0.6)
    # sinc window ends exactly at the rect support edge T/2
    radius = {"gaussian": 12.0, "sinc": 0.3, "lorentzian": 120.0,
              "sech": 40.0}[spc.Shape(shape).value]
    for dw in (0.0, 0.31, -0.9):
        def f(t):
            return time_envelope(p, t) * np.exp(1j * dw * t)

        # the imaginary part is 0 by symmetry, so its bound is absolute:
        # rel_tol times the O(1) real part
        val = quad_integral(f, [-radius, -radius / 3, 0.0, radius / 3, radius],
                            rel_tol=1e-12, abs_tol=1e-12) / math.sqrt(2 * math.pi)
        assert val == pytest.approx(spc.amplitude(p, p.center + dw), abs=1e-9)


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------

# Exact values at the kappa = 0 edges of the exponential kernel: a segment
# of zero length (dt = 0), or a flat one (equal rates, no detuning).  A
# sech's overlap is a sum over 576 rounded term pairs whose magnitudes add
# up to about 46 times the overlap, so its exact values hold to a few
# 1e-15 (up to 2.7e-15 seen over 2,000 random widths); the others to 1e-15.
EXACT = {spc.Shape.GAUSSIAN: 1e-15, spc.Shape.SINC: 1e-15, spc.Shape.LORENTZIAN: 1e-15,
         spc.Shape.SECH: 4e-15}
EDGE_WIDTHS = np.exp(np.linspace(math.log(0.01), math.log(30.0), 9))


@pytest.mark.parametrize("shape", SHAPES)
def test_self_overlap_is_unity(shape):
    # |value|, not the magnitude, which is clamped at 1
    for w in EDGE_WIDTHS:
        p = profile(shape, w, delay=0.2)
        res = spc.overlap(p, p)
        assert abs(abs(res.value) - 1.0) <= EXACT[shape]
        assert res.theta == pytest.approx(0.0, abs=1e-4)


def test_gaussian_width_ratio_overlap():
    a = profile("gaussian", 0.5)
    b = profile("gaussian", 0.25)
    assert spc.overlap(a, b).magnitude == pytest.approx(math.sqrt(0.8), rel=1e-12)


@pytest.mark.parametrize("ratio", [1.0, 1e2, 1e4, 1e6, 1e8, 1e10, 1e12])
def test_gaussian_detuned_overlap_at_any_width_ratio(ratio):
    # |<a|b>| = sqrt(2 sa sb / (sa^2 + sb^2)) e^{-d^2 / (4 (sa^2 + sb^2))};
    # the exponent once summed two terms of about d^2 / (16 sa^2) that
    # cancel, so its relative error grew like eps ratio^2
    sa = 0.5
    a = profile("gaussian", sa)
    for k in (0.0, 0.3, 1.0, 2.0, 5.0, 8.0):
        for b in (profile("gaussian", sa * ratio, CENTER + k * math.hypot(sa, sa * ratio)),
                  profile("gaussian", sa * ratio, CENTER + 2.0 * k * sa * ratio)):
            with mpmath.workdps(40):
                d = mpmath.mpf(b.center) - mpmath.mpf(CENTER)
                s2 = mpmath.mpf(sa) ** 2 + mpmath.mpf(b.width) ** 2
                exact = float(mpmath.sqrt(2 * sa * mpmath.mpf(b.width) / s2)
                              * mpmath.exp(-d * d / (4 * s2)))
            for got in (spc.overlap(a, b).magnitude, spc.overlap(b, a).magnitude):
                assert got == pytest.approx(exact, rel=1e-13), (ratio, k)
    wide = profile("gaussian", 5e11, CENTER + 1e12)
    assert spc.overlap(a, wide).magnitude == pytest.approx(5.2026e-7, rel=1e-4)


def test_gaussian_closed_form_matches_quadrature():
    a = profile("gaussian", 0.5)
    b = spc.SpectralProfile(spc.Shape.GAUSSIAN, CENTER + 0.7, 0.9, delay=0.4)
    closed = spc.overlap(a, b).value

    def f(w):
        return np.conj(spc.amplitude(a, w)) * spc.amplitude(b, w)

    lo = CENTER - 14.0
    hi = CENTER + 14.0
    numeric = quad_integral(f, np.linspace(lo, hi, 41), rel_tol=1e-12)
    assert abs(closed - numeric) < 1e-9


def test_delayed_overlap_below_unity():
    for shape in SHAPES:
        p = profile(shape, 0.5)
        assert spc.overlap(p, p.delayed(0.8)).magnitude < 1.0


def test_gaussian_delay_decay_monotone():
    p = profile("gaussian", 0.5)
    taus = [0.0, 0.4, 0.9, 1.7, 3.0]
    mags = [spc.overlap(p, p.delayed(t)).magnitude for t in taus]
    assert mags[0] == pytest.approx(1.0, abs=1e-12)
    assert all(x > y for x, y in zip(mags, mags[1:]))
    for t, m in zip(taus, mags):
        assert m == pytest.approx(math.exp(-0.25 * t * t / 2), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    sa=st.sampled_from(SHAPES), sb=st.sampled_from(SHAPES),
    wa=st.floats(0.05, 1.0), wb=st.floats(0.05, 1.0),
    dw=st.floats(-1.5, 1.5), tau=st.floats(-2.0, 2.0),
)
# a delay difference below the smallest normal float once gave NaN
@example(sa=spc.Shape.SINC, sb=spc.Shape.SINC, wa=1.0, wb=1.0, dw=1.0, tau=5e-324)
def test_overlap_symmetry_and_bound(sa, sb, wa, wb, dw, tau):
    a = spc.SpectralProfile(sa, CENTER, wa)
    b = spc.SpectralProfile(sb, CENTER + dw, wb, delay=tau)
    ab = spc.overlap(a, b)
    ba = spc.overlap(b, a)
    assert ab.magnitude <= 1.0 + 1e-9
    assert abs(ab.magnitude - ba.magnitude) < 1e-12
    assert ab.value == pytest.approx(ba.value.conjugate(), abs=1e-12)


def test_sinc_rect_autocorrelation():
    # compact time support makes the delayed self-overlap an exact triangle
    p = profile("sinc", 2.0)
    for tau in (0.0, 0.5, 1.0, 1.9):
        got = spc.overlap(p, p.delayed(tau)).magnitude
        assert got == pytest.approx(1.0 - tau / 2.0, abs=1e-10)
    assert spc.overlap(p, p.delayed(2.5)).magnitude == 0.0


def member(family, index):
    """The scalar profile at ``index`` of a profile family."""
    fields = (family.center, family.width, family.delay, family.broadening)
    shape = np.broadcast(*fields).shape
    return spc.SpectralProfile(family.shape, *(float(np.broadcast_to(x, shape)[index])
                                               for x in fields))


def assert_pointwise(a, family):
    """Each element of overlaps(a, family) carries the bits of overlap() on
    that element's photon."""
    got = spc.overlaps(a, family)
    assert got.shape == np.broadcast(family.center, family.width, family.delay,
                                     family.broadening).shape
    for index in np.ndindex(got.shape):
        assert got[index] == spc.overlap(a, member(family, index)).magnitude


PAIRINGS = [(sa, sb) for sa in SHAPES for sb in SHAPES]


def test_overlap_curve_is_the_delayed_overlap_family():
    # a dip scan is one overlaps() call on photon B's family of delays; on
    # every pairing each delay must carry the bits of its own overlap()
    width = {"sech": 0.6, "sinc": 2.5, "lorentzian": 0.6, "gaussian": 0.4}
    taus = np.linspace(-3.0, 3.0, 13)
    for shape_a, shape_b in PAIRINGS:
        a = profile(shape_a, width[shape_a.value])
        b = spc.SpectralProfile(shape_b, CENTER + 0.3, width[shape_b.value], delay=0.2)
        curve = spc.overlaps(a, b.delayed(taus))
        assert curve.shape == taus.shape
        for tau, got in zip(taus, curve):
            assert got == spc.overlap(a, b.delayed(tau)).magnitude
        assert spc.overlaps(a, b.delayed(np.array([]))).shape == (0,)


@pytest.mark.parametrize("shape_b", SHAPES)
@pytest.mark.parametrize("shape_a", SHAPES)
def test_contour_rows_equal_pointwise_overlaps(shape_a, shape_b, monkeypatch):
    # the grid is one overlaps() call on a family; every value must be the
    # one a separate overlap() call gives, bit for bit
    calls = []
    real_overlaps = spc.overlaps
    monkeypatch.setattr(spc, "overlaps", lambda a, b: calls.append(b) or real_overlaps(a, b))
    prof_a = spc.SpectralProfile.from_fwhm(shape_a, CENTER, 2.4)
    fw = spc.fwhm(prof_a)
    centers = np.linspace(CENTER - 4.0 * fw, CENTER + 4.0 * fw, 5)
    fwhms = sweeps.log_grid(fw, 8.0, 5)
    grid = sweeps.contour_grid(lambda c: c, prof_a, shape_b, centers, fwhms, pol.H)
    assert len(calls) == 1 and np.shape(calls[0].width) == (len(fwhms),)
    assert np.shape(calls[0].center) == (len(centers), 1)
    ref = [[spc.overlap(prof_a, spc.SpectralProfile.from_fwhm(shape_b, cb, wb)).magnitude
            for wb in fwhms] for cb in centers]
    assert grid.tolist() == ref
    # 0-d, (n,), (n, m) and mixed broadcast fields
    width = spc.SpectralProfile.from_fwhm(shape_b, CENTER, fwhms).width
    delays = np.linspace(-2.0, 2.0, 3) / fw
    grid_c, grid_w = np.meshgrid(centers, width, indexing="ij")
    for family in (
            spc.SpectralProfile(shape_b, CENTER + 0.3 * fw, width[1], 0.5 / fw),
            spc.SpectralProfile(shape_b, centers, width, delays[2]),
            spc.SpectralProfile(shape_b, grid_c, grid_w, np.full(grid_c.shape, delays[0]),
                                np.full(grid_c.shape, 1.3)),
            spc.SpectralProfile(shape_b, centers[:, None, None], width[:, None], delays,
                                np.array([0.8, 1.25, 2.0])),
            # zero and non-zero delays in one call, where each zero-delay
            # overlap() of a Gaussian-exponential pairing takes the half-size
            # Faddeeva form and the family the general one
            spc.SpectralProfile(shape_b, grid_c, grid_w, np.array([0.0, delays[2]] * 2 + [0.0]))):
        assert_pointwise(prof_a, family)


@pytest.mark.parametrize("shape_a, shape_b", PAIRINGS)
def test_overlaps_of_two_families_equal_pointwise_overlaps(shape_a, shape_b):
    # a (4, 1) family a against a (3,) family b pairs every photon of a with
    # every photon of b, each pair with the bits of its own overlap() call
    column = np.array([[-0.4], [0.0], [0.2], [0.9]])
    a = spc.SpectralProfile(shape_a, CENTER + column, 1.1, column + 0.4, 1.5 + column)
    b = spc.SpectralProfile(shape_b, CENTER + 0.3, 0.8, np.array([0.0, -0.5, 0.25]),
                            np.array([0.5, 1.0, 3.0]))
    got = spc.overlaps(a, b)
    assert got.shape == (4, 3)

    def photon(p, index):
        fields = (np.broadcast_to(x, got.shape) for x in
                  (p.center, p.width, p.delay, p.broadening))
        return spc.SpectralProfile(p.shape, *(float(x[index]) for x in fields))

    for index in np.ndindex(got.shape):
        assert got[index] == spc.overlap(photon(a, index), photon(b, index)).magnitude


def test_overlaps_of_an_empty_family_are_empty():
    a = profile("sech", 0.5)
    for shape in SHAPES:
        assert spc.overlaps(a, profile(shape, np.array([]))).shape == (0,)
        assert spc.overlaps(a, profile(shape, 1.0, delay=np.zeros((0, 3)))).shape == (0, 3)


@pytest.mark.parametrize("field, message", [
    ("width", "width must be positive"), ("broadening", "broadening must be positive"),
    ("center", "center frequency must be positive")])
def test_family_with_a_bad_element_raises(field, message):
    values = {"width": 0.5, "broadening": 1.0, "center": CENTER}
    for bad in (0.0, -1.0, np.nan):
        values[field] = np.array([[values[field], bad], [values[field]] * 2])
        with pytest.raises(ValueError, match=message):
            spc.SpectralProfile(spc.Shape.SECH, values["center"], values["width"],
                                broadening=values["broadening"])
        values[field] = values[field][1, 0]


@pytest.mark.parametrize("shape_a, shape_b", [
    (sa, sb) for sa, sb in PAIRINGS if sa is not sb])
def test_width_search_is_fixed_rounds_of_one_call(shape_a, shape_b, monkeypatch):
    # one overlaps() call per round; the optimum matches a dense log grid
    # over the same bracket, and its cos Theta is overlap() at that width,
    # the last round's best element
    calls = []
    real_overlaps = spc.overlaps
    monkeypatch.setattr(spc, "overlaps", lambda a, b: calls.append(b) or real_overlaps(a, b))
    a = spc.SpectralProfile.from_fwhm(shape_a, CENTER, 2.0)
    best_fwhm, best_cos = sweeps.max_overlap_width(a, shape_b)
    assert len(calls) == sweeps._WIDTH_ROUNDS
    assert all(np.shape(b.width) == (sweeps._WIDTH_POINTS,) for b in calls)
    span = sweeps._WIDTH_SPAN
    dense = np.exp(np.linspace(math.log(2.0 / span), math.log(2.0 * span), 20_001))
    dense_max = max(real_overlaps(a, spc.SpectralProfile.from_fwhm(shape_b, CENTER, part)).max()
                    for part in np.array_split(dense, 21))
    assert best_cos >= dense_max - 1e-15
    assert spc.overlap(a, spc.SpectralProfile.from_fwhm(shape_b, CENTER, best_fwhm)
                       ).magnitude == best_cos == real_overlaps(a, calls[-1]).max()


@pytest.mark.parametrize("shape_a, shape_b", [
    (sa, sb) for sa, sb in PAIRINGS if sa is not sb])
def test_table_optimum_does_not_depend_on_photon_a(shape_a, shape_b):
    # at matched centres and zero delay the overlap depends only on the
    # width ratio, so the unit-FWHM search stands for every photon A
    ratio, cos = sweeps._unit_optimum(shape_a, shape_b)
    for center, fw in ((1e2, 1e-3), (1e2, 1e2), (1e4, 1e-3), (1e4, 1e2),
                       (CENTER, 2.37), (3.3e3, 0.05)):
        a = spc.SpectralProfile.from_fwhm(shape_a, center, fw)
        best_fwhm, best_cos = sweeps.max_overlap_width(a, shape_b)
        assert abs(best_cos - cos) <= 1e-14, (center, fw)
        assert best_fwhm / fw == pytest.approx(ratio, rel=1e-6), (center, fw)


def test_table_searches_once_per_pairing_and_process(monkeypatch):
    # cold: 12 width searches of 9 overlaps() rounds and one overlap() each;
    # warm: no overlap call at all, and the same cells
    calls = []
    for name in ("overlaps", "overlap"):
        monkeypatch.setattr(spc, name, lambda a, b, real=getattr(spc, name), name=name:
                            calls.append(name) or real(a, b))
    sweeps._unit_optimum.cache_clear()
    cold = sweeps.max_visibility_table([(1, 1), (2, 2)])
    assert calls.count("overlaps") == 12 * sweeps._WIDTH_ROUNDS
    assert calls.count("overlap") == 12
    calls.clear()
    warm = sweeps.max_visibility_table([(1, 1), (2, 2), (70, 3)])
    assert calls == []
    for key, entry in cold.items():
        assert (warm[key].cos_theta, warm[key].fwhm_ratio) == (entry.cos_theta,
                                                              entry.fwhm_ratio)
        assert {mn: warm[key].visibility[mn] for mn in entry.visibility} == entry.visibility
    for shape in SHAPES:
        assert cold[(shape, shape)].cos_theta == cold[(shape, shape)].fwhm_ratio == 1.0


@pytest.mark.parametrize("shape_b", SHAPES)
@pytest.mark.parametrize("shape_a", SHAPES)
def test_overlap_is_the_one_member_overlaps(shape_a, shape_b):
    # one pairing dispatch serves overlap() and overlaps(): overlap()
    # answers on every pairing with the bits overlaps() gives on a 0-d
    # profile and on a family
    a = spc.SpectralProfile.from_fwhm(shape_a, CENTER, 2.4)
    for b in (spc.SpectralProfile.from_fwhm(shape_b, CENTER, 2.4),
              spc.SpectralProfile.from_fwhm(shape_b, CENTER + 1.1, 4.0, delay_ps=0.7)):
        got = spc.overlap(a, b)
        zero_d = spc.overlaps(a, b)
        assert zero_d.shape == () and zero_d.item() == got.magnitude
        assert spc.overlaps(a, b.delayed(np.zeros(3))).tolist() == [got.magnitude] * 3
        assert got.magnitude == min(abs(got.value), 1.0)
        assert got.theta == math.acos(got.magnitude)


def test_overlaps_raise_the_first_failing_point(monkeypatch):
    # the first point in C order whose magnitude fails the Cauchy-Schwarz
    # check raises, naming it, as a loop over overlap() would; a NaN
    # magnitude fails it too
    a = profile("sech", 0.5)
    for values, widths, first_bad, width in (
            ([0.5, 1.5, np.nan], [1.0, 2.0, 3.0], 1.5, 2.0),
            ([0.5, np.nan, 1.5], [1.0, 2.0, 3.0], np.nan, 2.0),
            ([[0.5, 0.9, 0.1], [1.5, np.nan, 0.2]], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
             1.5, 4.0)):
        monkeypatch.setattr(spc, "_overlap_values",
                            lambda a, b, values=values: np.array(values, dtype=complex))
        with pytest.raises(IntegrationError, match="Cauchy-Schwarz") as err:
            spc.overlaps(a, profile("sinc", np.array(widths)))
        assert err.value.residual == pytest.approx(first_bad - 1.0, nan_ok=True)
        assert (f"sech-sinc overlap magnitude is not finite or exceeds the Cauchy-Schwarz "
                f"bound at B center {CENTER:.6g} rad/ps, effective width {width:.6g}, "
                f"delay 0 ps") in str(err.value)


EXPONENTIAL = [spc.Shape.SINC, spc.Shape.LORENTZIAN]


def mp_overlap_magnitude(a, b):
    """|overlap(a, b)| by 30-digit mpmath quadrature of the analytic time
    envelopes, split at the sinc edges, the Lorentzian kinks and the
    Gaussian and sech peaks.

    Times are measured from a's arrival, so the unit-modulus phase
    e^{i omega_b (tau_b - tau_a)} drops out of the magnitude.  A Gaussian
    is cut 9 / sigma from its peak (e^-81) and Lorentzian and sech tails
    where the product has fallen by e^-80; every piece is split so that beat phase
    plus the change of the envelopes' exponents stay below about 12 across
    it, which the Gauss-Legendre rule resolves quickly.
    """
    with mpmath.workdps(30):
        dt = mpmath.mpf(b.delay) - mpmath.mpf(a.delay)
        dw = mpmath.mpf(b.center) - mpmath.mpf(a.center)

        def envelope(p, arrival):
            """G, support ends, exponential decay rate, exponent slope, kinks."""
            w = mpmath.mpf(p.effective_width)
            if p.shape is spc.Shape.SINC:
                return (lambda t: 1 / mpmath.sqrt(w)), arrival - w / 2, arrival + w / 2, 0, 0, []
            if p.shape is spc.Shape.GAUSSIAN:
                norm = (2 * w * w / mpmath.pi) ** mpmath.mpf(0.25)
                return ((lambda t: norm * mpmath.exp(-(w * (t - arrival)) ** 2)),
                        arrival - 9 / w, arrival + 9 / w, 0, 18 * w, [arrival])
            if p.shape is spc.Shape.SECH:
                norm, rate = mpmath.sqrt(mpmath.pi * w) / 2, mpmath.pi * w / 2
                return ((lambda t: norm / mpmath.cosh(rate * (t - arrival))),
                        -mpmath.inf, mpmath.inf, rate, rate, [arrival])
            norm = mpmath.sqrt(w / 2)
            return ((lambda t: norm * mpmath.exp(-w / 2 * abs(t - arrival))),
                    -mpmath.inf, mpmath.inf, w / 2, w / 2, [arrival])

        ga, lo_a, hi_a, rate_a, slope_a, kinks_a = envelope(a, mpmath.mpf(0))
        gb, lo_b, hi_b, rate_b, slope_b, kinks_b = envelope(b, dt)
        kinks = kinks_a + kinks_b
        lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
        if rate_a + rate_b:
            reach = 80 / (rate_a + rate_b)
            lo, hi = max(lo, min(kinks) - reach), min(hi, max(kinks) + reach)
        if lo >= hi:
            return 0.0
        cuts = sorted({lo, hi} | {k for k in kinks if lo < k < hi})
        points = cuts[:1]
        for x0, x1 in zip(cuts, cuts[1:]):
            n = int(mpmath.ceil((x1 - x0) * (abs(dw) + slope_a + slope_b) / 12)) + 1
            points += [x0 + (x1 - x0) * k / n for k in range(1, n + 1)]
        return float(abs(mpmath.quad(lambda t: ga(t) * gb(t) * mpmath.expj(-dw * t),
                                     points, method="gauss-legendre")))


@settings(max_examples=60, deadline=None)
@given(
    sa=st.sampled_from(EXPONENTIAL), sb=st.sampled_from(EXPONENTIAL),
    fwhm_a=st.floats(0.5, 5.0), log_ratio=st.floats(-2.0, 2.0),
    detuning=st.floats(-2.0, 2.0), delay_a=st.floats(-10.0, 10.0),
    delay_b=st.floats(-10.0, 10.0), xi_a=st.floats(0.5, 2.0), xi_b=st.floats(0.5, 2.0),
)
def test_exponential_pairings_match_mpmath(sa, sb, fwhm_a, log_ratio, detuning,
                                           delay_a, delay_b, xi_a, xi_b):
    # widths in ratio up to e^2 either way, detuning up to 2 FWHM, delays
    # up to 10 / FWHM, both photons broadened
    fwhm_b = fwhm_a * math.exp(log_ratio)
    a = spc.SpectralProfile.from_fwhm(sa, CENTER, fwhm_a, delay_a / fwhm_a, xi_a)
    b = spc.SpectralProfile.from_fwhm(sb, CENTER + detuning * fwhm_a, fwhm_b,
                                      delay_b / fwhm_b, xi_b)
    assert abs(spc.overlap(a, b).magnitude - mp_overlap_magnitude(a, b)) < 1e-12


GAUSSIAN_EXPONENTIAL = [(spc.Shape.GAUSSIAN, spc.Shape.SINC),
                        (spc.Shape.GAUSSIAN, spc.Shape.LORENTZIAN),
                        (spc.Shape.SINC, spc.Shape.GAUSSIAN),
                        (spc.Shape.LORENTZIAN, spc.Shape.GAUSSIAN)]


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.sampled_from(GAUSSIAN_EXPONENTIAL),
    fwhm_a=st.floats(0.5, 5.0), log_ratio=st.floats(-2.0, 2.0),
    detuning=st.floats(-2.0, 2.0), delay_a=st.floats(-10.0, 10.0),
    delay_b=st.floats(-10.0, 10.0), xi_a=st.floats(0.5, 2.0), xi_b=st.floats(0.5, 2.0),
)
def test_gaussian_exponential_pairings_match_mpmath(shapes, fwhm_a, log_ratio, detuning,
                                                    delay_a, delay_b, xi_a, xi_b):
    # the Faddeeva closed forms, over the ranges of the exponential pairings
    fwhm_b = fwhm_a * math.exp(log_ratio)
    a = spc.SpectralProfile.from_fwhm(shapes[0], CENTER, fwhm_a, delay_a / fwhm_a, xi_a)
    b = spc.SpectralProfile.from_fwhm(shapes[1], CENTER + detuning * fwhm_a, fwhm_b,
                                      delay_b / fwhm_b, xi_b)
    assert abs(spc.overlap(a, b).magnitude - mp_overlap_magnitude(a, b)) < 1e-12


SECH_PAIRINGS = [(a, b) for a in SHAPES for b in SHAPES if spc.Shape.SECH in (a, b)]


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.sampled_from(SECH_PAIRINGS),
    fwhm_a=st.floats(0.5, 5.0), log_ratio=st.floats(-2.0, 2.0),
    detuning=st.floats(-2.0, 2.0), delay_a=st.floats(-10.0, 10.0),
    delay_b=st.floats(-10.0, 10.0), xi_a=st.floats(0.5, 2.0), xi_b=st.floats(0.5, 2.0),
)
def test_sech_pairings_match_mpmath(shapes, fwhm_a, log_ratio, detuning,
                                    delay_a, delay_b, xi_a, xi_b):
    # the accelerated sech series, over the ranges of the exponential pairings
    fwhm_b = fwhm_a * math.exp(log_ratio)
    a = spc.SpectralProfile.from_fwhm(shapes[0], CENTER, fwhm_a, delay_a / fwhm_a, xi_a)
    b = spc.SpectralProfile.from_fwhm(shapes[1], CENTER + detuning * fwhm_a, fwhm_b,
                                      delay_b / fwhm_b, xi_b)
    assert abs(spc.overlap(a, b).magnitude - mp_overlap_magnitude(a, b)) < 1e-12


@pytest.mark.parametrize("shape_b, detuning, expected", [
    ("sinc", 1e3, 2.751720e-4), ("lorentzian", 1e3, 6.484729e-8)])
def test_narrowband_sech_overlaps(shape_b, detuning, expected):
    # FWHM 0.01 rad/ps, detuned by 1,000 FWHM and delayed by 3 / FWHM, where
    # the quadrature these pairings once ran raised IntegrationError; the
    # expected values are 30-digit mpmath's (mp_overlap_magnitude, about
    # 30 s for the Lorentzian)
    fw = 0.01
    a = spc.SpectralProfile.from_fwhm("sech", CENTER, fw)
    b = spc.SpectralProfile.from_fwhm(shape_b, CENTER + detuning * fw, fw, 3.0 / fw)
    assert spc.overlap(a, b).magnitude == pytest.approx(expected, rel=1e-6)


@pytest.mark.time_limit(30)
def test_sech_overlaps_never_raise():
    # the grid of test_gaussian_exponential_overlaps_never_raise, which holds
    # the narrowband photons (FWHM 0.01 rad/ps, detuned by 3e3 and 1e4
    # FWHM, delays through +-10 / FWHM) the quadrature once failed on
    assert _scan_overlap_curves(SECH_PAIRINGS) == 7 * 4 * 5 * 7 * 41


def test_gaussian_exponential_value_is_conjugate_in_reverse():
    g = spc.SpectralProfile.from_fwhm("gaussian", CENTER, 1.3, delay_ps=0.4)
    for shape in ("sinc", "lorentzian"):
        e = spc.SpectralProfile.from_fwhm(shape, CENTER + 0.9, 2.1, delay_ps=-0.8)
        assert spc.overlap(e, g).value == spc.overlap(g, e).value.conjugate()


def test_faddeeva_matches_scipy():
    from scipy.special import wofz
    rng = np.random.default_rng(7)
    z = [rng.uniform(-r, r, 2000) + 1j * rng.uniform(0.0, r, 2000)
         for r in (1e-3, 0.1, 1.0, 5.0, 30.0, 1e3, 1e5)]
    # towards and on the real axis, and far along both axes
    x = rng.uniform(-40.0, 40.0, 2000)
    z += [x + 1j * 10.0 ** rng.uniform(-12.0, -1.0, 2000), x + 0j,
          np.array([1e5, -1e5, 1e5j, 3e4 + 7e4j, -7e4 + 1e-8j, 0j])]
    z = np.concatenate(z)
    assert np.max(np.abs(spc._faddeeva(z) - wofz(z))) <= 1e-14
    # one call keeps the shape of its argument
    assert spc._faddeeva(z.reshape(2, -1)).shape == (2, z.size // 2)


def _upper_half_plane(n, seed):
    """n arguments with Re z in +-50 and Im z log-uniform in [e^-8, e^6],
    where most of the Gaussian-exponential kernels' arguments lie, plus
    points on the imaginary axis and at the smallest real parts."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-50.0, 50.0, n) + 1j * np.exp(rng.uniform(-8.0, 6.0, n))
    im = z.imag[:8]
    return np.concatenate([z, im * 1j, 5e-324 + im * 1j, -5e-324 + im * 1j])


def _bits(z):
    return np.ascontiguousarray(z).view(np.int64)


def test_faddeeva_bits_do_not_depend_on_the_array_length():
    # a point alone carries the bits it has in a family: numpy's in-place
    # complex product rounds a one-element array differently
    z = _upper_half_plane(1000, 11)
    family = spc._faddeeva(z)
    alone = np.concatenate([spc._faddeeva(z[i:i + 1]) for i in range(z.size)])
    assert np.array_equal(_bits(alone), _bits(family))


def test_faddeeva_is_conjugate_under_reflection_in_the_imaginary_axis():
    # w(-conj z) = conj w(z) holds bit for bit in Weideman's form, which the
    # zero-delay Gaussian-exponential overlaps rely on; only a zero imaginary
    # part (on the imaginary axis and next to it) is +0 on both sides
    z = _upper_half_plane(20000, 12)
    got, want = spc._faddeeva(-z.conj()), spc._faddeeva(z).conj()
    assert np.array_equal(_bits(got.real), _bits(want.real))
    assert np.array_equal(got.imag, want.imag)
    nonzero = want.imag != 0.0
    assert nonzero.sum() > z.size - 30
    assert np.array_equal(_bits(got.imag[nonzero]), _bits(want.imag[nonzero]))


def _scan_overlap_curves(pairings):
    """Delay scans over narrow to broad photons, widths e^+-4 apart, detuned
    by up to 10^4 FWHM and delayed by up to 100 / FWHM; asserts that every
    value is finite and a magnitude, with no overflow or invalid operation
    on the way, and returns how many values it checked.  The kernels are
    called directly, outside the floating-point error state overlaps()
    sets, so that the suite turns any of numpy's RuntimeWarnings into an
    error (see pyproject.toml)."""
    count = 0
    for shape_a, shape_b in pairings:
        for fw in (0.01, 0.1, 1.0, 10.0):
            for log_ratio in (-4.0, -1.5, 0.0, 1.5, 4.0):
                for detuning in (0.0, 0.3, -3.0, 30.0, -100.0, 3e3, 1e4):
                    a = spc.SpectralProfile.from_fwhm(shape_a, CENTER, fw)
                    b = spc.SpectralProfile.from_fwhm(
                        shape_b, CENTER + detuning * fw, fw * math.exp(log_ratio))
                    scan = b.delayed(np.linspace(-100.0 / fw, 100.0 / fw, 41))
                    spc._overlap_values(a, scan)
                    got = spc.overlaps(a, scan)
                    assert np.all(np.isfinite(got))
                    assert np.all((got >= 0.0) & (got <= 1.0))
                    count += got.size
    return count


@pytest.mark.time_limit(30)
def test_gaussian_exponential_overlaps_never_raise():
    assert _scan_overlap_curves(GAUSSIAN_EXPONENTIAL) == 4 * 4 * 5 * 7 * 41


def test_disjoint_rectangles_overlap_exactly_zero():
    a = profile("sinc", 2.0)
    b = spc.SpectralProfile(spc.Shape.SINC, CENTER + 0.3, 1.0, delay=1.5)
    assert spc.overlap(a, b).value == 0.0
    assert spc.overlaps(a, b.delayed(np.array([0.0, 0.1]))).tolist() == [0.0, 0.0]


def test_matched_lorentzians_overlap_to_one():
    for gamma in (0.01, 0.7, 30.0):
        p = profile("lorentzian", gamma, delay=0.4)
        assert spc.overlap(p, p).magnitude == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("tau", [-3.0, -0.25, 1e-9, 0.8, 40.0])
def test_equal_lorentzians_delayed_without_detuning(tau):
    # between the two kinks the product is flat (kappa = 0): the segment
    # must contribute its length, not 0/0
    for gamma in (1.3,) + tuple(EDGE_WIDTHS):
        a = profile("lorentzian", gamma, delay=0.2)
        b = a.delayed(tau)
        x = 0.5 * gamma * abs(tau)
        assert spc.overlap(a, b).magnitude == pytest.approx((1.0 + x) * math.exp(-x),
                                                            rel=1e-14, abs=1e-300)
        assert abs(abs(spc.overlap(a, b).value) - (1.0 + x) * math.exp(-x)) <= EXACT[
            spc.Shape.LORENTZIAN]


def test_lorentzian_width_ratio_overlap():
    # matched centres, gamma_b = gamma_a / 8: cos^2 Theta = 4 r / (1 + r)^2
    a = profile("lorentzian", 0.8)
    b = profile("lorentzian", 0.1)
    assert spc.overlap(a, b).magnitude ** 2 == pytest.approx(32.0 / 81.0, abs=1e-15)


@pytest.mark.parametrize("tau", [-3.0, -0.25, 1e-9, 0.8, 40.0])
def test_equal_sechs_delayed_without_detuning(tau):
    # y / sinh y with y = pi sigma tau / 2; between the kinks the term pairs
    # of equal rates are flat (kappa = 0), as for the Lorentzians above
    for w in EDGE_WIDTHS:
        a = profile("sech", w, delay=0.2)
        y = 0.5 * math.pi * w * abs(tau)
        exact = 2.0 * y * math.exp(-y) / -math.expm1(-2.0 * y)  # y / sinh y, no overflow
        assert abs(abs(spc.overlap(a, a.delayed(tau)).value) - exact) <= EXACT[spc.Shape.SECH]


@pytest.mark.parametrize("shape", SHAPES)
def test_contour_family_holds_the_matched_point(shape):
    # the matched point of a contour family shares its chunk with detuned
    # and wider or narrower photons and still gives the exact 1
    a = profile(shape, 0.6)
    widths = a.width * np.exp(np.linspace(-2.0, 2.0, 5))  # widths[2] is a.width
    centers = CENTER + np.array([-1.5, -0.2, 0.0, 0.7])
    grid = spc.overlaps(a, spc.SpectralProfile(shape, centers[:, None], widths))
    assert grid.shape == (4, 5)
    assert abs(grid[2, 2] - 1.0) <= EXACT[shape]
    assert grid[2, 2] == spc.overlap(a, profile(shape, a.width)).magnitude


class CountingNumpy:
    """numpy, counting the elements passed to exp and expm1."""

    def __init__(self):
        self.elements = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("exp", "expm1"):
            return attr

        def counted(x, *args, **kwargs):
            self.elements += np.size(x)
            return attr(x, *args, **kwargs)
        return counted


def test_sech_row_costs_per_photon_exponentials(monkeypatch):
    # a 21-point sech-sech contour row is 24 x 24 term pairs per point, but
    # its exponentials are one per photon term (no pair-level exp or expm1);
    # a delayed row takes one per term and segment end, plus an expm1 for
    # each term pair whose middle segment has |kappa L| < 1 (none here)
    counting = CountingNumpy()
    monkeypatch.setattr(spc, "np", counting)
    a = spc.SpectralProfile.from_fwhm("sech", CENTER, 2.0)
    fw = spc.fwhm(a)
    row = spc.SpectralProfile.from_fwhm("sech", CENTER + 0.7 * fw, sweeps.log_grid(fw, 8.0, 21))
    terms = spc._SECH_TERMS
    spc.overlaps(a, row)
    assert 0 < counting.elements <= (terms + terms) * 21
    counting.elements = 0
    spc.overlaps(a, row.delayed(1.5 / fw))
    assert 0 < counting.elements <= 3 * (terms + terms) * 21 < terms * terms * 21


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_overlaps_memory_stays_within_a_fixed_budget():
    # a whole contour grid, or a long Gaussian-sech width scan, is one
    # overlaps() call whose term-pair arrays are chunked: its peak memory is
    # a few MB, not 24 x 24 (or 24 x 2 x 40 Faddeeva) arrays per point
    sech = spc.SpectralProfile.from_fwhm("sech", CENTER, 2.0)
    fw = spc.fwhm(sech)
    grid = spc.SpectralProfile.from_fwhm(
        "sech", np.linspace(CENTER - 4.0 * fw, CENTER + 4.0 * fw, 61)[:, None],
        sweeps.log_grid(fw, 8.0, 61))
    assert traced_peak(lambda: spc.overlaps(sech, grid)) < 4e6
    gaussian = spc.SpectralProfile.from_fwhm("gaussian", CENTER, 2.0)
    scan = spc.SpectralProfile.from_fwhm("sech", CENTER + 0.3 * fw,
                                         sweeps.log_grid(fw, 20.0, 20_001), 0.4 / fw)
    assert traced_peak(lambda: spc.overlaps(gaussian, scan)) < 4e6


def test_overlaps_name_the_first_failing_point_past_the_first_chunk():
    # chunks run in C order, so the first failing point named is the first
    # in C order of the whole family, wherever the chunks split it
    a = profile("sech", 0.5)
    step = spc._PAIR_BUDGET // spc._SECH_TERMS ** 2
    centers = CENTER + 0.1 * np.arange(40.0).reshape(8, 5)
    widths = np.ones((8, 5))
    widths[6, 1] = widths[5, 3] = np.inf  # a width the kernel cannot take
    assert 5 * 5 + 3 >= step
    with pytest.raises(IntegrationError, match="Cauchy-Schwarz") as err:
        spc.overlaps(a, spc.SpectralProfile(spc.Shape.SECH, centers, widths))
    assert f"at B center {centers[5, 3]:.6g} rad/ps, effective width inf" in str(err.value)


# ---------------------------------------------------------------------------
# closed forms and widths
# ---------------------------------------------------------------------------

def test_gaussian_overlap_closed_form_values():
    assert spc.gaussian_overlap_closed_form(0.5, 0.5) == pytest.approx(1.0)
    assert spc.gaussian_overlap_closed_form(1.0, 0.5) == pytest.approx(
        math.sqrt(0.8), rel=1e-14)
    assert spc.gaussian_overlap_closed_form(0.5, 0.5, 0.0, 50.0) < 1e-300
    with pytest.raises(ValueError):
        spc.gaussian_overlap_closed_form(-1.0, 0.5)


def test_fwhm_values():
    sigma = 0.37
    assert spc.fwhm(profile("gaussian", sigma)) == pytest.approx(
        2 * sigma * math.sqrt(2 * math.log(2)), rel=1e-13)
    assert spc.fwhm(profile("lorentzian", 0.9)) == 0.9
    # sech: the unit-width literal against the analytic half-max point
    s = 0.42
    assert spc.fwhm(profile("sech", s)) == pytest.approx(
        2 * s * math.acosh(math.sqrt(2)), rel=1e-12)
    # sinc: half-max of sin^2(u)/u^2 at u ~ 1.391557
    t = 2.3
    assert spc.fwhm(profile("sinc", t)) == pytest.approx(4 * 1.3915573782515135 / t,
                                                         rel=1e-10)


def test_fwhm_monotone_in_sech_width():
    vals = [spc.fwhm(profile("sech", w)) for w in (0.1, 0.2, 0.5, 1.0)]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_fwhm_is_actual_half_max_point():
    for shape in ("gaussian", "sinc", "sech"):
        p = profile(shape, 0.61)
        half = spc.fwhm(p) / 2
        peak = abs(spc.amplitude(p, p.center)) ** 2
        at_half = abs(spc.amplitude(p, p.center + half)) ** 2
        assert at_half == pytest.approx(peak / 2, rel=1e-9)


@pytest.mark.parametrize("shape", SHAPES)
def test_broadening_scales_fwhm(shape):
    p = profile(shape, 0.5)
    xi = 1.7
    assert spc.fwhm(p.broadened(xi)) == pytest.approx(xi * spc.fwhm(p), rel=1e-12)


def test_from_fwhm_round_trips():
    # to 1 ulp: the width and the FWHM computed back from it are each rounded
    for shape in SHAPES:
        for target in (1e-3, 0.8, 2.4, 37.0, 1e5):
            p = spc.SpectralProfile.from_fwhm(shape, CENTER, target)
            assert abs(spc.fwhm(p) - target) <= math.ulp(target), (shape, target)


def test_unit_fwhm_constants_match_mpmath():
    # the unit-width sinc and sech FWHMs are literals; each lies within
    # 3 ulp of its 30-digit value
    with mpmath.workdps(30):
        u = mpmath.findroot(lambda u: mpmath.sin(u) / u - 1 / mpmath.sqrt(2), 1.39)
        exact = {spc._SINC_FWHM: 4 * u, spc._SECH_FWHM: 2 * mpmath.asinh(1)}
        for literal, value in exact.items():
            assert abs(mpmath.mpf(literal) - value) <= 3 * math.ulp(literal), literal


# ---------------------------------------------------------------------------
# unit conversions and validation
# ---------------------------------------------------------------------------

def test_wavelength_width_conversion():
    dw = spc.wavelength_width_to_frequency(1550.0, 1.0)
    # 2 pi c / lambda^2 with c = 299792.458 nm/ps
    expected = 2 * math.pi * 299792.458 / 1550.0**2
    assert dw == pytest.approx(expected, rel=1e-14)
    assert dw == pytest.approx(0.7840381, abs=5e-7)
    assert dw / (2 * math.pi) == pytest.approx(0.1248, abs=2e-4)  # ~0.125 THz
    assert spc.wavelength_width_to_frequency(1550.0, 0.0) == 0.0
    assert spc.wavelength_width_to_frequency(1550.0, 2.0) == pytest.approx(2 * dw)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        profile("gaussian", -0.5)
    with pytest.raises(ValueError):
        profile("gaussian", 0.5, broadening=0.0)
    with pytest.raises(ValueError):
        spc.SpectralProfile(spc.Shape.GAUSSIAN, -1.0, 0.5)
    with pytest.raises(ValueError):
        spc.SpectralProfile.from_fwhm("sech", CENTER, -1.0)
    with pytest.raises(ValueError):
        spc.wavelength_width_to_frequency(-10.0, 1.0)
