import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsim import spectral as spc
from homsim.quadrature import integrate

CENTER = 2 * math.pi * 193.55  # telecom C-band, rad/ps

SHAPES = list(spc.Shape)
WIDTHS = [0.05, 0.2, 1.0]  # rad/ps (duration ps for sinc: still fine)


def profile(shape, width, center=CENTER, delay=0.0, broadening=1.0):
    return spc.SpectralProfile(spc.Shape(shape), center, width, delay, broadening)


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

@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("width", WIDTHS)
def test_norm_squared_unity(shape, width):
    assert spc.norm_squared(profile(shape, width)) == pytest.approx(1.0, abs=1e-8)


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
        a = spc.amplitude(p, w)
        return (a.conjugate() * a).astype(complex)

    seeds = list(np.linspace(win[0], win[1], 9)) + [p.center - 0.4, p.center,
                                                    p.center + 0.4]
    val = integrate(f, seeds, rel_tol=1e-10)
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
            return spc.time_envelope(p, t) * np.exp(1j * dw * t)

        val = integrate(f, [-radius, -radius / 3, 0.0, radius / 3, radius],
                        rel_tol=1e-12) / math.sqrt(2 * math.pi)
        assert val == pytest.approx(spc.amplitude(p, p.center + dw), abs=1e-9)


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", SHAPES)
def test_self_overlap_is_unity(shape):
    p = profile(shape, 0.5, delay=0.2)
    res = spc.overlap(p, p)
    assert res.magnitude == pytest.approx(1.0, abs=1e-10)
    assert res.theta == pytest.approx(0.0, abs=1e-4)


def test_gaussian_width_ratio_overlap():
    a = profile("gaussian", 0.5)
    b = profile("gaussian", 0.25)
    assert spc.overlap(a, b).magnitude == pytest.approx(math.sqrt(0.8), rel=1e-12)


def test_gaussian_closed_form_matches_quadrature():
    a = profile("gaussian", 0.5)
    b = spc.SpectralProfile(spc.Shape.GAUSSIAN, CENTER + 0.7, 0.9, delay=0.4)
    closed = spc.overlap(a, b).value

    def f(w):
        return np.conj(spc.amplitude(a, w)) * spc.amplitude(b, w)

    lo = CENTER - 14.0
    hi = CENTER + 14.0
    quad = integrate(f, list(np.linspace(lo, hi, 41)), rel_tol=1e-12)
    assert abs(closed - quad) < 1e-9


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


def test_overlap_curve_is_the_delayed_overlap_family():
    a = profile("sech", 0.6)
    b = spc.SpectralProfile(spc.Shape.SINC, CENTER + 0.3, 2.5, delay=0.2)
    taus = np.linspace(-3.0, 3.0, 13)
    curve = spc.overlap_curve(a, b, taus)
    assert curve.shape == taus.shape
    for tau, got in zip(taus, curve):
        assert got == spc.overlap(a, b.delayed(tau)).magnitude
    assert spc.overlap_curve(a, b, []).shape == (0,)


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
    # sech: bisection result against the analytic half-max point
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
    for shape in SHAPES:
        p = spc.SpectralProfile.from_fwhm(shape, CENTER, 0.8)
        assert spc.fwhm(p) == pytest.approx(0.8, rel=1e-10)


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
