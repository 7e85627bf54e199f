import math

import mpmath
import numpy as np
import pytest

import coherent_reference
from homsim import cli
from homsim import coherent as coh
from homsim import config as cfgmod
from homsim import fock
from homsim import polarization as pol
from homsim import spectral as spc

BALANCED = fock.BeamSplitter.balanced()


def pair_with_overlap(mu_a, mu_b, c):
    pol_b = pol.PolarizationVector(c, math.sqrt(1.0 - c * c))
    return coh.CoherentPair(mu_a, mu_b, pol.H, pol_b)


# ---------------------------------------------------------------------------
# Bessel I0
# ---------------------------------------------------------------------------

def test_bessel_reference_points():
    assert coh.bessel_i0(0.0) == 1.0
    assert coh.bessel_i0(1.0) == pytest.approx(1.2660658777520084, rel=1e-14)
    assert coh.bessel_i0(10.0) == pytest.approx(2815.716628466254, rel=1e-13)


def test_bessel_against_extended_precision_series():
    for x in [0.0, 1e-3, 0.5, 2.0, 7.5, 14.0, 14.999, 15.0, 15.001, 18.0,
              25.0, 60.0, 150.0, 400.0]:
        with mpmath.workdps(40):
            ref = float(mpmath.besseli(0, x))
        assert coh.bessel_i0(x) == pytest.approx(ref, rel=1e-13)


def test_bessel_rejects_negative():
    with pytest.raises(ValueError):
        coh.bessel_i0(-1.0)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_symmetric_ideal_value():
    expected = 1 + math.exp(-2) - 2 * math.exp(-1) * coh.bessel_i0(1.0)
    assert coh.total_coincidence(pair_with_overlap(1.0, 1.0, 1.0)) == pytest.approx(
        expected, rel=1e-13)
    assert expected == pytest.approx(0.2038, abs=2e-4)


def test_vacuum_and_dead_detectors():
    assert coh.total_coincidence(pair_with_overlap(0.0, 0.0, 1.0)) == pytest.approx(0.0)
    dead = pol.Detector(0.0, 0.0)
    app = fock.Apparatus(BALANCED, dead, dead)
    assert coh.total_coincidence(pair_with_overlap(1.5, 0.5, 0.7), app) == pytest.approx(
        0.0, abs=1e-15)


def test_series_matches_closed_form_spot_checks():
    app = fock.Apparatus(fock.BeamSplitter(0.45, 0.55),
                         pol.Detector(0.8, 0.8), pol.Detector(0.9, 0.9))
    p = pair_with_overlap(2.0, 0.5, 0.6)
    assert coh.total_coincidence_series(p, app) == pytest.approx(
        coh.total_coincidence(p, app), abs=1e-10)
    # c = 0: Bessel argument vanishes, I0 = 1
    p0 = pair_with_overlap(1.3, 0.8, 0.0)
    assert coh.total_coincidence_series(p0, app) == pytest.approx(
        coh.total_coincidence(p0, app), abs=1e-10)


def test_series_matches_closed_form_random_sweep():
    rng = np.random.default_rng(2024)
    app_of = lambda t, e: fock.Apparatus(fock.BeamSplitter(t, 1 - t),
                                         pol.Detector(e[0], e[1]),
                                         pol.Detector(e[2], e[3]))
    for _ in range(60):
        mu_a, mu_b = rng.uniform(0, 3, 2)
        t = rng.uniform(0.1, 0.9)
        etas = rng.uniform(0, 1, 4)
        c = rng.uniform(0, 1)
        pair = pair_with_overlap(mu_a, mu_b, c)
        app = app_of(t, etas)
        assert coh.total_coincidence_series(pair, app) == pytest.approx(
            coh.total_coincidence(pair, app), abs=1e-10)


def test_spectral_overlap_feeds_through():
    # a spectral overlap reaches the closed form as the override c, as in
    # the contours: the same value as a polarization mismatch of that c
    g = spc.SpectralProfile(spc.Shape.GAUSSIAN, 1216.0, 0.5)
    c = spc.overlap(g, g.delayed(1.0))
    pair = coh.CoherentPair(1.0, 1.0)
    assert coh.total_coincidence(pair, c=fock.mode_overlap(pol.H, pol.H, c)) == pytest.approx(
        coh.total_coincidence(pair_with_overlap(1.0, 1.0, c)), rel=1e-12)


def test_arm_relabeling_symmetries():
    det_a = pol.Detector(0.8, 0.83)
    det_b = pol.Detector(0.78, 0.85)
    bs = fock.BeamSplitter(0.35, 0.65)
    bs_flip = fock.BeamSplitter(0.65, 0.35)
    p = coh.CoherentPair(1.7, 0.6, pol.D, pol.H)
    p_swapped = coh.CoherentPair(0.6, 1.7, pol.H, pol.D)
    base = coh.total_coincidence(p, fock.Apparatus(bs, det_a, det_b))
    # arms + detectors, T fixed
    v1 = coh.total_coincidence(p_swapped, fock.Apparatus(bs, det_b, det_a))
    # arms + T <-> R, detectors fixed
    v2 = coh.total_coincidence(p_swapped, fock.Apparatus(bs_flip, det_a, det_b))
    assert v1 == pytest.approx(base, abs=1e-14)
    assert v2 == pytest.approx(base, abs=1e-14)


# ---------------------------------------------------------------------------
# visibility
# ---------------------------------------------------------------------------

def test_visibility_ceiling_at_small_mu():
    assert coh.coherent_visibility(1e-3, 0.0) == pytest.approx(0.5, abs=1e-4)
    assert coh.coherent_visibility(0.0, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_visibility_orthogonal_polarization():
    for mu in (0.2, 1.0, 4.0):
        assert coh.coherent_visibility(mu, math.pi / 2) == pytest.approx(0.0, abs=1e-14)


def test_visibility_at_unit_mu():
    expected = (coh.bessel_i0(1.0) - 1.0) / (2.0 * math.sinh(0.5) ** 2)
    assert coh.coherent_visibility(1.0, 0.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.48992, abs=1e-5)


def test_visibility_decreasing_in_mu():
    mus = np.linspace(0.01, 5.0, 40)
    vs = [coh.coherent_visibility(m, 0.0) for m in mus]
    assert all(a > b for a, b in zip(vs, vs[1:]))


def test_visibility_formula_consistent_with_general_route():
    for mu in (0.3, 1.0, 2.5):
        for phi in (0.0, 0.6):
            pair = coh.CoherentPair(mu, mu, pol.H, pol.rotate(pol.H, phi))
            general = coh.visibility_from_params(pair)
            assert general == pytest.approx(coh.coherent_visibility(mu, phi),
                                            rel=1e-12)


# ---------------------------------------------------------------------------
# ratio maps
# ---------------------------------------------------------------------------

def test_ratio_map_argmax_ideal():
    ratios = np.exp(np.linspace(math.log(0.25), math.log(4.0), 21))
    grid = coh.visibility_ratio_map(ratios, ratios)
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    assert ratios[i] == pytest.approx(1.0)
    assert ratios[j] == pytest.approx(1.0)


def test_ratio_map_relabeling_symmetry():
    det_a = pol.Detector(0.8, 0.83)
    det_b = pol.Detector(0.78, 0.85)
    app = fock.Apparatus(BALANCED, det_a, det_b)
    ratios = np.exp(np.linspace(math.log(0.3), math.log(3.0), 9))
    grid = coh.visibility_ratio_map(ratios, ratios, app)
    flipped = coh.visibility_ratio_map(ratios[::-1], ratios[::-1], app)[::-1, ::-1]
    assert np.max(np.abs(grid - flipped)) < 1e-14


def test_ratio_map_argmax_shifts_for_unequal_detectors():
    # with arm B's intensity held fixed, unequal-efficiency detectors move
    # the optimum well off (1, 1); the geometric-mean map keeps (1, 1)
    # a critical point by symmetry, so this claim needs the fixed-arm form
    det_a = pol.Detector(0.8, 0.83)
    det_b = pol.Detector(0.78, 0.85)
    app = fock.Apparatus(BALANCED, det_a, det_b)
    ratios = np.exp(np.linspace(math.log(0.5), math.log(2.0), 21))
    grid = coh.visibility_ratio_map(ratios, ratios, app, fixed_mu_b=1.0)
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    center = np.argmin(np.abs(ratios - 1.0))
    assert (i, j) != (center, center)
    assert grid[i, j] > grid[center, center] + 1e-4


def test_negative_mu_rejected():
    with pytest.raises(ValueError):
        coh.CoherentPair(-0.1, 1.0)
    with pytest.raises(ValueError):
        coh.coherent_visibility(-1.0, 0.0)


@pytest.mark.parametrize("mu", [1e-5, 1.0, 1000.0], ids=["series", "direct", "log"])
def test_coherent_visibility_past_half_pi(mu):
    # I0 is even, so Phi and pi - Phi give one visibility in every branch
    assert coh.coherent_visibility(mu, math.pi - 0.5) == pytest.approx(
        coh.coherent_visibility(mu, 0.5), abs=1e-15)
    assert 0.0 <= coh.coherent_visibility(mu, 2.0) <= 0.5


def test_high_mu_overflow_names_mu():
    # math.exp overflows past x ~ 710 in the general closed form; the error
    # must say which intensities did it
    assert coh.coherent_visibility(709.0, 0.0) > 0.0
    with pytest.raises(OverflowError, match="mu_a=1000, mu_b=4000"):
        coh.total_coincidence(coh.CoherentPair(1000.0, 4000.0))


@pytest.mark.parametrize("phi", [0.0, 0.3, 1.0, math.pi / 2])
def test_coherent_visibility_at_high_mu(phi):
    # (I0(x) - 1)/(2 sinh^2(mu/2)) = 2 (i0e(x) e^(x-mu) - e^-mu)/(1 - e^-mu)^2,
    # x = mu cos Phi, checked against mpmath at 50 digits where I0 and
    # sinh^2 alone overflow (x is rounded to double first, as the code does)
    mpmath = pytest.importorskip("mpmath")
    for mu in (711.0, 2000.0, 1e5):
        with mpmath.workdps(50):
            x = mpmath.mpf(mu * math.cos(phi))
            ref = (mpmath.besseli(0, x) - 1) / (2 * mpmath.sinh(mpmath.mpf(mu) / 2) ** 2)
        assert coh.coherent_visibility(mu, phi) == pytest.approx(float(ref), rel=1e-12,
                                                                 abs=1e-300)


def test_coherent_visibility_continuous_at_log_domain_switch():
    # the direct form below the switch and the log-domain form above agree
    for phi in (0.0, 0.7, 1.4):
        lo = coh.coherent_visibility(math.nextafter(700.0, 0.0), phi)
        hi = coh.coherent_visibility(math.nextafter(700.0, 1e3), phi)
        assert hi == pytest.approx(lo, rel=1e-12)


def test_bessel_i0e_is_scaled_i0():
    from scipy import special
    for x in (0.0, 0.5, 14.999, 15.0, 40.0, 700.0, 1e4):
        assert coh.bessel_i0e(x) == pytest.approx(special.i0e(x), rel=1e-13)
    for x in (0.5, 14.999, 15.0, 40.0, 700.0):
        assert coh.bessel_i0e(x) == pytest.approx(coh.bessel_i0(x) * math.exp(-x),
                                                  rel=1e-14)


def _ratio_map_reference(mu_ratios, tr_ratios, app, mu_mean=1.0, fixed_mu_b=None):
    """Each cell on its own through the whole closed form at its dip and baseline."""
    out = np.empty((len(mu_ratios), len(tr_ratios)))
    for i, q in enumerate(mu_ratios):
        if fixed_mu_b is None:
            mu_a, mu_b = mu_mean * math.sqrt(q), mu_mean / math.sqrt(q)
        else:
            mu_a, mu_b = q * fixed_mu_b, fixed_mu_b
        for j, s in enumerate(tr_ratios):
            t = s / (1.0 + s)
            cell_app = fock.Apparatus(fock.BeamSplitter(t, 1.0 - t), app.det_a, app.det_b)
            out[i, j] = coherent_reference.visibility(mu_a, mu_b, cell_app, 1.0)
    return out


FIG9 = fock.Apparatus(BALANCED, pol.Detector(0.8, 0.83), pol.Detector(0.78, 0.85))


@pytest.mark.parametrize("app", [fock.IDEAL_APPARATUS, FIG9], ids=["ideal", "fig9"])
@pytest.mark.parametrize("mu_mean, fixed_mu_b", [(0.01, None), (1.0, None),
                                                 (1.0, 0.7), (1.0, 0.01)])
def test_ratio_map_equals_per_cell_reference(app, mu_mean, fixed_mu_b):
    mu_ratios = np.exp(np.linspace(math.log(0.25), math.log(4.0), 7))
    tr_ratios = np.exp(np.linspace(math.log(0.2), math.log(3.0), 6))
    got = coh.visibility_ratio_map(mu_ratios, tr_ratios, app, mu_mean=mu_mean,
                                   fixed_mu_b=fixed_mu_b)
    want = _ratio_map_reference(mu_ratios, tr_ratios, app, mu_mean, fixed_mu_b)
    assert np.array_equal(got, want)  # bit for bit, not approximately


def test_ratio_map_overflow_names_mu():
    with pytest.raises(OverflowError, match="mu_a=1000, mu_b=4000"):
        coh.visibility_ratio_map([0.25], [1.0], mu_mean=2000.0)


@pytest.mark.parametrize("detectors", [[], ['detector_a={"eta_h":0.8,"eta_v":0.83}',
                                            'detector_b={"eta_h":0.78,"eta_v":0.85}']],
                         ids=["ideal", "fig9"])
def test_coherent_contour_equals_per_cell_reference(detectors, monkeypatch, capsys):
    # the command's grid, before formatting, against each cell's c through
    # the whole closed form at its dip and its baseline
    grids = []
    real_emit = cli._emit_grid
    monkeypatch.setattr(cli, "_emit_grid",
                        lambda *a, **k: grids.append(a[3:6]) or real_emit(*a, **k))
    args = ["coherent", "--set", "mode=contour", "--grid", "7", "--set", "phi=0.4",
            "--set", "mu_a=1.3", "--set", "mu_b=0.6"]
    for item in detectors:
        args += ["--set", item]
    assert cli.main(args) == 0
    capsys.readouterr()
    (centers, fwhms, got), = grids
    prof_a = cfgmod.parse_profile(cli._COHERENT_DEFAULTS["profile_a"], "profile_a")
    pol_b = pol.rotate(pol.H, 0.4)
    family = spc.SpectralProfile.from_fwhm(spc.Shape.GAUSSIAN, centers[:, None], fwhms)
    cs = fock.mode_overlap(pol.H, pol_b, spc.overlaps(prof_a, family))
    app = FIG9 if detectors else fock.IDEAL_APPARATUS
    want = [[coherent_reference.visibility(1.3, 0.6, app, c, pol.H, pol_b) for c in row]
            for row in cs.tolist()]
    assert np.array_equal(got, want)  # bit for bit, not approximately
