import math

import numpy as np
import pytest

from homsim import jsa
from homsim import spectral as spc

CENTER = 2 * math.pi * 193.55


def gauss(center, sigma):
    return spc.SpectralProfile(spc.Shape.GAUSSIAN, center, sigma)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_built_jsa_is_normalized():
    j = jsa.build_gaussian_jsa(jsa.Pump(2 * CENTER, 0.8),
                               jsa.PhaseMatching(0.5), jsa.GridSpec(n=128, span=6.0))
    assert j.norm_squared() == pytest.approx(1.0, abs=1e-8)


def test_grid_too_coarse_raises():
    with pytest.raises(jsa.GridResolutionError):
        jsa.build_gaussian_jsa(jsa.Pump(2 * CENTER, 0.01),
                               jsa.PhaseMatching(1.0), jsa.GridSpec(n=32, span=8.0))


def test_separability_at_balanced_slopes():
    # with slopes (1, -1) the PEF and PMF cross terms cancel when
    # sigma_p = sigma_pm; the Schmidt spectrum collapses to one mode
    sigma = 0.7
    j = jsa.build_gaussian_jsa(jsa.Pump(2 * CENTER, sigma),
                               jsa.PhaseMatching(sigma, 1.0, -1.0),
                               jsa.GridSpec(n=160, span=6.0))
    lam = jsa.schmidt_weights(j)
    assert lam[0] > 1.0 - 1e-3


def test_one_sided_slope_with_broad_pump_is_separable():
    j = jsa.build_gaussian_jsa(jsa.Pump(2 * CENTER, 50.0),
                               jsa.PhaseMatching(0.5, 1.0, 0.0),
                               jsa.GridSpec(n=160, span=6.0))
    lam = jsa.schmidt_weights(j)
    assert lam[0] > 1.0 - 1e-3


def test_narrow_pump_is_anticorrelated():
    j = jsa.build_gaussian_jsa(jsa.Pump(2 * CENTER, 0.08),
                               jsa.PhaseMatching(1.0), jsa.GridSpec(n=512, span=6.0))
    w1, w2 = j.weights()
    p = np.abs(j.values) ** 2 * np.outer(w1, w2)
    p /= p.sum()
    xs = j.axis_first - (p.sum(axis=1) @ j.axis_first)
    ys = j.axis_second - (p.sum(axis=0) @ j.axis_second)
    cov = float((p * np.outer(xs, ys)).sum())
    sx = math.sqrt(float(p.sum(axis=1) @ xs**2))
    sy = math.sqrt(float(p.sum(axis=0) @ ys**2))
    assert cov / (sx * sy) < -0.9


def test_schmidt_weights_sum_to_one():
    j = jsa.build_gaussian_jsa(jsa.Pump(2 * CENTER, 0.4),
                               jsa.PhaseMatching(0.9), jsa.GridSpec(n=128, span=6.0))
    lam = jsa.schmidt_weights(j, count=128)
    assert lam.sum() == pytest.approx(1.0, abs=1e-10)


def test_axis_validation():
    with pytest.raises(ValueError):
        jsa.GriddedJSA(np.array([1.0, 0.5]), np.array([0.0, 1.0]),
                       np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        jsa.GridSpec(n=4)


# ---------------------------------------------------------------------------
# Bell-measurement outcome probability
# ---------------------------------------------------------------------------

def make_scenario(phi=0.0, sigma_b=0.5, sigma_c=0.5, detune=0.0, grid_n=160):
    spec = jsa.GridSpec(n=grid_n, span=6.0)
    lo = min(CENTER - 6.0 * sigma_b, CENTER + detune - 6.0 * sigma_c)
    hi = max(CENTER + 6.0 * sigma_b, CENTER + detune + 6.0 * sigma_c)
    shared = np.linspace(lo, hi, grid_n)
    ab = jsa.separable_to_grid(
        jsa.SeparableJSA(gauss(CENTER - 3.0, 0.6), gauss(CENTER, sigma_b)),
        spec, axis_second=shared)
    cd = jsa.separable_to_grid(
        jsa.SeparableJSA(gauss(CENTER + detune, sigma_c), gauss(CENTER + 3.0, 0.7)),
        spec, axis_first=shared)
    return jsa.SwapScenario(ab, cd, phi)


def test_bsm_outcome_probabilities_are_one_eighth():
    for phi, det in ((0.0, 0.0), (math.pi / 3, 0.8), (1.2, 0.0)):
        s = make_scenario(phi=phi, sigma_b=0.4, sigma_c=0.9, detune=det)
        assert jsa.bsm_outcome_probabilities(s)["M0"] == pytest.approx(0.125,
                                                                       abs=1e-9)
    # four conclusive patterns make up the linear-optics 50% ceiling
    probs = jsa.bsm_outcome_probabilities(make_scenario())
    assert sum(probs.values()) == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# swap fidelity
# ---------------------------------------------------------------------------

def test_separable_fidelity_closed_form_values():
    assert jsa.swap_fidelity_separable(0.0, 0.0) == 1.0
    assert jsa.swap_fidelity_separable(0.0, math.pi / 2) == pytest.approx(0.5)
    assert jsa.swap_fidelity_separable(math.pi / 2, 0.3) == pytest.approx(0.0, abs=1e-30)
    # sigma_B = 2 sigma_C: cos Theta = sqrt(4/5)
    ov = spc.gaussian_overlap_closed_form(2.0, 1.0)
    theta = math.acos(ov)
    assert jsa.swap_fidelity_separable(0.0, theta) == pytest.approx(0.9, rel=1e-12)


def test_separable_scenario_uses_closed_form_route():
    sep = jsa.SwapScenario(
        jsa.SeparableJSA(gauss(CENTER - 3.0, 0.6), gauss(CENTER, 0.5)),
        jsa.SeparableJSA(gauss(CENTER, 1.0), gauss(CENTER + 3.0, 0.7)),
        phi=0.4)
    theta = spc.overlap(gauss(CENTER, 0.5), gauss(CENTER, 1.0)).theta
    assert jsa.swap_fidelity(sep) == pytest.approx(
        jsa.swap_fidelity_separable(0.4, theta), rel=1e-12)


def test_gridded_matches_closed_form_on_separable_inputs():
    for phi in (0.0, 0.5, 1.1):
        for ratio in (0.5, 1.0, 1.7):
            for detune in (0.0, 0.6):
                s = make_scenario(phi=phi, sigma_b=0.5, sigma_c=0.5 * ratio,
                                  detune=detune)
                theta = spc.overlap(gauss(CENTER, 0.5),
                                    gauss(CENTER + detune, 0.5 * ratio)).theta
                assert jsa.swap_fidelity(s) == pytest.approx(
                    jsa.swap_fidelity_separable(phi, theta), abs=1e-6)


def test_identical_sources_give_unit_fidelity():
    s = make_scenario(phi=0.0, sigma_b=0.5, sigma_c=0.5)
    assert jsa.swap_fidelity(s) == pytest.approx(1.0, abs=1e-8)


def test_orthogonal_bsm_photons_give_half():
    # far-detuned B and C photons: overlap ~ 0, F -> 1/2 at Phi = 0
    s = make_scenario(phi=0.0, sigma_b=0.3, sigma_c=0.3, detune=4.5)
    assert jsa.swap_fidelity(s) == pytest.approx(0.5, abs=1e-4)


def test_grid_convergence():
    f1 = jsa.swap_fidelity(make_scenario(phi=0.3, sigma_c=0.8, grid_n=128))
    f2 = jsa.swap_fidelity(make_scenario(phi=0.3, sigma_c=0.8, grid_n=256))
    assert abs(f1 - f2) < 1e-5


def test_entangled_jsa_lowers_fidelity():
    spec = jsa.GridSpec(n=256, span=7.0)
    entangled = jsa.build_gaussian_jsa(jsa.Pump(2 * CENTER, 0.2),
                                       jsa.PhaseMatching(0.8), spec)
    ab = jsa.GriddedJSA(entangled.axis_second, entangled.axis_first,
                        entangled.values.T)
    f = jsa.swap_fidelity(jsa.SwapScenario(ab, entangled, 0.0), spec)
    purity = float(np.sum(jsa.schmidt_weights(entangled, count=160) ** 2))
    assert f == pytest.approx(0.5 * (1.0 + purity), abs=1e-6)
    assert f < 0.95


def test_fidelity_never_exceeds_one_from_rounding():
    # identical separable sources: the gridded exchange integral lands a few
    # ulp above its Cauchy-Schwarz bound of 1 and is clamped there
    for n in (64, 160, 192, 256):
        s = make_scenario(phi=0.0, sigma_b=0.5, sigma_c=0.5, grid_n=n)
        assert jsa.swap_fidelity(s) <= 1.0


def test_unnormalized_jsa_exceeding_bound_raises():
    s = make_scenario(phi=0.0, sigma_b=0.5, sigma_c=0.5)
    doubled = jsa.GriddedJSA(s.jsa_ab.axis_first, s.jsa_ab.axis_second,
                             2.0 * s.jsa_ab.values)
    with pytest.raises(jsa.GridResolutionError):
        jsa.swap_fidelity(jsa.SwapScenario(doubled, s.jsa_cd, 0.0))


def test_mismatched_shared_axis_raises():
    spec = jsa.GridSpec(n=64, span=5.0)
    ab = jsa.separable_to_grid(
        jsa.SeparableJSA(gauss(CENTER - 3.0, 0.6), gauss(CENTER, 0.5)), spec)
    cd = jsa.separable_to_grid(
        jsa.SeparableJSA(gauss(CENTER + 1.0, 0.5), gauss(CENTER + 3.0, 0.7)), spec)
    with pytest.raises(ValueError):
        jsa.swap_fidelity(jsa.SwapScenario(ab, cd, 0.0))


# ---------------------------------------------------------------------------
# detuned bandwidth sweep
# ---------------------------------------------------------------------------

def test_bandwidth_sweep_no_detuning():
    sigmas = list(np.linspace(0.2, 3.0, 141))
    (curve,) = jsa.detuned_bandwidth_sweep([0.0], sigmas, sigma_c=1.0)
    best_sigma, best_f = max(curve, key=lambda p: p[1])
    assert best_f == pytest.approx(1.0, abs=1e-6)
    assert best_sigma == pytest.approx(1.0, abs=0.02)


def test_bandwidth_sweep_detuning_favors_broader_photon():
    sigmas = list(np.linspace(0.2, 6.0, 281))
    (curve,) = jsa.detuned_bandwidth_sweep([1.0], sigmas, sigma_c=1.0)
    best_sigma, best_f = max(curve, key=lambda p: p[1])
    assert best_sigma > 1.05
    assert best_f < 1.0


def test_bandwidth_sweep_wide_limit():
    (curve,) = jsa.detuned_bandwidth_sweep([0.5], [1e4], sigma_c=1.0)
    assert curve[0][1] == pytest.approx(0.5, abs=1e-3)
