import math

import numpy as np
import pytest

import sampled_jsa as sampled
from gaussian_reference import gaussian_overlap_closed_form
from homsim import cli
from homsim import jsa
from homsim import spectral as spc

CENTER = 2 * math.pi * 193.55


def gauss(center, sigma):
    return spc.SpectralProfile(spc.Shape.GAUSSIAN, center, sigma)


def source(sigma_p, pm):
    return jsa.GaussianJSA.from_pump(jsa.Pump(2 * CENTER, sigma_p), pm)


def self_swap(j: jsa.GaussianJSA):
    """Two copies of ``j`` meeting with their signal photons: F = (1 + P) / 2."""
    return jsa.swap_fidelity(jsa.SwapScenario(j.transposed(), j))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_built_jsa_is_normalized():
    # the closed form's norm (det A / pi^2)^(1/4), with det A = q t (s_s -
    # s_i)^2, makes the trapezoid norm of the sampled amplitude 1
    j = source(0.8, jsa.PhaseMatching(0.5))
    a11, a12, a22, det, _ = j.bsm(True)
    assert det == pytest.approx(a11 * a22 - a12 * a12, rel=1e-14)
    assert sampled.gaussian(j, 256).norm_squared() == pytest.approx(1.0, abs=1e-12)
    assert jsa.bsm_outcome_probabilities(jsa.SwapScenario(j.transposed(), j)) == \
        dict.fromkeys(("M0", "M1", "M2", "M3"), 0.125)


def test_grid_too_coarse_raises():
    # a nearly singular pump (slopes 1 and 1 - 1e-7, Schmidt purity ~1e-7)
    # needs more trapezoid nodes against a separable photon than the cap
    j = source(0.3, jsa.PhaseMatching(0.5, 1.0, 1.0 - 1e-7))
    photon = gauss(CENTER, 0.5)
    with pytest.raises(jsa.GridResolutionError, match="nodes"):
        jsa.swap_fidelity(jsa.SwapScenario(jsa.SeparableJSA(photon, photon), j))


def test_equal_slopes_cannot_be_normalized():
    with pytest.raises(ValueError, match="slope_s == slope_i"):
        source(0.5, jsa.PhaseMatching(0.5, 0.7, 0.7))


def test_separability_at_balanced_slopes():
    # with slopes (1, -1) the PEF and PMF cross terms cancel when
    # sigma_p = sigma_pm; the Schmidt spectrum collapses to one mode
    sigma = 0.7
    j = source(sigma, jsa.PhaseMatching(sigma, 1.0, -1.0))
    assert j.bsm(True)[1] == 0.0
    assert self_swap(j) == pytest.approx(1.0, abs=1e-15)
    lam = sampled.schmidt_weights(sampled.gaussian(j))
    assert lam[0] > 1.0 - 1e-12


def test_one_sided_slope_with_broad_pump_is_separable():
    # the broad pump leaves the 0.5 rad/ps phase-matching ridge along the
    # signal axis alone; the exact (1 + P) / 2 is 0.999975
    pm = jsa.PhaseMatching(0.5, 1.0, 0.0)
    f = self_swap(source(50.0, pm))
    assert abs(f - 0.5 * (1.0 + _schmidt_purity(50.0, pm))) <= 1e-13
    assert f == pytest.approx(0.999975, abs=1e-6)


def test_narrow_pump_is_anticorrelated():
    j = source(0.08, jsa.PhaseMatching(1.0))
    g = sampled.gaussian(j, 512)
    w1, w2 = g.weights()
    p = np.abs(g.values) ** 2 * np.outer(w1, w2)
    p /= p.sum()
    xs = g.axis_first - (p.sum(axis=1) @ g.axis_first)
    ys = g.axis_second - (p.sum(axis=0) @ g.axis_second)
    cov = float((p * np.outer(xs, ys)).sum())
    sx = math.sqrt(float(p.sum(axis=1) @ xs**2))
    sy = math.sqrt(float(p.sum(axis=0) @ ys**2))
    # |f|^2 has the covariance A^-1 / 2: correlation -A_12 / sqrt(A_11 A_22)
    a11, a12, a22, _, _ = j.bsm(True)
    assert cov / (sx * sy) == pytest.approx(-a12 / math.sqrt(a11 * a22), abs=1e-9)
    assert cov / (sx * sy) < -0.9


def test_schmidt_weights_sum_to_one():
    # a Gaussian JSA's Schmidt weights are geometric, (1 - mu^2) mu^(2k),
    # with mu^2 = (1 - P) / (1 + P) for its purity P
    pm = jsa.PhaseMatching(0.9)
    lam = sampled.schmidt_weights(sampled.gaussian(source(0.4, pm)), count=128)
    assert lam.sum() == pytest.approx(1.0, abs=1e-10)
    purity = _schmidt_purity(0.4, pm)
    mu2 = (1.0 - purity) / (1.0 + purity)
    assert lam[:6] == pytest.approx((1.0 - mu2) * mu2 ** np.arange(6), abs=1e-10)


# ---------------------------------------------------------------------------
# Bell-measurement outcome probability
# ---------------------------------------------------------------------------

def make_scenario(phi=0.0, sigma_b=0.5, sigma_c=0.5, detune=0.0):
    return jsa.SwapScenario(
        jsa.SeparableJSA(gauss(CENTER - 3.0, 0.6), gauss(CENTER, sigma_b)),
        jsa.SeparableJSA(gauss(CENTER + detune, sigma_c), gauss(CENTER + 3.0, 0.7)), phi)


def sample_scenario(s: jsa.SwapScenario, grid_n=160, span=6.0):
    """The scenario's two separable JSAs on grid_n-point axes spanning +-span
    widths, B and C on one shared axis that spans both photons."""
    b, c = s.jsa_ab.spec_second, s.jsa_cd.spec_first
    shared = np.linspace(min(b.center - span * b.width, c.center - span * c.width),
                         max(b.center + span * b.width, c.center + span * c.width), grid_n)
    return (sampled.separable(s.jsa_ab, sampled.support(s.jsa_ab.spec_first, grid_n, span),
                              shared),
            sampled.separable(s.jsa_cd, shared,
                              sampled.support(s.jsa_cd.spec_second, grid_n, span)))


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
    ov = gaussian_overlap_closed_form(2.0, 1.0)
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
                assert sampled.fidelity(*sample_scenario(s), phi) == pytest.approx(
                    jsa.swap_fidelity_separable(phi, theta), abs=1e-6)


def test_identical_sources_give_unit_fidelity():
    s = make_scenario(phi=0.0, sigma_b=0.5, sigma_c=0.5)
    assert jsa.swap_fidelity(s) == pytest.approx(1.0, abs=1e-8)


def test_orthogonal_bsm_photons_give_half():
    # far-detuned B and C photons: overlap ~ 0, F -> 1/2 at Phi = 0
    s = make_scenario(phi=0.0, sigma_b=0.3, sigma_c=0.3, detune=4.5)
    assert jsa.swap_fidelity(s) == pytest.approx(0.5, abs=1e-4)


def test_entangled_jsa_lowers_fidelity():
    # the closed form against the purity sum lambda_k^2 of the sampled
    # JSA's Schmidt spectrum
    entangled = source(0.2, jsa.PhaseMatching(0.8))
    f = self_swap(entangled)
    purity = float(np.sum(sampled.schmidt_weights(sampled.gaussian(entangled, 256),
                                                  count=160) ** 2))
    assert f == pytest.approx(0.5 * (1.0 + purity), abs=1e-10)
    assert f < 0.95


def test_fidelity_never_exceeds_one_from_rounding():
    # identical separable sources: an overlap a few ulp above its
    # Cauchy-Schwarz bound of 1 is clamped there
    for sigma in (0.05, 0.3, 0.5, 1.7, 40.0):
        s = make_scenario(phi=0.0, sigma_b=sigma, sigma_c=sigma)
        assert jsa.swap_fidelity(s) <= 1.0


def _schmidt_purity(sigma_p, pm):
    """sqrt(1 - c^2 / (a b)): the purity of the Gaussian JSA exp(-z^T A z / 2),
    with A = [[a, c], [c, b]] from the pump and phase-matching widths."""
    q = 1.0 / sigma_p**2
    a = q + pm.slope_s**2 / pm.sigma**2
    b = q + pm.slope_i**2 / pm.sigma**2
    c = q + pm.slope_s * pm.slope_i / pm.sigma**2
    return math.sqrt(1.0 - c * c / (a * b))


@pytest.mark.parametrize("n", [192, 256])
@pytest.mark.parametrize("sigma_p", [0.1, 0.5, 1.0, 2.0])
def test_pump_sweep_fidelity_is_half_one_plus_schmidt_purity(n, sigma_p):
    # at Phi = 0 the exchange integral of one source with itself is the
    # trace of its reduced state squared, the Schmidt purity P: F = (1 + P) / 2,
    # and the JSA sampled on an n-point grid meets itself within 1e-10 of it
    pm = jsa.PhaseMatching(0.5)
    j = jsa.GaussianJSA.from_pump(jsa.Pump(2432.2, sigma_p), pm)
    expected = 0.5 * (1.0 + _schmidt_purity(sigma_p, pm))
    assert abs(self_swap(j) - expected) <= 1e-13
    grid = sampled.gaussian(j, n)
    assert abs(sampled.fidelity(grid.transposed(), grid) - expected) <= 1e-10


def test_pump_sweep_is_one_array_expression():
    # an array of pump widths gives the array of (1 + P) / 2 in one call
    pm = jsa.PhaseMatching(0.5)
    sigmas = np.linspace(0.05, 5.0, 40)
    f = self_swap(jsa.GaussianJSA.from_pump(jsa.Pump(2432.2, sigmas), pm))
    assert f.shape == sigmas.shape
    assert np.max(np.abs(f - [0.5 * (1.0 + _schmidt_purity(s, pm)) for s in sigmas])) <= 1e-13


def test_cli_pump_sweep_is_half_one_plus_schmidt_purity(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["swap", "--set", "mode=pump_sweep",
                     "--set", 'pump_sigma={"min":0.5,"max":2.0,"steps":4}',
                     "--set", "phi_steps=2", "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and ln[0].isdigit()]
    aligned = {float(s): float(f) for s, phi, f in rows if float(phi) == 0.0}
    assert sorted(aligned) == [0.5, 1.0, 1.5, 2.0]
    for sigma_p, f in aligned.items():
        expected = 0.5 * (1.0 + _schmidt_purity(sigma_p, jsa.PhaseMatching(0.5)))
        assert abs(f - expected) <= 5e-13  # 12 printed digits


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
