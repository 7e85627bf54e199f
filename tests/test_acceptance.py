"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every tolerance below is final; nothing is tuned at runtime.
"""

import itertools
import math
import time

import numpy as np
import pytest

import sampled_jsa
from homsim import channels as chn
from homsim import coherent as coh
from homsim import fock
from homsim import jsa
from homsim import oracle
from homsim import polarization as pol
from homsim import protocols as proto
from homsim import spectral as spc
from homsim import sweeps

CENTER = 2 * math.pi * 193.55
LAMBDA_NM = 2 * math.pi * spc.SPEED_OF_LIGHT_NM_PS / CENTER
FWHM_1NM = spc.wavelength_width_to_frequency(LAMBDA_NM, 1.0)
GAUSS = spc.SpectralProfile(spc.Shape.GAUSSIAN, CENTER, math.pi)

# published max-visibility reference values; rows = photon B shape,
# columns = photon A shape, order (gaussian, sinc, lorentzian, sech)
TABLE_I = {
    ("gaussian", "gaussian"): 1.00, ("gaussian", "sinc"): 0.89,
    ("gaussian", "lorentzian"): 0.97, ("gaussian", "sech"): 0.99,
    ("sinc", "gaussian"): 0.88, ("sinc", "sinc"): 0.99,
    ("sinc", "lorentzian"): 0.80, ("sinc", "sech"): 0.85,
    ("lorentzian", "gaussian"): 0.97, ("lorentzian", "sinc"): 0.81,
    ("lorentzian", "lorentzian"): 1.00, ("lorentzian", "sech"): 0.99,
    ("sech", "gaussian"): 0.99, ("sech", "sinc"): 0.86,
    ("sech", "lorentzian"): 0.99, ("sech", "sech"): 1.00,
}
TABLE_II_DIAGONAL = {"gaussian": 0.71, "sinc": 0.70, "lorentzian": 0.71,
                     "sech": 0.71}


def _report(num: int, text: str) -> None:
    print(f"[PASS] criterion {num}: {text}")


@pytest.fixture(scope="module")
def visibility_tables():
    start = time.monotonic()
    table = sweeps.max_visibility_table(CENTER, FWHM_1NM, [(1, 1), (2, 2)])
    return table, time.monotonic() - start


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for m, n in itertools.product(range(5), range(5)):
        if m + n < 1:
            continue
        for t in (0.3, 0.5, 0.7):
            bs = fock.BeamSplitter(t, 1.0 - t)
            for c in (0.0, 0.3, 0.7, 1.0):
                pol_b = pol.PolarizationVector(c, math.sqrt(1.0 - c * c))
                pair = fock.FockPair(m, n, pol.H, pol_b)
                formula = fock.coincidence(pair, fock.Apparatus(bs))
                exact = oracle.oracle_coincidence(pair, bs)
                worst = max(worst, abs(formula - exact))
    elapsed = time.monotonic() - start
    assert worst < 1e-12
    assert elapsed < 5.0
    _report(1, f"Eq.-level vs operator-expansion coincidence, worst |diff| = "
               f"{worst:.2e} over m,n<=4 grid in {elapsed:.2f}s")


def test_criterion_2_canonical_dip():
    pair = fock.FockPair(1, 1, pol.H, pol.H, GAUSS, GAUSS)
    curve = dict(fock.dip_curve(pair, [0.0, 50.0]))
    assert curve[0.0] <= 1e-9
    assert abs(curve[50.0] - 0.5) <= 1e-9
    baseline = fock.coincidence_raw(1, 1, 0.0, fock.BeamSplitter.balanced(),
                                    1.0, 1.0)
    assert abs(baseline - 0.5) <= 1e-9
    _report(2, f"canonical HOM dip: P(0) = {curve[0.0]:.1e}, "
               f"baseline = {baseline}")


def test_criterion_3_table_i(visibility_tables):
    table, elapsed = visibility_tables
    for (sb, sa), expected in TABLE_I.items():
        entry = table[(spc.Shape(sb), spc.Shape(sa))]
        got = entry.visibility[(1, 1)]
        tol = 0.05 if "sinc" in (sa, sb) else 0.02
        assert got == pytest.approx(expected, abs=tol), (sb, sa, got)
    ratio = table[(spc.Shape.GAUSSIAN, spc.Shape.LORENTZIAN)].fwhm_ratio
    assert ratio == pytest.approx(0.90, abs=0.05)
    assert elapsed < 30.0
    _report(3, f"Table I visibilities reproduced (Gaussian-Lorentzian ratio "
               f"{ratio:.3f}) in {elapsed:.1f}s")


def test_criterion_4_table_ii(visibility_tables):
    table, _ = visibility_tables
    for shape, expected in TABLE_II_DIAGONAL.items():
        got = table[(spc.Shape(shape), spc.Shape(shape))].visibility[(2, 2)]
        assert got == pytest.approx(expected, abs=0.02), (shape, got)
    matched = fock.visibility_from_c(2, 2, 1.0, fock.IDEAL_APPARATUS)
    assert matched == pytest.approx(5.0 / 7.0, abs=1e-14)
    _report(4, f"Table II diagonal reproduced; V(2,2 matched) = {matched} = 5/7")


def test_criterion_5_coherent_closed_form_vs_series():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        mu_a, mu_b = rng.uniform(0.0, 3.0, 2)
        t = rng.uniform(0.1, 0.9)
        etas = rng.uniform(0.0, 1.0, 4)
        c = rng.uniform(0.0, 1.0)
        pair = coh.CoherentPair(mu_a, mu_b, pol.H,
                                pol.PolarizationVector(c, math.sqrt(1 - c * c)))
        app = fock.Apparatus(fock.BeamSplitter(t, 1.0 - t),
                             pol.Detector(etas[0], etas[1]),
                             pol.Detector(etas[2], etas[3]))
        diff = abs(coh.total_coincidence(pair, app)
                   - coh.total_coincidence_series(pair, app))
        worst = max(worst, diff)
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    _report(5, f"closed form vs Poisson series, worst |diff| = {worst:.2e} "
               f"over 200 draws in {elapsed:.2f}s")


def test_criterion_6_coherent_ceiling_and_ratio_map():
    v = coh.coherent_visibility(1e-3, 0.0)
    assert v == pytest.approx(0.5, abs=1e-4)
    ratios = np.exp(np.linspace(math.log(0.25), math.log(4.0), 21))
    grid = coh.visibility_ratio_map(ratios, ratios)
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    assert ratios[i] == pytest.approx(1.0) and ratios[j] == pytest.approx(1.0)
    _report(6, f"coherent ceiling V(1e-3) = {v:.6f}; ideal ratio-map argmax "
               f"at (1, 1)")


def test_criterion_7_channels():
    start = time.monotonic()
    # binomial damping, exact
    for n in range(6):
        for gamma in (0.0, 0.3, 0.5, 1.0):
            dist = dict(chn.damp_number(n, gamma))
            for k in range(n + 1):
                assert dist[k] == math.comb(n, k) * (1 - gamma) ** k * gamma ** (n - k)
    # depolarizing fixed point
    for vec in (pol.H, pol.D, pol.rotate(pol.H, 0.7)):
        out = pol.depolarize(vec.density(), 0.75)
        assert np.max(np.abs(out.rho - np.eye(2) / 2)) < 1e-12
    # linearity of the mixed coincidence in the number distribution
    lam = 0.43
    d1, d2 = chn.damp_number(3, 0.2), chn.damp_number(3, 0.65)
    mixed_d = tuple((k, lam * dict(d1)[k] + (1 - lam) * dict(d2)[k])
                    for k in range(3, -1, -1))
    partner = chn.MixedSource.pure(chn.SourceSpec(1, pol.H, GAUSS))
    make = lambda nd: chn.MixedSource(nd, pol.D.density(), GAUSS)
    lin_diff = abs(chn.mixed_coincidence(make(mixed_d), partner)
                   - lam * chn.mixed_coincidence(make(d1), partner)
                   - (1 - lam) * chn.mixed_coincidence(make(d2), partner))
    assert lin_diff <= 1e-12
    # a damping point that beats the undamped (2, 1) visibility
    src_a = chn.SourceSpec(2, pol.H, GAUSS)
    src_b = chn.SourceSpec(1, pol.H, GAUSS)
    base = chn.mixed_visibility(chn.MixedSource.pure(src_a),
                                chn.MixedSource.pure(src_b))
    gammas = [chn.ChannelSpec(gamma=g) for g in np.linspace(0.0, 0.9, 10)]
    grid = chn.channel_visibility_contour(src_a, src_b, gammas, gammas)
    best = max(max(row) for row in grid)
    elapsed = time.monotonic() - start
    assert best > base
    assert elapsed < 60.0
    _report(7, f"channels: binomial/depolarizing exact, linearity "
               f"{lin_diff:.1e}, damping lifts V(2,1) {base:.3f} -> "
               f"{best:.3f} in {elapsed:.1f}s")


def test_criterion_8_swap_fidelity():
    # the trapezoid rule over sampled separable JSAs, 128 points per axis
    # spanning +-6 widths, against the closed form
    n, span = 128, 6.0
    sigma_c = 0.5
    worst = 0.0
    for phi in np.linspace(0.0, 0.5 * math.pi, 10):
        for ratio in np.exp(np.linspace(math.log(0.4), math.log(2.5), 10)):
            for detune in (0.0, 0.25, 0.5, 1.0, 1.5):
                sigma_b = ratio * sigma_c
                d = detune * sigma_c
                lo = min(CENTER - 6 * sigma_b, CENTER + d - 6 * sigma_c)
                hi = max(CENTER + 6 * sigma_b, CENTER + d + 6 * sigma_c)
                shared = np.linspace(lo, hi, n)
                spec_a = spc.SpectralProfile(spc.Shape.GAUSSIAN, CENTER - 3.0, 0.6)
                spec_b = spc.SpectralProfile(spc.Shape.GAUSSIAN, CENTER, sigma_b)
                spec_c = spc.SpectralProfile(spc.Shape.GAUSSIAN, CENTER + d, sigma_c)
                spec_d = spc.SpectralProfile(spc.Shape.GAUSSIAN, CENTER + 3.0, 0.7)
                ab = jsa.SeparableJSA(spec_a, spec_b)
                cd = jsa.SeparableJSA(spec_c, spec_d)
                gridded = sampled_jsa.fidelity(
                    sampled_jsa.separable(ab, sampled_jsa.support(spec_a, n, span), shared),
                    sampled_jsa.separable(cd, shared, sampled_jsa.support(spec_d, n, span)),
                    phi)
                closed = jsa.swap_fidelity_separable(
                    phi, spc.overlap(spec_b, spec_c).theta)
                worst = max(worst, abs(gridded - closed))
    assert worst <= 1e-6
    # all four outcome probabilities at 1/8
    scenario = jsa.SwapScenario(ab, cd, 0.7)
    probs = jsa.bsm_outcome_probabilities(scenario)
    for p in probs.values():
        assert p == pytest.approx(0.125, abs=1e-9)
    assert jsa.swap_fidelity_separable(0.0, math.pi / 2) == 0.5
    _report(8, f"swap fidelity gridded vs closed form, worst |diff| = "
               f"{worst:.2e}; all four BSM outcomes at 1/8")


def test_criterion_9_mdi():
    quarter = 0.25
    expected_rows = {
        ("H", "H"): (0, 0, 0, 0), ("H", "V"): (quarter,) * 4,
        ("V", "H"): (quarter,) * 4, ("V", "V"): (0, 0, 0, 0),
        ("D", "D"): (quarter, quarter, 0, 0), ("D", "A"): (0, 0, quarter, quarter),
        ("A", "D"): (0, 0, quarter, quarter), ("A", "A"): (quarter, quarter, 0, 0),
    }
    for (sa, sb), row in expected_rows.items():
        got = proto.mdi_outcome_table(proto.MdiScenario(sa, sb, 0.0, 0.0))
        for key, val in zip(("M12", "M34", "M23", "M14"), row):
            assert got[key] == pytest.approx(val, abs=1e-12)
    from test_protocols import oracle_table
    worst = 0.0
    for phi in np.linspace(0.0, 0.5 * math.pi, 5):
        for theta in np.linspace(0.0, 0.5 * math.pi, 5):
            formula = proto.mdi_conclusive_probability(phi, theta)
            for sa, sb in (("D", "A"), ("A", "D")):
                orc = oracle_table(sa, sb, phi, theta)
                worst = max(worst, abs(orc["M23"] - formula),
                            abs(orc["M14"] - formula))
    assert worst <= 1e-9
    assert proto.spectral_error(0.0) == 0.0
    assert proto.spectral_error(math.pi / 2) == pytest.approx(0.5, abs=1e-15)
    _report(9, f"MDI table exact; conclusive probability vs projector oracle, "
               f"worst |diff| = {worst:.2e}; e_f endpoints 0 and 1/2")


def test_criterion_10_sensing():
    worst = 0.0
    for n in range(1, 6):
        for theta in np.linspace(0.0, 0.5 * math.pi, 9):
            for phase in np.linspace(0.0, 2.0 * math.pi, 9):
                got = proto.noon_signal(n, theta, phase)
                worst = max(worst, abs(got + n * math.cos(theta) * math.sin(phase)))
    assert worst <= 1e-12
    _report(10, f"NOON signal exact on N x angle grid, worst |diff| = {worst:.1e}")


def test_criterion_11_classifier_and_fusion():
    assert proto.classifier_coincidence(0.0, 0.0) == 0.0
    assert proto.classifier_coincidence(math.pi / 2, 0.0) == pytest.approx(
        0.5, abs=1e-15)
    assert proto.fusion_fidelity(0.0) == 1.0
    assert proto.fusion_fidelity(math.pi / 2) == pytest.approx(0.5, abs=1e-15)
    worst = 0.0
    for theta in np.linspace(0.0, 0.5 * math.pi, 25):
        worst = max(worst, abs(proto.fusion_fidelity(theta)
                               - (1.0 - proto.classifier_coincidence(theta, 0.0))))
    assert worst <= 1e-12
    _report(11, f"classifier/fusion endpoints exact; F = 1 - p0 identity to "
               f"{worst:.1e}")
