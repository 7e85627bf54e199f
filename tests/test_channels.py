import math

import numpy as np
import pytest

from homsim import channels as chn
from homsim import fock
from homsim import polarization as pol
from homsim import spectral as spc

CENTER = 2 * math.pi * 193.55
GAUSS = spc.SpectralProfile(spc.Shape.GAUSSIAN, CENTER, math.pi)


def src(photons, p=pol.H, spec=GAUSS):
    return chn.SourceSpec(photons, p, spec)


# ---------------------------------------------------------------------------
# amplitude damping
# ---------------------------------------------------------------------------

def test_damp_number_endpoints():
    assert chn.damp_number(3, 0.0) == ((3, 1.0), (2, 0.0), (1, 0.0), (0, 0.0))
    dist = dict(chn.damp_number(3, 1.0))
    assert dist[0] == 1.0 and dist[3] == 0.0


def test_damp_number_binomial():
    dist = dict(chn.damp_number(4, 0.5))
    expected = {4: 1 / 16, 3: 4 / 16, 2: 6 / 16, 1: 4 / 16, 0: 1 / 16}
    for k, p in expected.items():
        assert dist[k] == pytest.approx(p, rel=1e-15)


@pytest.mark.parametrize("n", [0, 1, 4, 9])
@pytest.mark.parametrize("gamma", [0.0, 0.25, 0.6, 1.0])
def test_damp_number_is_normalized(n, gamma):
    assert math.fsum(p for _, p in chn.damp_number(n, gamma)) == pytest.approx(
        1.0, abs=1e-14)


@pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.2, 0.5, 0.8, 0.999, 1.0])
def test_damp_number_past_the_float_range_of_the_binomial(gamma):
    # from n = 1,030 on C(n, k) passes the float range, and the weights
    # raised "int too large to convert to float"
    from scipy.stats import binom
    n = 2000
    dist = chn.damp_number(n, gamma)
    assert [k for k, _ in dist] == list(range(n, -1, -1))
    assert math.fsum(p for _, p in dist) == pytest.approx(1.0, abs=1e-12)
    ks = np.array([k for k, _ in dist])
    expected = binom.pmf(ks, n, 1.0 - gamma)
    assert np.max(np.abs(np.array([p for _, p in dist]) - expected)) <= 1e-12


@pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.2, 0.5, 0.8, 0.999, 1.0])
def test_damp_number_keeps_the_direct_product_wherever_the_binomial_converts(gamma):
    # n = 1,029 is the last n whose every C(n, k) converts to a float
    n = 1029
    assert chn.damp_number(n, gamma) == tuple(
        (k, math.comb(n, k) * (1.0 - gamma) ** k * gamma ** (n - k))
        for k in range(n, -1, -1))


def test_damp_number_validation():
    with pytest.raises(ValueError):
        chn.damp_number(-1, 0.5)
    with pytest.raises(ValueError):
        chn.damp_number(2, 1.5)


# ---------------------------------------------------------------------------
# channel application
# ---------------------------------------------------------------------------

def test_identity_channel_preserves_source():
    mixed = chn.apply_channel(src(2, pol.D), chn.IDENTITY_CHANNEL)
    assert dict(mixed.number_dist)[2] == 1.0
    assert np.allclose(mixed.pol.rho, pol.D.density().rho, atol=1e-15)
    assert mixed.spec == GAUSS


def test_full_damping_gives_vacuum():
    mixed = chn.apply_channel(src(3), chn.ChannelSpec(gamma=1.0))
    assert dict(mixed.number_dist)[0] == 1.0


def test_broadening_doubles_gaussian_width():
    mixed = chn.apply_channel(src(1), chn.ChannelSpec(xi=2.0))
    assert mixed.spec.effective_width == pytest.approx(2.0 * GAUSS.effective_width)
    assert spc.fwhm(mixed.spec) == pytest.approx(2.0 * spc.fwhm(GAUSS), rel=1e-12)


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        chn.ChannelSpec(gamma=1.2)
    with pytest.raises(ValueError):
        chn.ChannelSpec(p_depol=-0.1)
    with pytest.raises(ValueError):
        chn.ChannelSpec(xi=0.0)
    with pytest.raises(ValueError):
        chn.ChannelSpec(xi=math.nan)


# ---------------------------------------------------------------------------
# mixed coincidences
# ---------------------------------------------------------------------------

def test_pure_sources_reproduce_fock():
    for m, n, phi in ((1, 1, 0.0), (2, 1, 0.4), (3, 2, 1.0)):
        pol_b = pol.rotate(pol.H, phi)
        mixed = chn.mixed_coincidence(
            chn.MixedSource.pure(src(m)),
            chn.MixedSource.pure(chn.SourceSpec(n, pol_b, GAUSS)))
        direct = fock.coincidence(fock.FockPair(m, n, pol.H, pol_b, GAUSS, GAUSS))
        assert mixed == pytest.approx(direct, abs=1e-14)


def test_depolarized_arm_is_two_branch_average():
    # arm A maximally depolarized: H/V branches at weight 1/2 each
    mixed_a = chn.apply_channel(src(1), chn.ChannelSpec(p_depol=0.75))
    pure_b = chn.MixedSource.pure(src(1, pol.rotate(pol.H, 0.3)))
    got = chn.mixed_coincidence(mixed_a, pure_b)
    bs = fock.BeamSplitter.balanced()
    branch_h = fock.coincidence(fock.FockPair(1, 1, pol.H, pol.rotate(pol.H, 0.3), GAUSS, GAUSS))
    branch_v = fock.coincidence(fock.FockPair(1, 1, pol.V, pol.rotate(pol.H, 0.3), GAUSS, GAUSS))
    assert got == pytest.approx(0.5 * branch_h + 0.5 * branch_v, abs=1e-14)


def test_damped_two_one_branch_enumeration():
    g = 0.3
    mixed_a = chn.apply_channel(src(2), chn.ChannelSpec(gamma=g))
    mixed_b = chn.apply_channel(src(1), chn.ChannelSpec(gamma=g))
    got = chn.mixed_coincidence(mixed_a, mixed_b)
    p = lambda m, n: fock.coincidence_raw(m, n, 1.0, fock.BeamSplitter.balanced(),
                                          1.0, 1.0) if m + n >= 1 else 0.0
    w2 = (1 - g) ** 2
    expected = (w2 * (1 - g) * p(2, 1) + w2 * g * p(2, 0)
                + 2 * g * (1 - g) * (1 - g) * p(1, 1) + 2 * g * (1 - g) * g * p(1, 0)
                + g * g * (1 - g) * p(0, 1))
    assert got == pytest.approx(expected, abs=1e-14)


def test_mixed_coincidence_matches_branch_averaged_oracle():
    # with ideal detectors every pure branch is exact, so the mixture must
    # agree with the operator-expansion oracle averaged the same way
    from homsim import oracle
    spec_b = spc.SpectralProfile(spc.Shape.SECH, CENTER, 0.8)
    src_a = chn.SourceSpec(2, pol.rotate(pol.H, 0.4), GAUSS)
    src_b = chn.SourceSpec(2, pol.D, spec_b)
    mixed_a = chn.apply_channel(src_a, chn.ChannelSpec(gamma=0.35, p_depol=0.3))
    mixed_b = chn.apply_channel(src_b, chn.ChannelSpec(gamma=0.1, p_depol=0.6))
    got = chn.mixed_coincidence(mixed_a, mixed_b)
    bs = fock.BeamSplitter.balanced()
    branches = lambda rho: ((rho.w, rho.state), (1.0 - rho.w, pol.orthogonal(rho.state)))
    expected = 0.0
    for ka, pka in mixed_a.number_dist:
        for wa, va in branches(mixed_a.pol):
            for kb, pkb in mixed_b.number_dist:
                for wb, vb in branches(mixed_b.pol):
                    if ka + kb < 1 or pka * wa * pkb * wb == 0.0:
                        continue
                    pair = fock.FockPair(ka, kb, va, vb, mixed_a.spec,
                                         mixed_b.spec)
                    expected += (pka * wa * pkb * wb
                                 * oracle.oracle_coincidence(pair, bs))
    assert got == pytest.approx(expected, abs=1e-12)


def test_linearity_in_number_distribution():
    # convex combination of number distributions = combination of outcomes
    lam = 0.37
    d1 = chn.damp_number(3, 0.2)
    d2 = chn.damp_number(3, 0.7)
    mix = tuple((k, lam * dict(d1).get(k, 0.0) + (1 - lam) * dict(d2).get(k, 0.0))
                for k in range(3, -1, -1))
    rho = pol.D.density()
    make = lambda nd: chn.MixedSource(nd, rho, GAUSS)
    other = chn.MixedSource.pure(src(1))
    got = chn.mixed_coincidence(make(mix), other)
    expected = (lam * chn.mixed_coincidence(make(d1), other)
                + (1 - lam) * chn.mixed_coincidence(make(d2), other))
    assert got == pytest.approx(expected, abs=1e-12)


def test_linearity_in_commuting_polarization_mixtures():
    lam = 0.61
    rho1 = pol.PolarizationDensity.from_matrix(np.diag([0.8, 0.2]).astype(complex))
    rho2 = pol.PolarizationDensity.from_matrix(np.diag([0.3, 0.7]).astype(complex))
    rho_mix = pol.PolarizationDensity.from_matrix(lam * rho1.rho + (1 - lam) * rho2.rho)
    nd = ((1, 1.0),)
    other = chn.MixedSource.pure(src(1, pol.D))
    make = lambda r: chn.MixedSource(nd, r, GAUSS)
    got = chn.mixed_coincidence(make(rho_mix), other)
    expected = (lam * chn.mixed_coincidence(make(rho1), other)
                + (1 - lam) * chn.mixed_coincidence(make(rho2), other))
    assert got == pytest.approx(expected, abs=1e-12)


def test_trace_preservation():
    for g, p, xi in ((0.3, 0.2, 1.5), (0.9, 0.75, 0.6), (0.0, 1.0, 3.0)):
        mixed = chn.apply_channel(src(4, pol.D), chn.ChannelSpec(g, p, xi))
        assert math.fsum(pk for _, pk in mixed.number_dist) == pytest.approx(
            1.0, abs=1e-12)
        assert np.trace(mixed.pol.rho).real == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# visibility under channels
# ---------------------------------------------------------------------------

def test_equal_damping_leaves_single_photon_visibility():
    base = chn.mixed_visibility(chn.MixedSource.pure(src(1)),
                                chn.MixedSource.pure(src(1)))
    for g in np.linspace(0.0, 0.8, 9):
        va = chn.mixed_visibility(chn.apply_channel(src(1), chn.ChannelSpec(gamma=g)),
                                  chn.apply_channel(src(1), chn.ChannelSpec(gamma=g)))
        assert va == pytest.approx(base, abs=1e-9)


def test_identity_corner_matches_pure_visibility():
    grid = chn.channel_visibility_contour(src(2), src(2),
                                          [chn.IDENTITY_CHANNEL],
                                          [chn.IDENTITY_CHANNEL])
    pure = chn.mixed_visibility(chn.MixedSource.pure(src(2)),
                                chn.MixedSource.pure(src(2)))
    assert grid[0][0] == pytest.approx(pure, abs=1e-14)
    assert grid[0][0] == pytest.approx(5 / 7, rel=1e-12)


def test_damping_can_improve_mismatched_visibility():
    # photon-number mismatch (2, 1): attenuating the heavier arm helps
    base = chn.mixed_visibility(chn.MixedSource.pure(src(2)),
                                chn.MixedSource.pure(src(1)))
    gammas = [chn.ChannelSpec(gamma=g) for g in np.linspace(0.0, 0.9, 10)]
    grid = chn.channel_visibility_contour(src(2), src(1), gammas,
                                          [chn.IDENTITY_CHANNEL] * 1)
    best = max(row[0] for row in grid)
    assert base == pytest.approx(2 / 3, rel=1e-12)
    assert best > base + 0.05


def test_strong_depolarization_saturates():
    # p = 3/4 reaches the maximally mixed fixed point on both arms
    ch = chn.ChannelSpec(p_depol=0.75)
    va = chn.mixed_visibility(chn.apply_channel(src(1, pol.D), ch),
                              chn.apply_channel(src(1, pol.A), ch))
    vb = chn.mixed_visibility(chn.apply_channel(src(1, pol.H), ch),
                              chn.apply_channel(src(1, pol.V), ch))
    assert va == pytest.approx(vb, abs=1e-12)


@pytest.mark.parametrize("psi", [pol.D, pol.A, pol.rotate(pol.H, 0.3)])
def test_depolarized_shared_label_is_continuous_at_three_quarters(psi):
    # two photons sharing one label are split into psi and psi-perp at
    # every p, so V has no kink at p = 3/4, where the density is I/2.
    # dV/dp is about -0.39 there for psi = rotate(H, 0.3), so a step of
    # 1e-10 moves V by about 4e-11; the second difference across 3/4 is
    # rounding alone only when the branch direction is exact on both sides
    ps = (0.75 - 1e-10, 0.75, 0.75 + 1e-10)
    pure_a, arm_b = src(2), src(2, psi)
    cells = [chn.mixed_visibility(chn.apply_channel(pure_a, chn.IDENTITY_CHANNEL),
                                  chn.apply_channel(arm_b, chn.ChannelSpec(p_depol=p)))
             for p in ps]
    [row] = chn.channel_visibility_contour(pure_a, arm_b, [chn.IDENTITY_CHANNEL],
                                           [chn.ChannelSpec(p_depol=p) for p in ps])
    for v in (cells, row):
        assert abs(v[2] - 2.0 * v[1] + v[0]) <= 1e-12


def test_broadening_mismatch_reduces_visibility():
    matched = chn.mixed_visibility(chn.apply_channel(src(1), chn.ChannelSpec(xi=2.0)),
                                   chn.apply_channel(src(1), chn.ChannelSpec(xi=2.0)))
    mismatched = chn.mixed_visibility(chn.apply_channel(src(1), chn.ChannelSpec(xi=2.0)),
                                      chn.apply_channel(src(1), chn.ChannelSpec(xi=0.5)))
    assert matched == pytest.approx(1.0, abs=1e-9)
    assert mismatched < matched - 0.1


def test_mixed_source_validation():
    with pytest.raises(ValueError):
        chn.MixedSource(((1, 0.6), (0, 0.3)), pol.H.density(), GAUSS)
    with pytest.raises(ValueError):
        chn.SourceSpec(-1, pol.H, GAUSS)


# ---------------------------------------------------------------------------
# the contour against its cells
# ---------------------------------------------------------------------------

_DETECTORS = fock.Apparatus(fock.BeamSplitter.balanced(), pol.Detector(0.9, 0.86),
                            pol.Detector(0.97, 0.88))
# damping leaves single photons, and a lone photon against vacuum leaves
# [0, 1] at any efficiency below 1 (ROADMAP item 2): the damping cases give
# H photons eta_h = 1
_H_LOSSLESS = fock.Apparatus(fock.BeamSplitter(0.45, 0.55), pol.Detector(1.0, 0.85),
                             pol.Detector(1.0, 0.92))


@pytest.mark.parametrize("field, values, m, n, pol_b, app", [
    ("gamma", [0.0, 0.45, 0.9], 2, 1, pol.H, fock.IDEAL_APPARATUS),
    ("gamma", [0.0, 0.3, 0.6, 0.9], 3, 3, pol.H, _H_LOSSLESS),
    ("p_depol", [0.0, 0.375, 0.75], 1, 1, pol.D, _DETECTORS),
    ("p_depol", [0.0, 0.2, 0.5, 0.75], 2, 1, pol.D, _DETECTORS),
    ("xi", [0.5, 1.0, 3.0], 3, 3, pol.H, _DETECTORS),
    ("xi", [0.6, 1.7], 1, 2, pol.H, fock.IDEAL_APPARATUS),
])
def test_contour_equals_per_cell_mixed_visibility(field, values, m, n, pol_b, app,
                                                  monkeypatch):
    # the grid's overlaps are one overlaps() call on arm A's (len, 1)
    # broadened family against arm B's (len,) one
    calls = []
    real_overlaps = spc.overlaps
    monkeypatch.setattr(spc, "overlaps",
                        lambda a, b: calls.append((a, b)) or real_overlaps(a, b))
    src_a = src(m, pol.H, GAUSS)
    src_b = src(n, pol_b, spc.SpectralProfile(spc.Shape.SECH, CENTER + 0.4, 2.5))
    chans = [chn.ChannelSpec(**{field: v}) for v in values]
    grid = chn.channel_visibility_contour(src_a, src_b, chans, chans, app)
    assert len(calls) == 1
    (a, b), = calls
    assert np.shape(a.broadening) == (len(chans), 1)
    assert np.shape(b.broadening) == (len(chans),)
    reference = [[chn.mixed_visibility(chn.apply_channel(src_a, ch_a),
                                       chn.apply_channel(src_b, ch_b), app)
                  for ch_b in chans] for ch_a in chans]
    assert grid == reference  # bit for bit, not approximately


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.mark.parametrize("shape_a, shape_b", [
    (spc.Shape.GAUSSIAN, spc.Shape.SECH), (spc.Shape.SECH, spc.Shape.SINC),
    (spc.Shape.LORENTZIAN, spc.Shape.GAUSSIAN), (spc.Shape.SECH, spc.Shape.SECH)])
def test_broadening_contour_makes_one_overlaps_call(shape_a, shape_b, monkeypatch):
    # a 21 x 21 broadening grid asks spectral.overlaps once for all 441
    # cells, and each cell keeps the bits of its own single-photon overlap
    calls = _counting(monkeypatch, spc, "overlaps")
    src_a = src(1, pol.H, spc.SpectralProfile(shape_a, CENTER, 1.3))
    src_b = src(1, pol.H, spc.SpectralProfile(shape_b, CENTER + 0.4, 0.9, delay=0.3))
    xis = np.exp(np.linspace(math.log(0.5), math.log(3.0), 21))
    chans = [chn.ChannelSpec(xi=float(x)) for x in xis]
    grid = chn.channel_visibility_contour(src_a, src_b, chans, chans)
    assert len(calls) == 1
    cells = [[chn.mixed_visibility(chn.apply_channel(src_a, ch_a),
                                   chn.apply_channel(src_b, ch_b))
              for ch_b in chans[::5]] for ch_a in chans[::5]]
    assert [row[::5] for row in grid[::5]] == cells


@pytest.mark.parametrize("n", [3, 21])
def test_contour_calls_coincidence_raw_twice_per_slot_pair(n, monkeypatch):
    # damping m = 2, n = 1 on H photons: arm A's slots are k = 2, 1, 0 and
    # arm B's k = 1, 0 (the V branch has weight 0), so five slot pairs hold
    # a photon, each one call for the baseline and one for the dip
    calls = _counting(monkeypatch, chn, "coincidence_raw")
    chans = [chn.ChannelSpec(gamma=g) for g in np.linspace(0.0, 0.9, n)]
    grid = chn.channel_visibility_contour(src(2), src(1), chans, chans)
    assert np.shape(grid) == (n, n)
    assert len(calls) == 10
    assert {args[:2] for args in calls} == {(2, 1), (2, 0), (1, 1), (1, 0), (0, 1)}


def test_contour_with_a_vanishing_baseline_raises():
    # gamma = 1 on both arms loses every photon, so that cell's P(0) = 0
    chans = [chn.ChannelSpec(gamma=g) for g in (0.0, 0.5, 1.0)]
    with pytest.raises(ZeroDivisionError, match="baseline coincidence vanishes"):
        chn.channel_visibility_contour(src(1), src(1), chans, chans)
