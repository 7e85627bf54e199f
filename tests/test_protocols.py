import itertools
import math

import numpy as np
import pytest

from gaussian_reference import gaussian_overlap_closed_form
from homsim import polarization as pol
from homsim import protocols as proto
from homsim import spectral as spc

QUARTER = 0.25
STATES = "HVDA"


def transverse_overlap_2d(sigma_ax: float, sigma_ay: float,
                          sigma_bx: float, sigma_by: float,
                          dx: float = 0.0, dy: float = 0.0) -> float:
    """cos(Theta_perp) of two separable 2-D Gaussian transverse profiles.

    The product of the two 1-D overlap factors, each with the Gaussian
    closed form; dx/dy are the transverse center offsets.
    """
    return (gaussian_overlap_closed_form(sigma_ax, sigma_bx, dx, 0.0)
            * gaussian_overlap_closed_form(sigma_ay, sigma_by, dy, 0.0))


def sigmoid(x: float) -> float:
    """Logistic activation used on the classifier's model prediction."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def binary_cross_entropy(y: float, f: float) -> float:
    """-y ln(f) - (1-y) ln(1-f) for a target y and activation f in (0, 1)."""
    if not 0.0 <= y <= 1.0:
        raise ValueError("target must lie in [0, 1]")
    if not 0.0 < f < 1.0:
        raise ValueError("activation must lie strictly inside (0, 1)")
    return -y * math.log(f) - (1.0 - y) * math.log(1.0 - f)

# the published outcome table at zero mismatch: rows (state_a, state_b),
# columns (M12, M34, M23, M14)
TABLE_AT_ZERO = {
    ("H", "H"): (0, 0, 0, 0),
    ("H", "V"): (QUARTER, QUARTER, QUARTER, QUARTER),
    ("V", "H"): (QUARTER, QUARTER, QUARTER, QUARTER),
    ("V", "V"): (0, 0, 0, 0),
    ("D", "D"): (QUARTER, QUARTER, 0, 0),
    ("D", "A"): (0, 0, QUARTER, QUARTER),
    ("A", "D"): (0, 0, QUARTER, QUARTER),
    ("A", "A"): (QUARTER, QUARTER, 0, 0),
}


# ---------------------------------------------------------------------------
# operator-level oracle: two photons through the relay, discrete modes
# ---------------------------------------------------------------------------

def _mdi_oracle(u: pol.PolarizationVector, v: pol.PolarizationVector,
                cos_theta: float) -> dict[str, float]:
    """Outcome probabilities by direct two-photon state enumeration.

    Modes are (port, polarization, spectral basis vector); photon 1 carries
    spectral e1, photon 2 the Gram-Schmidt mix cs e1 + ss e2.  The beam
    splitter sends photon 1 to (a + b)/sqrt(2) and photon 2 to
    (a - b)/sqrt(2); detector patterns then just collect mode pairs.
    """
    cs = cos_theta
    ss = math.sqrt(max(0.0, 1.0 - cs * cs))
    modes = [(port, p, s) for port in "ab" for p in "HV" for s in (0, 1)]
    idx = {m: i for i, m in enumerate(modes)}
    c1 = np.zeros(len(modes), dtype=complex)
    c2 = np.zeros(len(modes), dtype=complex)
    for p, amp in (("H", u.h), ("V", u.v)):
        c1[idx[("a", p, 0)]] += amp / math.sqrt(2)
        c1[idx[("b", p, 0)]] += amp / math.sqrt(2)
    for p, amp in (("H", v.h), ("V", v.v)):
        for s, w in ((0, cs), (1, ss)):
            c2[idx[("a", p, s)]] += amp * w / math.sqrt(2)
            c2[idx[("b", p, s)]] -= amp * w / math.sqrt(2)
    # two-boson amplitudes over unordered mode pairs
    probs = {"M12": 0.0, "M34": 0.0, "M23": 0.0, "M14": 0.0}

    def pattern(mu, nu):
        (pa, ra, _), (pb, rb, _) = mu, nu
        pols = {(pa, ra), (pb, rb)}
        if pols == {("a", "H"), ("a", "V")}:
            return "M34"
        if pols == {("b", "H"), ("b", "V")}:
            return "M12"
        if pols == {("a", "H"), ("b", "V")}:
            return "M23"
        if pols == {("b", "H"), ("a", "V")}:
            return "M14"
        return None

    for i, mu in enumerate(modes):
        for j in range(i, len(modes)):
            nu = modes[j]
            if i == j:
                amp = math.sqrt(2.0) * c1[i] * c2[i]
            else:
                amp = c1[i] * c2[j] + c1[j] * c2[i]
            pat = pattern(mu, nu)
            if pat is not None:
                probs[pat] += abs(amp) ** 2
    return probs


def oracle_table(sa: str, sb: str, phi: float, theta: float) -> dict[str, float]:
    base = {"H": pol.H, "V": pol.V, "D": pol.D, "A": pol.A}
    u = base[sa]
    v = base[sb]
    if sa in "DA":
        u = pol.rotate(u, 0.5 * phi)
    if sb in "DA":
        v = pol.rotate(v, -0.5 * phi)
    return _mdi_oracle(u, v, math.cos(theta))


# ---------------------------------------------------------------------------
# outcome table
# ---------------------------------------------------------------------------

def test_table_reproduced_at_zero_mismatch():
    for (sa, sb), expected in TABLE_AT_ZERO.items():
        got = proto.mdi_outcome_table(proto.MdiScenario(sa, sb, 0.0, 0.0))
        for key, val in zip(("M12", "M34", "M23", "M14"), expected):
            assert got[key] == pytest.approx(val, abs=1e-12), (sa, sb, key)


def test_table_matches_operator_oracle_everywhere():
    angles = np.linspace(0.0, math.pi / 2, 5)
    for sa, sb in itertools.product(STATES, repeat=2):
        for phi in angles:
            for theta in angles:
                got = proto.mdi_outcome_table(proto.MdiScenario(sa, sb, phi, theta))
                want = oracle_table(sa, sb, phi, theta)
                for key in got:
                    assert got[key] == pytest.approx(want[key], abs=1e-12), \
                        (sa, sb, phi, theta, key)


def test_conclusive_probability_formula():
    angles = np.linspace(0.0, math.pi / 2, 5)
    for phi in angles:
        for theta in angles:
            expected = proto.mdi_conclusive_probability(phi, theta)
            for sa, sb in (("D", "A"), ("A", "D")):
                table = proto.mdi_outcome_table(proto.MdiScenario(sa, sb, phi, theta))
                assert table["M23"] == pytest.approx(expected, abs=1e-9)
                assert table["M14"] == pytest.approx(expected, abs=1e-9)
                want = oracle_table(sa, sb, phi, theta)
                assert want["M23"] == pytest.approx(expected, abs=1e-9)


def test_rectilinear_rows_mismatch_independent():
    reference = {
        (sa, sb): proto.mdi_outcome_table(proto.MdiScenario(sa, sb, 0.0, 0.0))
        for sa, sb in itertools.product("HV", repeat=2)
    }
    for phi, theta in ((0.3, 0.0), (0.0, 1.1), (1.0, 1.4)):
        for (sa, sb), ref in reference.items():
            got = proto.mdi_outcome_table(proto.MdiScenario(sa, sb, phi, theta))
            assert got == ref


def test_correlated_diagonal_rows_leak_with_theta():
    theta = 0.7
    table = proto.mdi_outcome_table(proto.MdiScenario("D", "D", 0.0, theta))
    assert table["M23"] == pytest.approx(math.sin(theta) ** 2 / 8, abs=1e-12)
    assert table["M12"] == pytest.approx((1 + math.cos(theta) ** 2) / 8, abs=1e-12)


def test_spectral_error_is_diagonal_conditional_error():
    # erroneous conclusive clicks (DD, AA rows) over all conclusive clicks
    for theta in (0.0, 0.4, 1.0, math.pi / 2):
        bad = 2 * proto.mdi_outcome_table(
            proto.MdiScenario("D", "D", 0.0, theta))["M23"]
        good = 2 * proto.mdi_outcome_table(
            proto.MdiScenario("D", "A", 0.0, theta))["M23"]
        expected = bad / (bad + good) if bad + good else 0.0
        assert proto.spectral_error(theta) == pytest.approx(expected, abs=1e-12)


def test_spectral_error_values():
    assert proto.spectral_error(0.0) == 0.0
    assert proto.spectral_error(math.pi / 2) == pytest.approx(0.5)
    assert proto.spectral_error(math.pi / 4) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError):
        proto.spectral_error(2.0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        proto.MdiScenario("X", "H")
    with pytest.raises(ValueError):
        proto.MdiScenario("H", "V", phi=2.0)


# ---------------------------------------------------------------------------
# error budget and key rate
# ---------------------------------------------------------------------------

def test_total_error_sums():
    assert proto.total_error(proto.ErrorBudget()) == 0.0
    budget = proto.ErrorBudget(e_background=0.01, e_polarization=0.02,
                               e_spectral=0.04)
    assert proto.total_error(budget) == pytest.approx(0.07, rel=1e-14)
    assert proto.total_error(proto.ErrorBudget(
        e_spectral=proto.spectral_error(math.pi / 2))) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        proto.ErrorBudget(e_background=-0.1)


def test_binary_entropy():
    assert proto.binary_entropy(0.0) == 0.0
    assert proto.binary_entropy(1.0) == 0.0
    assert proto.binary_entropy(0.5) == 1.0
    assert proto.binary_entropy(0.02) == pytest.approx(0.14144, abs=5e-6)


def test_key_rate_examples():
    clean = proto.KeyRateInputs(p_z11=0.6, y_z11=0.2, e_z11=0.0, q_z=0.3, e_z=0.0)
    assert proto.key_rate_bound(clean) == pytest.approx(0.12, rel=1e-12)
    half = proto.KeyRateInputs(p_z11=0.6, y_z11=0.2, e_z11=0.5, q_z=0.0, e_z=0.0)
    assert proto.key_rate_bound(half) == pytest.approx(0.0, abs=1e-15)
    standard = proto.KeyRateInputs(p_z11=1.0, y_z11=0.1, e_z11=0.02,
                                   q_z=0.1, e_z=0.02, f_e=1.16)
    h2 = proto.binary_entropy(0.02)
    assert proto.key_rate_bound(standard) == pytest.approx(
        0.1 * (1 - h2) - 0.1 * 1.16 * h2, rel=1e-14)
    assert proto.key_rate_bound(standard) == pytest.approx(0.0694, abs=1e-4)


def test_key_rate_monotonicity():
    base = proto.KeyRateInputs(p_z11=1.0, y_z11=0.1, e_z11=0.02, q_z=0.1, e_z=0.02)
    worse_e = proto.KeyRateInputs(p_z11=1.0, y_z11=0.1, e_z11=0.02, q_z=0.1, e_z=0.05)
    worse_e11 = proto.KeyRateInputs(p_z11=1.0, y_z11=0.1, e_z11=0.05, q_z=0.1, e_z=0.02)
    assert proto.key_rate_bound(worse_e) < proto.key_rate_bound(base)
    assert proto.key_rate_bound(worse_e11) < proto.key_rate_bound(base)


def test_key_rate_can_be_negative():
    bad = proto.KeyRateInputs(p_z11=0.1, y_z11=0.01, e_z11=0.3, q_z=0.5, e_z=0.1)
    assert proto.key_rate_bound(bad) < 0.0


def test_key_rate_validation():
    with pytest.raises(ValueError):
        proto.KeyRateInputs(p_z11=1.2, y_z11=0.1, e_z11=0.0, q_z=0.1, e_z=0.0)
    with pytest.raises(ValueError):
        proto.KeyRateInputs(p_z11=1.0, y_z11=0.1, e_z11=0.0, q_z=0.1, e_z=0.0,
                            f_e=0.9)


# ---------------------------------------------------------------------------
# NOON sensing
# ---------------------------------------------------------------------------

def test_noon_signal_values():
    assert proto.noon_signal(3, 0.0, math.pi / 2) == pytest.approx(-3.0)
    for n, theta in ((1, 0.3), (4, 1.0)):
        assert proto.noon_signal(n, theta, 0.0) == 0.0
    assert proto.noon_signal(2, math.pi / 3, math.pi / 2) == pytest.approx(-1.0)


def test_noon_signal_exact_on_grid():
    for n in range(1, 6):
        for theta in np.linspace(0, math.pi / 2, 7):
            for phase in np.linspace(0, 2 * math.pi, 9):
                assert proto.noon_signal(n, theta, phase) == pytest.approx(
                    -n * math.cos(theta) * math.sin(phase), abs=1e-12)


def test_noon_sensitivity():
    assert proto.noon_sensitivity_scale(4, 0.0) == pytest.approx(0.25)
    assert proto.noon_sensitivity_scale(2, math.pi / 3) == pytest.approx(1.0)
    with pytest.raises(ZeroDivisionError):
        proto.noon_sensitivity_scale(3, math.pi / 2)
    with pytest.raises(ValueError):
        proto.noon_signal(0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# classifier and fusion
# ---------------------------------------------------------------------------

def test_classifier_values():
    assert proto.classifier_coincidence(0.0, 0.0) == 0.0
    assert proto.classifier_coincidence(math.pi / 2, 0.7) == pytest.approx(0.5)
    assert proto.classifier_coincidence(math.pi / 3, 0.0) == pytest.approx(3 / 8)
    assert proto.classifier_floor(math.pi / 3) == pytest.approx(3 / 8)


def test_classifier_monotone_in_both_angles():
    grid = np.linspace(0, math.pi / 2, 9)
    for fixed in grid:
        vals_t = [proto.classifier_coincidence(t, fixed) for t in grid]
        vals_p = [proto.classifier_coincidence(fixed, t) for t in grid]
        assert all(a <= b + 1e-15 for a, b in zip(vals_t, vals_t[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(vals_p, vals_p[1:]))


def test_fusion_values():
    assert proto.fusion_fidelity(0.0) == 1.0
    assert proto.fusion_fidelity(math.pi / 2) == pytest.approx(0.5)
    assert proto.fusion_fidelity(math.pi / 4) == pytest.approx(0.75)


def test_fusion_complements_classifier():
    for theta in np.linspace(0, math.pi / 2, 21):
        assert proto.fusion_fidelity(theta) == pytest.approx(
            1.0 - proto.classifier_coincidence(theta, 0.0), abs=1e-12)


def test_transverse_overlap():
    assert transverse_overlap_2d(1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)
    got = transverse_overlap_2d(1.0, 2.0, 2.0, 1.0)
    expected = (gaussian_overlap_closed_form(1.0, 2.0)
                * gaussian_overlap_closed_form(2.0, 1.0))
    assert got == pytest.approx(expected, rel=1e-14)
    assert transverse_overlap_2d(1.0, 1.0, 1.0, 1.0, dx=100.0) < 1e-300


def test_sigmoid_and_cross_entropy():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(50.0) == pytest.approx(1.0, abs=1e-20)
    assert sigmoid(-50.0) == pytest.approx(0.0, abs=1e-20)
    assert binary_cross_entropy(1.0, 0.5) == pytest.approx(math.log(2))
    assert binary_cross_entropy(0.0, 0.5) == pytest.approx(math.log(2))
    # prediction = static loss minus twice the coincidence probability
    f = sigmoid(1.0 - 2 * proto.classifier_coincidence(0.0, 0.4))
    assert 0.0 < binary_cross_entropy(1.0, f) < 1.0
    with pytest.raises(ValueError):
        binary_cross_entropy(0.5, 1.0)
