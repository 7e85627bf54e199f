import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsim.quadrature import IntegrationError, integrate, integrate_family


def test_normalized_gaussian_intensity():
    sigma = 0.7

    def f(x):
        return np.exp(-x * x / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi)) + 0j

    val = integrate(f, [-12 * sigma, -sigma, 0.0, sigma, 12 * sigma])
    assert abs(val - 1.0) < 1e-10


def test_odd_function_vanishes():
    def f(x):
        return x * np.exp(-x * x) + 0j

    val = integrate(f, [-8.0, 0.0, 8.0])
    assert abs(val) < 1e-10


def test_gaussian_overlap_against_closed_form():
    # two unit-norm Gaussian amplitudes, different widths
    sa, sb = 0.6, 1.1

    def f(x):
        na = (1.0 / (sa * math.sqrt(2 * math.pi))) ** 0.5
        nb = (1.0 / (sb * math.sqrt(2 * math.pi))) ** 0.5
        return na * nb * np.exp(-x * x / (4 * sa**2) - x * x / (4 * sb**2)) + 0j

    expected = math.sqrt(2 * sa * sb / (sa**2 + sb**2))
    val = integrate(f, [-15.0, -1.0, 0.0, 1.0, 15.0])
    assert abs(val - expected) < 1e-9


def test_complex_integrand():
    def f(x):
        return np.exp(-x * x) * np.exp(2j * x)

    val = integrate(f, [-10.0, 0.0, 10.0])
    expected = math.sqrt(math.pi) * math.exp(-1.0)
    assert abs(val - expected) < 1e-10
    assert abs(val.imag) < 1e-12


def test_deterministic_repeatability():
    def f(x):
        return np.cos(7.0 * x) * np.exp(-np.abs(x)) + 0j

    pts = [-30.0, -1.0, 0.0, 1.0, 30.0]
    first = integrate(f, pts)
    assert all(integrate(f, pts) == first for _ in range(3))


def test_panel_budget_error_carries_residual():
    def f(x):
        return np.cos(500.0 * x) ** 2 + 0j

    with pytest.raises(IntegrationError) as err:
        integrate(f, [-1.0, 1.0], max_panels=8)
    assert err.value.residual > 0


def test_rejects_degenerate_window():
    with pytest.raises(ValueError):
        integrate(lambda x: x, [1.0])


# ---------------------------------------------------------------------------
# lockstep families
# ---------------------------------------------------------------------------

def _gaussian_wave_family(params):
    """Family integrand amp_k e^{-((x - c_k)/s_k)^2} e^{i w_k x} and its seeds."""
    amp, c, s, w, half = (np.array(col) for col in zip(*params))

    def f(x, k):
        return amp[k] * np.exp(-((x - c[k]) / s[k]) ** 2) * np.exp(1j * w[k] * x)

    points = [[ck - hk, ck - sk, ck, ck + sk, ck + hk]
              for ck, sk, hk in zip(c.tolist(), s.tolist(), half.tolist())]
    return f, points


_MEMBER = st.tuples(st.floats(0.1, 10.0),   # amplitude
                    st.floats(-2.0, 2.0),   # centre
                    st.floats(0.05, 3.0),   # width
                    st.floats(0.0, 40.0),   # oscillation frequency
                    st.floats(3.0, 30.0))   # window half-width


def _outcome(value):
    """A member's value, or the residual of the error it ran into."""
    if isinstance(value, IntegrationError):
        return ("error", value.residual)
    return value


@settings(max_examples=40, deadline=None)
@given(params=st.lists(_MEMBER, min_size=1, max_size=6))
def test_family_equals_each_member_alone(params):
    f, points = _gaussian_wave_family(params)
    tols = {"abs_tol": 1e-12, "max_panels": 2000}
    family = [_outcome(v) for v in integrate_family(f, points, **tols)]
    alone = []
    for k, pts in enumerate(points):
        try:
            alone.append(integrate(lambda x, k=k: f(x, k), pts, **tols))
        except IntegrationError as exc:
            alone.append(_outcome(exc))
    assert family == alone  # bit for bit, not approximately


def test_family_member_over_budget_fails_alone():
    def f(x, k):
        cubic = x ** 3 - 2.0 * x + 0j  # exact on one Kronrod panel
        return np.where(k == 1, np.cos(500.0 * x) ** 2 + 0j, (k + 1.0) * cubic)

    points = [[0.0, 1.0], [-1.0, 1.0], [-2.0, 0.5], [3.0, 4.0]]
    got = integrate_family(f, points, max_panels=8)
    assert isinstance(got[1], IntegrationError) and got[1].residual > 0
    for k in (0, 2, 3):
        assert got[k] == integrate(lambda x, k=k: f(x, k), points[k], max_panels=8)
    without = integrate_family(lambda x, k: f(x, np.where(k == 0, 0, k + 1)),
                               [points[0], points[2], points[3]], max_panels=8)
    assert [got[0], got[2], got[3]] == without
    with pytest.raises(IntegrationError):
        integrate(lambda x: f(x, 1), points[1], max_panels=8)


def test_family_rejects_a_degenerate_member():
    with pytest.raises(ValueError):
        integrate_family(lambda x, k: x + 0j, [[0.0, 1.0], [2.0, 2.0]])


# ---------------------------------------------------------------------------
# non-finite integrands
# ---------------------------------------------------------------------------

@pytest.mark.time_limit(5)
def test_nan_integrand_raises_instead_of_hanging():
    # a NaN error estimate never exceeds a panel's share, so the loop once
    # split nothing and never reached its panel budget
    with pytest.raises(IntegrationError, match="non-finite value"):
        integrate(lambda x: x * np.nan + 0j, [0.0, 1.0])


@pytest.mark.time_limit(5)
def test_family_member_with_non_finite_values_fails_alone():
    def f(x, k):
        value = np.exp(-x * x) * (k + 1.0) + 0j
        return np.where(k == 1, np.where(x > 0.3, np.nan, value), value)

    points = [[-6.0, 0.0, 6.0], [-6.0, 0.0, 6.0], [-3.0, 1.0, 4.0]]
    got = integrate_family(f, points)
    assert isinstance(got[1], IntegrationError)
    assert "non-finite value" in str(got[1])
    for k in (0, 2):
        assert got[k] == integrate(lambda x, k=k: f(x, k), points[k])
