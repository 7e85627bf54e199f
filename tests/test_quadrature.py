import math
import warnings

import numpy as np
import pytest

from homsim.quadrature import IntegrationError, integrate


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
# non-finite integrands
# ---------------------------------------------------------------------------

@pytest.mark.time_limit(5)
def test_nan_integrand_raises_instead_of_hanging():
    # a NaN error estimate never exceeds a panel's share, so the loop once
    # split nothing and never reached its panel budget
    with pytest.raises(IntegrationError, match="non-finite value"):
        integrate(lambda x: x * np.nan + 0j, [0.0, 1.0])


@pytest.mark.time_limit(5)
def test_infinite_integrand_raises_without_a_warning():
    # inf times a weight's zero imaginary part once made numpy warn about
    # an invalid value before the error was raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="non-finite value"):
            integrate(lambda x: x * np.inf + 0j, [0.0, 1.0])
