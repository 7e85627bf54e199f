import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsim import quadrature
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


def _alone(f, points, **tols):
    """Each member integrated by itself, up to and including the first
    that fails: what the family must return."""
    out = []
    for k, pts in enumerate(points):
        try:
            out.append(integrate(lambda x, k=k: f(x, k), pts, **tols))
        except IntegrationError as exc:
            out.append(_outcome(exc))
            break
    return out


@settings(max_examples=40, deadline=None)
@given(params=st.lists(_MEMBER, min_size=1, max_size=6),
       round_panels=st.sampled_from([1, 6, 40, quadrature._ROUND_PANELS]))
def test_family_equals_each_member_alone(params, round_panels):
    # small round budgets make members wait and start in later rounds
    f, points = _gaussian_wave_family(params)
    tols = {"abs_tol": 1e-12, "max_panels": 2000}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_ROUND_PANELS", round_panels)
        family = [_outcome(v) for v in integrate_family(f, points, **tols)]
    assert family == _alone(f, points, **tols)  # bit for bit, not approximately


def _over_budget_family():
    """Member 1 runs out of its 8 panels; the others are exact cubics."""
    def f(x, k):
        cubic = x ** 3 - 2.0 * x + 0j  # exact on one Kronrod panel
        return np.where(k == 1, np.cos(500.0 * x) ** 2 + 0j, (k + 1.0) * cubic)

    return f, [[0.0, 1.0], [-1.0, 1.0], [-2.0, 0.5], [3.0, 4.0]]


def test_family_ends_at_the_first_member_over_budget():
    f, points = _over_budget_family()
    got = integrate_family(f, points, max_panels=8)
    assert len(got) == 2  # members after the failure get nothing
    assert got[0] == integrate(lambda x: f(x, 0), points[0], max_panels=8)
    with pytest.raises(IntegrationError) as alone:
        integrate(lambda x: f(x, 1), points[1], max_panels=8)
    assert isinstance(got[1], IntegrationError)
    assert str(got[1]) == str(alone.value) and got[1].residual == alone.value.residual
    assert got[1].residual > 0


def test_members_after_a_failure_are_not_started(monkeypatch):
    # one member per round: member 1 fails, and members 2 and 3 never
    # reach the integrand
    f, points = _over_budget_family()
    seen = set()

    def recording(x, k):
        seen.update(np.unique(k).tolist())
        return f(x, k)

    monkeypatch.setattr(quadrature, "_ROUND_PANELS", 1)
    got = integrate_family(recording, points, max_panels=8)
    assert [type(v) for v in got] == [complex, IntegrationError]
    assert seen == {0, 1}


def test_earlier_failure_wins_and_earlier_members_finish():
    # member 2 fails in the first round, member 1 only after it has used
    # its 40 panels; member 0 needs several rounds to converge
    def f(x, k):
        slow = np.exp(-x * x) * np.cos(3.0 * x) + 0j
        return np.where(k == 0, slow,
                        np.where(k == 1, np.cos(500.0 * x) ** 2 + 0j, x * np.nan + 0j))

    points = [[-6.0, 6.0], [-1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
    got = integrate_family(f, points, max_panels=40)
    assert len(got) == 2
    assert got[0] == integrate(lambda x: f(x, 0), points[0], max_panels=40)
    with pytest.raises(IntegrationError, match="panel budget") as alone:
        integrate(lambda x: f(x, 1), points[1], max_panels=40)
    assert str(got[1]) == str(alone.value)


def test_no_integrand_call_holds_more_than_a_round(monkeypatch):
    # 12 members of 9-41 seed panels under a 64-panel budget: a call holds
    # at most 64 panels, or one member's, and then no more than that
    # member's largest call alone
    calls = []
    panel_values = quadrature._panel_values

    def counted(f, lo, hi, member):
        calls.append((lo.size, member if isinstance(member, int) else None))
        return panel_values(f, lo, hi, member)

    def f(x, k):
        return np.exp(-x * x) * np.exp(1j * (1.0 + k) * 3.0 * x)

    points = [np.linspace(-8.0, 8.0, 10 + 3 * k) for k in range(12)]
    monkeypatch.setattr(quadrature, "_panel_values", counted)
    alone = []
    for k, pts in enumerate(points):
        calls.clear()
        integrate(lambda x, k=k: f(x, k), pts)
        alone.append(max(size for size, _ in calls))
    calls.clear()
    monkeypatch.setattr(quadrature, "_ROUND_PANELS", 64)
    got = integrate_family(f, points)
    assert any(member is None for _, member in calls)  # rounds did share calls
    for size, member in calls:
        assert size <= 64 or (member is not None and size <= alone[member])
    assert got == [integrate(lambda x, k=k: f(x, k), pts) for k, pts in enumerate(points)]


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
def test_infinite_integrand_raises_without_a_warning():
    # inf times a weight's zero imaginary part once made numpy warn about
    # an invalid value before the error was raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="non-finite value"):
            integrate(lambda x: x * np.inf + 0j, [0.0, 1.0])


@pytest.mark.time_limit(5)
def test_family_ends_at_a_member_with_non_finite_values():
    def f(x, k):
        value = np.exp(-x * x) * (k + 1.0) + 0j
        return np.where(k == 1, np.where(x > 0.3, np.nan, value), value)

    points = [[-6.0, 0.0, 6.0], [-6.0, 0.0, 6.0], [-3.0, 1.0, 4.0]]
    got = integrate_family(f, points)
    assert len(got) == 2
    assert got[0] == integrate(lambda x: f(x, 0), points[0])
    with pytest.raises(IntegrationError, match="non-finite value") as alone:
        integrate(lambda x: f(x, 1), points[1])
    assert isinstance(got[1], IntegrationError)
    assert str(got[1]) == str(alone.value)
