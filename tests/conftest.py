"""Shared pytest set-up.

Hypothesis runs derandomized and without its example database, so every
run of the suite draws the same examples: a property test that passes
once passes on every run, and the ignored ``.hypothesis/`` directory left
by an earlier run cannot steer which examples are tried.

Every test runs under a wall-clock limit (``signal.alarm``; skipped where
SIGALRM does not exist), so a numerical loop that never returns fails its
test instead of stalling the suite.  The whole suite takes seconds; the
default limit is 60 s, and ``@pytest.mark.time_limit(seconds)`` sets a
tighter one.
"""

import signal

import pytest
from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

HANG_LIMIT_S = 60


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "time_limit(seconds): fail the test if it runs longer than this")
    config.addinivalue_line(
        "markers", "subprocess_timeout(seconds): run the test's command in a separate "
                   "process, killed after this long")


@pytest.fixture(autouse=True)
def _hang_guard(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    marker = request.node.get_closest_marker("time_limit")
    limit = marker.args[0] if marker else HANG_LIMIT_S

    def fire(signum, frame):
        pytest.fail(f"test still running after {limit} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, fire)
    signal.alarm(limit)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
