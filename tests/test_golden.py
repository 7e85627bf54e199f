"""Coarse golden outputs of every command.

Each file under ``tests/golden/`` holds the stdout of one command.  Header
and label text must match exactly; every number in a data line must agree
to 1e-12 absolute, so a numerics change shows here without blocking an
intended change below that.  After an intended change, rewrite the files
with ``python tests/test_golden.py`` (run with ``src`` on the path).
"""

import pathlib
import re
import sys

import pytest

from homsim import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
FIG9_DETECTORS = ["--set", 'detector_a={"eta_h":0.8,"eta_v":0.83}',
                  "--set", 'detector_b={"eta_h":0.78,"eta_v":0.85}']
CASES = {
    "contour_lorentzian_vs_sech.csv":
        ["contour", "--grid", "5", "--set", "shape_a=sech",
         "--set", "shape_b=lorentzian"],
    "contour_sinc_vs_sech_phi_m2n1_lossy.csv":
        ["contour", "--grid", "5", "--set", "shape_a=sech", "--set", "shape_b=sinc",
         "--set", "phi=0.4", "--set", "m=2", "--set", "n=1"] + FIG9_DETECTORS,
    "coherent_contour_sech.csv":
        ["coherent", "--set", "mode=contour", "--grid", "5", "--set", "shape_b=sech"],
    "tables.txt": ["tables"],
    "dip.csv": ["dip", "--grid", "5"],
    "channels_damping_m2n1.csv":
        ["channels", "--grid", "3", "--set", "m=2", "--set", "n=1"],
    "channels_depolarizing_pol_b_D.csv":
        ["channels", "--grid", "3", "--set", "mode=depolarizing", "--set", "pol_b=D"],
    "channels_broadening.csv":
        ["channels", "--grid", "3", "--set", "mode=broadening"],
    "channels_number_dist.csv": ["channels", "--set", "mode=number_dist"],
    "coherent_ratio_map_lossy_fixed_mu_b.csv":
        ["coherent", "--grid", "5", "--set", "fixed_mu_b=1.0"] + FIG9_DETECTORS,
    "coherent_curve.csv": ["coherent", "--set", "mode=curve", "--grid", "5"],
    "swap_angle_grid.csv": ["swap", "--grid", "3"],
    "swap_bandwidth_sweep.csv": ["swap", "--set", "mode=bandwidth_sweep", "--grid", "5"],
    "swap_pump_sweep.csv": ["swap", "--set", "mode=pump_sweep", "--grid", "3"],
    "swap_pair.json": ["swap", "--set", "mode=pair"],
    "protocols.json": ["protocols"],
}
_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def _render(args, path):
    assert cli.main(args + ["--out", str(path)]) == 0
    return path.read_text()


def _assert_close(line, expected):
    got_parts, want_parts = _NUMBER.split(line), _NUMBER.split(expected)
    assert len(got_parts) == len(want_parts), (line, expected)
    # split() puts the captured numbers at the odd positions
    for k, (got, want) in enumerate(zip(got_parts, want_parts)):
        if k % 2:
            assert float(got) == pytest.approx(float(want), rel=0, abs=1e-12), \
                (line, expected)
        else:
            assert got == want, (line, expected)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    got = _render(CASES[name], tmp_path / name).splitlines()
    want = (GOLDEN / name).read_text().splitlines()
    assert len(got) == len(want)
    for line, expected in zip(got, want):
        if expected.startswith("#"):
            assert line == expected
        else:
            _assert_close(line, expected)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, args in CASES.items():
        _render(args, GOLDEN / name)
        print(f"wrote {GOLDEN / name}")
    sys.exit(0)
