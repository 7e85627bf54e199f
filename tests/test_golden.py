"""Coarse golden outputs of every command, and the study scripts' outputs.

Each file under ``tests/golden/`` holds the stdout of one command, and
``tests/golden/studies/`` the gzipped files that the ``scripts/run_*.py``
studies write.  Header and label text must match exactly; every number in
a data line must agree to 1e-12 absolute, so a numerics change shows here
without blocking an intended change below that.  After an intended change,
rewrite the files with ``python tests/test_golden.py`` (run with ``src``
on the path).
"""

import gzip
import importlib.util
import pathlib
import re
import sys
import tempfile

import pytest

from homsim import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
STUDIES = GOLDEN / "studies"
SCRIPTS = sorted((GOLDEN.parent.parent / "scripts").glob("run_*.py"))
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
    "dip_sech_vs_sinc_detuned.csv":
        ["dip", "--set", 'profile_a={"shape":"sech","center_thz":193.55,"width_thz":0.4}',
         "--set", 'profile_b={"shape":"sinc","center_thz":193.75,"width_thz":2.5}',
         "--set", 'tau={"min":-4,"max":4,"steps":9}'],
    "dip_lorentzian_vs_sech.csv":
        ["dip", "--set", 'profile_a={"shape":"lorentzian","center_thz":193.55,"width_thz":0.3}',
         "--set", 'profile_b={"shape":"sech","center_thz":193.6,"width_thz":0.35}',
         "--set", 'tau={"min":-6,"max":6,"steps":13}'],
    "channels_damping_m2n1.csv":
        ["channels", "--grid", "3", "--set", "m=2", "--set", "n=1"],
    "channels_depolarizing_pol_b_D.csv":
        ["channels", "--grid", "3", "--set", "mode=depolarizing", "--set", "pol_b=D"],
    "channels_broadening.csv":
        ["channels", "--grid", "3", "--set", "mode=broadening"],
    "channels_depolarizing_m2n1_lossy.csv":
        ["channels", "--grid", "7", "--set", "mode=depolarizing", "--set", "m=2",
         "--set", "n=1", "--set", 'detector_a={"eta_h":0.9,"eta_v":0.86}',
         "--set", 'detector_b={"eta_h":0.97,"eta_v":0.88}'],
    "channels_number_dist.csv": ["channels", "--set", "mode=number_dist"],
    "coherent_ratio_map_lossy_fixed_mu_b.csv":
        ["coherent", "--grid", "5", "--set", "fixed_mu_b=1.0"] + FIG9_DETECTORS,
    "coherent_ratio_map_fig9_mu_0p01.csv":
        ["coherent", "--grid", "7", "--set", "mu_mean=0.01"] + FIG9_DETECTORS,
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


def _assert_matches(text, golden):
    got, want = text.splitlines(), golden.splitlines()
    assert len(got) == len(want)
    for line, expected in zip(got, want):
        if line == expected:
            continue
        if expected.startswith("#"):
            assert line == expected
        else:
            _assert_close(line, expected)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    _assert_matches(_render(CASES[name], tmp_path / name), (GOLDEN / name).read_text())


def _run_study(script, out):
    """Run ``script``'s main() with its default arguments, writing into the
    directory ``out`` instead of ``out/``."""
    spec = importlib.util.spec_from_file_location(script.stem, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = out
    argv, sys.argv = sys.argv, [str(script)]
    try:
        assert module.main() == 0
    finally:
        sys.argv = argv


def test_study_outputs_match_golden(tmp_path):
    # the paper's figures and tables, as the study scripts write them: the
    # same files, each matching its golden
    for script in SCRIPTS:
        _run_study(script, tmp_path)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name[:-len(".gz")] for path in STUDIES.glob("*.gz"))
    for name in written:
        _assert_matches((tmp_path / name).read_text(),
                        gzip.decompress((STUDIES / f"{name}.gz").read_bytes()).decode())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, args in CASES.items():
        _render(args, GOLDEN / name)
        print(f"wrote {GOLDEN / name}")
    STUDIES.mkdir(exist_ok=True)
    for stale in STUDIES.glob("*.gz"):
        stale.unlink()
    with tempfile.TemporaryDirectory() as out:
        for script in SCRIPTS:
            _run_study(script, pathlib.Path(out))
        for path in sorted(pathlib.Path(out).iterdir()):
            # mtime 0, so that an unchanged output rewrites the same bytes
            (STUDIES / f"{path.name}.gz").write_bytes(gzip.compress(path.read_bytes(), mtime=0))
            print(f"wrote {STUDIES / path.name}.gz")
    sys.exit(0)
