"""Coarse golden outputs of every command, and the study scripts' outputs.

Each file under ``tests/golden/`` holds the stdout of one command, and
``tests/golden/studies/`` the gzipped files that the ``scripts/run_*.py``
studies write.  Header and label text must match exactly; every number in
a data line must agree to 1e-12 absolute, so a numerics change shows here
without blocking an intended change below that.  After an intended change,
rewrite the files with ``python tests/test_golden.py`` (run with ``src``
on the path).  ``python tests/test_golden.py --exact`` rewrites nothing:
it regenerates every file in a temporary directory, compares each with
its golden byte for byte, names each that differs and exits 1 if any does.
"""

import contextlib
import gzip
import importlib.util
import io
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


def _studies(out):
    """Run every study script into the directory ``out``; its files, sorted."""
    for script in SCRIPTS:
        _run_study(script, out)
    return sorted(out.iterdir())


def test_study_outputs_match_golden(tmp_path):
    # the paper's figures and tables, as the study scripts write them: the
    # same files, each matching its golden
    written = [path.name for path in _studies(tmp_path)]
    assert written == sorted(path.name[:-len(".gz")] for path in STUDIES.glob("*.gz"))
    for name in written:
        _assert_matches((tmp_path / name).read_text(),
                        gzip.decompress((STUDIES / f"{name}.gz").read_bytes()).decode())


def _exact():
    """Names of the goldens whose regenerated bytes differ from the
    committed ones (a study file missing on either side differs too)."""
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        for name, args in CASES.items():
            _render(args, out / name)
            if (out / name).read_bytes() != (GOLDEN / name).read_bytes():
                differ.append(name)
        (out / "studies").mkdir()
        with contextlib.redirect_stdout(io.StringIO()):  # the scripts' "wrote ..." lines
            written = {path.name: path.read_bytes() for path in _studies(out / "studies")}
    committed = {path.name[:-len(".gz")]: gzip.decompress(path.read_bytes())
                 for path in STUDIES.glob("*.gz")}
    return differ + [f"studies/{name}.gz" for name in sorted(written.keys() | committed.keys())
                     if written.get(name) != committed.get(name)]


def test_exact_mode_names_each_differing_file_and_rewrites_nothing(tmp_path, monkeypatch):
    # a line ending that the 1e-12 comparer lets pass, an unchanged golden,
    # and a study golden that no script writes: the first and the last are
    # named, and no golden is touched
    golden = tmp_path / "golden"
    (golden / "studies").mkdir(parents=True)
    cases = {name: CASES[name] for name in ("dip.csv", "protocols.json")}
    for name, args in cases.items():
        _render(args, golden / name)
    dip = (golden / "dip.csv").read_text()
    (golden / "dip.csv").write_bytes(dip.replace("\n", "\r\n", 1).encode())
    _assert_matches((golden / "dip.csv").read_bytes().decode(), dip)
    (golden / "studies" / "gone.csv.gz").write_bytes(gzip.compress(b"x\n", mtime=0))
    before = {path: path.read_bytes() for path in golden.rglob("*") if path.is_file()}
    for name, value in (("GOLDEN", golden), ("STUDIES", golden / "studies"),
                        ("CASES", cases), ("SCRIPTS", [])):
        monkeypatch.setitem(globals(), name, value)
    assert _exact() == ["dip.csv", "studies/gone.csv.gz"]
    assert {path: path.read_bytes() for path in golden.rglob("*") if path.is_file()} == before


if __name__ == "__main__":
    if sys.argv[1:] == ["--exact"]:
        differ = _exact()
        for name in differ:
            print(f"differs: {GOLDEN / name}")
        print(f"{len(differ)} golden files differ byte for byte")
        sys.exit(1 if differ else 0)
    GOLDEN.mkdir(exist_ok=True)
    for name, args in CASES.items():
        _render(args, GOLDEN / name)
        print(f"wrote {GOLDEN / name}")
    STUDIES.mkdir(exist_ok=True)
    for stale in STUDIES.glob("*.gz"):
        stale.unlink()
    with tempfile.TemporaryDirectory() as out:
        for path in _studies(pathlib.Path(out)):
            # mtime 0, so that an unchanged output rewrites the same bytes
            (STUDIES / f"{path.name}.gz").write_bytes(gzip.compress(path.read_bytes(), mtime=0))
            print(f"wrote {STUDIES / path.name}.gz")
    sys.exit(0)
