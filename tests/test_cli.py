import argparse
import contextlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsim import channels as chn
from homsim import cli
from homsim import config as cfgmod
from homsim import fock
from homsim import oracle
from homsim import polarization as pol
from homsim import spectral as spc
from test_golden import CASES as GOLDEN_CASES


def run(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    rc = cli.main(args + ["--out", str(out)])
    return rc, (out.read_text() if out.exists() else "")


def run_strict(args, tmp_path):
    """(exit code, printed text, stderr) of one run, with every warning
    raised as an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc, text = run(args, tmp_path)
    return rc, text, err.getvalue()


def data_rows(text):
    return [ln for ln in text.splitlines()
            if ln and not ln.startswith("#") and not ln[0].isalpha()
            and "\\" not in ln]


# ---------------------------------------------------------------------------
# behaviour shared by all commands
# ---------------------------------------------------------------------------

def test_byte_identical_reruns(tmp_path):
    args = ["dip", "--set", "photons=[[1,1]]", "--set", "phi=[0]",
            "--set", 'tau={"min":-2,"max":2,"steps":17}']
    rc1, first = run(args, tmp_path, "a.csv")
    rc2, second = run(args, tmp_path, "b.csv")
    assert rc1 == rc2 == 0
    assert first == second


_PARSE_FAILURES = [[], ["nope"], ["dip", "--grid", "x"], ["dip", "--bogus"], ["dip", "--help"]]
_DIP_HELP = """\
usage: homsim dip [-h] [--config CONFIG] [--out OUT] [--set KEY=VALUE]
                  [--grid GRID]

options:
  -h, --help       show this help message and exit
  --config CONFIG  JSON scenario file
  --out OUT        output path (default stdout)
  --set KEY=VALUE  dotted-path config override
  --grid GRID      grid side override
"""


def _call(argv):
    """(exit code or ("SystemExit", code), stdout, stderr) of one main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse's usage errors and --help
            rc = ("SystemExit", exc.code)
    return rc, out.getvalue(), err.getvalue()


def test_parser_is_built_once_and_reused_without_leaks(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal
    cli.build_parser.cache_clear()
    argvs = list(GOLDEN_CASES.values())
    # golden jobs with and without --set and --grid, each followed by a
    # parse failure, so a list or value left over from one parse would show
    # in the next
    first_order = [a for i, argv in enumerate(argvs)
                   for a in (argv, _PARSE_FAILURES[i % len(_PARSE_FAILURES)])]
    second_order = _PARSE_FAILURES + argvs[::-1]
    seen = {}
    for n, argv in enumerate(first_order + second_order):
        seen.setdefault(tuple(argv), []).append(_call(argv))
        assert len(built) == 8, (n, argv)  # the top parser and 7 subparsers, once
    assert len(seen) == len(argvs) + len(_PARSE_FAILURES)
    for argv, results in seen.items():
        assert len(results) >= 2 and all(r == results[0] for r in results), argv
    for argv in argvs:
        assert seen[tuple(argv)][0][0] == 0, argv
    for argv in _PARSE_FAILURES[:-1]:
        rc, out, err = seen[tuple(argv)][0]
        assert rc == ("SystemExit", 2) and not out and err.startswith("usage: homsim"), argv
    assert seen[("dip", "--help")][0] == (("SystemExit", 0), _DIP_HELP, "")


def test_byte_identical_across_processes(tmp_path):
    import subprocess
    import sys
    args = [sys.executable, "-m", "homsim.cli", "contour", "--grid", "7",
            "--set", "shape_b=lorentzian"]
    outs = [subprocess.run(args, capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]
    assert "visibility" in outs[0]


def test_runtime_needs_no_scipy(tmp_path):
    # scipy is a test dependency only: importing homsim and running a dip on
    # a Faddeeva pairing (Gaussian against Lorentzian) must not load it
    import subprocess
    import sys
    args = ["dip", "--grid", "5", "--out", str(tmp_path / "dip.csv"), "--set",
            'profile_b={"shape": "lorentzian", "center_thz": 193.6, "width_thz": 0.3}']
    code = ("import sys, homsim.cli\n"
            f"assert homsim.cli.main({args!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_header_embeds_resolved_config(tmp_path):
    rc, text = run(["dip", "--set", "photons=[[2,2]]", "--set", "phi=[0]",
                    "--grid", "9"], tmp_path)
    assert rc == 0
    header = [ln for ln in text.splitlines() if ln.startswith("# config ")][0]
    cfg = json.loads(header[len("# config "):])
    assert cfg["photons"] == [[2, 2]]
    assert cfg["grid_override"] == 9


def test_config_file_merging(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({"phi": [0.0], "photons": [[1, 1]],
                                    "tau": {"min": -1, "max": 1, "steps": 5}}))
    rc, text = run(["dip", "--config", str(cfg_path)], tmp_path)
    assert rc == 0
    assert "# block m=1 n=1 phi=0" in text


def test_unknown_shape_exits_2(tmp_path, capsys):
    rc = cli.main(["dip", "--set", 'profile_a={"shape":"box","center_thz":193,"width_thz":1}',
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "profile_a.shape" in capsys.readouterr().err


def test_nested_set_does_not_leak_into_later_runs(tmp_path):
    # a dotted --set writes into a nested default object; it must not stay
    # there for the next in-process run
    rc, _ = run(["channels", "--set", "mode=number_dist", "--set", "number_dist.n=2"],
                tmp_path, "first.txt")
    assert rc == 0
    rc, text = run(["channels", "--set", "mode=number_dist"], tmp_path, "second.txt")
    assert rc == 0
    assert '"number_dist":{"gammas":[0.0,0.2,0.5,0.8],"n":4}' in text
    assert max(int(ln.split(",")[1]) for ln in data_rows(text)) == 4


def test_bad_set_syntax_exits_2(tmp_path):
    assert cli.main(["dip", "--set", "oops", "--out", str(tmp_path / "x")]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert cli.main(["dip", "--config", str(tmp_path / "nope.json")]) == 2


def test_structurally_malformed_config_exits_2(tmp_path):
    assert cli.main(["dip", "--set", "tau=oops",
                     "--out", str(tmp_path / "x")]) == 2
    assert cli.main(["protocols", "--set", 'noon={"n":"three"}',
                     "--out", str(tmp_path / "y")]) == 2


def test_numeric_failure_exits_3(tmp_path, capsys):
    # the paper's threshold-detector formula leaves [0, 1] for identical
    # photons on eta = 0.95 detectors (the exact answer is 0) -> exit 3
    lossy = '{"eta_h":0.95,"eta_v":0.95}'
    rc = cli.main(["dip", "--grid", "3", "--set", "photons=[[1,1]]", "--set", "phi=[0]",
                   "--set", f"detector_a={lossy}", "--set", f"detector_b={lossy}",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


_BAD_PHOTON = '{"shape":"gaussian","center_thz":%s,"fwhm_nm":%s}'


@pytest.mark.parametrize("args, key", [
    (["contour", "--set", "center_thz=0"], "center_thz"),
    (["tables", "--set", "center_thz=0"], "center_thz"),
    (["dip", "--set", "profile_a=" + _BAD_PHOTON % (0, 1)], "profile_a.center_thz"),
    (["contour", "--set", "center_thz=-5"], "center_thz"),
    (["contour", "--set", "fwhm_nm=-1"], "fwhm_nm"),
    (["tables", "--set", "fwhm_nm=-1"], "fwhm_nm"),
    (["dip", "--set", "profile_a=" + _BAD_PHOTON % (193.55, -1)], "profile_a.fwhm_nm"),
    (["contour", "--set", "center_thz=abc"], "center_thz"),
    (["contour", "--set", "shape_a=box"], "shape_a"),
    (["contour", "--set", "shape_b=box"], "shape_b"),
    (["coherent", "--set", "mode=contour", "--set", "shape_b=box"], "shape_b"),
])
def test_bad_photon_literal_exits_2_naming_key(args, key, tmp_path, capsys):
    rc = cli.main(args + ["--grid", "3", "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"config field '{key}'" in err


_NAN_PHOTON = '{"shape":"gaussian","center_thz":NaN,"width_thz":0.5}'
_NM_PHOTON = '{{"shape":"sech","center_nm":{center!r},"fwhm_nm":0.8}}'
_SUBNORMAL_FWHM = ["--set", "center_thz=1e-5", "--set", "fwhm_nm=1e-300"]  # 2.1e-315 rad/ps
_SUBNORMAL_PHOTON = '{"shape":"%s","center_thz":1e-5,"fwhm_nm":1e-300}'
_HUGE = "1" + "0" * 400  # a JSON integer past the float range


@pytest.mark.parametrize("args, key", [
    (["contour", "--set", "m=2.5"], "m"),
    (["contour", "--set", "m=true"], "m"),
    (["contour", "--set", "m=-1"], "m"),
    (["contour", "--set", "m=0", "--set", "n=0"], "m"),
    (["contour", "--set", "phi=abc"], "phi"),
    (["channels", "--set", "m=1.7"], "m"),
    (["channels", "--set", "m=-1"], "m"),
    (["channels", "--set", "n=false"], "n"),
    (["dip", "--set", "photons=[[true,1]]"], "photons"),
    (["tables", "--set", "photons=[[1,2.0]]"], "photons"),
    (["coherent", "--set", "mode=contour", "--set", "mu_a=-1"], "mu_a"),
    (["coherent", "--set", "mode=contour", "--set", "mu_b=-0.5"], "mu_b"),
    (["coherent", "--set", "mode=contour", "--set", "phi=true"], "phi"),
    (["coherent", "--set", "mode=curve", "--set", "phi=NaN"], "phi"),
    (["contour", "--set", "center_thz=NaN"], "center_thz"),
    (["contour", "--set", "fwhm_nm=Infinity"], "fwhm_nm"),
    (["tables", "--set", "fwhm_nm=-Infinity"], "fwhm_nm"),
    (["dip", "--set", "profile_a=" + _NAN_PHOTON], "profile_a.center_thz"),
    # contour axes and the ratio map's axis (the grids the contour rows feed)
    (["contour", "--set", "width_factor=NaN"], "width_factor"),
    (["contour", "--set", "width_factor=0"], "width_factor"),
    (["contour", "--set", "width_factor=-2"], "width_factor"),
    (["contour", "--set", "center_span_fwhm=true"], "center_span_fwhm"),
    (["coherent", "--set", "mode=contour", "--set", "center_span_fwhm=-1"],
     "center_span_fwhm"),
    (["coherent", "--set", "ratio_factor=NaN"], "ratio_factor"),
    (["coherent", "--set", "mu_mean=NaN"], "mu_mean"),
    (["coherent", "--set", "fixed_mu_b=-1"], "fixed_mu_b"),
    # the remaining flat keys that took bare float()/int()
    (["dip", "--set", "phi=[true]"], "phi[0]"),
    (["dip", "--set", "phi=[0.1,NaN]"], "phi[1]"),
    (["dip", "--set", "phi=0.5"], "phi"),
    (["channels", "--set", "mode=number_dist", "--set", "number_dist.n=2.5"],
     "number_dist.n"),
    (["channels", "--set", "mode=number_dist", "--set", "number_dist.gammas=[NaN]"],
     "number_dist.gammas[0]"),
    (["channels", "--set", "gamma_max=NaN"], "gamma_max"),
    (["channels", "--set", "gamma_max=-0.5"], "gamma_max"),
    (["channels", "--set", "mode=depolarizing", "--set", "p_max=NaN"], "p_max"),
    (["channels", "--set", "mode=broadening", "--set", "xi_min=0"], "xi_min"),
    (["channels", "--set", "mode=broadening", "--set", "xi_max=true"], "xi_max"),
    # the swap scalars
    (["swap", "--set", "mode=pump_sweep", "--set", "pmf_sigma=NaN"], "pmf_sigma"),
    (["swap", "--set", "mode=pump_sweep", "--set", "pmf_sigma=0"], "pmf_sigma"),
    (["swap", "--set", "mode=pump_sweep", "--set", "slope_s=NaN"], "slope_s"),
    (["swap", "--set", "mode=pump_sweep", "--set", "slope_i=true"], "slope_i"),
    (["swap", "--set", "mode=pump_sweep", "--set", "pump_center=abc"], "pump_center"),
    (["swap", "--set", "mode=pump_sweep", "--set", "jsa_grid.n=2.5"], "jsa_grid.n"),
    (["swap", "--set", "mode=pump_sweep", "--set", "jsa_grid.n=8"], "jsa_grid"),
    (["swap", "--set", "mode=pump_sweep", "--set", "jsa_grid.span=-1"], "jsa_grid.span"),
    (["swap", "--set", "mode=pump_sweep", "--set", "phi_steps=2.5"], "phi_steps"),
    (["swap", "--set", "mode=bandwidth_sweep", "--set", "bandwidth.sigma_c=-1"],
     "bandwidth.sigma_c"),
    (["swap", "--set", "mode=bandwidth_sweep", "--set", "bandwidth.factor=NaN"],
     "bandwidth.factor"),
    (["swap", "--set", "mode=bandwidth_sweep", "--set", "bandwidth.steps=2.5"],
     "bandwidth.steps"),
    (["swap", "--set", "mode=bandwidth_sweep", "--set", "bandwidth.detunings=[0,NaN]"],
     "bandwidth.detunings[1]"),
    (["swap", "--set", "mode=pair", "--set", "phi=true"], "phi"),
    (["swap", "--set", "mode=pair", "--set", "phi=Infinity"], "phi"),
    # a JSA literal's grid size and the protocols literals
    (["swap", "--set", "mode=pair", "--set", "jsa_ab.grid.n=192.7"], "jsa_ab.grid.n"),
    (["swap", "--set", "mode=pair", "--set", "jsa_cd.grid.n=true"], "jsa_cd.grid.n"),
    (["swap", "--set", "mode=pair", "--set", "jsa_ab.grid=5"], "jsa_ab.grid"),
    (["protocols", "--set", 'mdi={"phi":"x","theta":0}'], "mdi.phi"),
    (["protocols", "--set", "mdi.phi=true"], "mdi.phi"),
    (["protocols", "--set", "mdi.theta=NaN"], "mdi.theta"),
    (["protocols", "--set", "noon.n=2.5"], "noon.n"),
    (["protocols", "--set", "noon.phase=abc"], "noon.phase"),
    (["protocols", "--set", "error_budget.e_temporal=true"], "error_budget.e_temporal"),
    (["protocols", "--set", "key_rate.f_e=NaN"], "key_rate.f_e"),
    (["protocols", "--set", "classifier.theta_perp=[0]"], "classifier.theta_perp"),
    (["protocols", "--set", "fusion.theta=Infinity"], "fusion.theta"),
    # rules only the model checked
    (["channels", "--set", "mode=number_dist", "--set", "number_dist.gammas=[1.5]"],
     "number_dist.gammas[0]"),
    (["channels", "--set", "mode=number_dist", "--set", "number_dist.gammas=[0.5,-0.1]"],
     "number_dist.gammas[1]"),
    (["channels", "--set", "gamma_max=2"], "gamma_max"),
    (["channels", "--set", "mode=depolarizing", "--set", "p_max=1.5"], "p_max"),
    (["dip", "--set", "photons=[[0,0]]"], "photons"),
    (["tables", "--set", "photons=[[1,1],[0,0]]"], "photons"),
    # the ignored grid objects, through their one reader
    (["swap", "--set", "mode=pump_sweep", "--set", "jsa_grid=5"], "jsa_grid"),
    (["swap", "--set", "mode=pair", "--set", "jsa_cd.grid.span=0"], "jsa_cd.grid.span"),
    # a set grid_override keeps --grid's rule; --grid itself would replace it
    (["contour", "--set", "grid_override=1"], "grid_override"),
    (["contour", "--set", "grid_override=true"], "grid_override"),
    (["contour", "--set", "grid_override=-3"], "grid_override"),
    (["contour", "--set", "grid_override=2.5"], "grid_override"),
    (["contour", "--set", "grid_override=0"], "grid_override"),
    (["dip", "--set", "grid_override=1"], "grid_override"),
    (["swap", "--set", "mode=bandwidth_sweep", "--set", "grid_override=2.5"],
     "grid_override"),
    # unit conversions leaving the float range: a centre whose wavelength
    # squared over- or underflows, a centre or a FWHM past the float range
    (["contour", "--set", "center_thz=1e300"], "center_thz"),
    (["contour", "--set", "center_thz=1e-300"], "center_thz"),
    (["contour", "--set", "center_thz=1e308"], "center_thz"),
    (["contour", "--set", "fwhm_nm=1e308"], "fwhm_nm"),
    (["dip", "--set", "profile_a=" + _NM_PHOTON.format(center=1e300)], "profile_a.center_nm"),
    (["dip", "--set", "profile_b=" + _NM_PHOTON.format(center=1e-300)], "profile_b.center_nm"),
    (["dip", "--set", "profile_a=" + _NM_PHOTON.format(center=1e-320)], "profile_a.center_nm"),
    (["dip", "--set", 'profile_b={"shape":"sinc","center_nm":1e-320,"width_thz":0.5}'],
     "profile_b.center_nm"),
    # fewer than two photons never give a coincidence, so no visibility
    (["tables", "--set", "photons=[[1,1],[0,1]]"], "photons"),
    # a JSON integer past the float range
    (["contour", "--set", "center_thz=1" + "0" * 400], "center_thz"),
    (["contour", "--set", "m=0", "--set", "n=1"], "m"),
    (["channels", "--set", "m=1", "--set", "n=0"], "m"),
    # a sinc photon whose duration T = u / FWHM passes the float range at a
    # subnormal FWHM, photon A's (exited 2 with an unnamed "FWHM must be
    # positive") or the narrow end of photon B's axis (warned of an overflow
    # and exited 3 at width inf)
    (["contour", "--set", "shape_a=sinc"] + _SUBNORMAL_FWHM, "fwhm_nm"),
    (["contour", "--set", "shape_a=sinc", "--set", "shape_b=sinc"] + _SUBNORMAL_FWHM,
     "fwhm_nm"),
    (["contour", "--set", "shape_b=sinc"] + _SUBNORMAL_FWHM, "fwhm_nm"),
    (["contour", "--set", "shape_a=sech", "--set", "shape_b=sinc"] + _SUBNORMAL_FWHM,
     "fwhm_nm"),
    (["coherent", "--set", "mode=contour", "--set", "profile_a=" + _SUBNORMAL_PHOTON % "sinc"],
     "profile_a"),
    (["coherent", "--set", "mode=contour", "--set", "shape_b=sinc",
      "--set", "profile_a=" + _SUBNORMAL_PHOTON % "gaussian"], "profile_a"),
    # a delay range whose span max - min overflows (warned of an overflow in
    # numpy's linspace, then exited 3 at "delay nan ps")
    (["dip", "--set", 'tau={"min":-1e308,"max":1e308,"steps":3}'], "tau"),
    (["dip", "--set", 'tau={"min":-9e307,"max":9e307,"steps":5}'], "tau"),
    # a mode that is no string naming one of the command's modes (a list or
    # an object made `channels` exit 2 with an unnamed TypeError)
    *[([command, "--set", f"mode={value}"], "mode")
      for command in ("coherent", "channels", "swap")
      for value in ("[1]", '{"a":1}', "3", "null")],
    # the protocols model's own range checks (exited 2 naming no key)
    (["protocols", "--set", "noon.n=0"], "noon.n"),
    (["protocols", "--set", "key_rate.p_z11=2"], "key_rate"),
    (["protocols", "--set", "key_rate.f_e=0.5"], "key_rate"),
    (["protocols", "--set", "error_budget.e_temporal=-0.1"], "error_budget"),
    # a photon number past the float range (exited 3 with "int too large to
    # convert to float"), and past channels' bound on the exact binomials'
    # cost (ran for minutes), in a process that a hang cannot stall
    (["protocols", "--set", f"noon.n={_HUGE}"], "noon.n"),
    (["contour", "--set", f"m={_HUGE}"], "m"),
    (["dip", "--set", f"photons=[[{_HUGE},1]]"], "photons"),
    (["tables", "--set", f"photons=[[1,{_HUGE}]]"], "photons"),
    pytest.param(["channels", "--set", f"m={_HUGE}"], "m",
                 marks=pytest.mark.subprocess_timeout(5)),
    (["channels", "--set", f"m={chn.MAX_PHOTONS + 1}"], "m"),
    (["channels", "--set", "mode=depolarizing", "--set", f"n={chn.MAX_PHOTONS + 1}"], "n"),
    (["channels", "--set", "mode=number_dist", "--set", f"number_dist.n={chn.MAX_PHOTONS + 1}"],
     "number_dist.n"),
    # a JSON integer past Python's 4,300-digit int-to-str limit (exited 2
    # with an unnamed "Exceeds the limit" ValueError)
    (["contour", "--set", "m=1" + "0" * 5000], "m"),
    (["dip", "--set", "photons=[[1," + "9" * 5000 + "]]"], "photons"),
])
def test_bad_scalar_exits_2_naming_key(args, key, tmp_path, capsys, request):
    grid = [] if any(a.startswith("grid_override=") for a in args) else ["--grid", "3"]
    argv = args + grid + ["--out", str(tmp_path / "x.csv")]
    bounded = request.node.get_closest_marker("subprocess_timeout")
    if bounded:
        import subprocess
        import sys
        proc = subprocess.run([sys.executable, "-m", "homsim.cli"] + argv,
                              capture_output=True, text=True, timeout=bounded.args[0])
        rc, err = proc.returncode, proc.stderr
    else:
        rc = cli.main(argv)
        err = capsys.readouterr().err
    assert rc == 2, err
    assert f"config field '{key}'" in err
    assert not (tmp_path / "x.csv").exists()


def test_config_file_with_too_long_integer_exits_2(tmp_path, capsys):
    # past Python's 4,300-digit int-to-str limit json.load raises a bare
    # ValueError, which exited 2 as "config error: ValueError('Exceeds ...')"
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text('{"m": 1' + "0" * 5000 + "}")
    rc = cli.main(["contour", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "config error: config file holds an integer too long to read\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("args, key", [
    (["dip", "--set", 'tau={"min":-1,"max":1,"steps":2.5}'], "tau.steps"),
    (["dip", "--set", 'tau={"min":-1,"max":NaN,"steps":3}'], "tau.max"),
    (["dip", "--set", 'tau={"min":true,"max":1,"steps":3}'], "tau.min"),
    (["dip", "--grid", "3", "--set", 'tau={"min":-1,"max":1,"steps":2.5}'], "tau.steps"),
    (["dip", "--set", 'tau={"min":1,"max":-1,"steps":3}'], "tau"),
    (["coherent", "--set", "mode=curve",
      "--set", 'mu_curve={"min":0.1,"max":1,"steps":"5"}'], "mu_curve.steps"),
    (["swap", "--set", "mode=pump_sweep",
      "--set", 'pump_sigma={"min":0.1,"max":Infinity,"steps":3}'], "pump_sigma.max"),
    (["swap", "--set", "mode=pump_sweep",
      "--set", 'pump_sigma={"min":0,"max":1,"steps":3}'], "pump_sigma.min"),
    (["coherent", "--set", "mode=curve",
      "--set", 'mu_curve={"min":-1,"max":1,"steps":3}'], "mu_curve.min"),
    (["contour", "--set", "grid_n=2.5"], "grid_n"),
    (["contour", "--set", "grid_n=1"], "grid_n"),
    (["coherent", "--set", "grid_n=true"], "grid_n"),
    (["channels", "--grid", "3", "--set", "grid_n=-4"], "grid_n"),
    # sweeps with no points
    (["swap", "--set", "mode=pump_sweep", "--set", "phi_steps=0"], "phi_steps"),
    (["swap", "--set", "mode=pump_sweep", "--set", "phi_steps=1"], "phi_steps"),
    (["dip", "--set", "phi=[]"], "phi"),
    (["dip", "--set", "photons=[]"], "photons"),
    (["tables", "--set", "photons=[]"], "photons"),
    (["channels", "--set", "mode=number_dist", "--set", "number_dist.gammas=[]"],
     "number_dist.gammas"),
    (["swap", "--set", "mode=bandwidth_sweep", "--set", "bandwidth.detunings=[]"],
     "bandwidth.detunings"),
    (["swap", "--set", "mode=bandwidth_sweep", "--set", "bandwidth.steps=0"],
     "bandwidth.steps"),
    (["swap", "--set", "mode=bandwidth_sweep", "--set", "bandwidth.steps=1"],
     "bandwidth.steps"),
    # a centre axis reaching zero frequency
    (["contour", "--grid", "3", "--set", "center_span_fwhm=1e6"], "center_span_fwhm"),
    (["coherent", "--set", "mode=contour", "--grid", "3",
      "--set", "center_span_fwhm=1e6"], "center_span_fwhm"),
])
def test_bad_range_exits_2_naming_key(args, key, tmp_path, capsys):
    # ranges and grid sides, with and without --grid overriding them
    rc = cli.main(args + ["--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"config field '{key}'" in err
    assert not (tmp_path / "x.csv").exists()


def test_parse_profile_wavelength_literals():
    # center_nm and fwhm_nm are converted with d omega = 2 pi c d lambda / lambda^2
    prof = cfgmod.parse_profile({"shape": "sech", "center_nm": 1550.0,
                                 "fwhm_nm": 0.8}, "p")
    center = 2 * math.pi * spc.SPEED_OF_LIGHT_NM_PS / 1550.0
    ref = spc.SpectralProfile.from_fwhm(
        "sech", center, spc.wavelength_width_to_frequency(1550.0, 0.8))
    assert prof.shape is spc.Shape.SECH
    assert prof.center == pytest.approx(ref.center, rel=1e-15)
    assert prof.width == pytest.approx(ref.width, rel=1e-13)
    thz = cfgmod.parse_profile({"shape": "sinc", "center_thz": 193.55,
                                "fwhm_nm": 1.0}, "p")
    lam = 2 * math.pi * spc.SPEED_OF_LIGHT_NM_PS / thz.center
    assert thz.center == 2 * math.pi * 193.55
    assert spc.fwhm(thz) == pytest.approx(
        spc.wavelength_width_to_frequency(lam, 1.0), rel=1e-12)


def test_parse_profile_width_thz_literals():
    # width_thz is an ordinary frequency (times 2 pi), except for the sinc,
    # whose width is its duration T in ps and passes through unchanged
    p = cfgmod.parse_profile({"shape": "gaussian", "center_thz": 193.55,
                              "width_thz": 0.5}, "p")
    assert p.center == pytest.approx(2 * math.pi * 193.55)
    assert p.width == pytest.approx(math.pi)
    sincp = cfgmod.parse_profile({"shape": "sinc", "center_thz": 193.55,
                                  "width_thz": 2.0}, "p")
    assert sincp.width == 2.0


# every command and mode at its defaults: the printed probabilities,
# visibilities and fidelities all lie in [0, 1], with no tolerance
_ALL_JOBS = ([["dip"], ["contour"], ["tables"], ["protocols"]]
             + [["coherent", "--set", f"mode={m}"]
                for m in ("ratio_map", "contour", "curve")]
             + [["channels", "--set", f"mode={m}"]
                for m in ("damping", "depolarizing", "broadening", "number_dist")]
             + [["swap", "--set", f"mode={m}"]
                for m in ("angle_grid", "bandwidth_sweep", "pump_sweep", "pair")])
_BOUNDED = re.compile(r"p_co|visibility|probability|fidelity|M\d+|.+_(probability|fidelity)")


def _bounded_values(text):
    if text.startswith("{"):
        def walk(node, key=""):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield from walk(v, k)
            elif isinstance(node, (int, float)) and not isinstance(node, bool) \
                    and _BOUNDED.fullmatch(key):
                yield key, node
        yield from walk(json.loads(text))
        return
    if text.startswith("# homsim tables"):
        for ln in text.splitlines():
            if not ln.startswith("#"):
                for vis in re.findall(r"(\S+) \| ", ln):
                    yield "visibility", float(vis)
        return
    columns = []
    for ln in text.splitlines():
        if ln.startswith("#"):
            continue
        if ln[0].isalpha():
            columns = ln.split(",")
            continue
        for name, value in zip(columns, ln.split(",")):
            if _BOUNDED.fullmatch(name):
                yield name, float(value)


@pytest.mark.parametrize("args", _ALL_JOBS, ids=[" ".join(a) for a in _ALL_JOBS])
def test_every_command_prints_values_in_unit_interval(args, tmp_path):
    rc, text = run(args + ["--grid", "3"], tmp_path)
    assert rc == 0
    values = list(_bounded_values(text))
    assert values
    outside = [(k, v) for k, v in values if not 0.0 <= v <= 1.0]
    assert not outside


# ---------------------------------------------------------------------------
# dip
# ---------------------------------------------------------------------------

def test_dip_matched_photons_reach_zero(tmp_path):
    rc, text = run(["dip", "--set", "photons=[[1,1]]", "--set", "phi=[0]",
                    "--set", 'tau={"min":-6,"max":6,"steps":25}'], tmp_path)
    assert rc == 0
    rows = [ln.split(",") for ln in data_rows(text)]
    by_tau = {float(t): float(p) for t, p in rows}
    assert by_tau[0.0] < 1e-9
    assert by_tau[6.0] == pytest.approx(0.5, abs=1e-9)


def test_dip_orthogonal_polarization_flat(tmp_path):
    rc, text = run(["dip", "--set", "photons=[[1,1]]",
                    "--set", f"phi=[{math.pi / 2}]",
                    "--set", 'tau={"min":-3,"max":3,"steps":13}'], tmp_path)
    assert rc == 0
    for ln in data_rows(text):
        assert float(ln.split(",")[1]) == pytest.approx(0.5, abs=1e-9)


def test_dip_two_photon_block_endpoints(tmp_path):
    rc, text = run(["dip", "--set", "photons=[[2,2]]", "--set", "phi=[0]",
                    "--set", 'tau={"min":-8,"max":8,"steps":3}'], tmp_path)
    vals = [float(ln.split(",")[1]) for ln in data_rows(text)]
    assert vals[0] == pytest.approx(7 / 8, abs=1e-9)
    assert vals[1] == pytest.approx(0.25, abs=1e-9)


def test_dip_computes_each_overlap_once_per_tau(tmp_path, monkeypatch):
    # the default job has 3 photon pairs x 3 Phi blocks; cos Theta(tau) is
    # shared by all nine, so the scan is one overlaps() call on photon B's
    # family of delays
    scans = []
    real_overlaps = spc.overlaps

    def counting_overlaps(a, b):
        scans.append(np.broadcast_to(b.delay, np.shape(b.delay)).tolist())
        return real_overlaps(a, b)

    monkeypatch.setattr(spc, "overlaps", counting_overlaps)
    taus = np.linspace(-6.0, 6.0, 241)
    sech_vs_sinc = ["--set", 'profile_a={"shape":"sech","center_thz":193.55,"width_thz":0.2}',
                    "--set", 'profile_b={"shape":"sinc","center_thz":193.7,"width_thz":2.5}']
    for extra in ([], sech_vs_sinc):
        scans.clear()
        rc, text = run(["dip"] + extra, tmp_path)
        assert rc == 0
        assert text.count("# block m=") == 9
        assert scans == [list(taus)]


def test_dip_at_subnormal_delays_exits_0(tmp_path):
    # a delay difference below the smallest normal float once made the
    # sinc-sinc overlap NaN, which the overlap check let through
    rc, text = run(["dip", "--grid", "3",
                    "--set", 'profile_a={"shape":"sinc","center_thz":193.5,"width_thz":2.0}',
                    "--set", 'profile_b={"shape":"sinc","center_thz":193.6,"width_thz":2.0}',
                    "--set", 'tau={"min":-5e-324,"max":5e-324,"steps":3}',
                    "--set", "photons=[[1,1]]", "--set", "phi=[0]"], tmp_path)
    assert rc == 0
    printed = [float(ln.split(",")[1]) for ln in data_rows(text)]
    assert len(printed) == 3 and all(0.0 <= p <= 1.0 for p in printed)


def test_dip_over_a_span_reaching_the_largest_float_exits_0(tmp_path):
    # numpy's linspace overflowed forming the last delay (warned), before
    # setting it to max; the sinc pair's overlap is exact at every delay
    rc, text, err = run_strict(
        ["dip", "--set", 'profile_a={"shape":"sinc","center_thz":193.5,"width_thz":2.0}',
         "--set", 'profile_b={"shape":"sinc","center_thz":193.6,"width_thz":2.0}',
         "--set", 'tau={"min":0,"max":1.7976931348623157e308,"steps":7}',
         "--set", "photons=[[1,1]]", "--set", "phi=[0]"], tmp_path)
    assert (rc, err) == (0, "")
    rows = [ln.split(",") for ln in data_rows(text)]
    assert [t for t, _ in rows][-1] == "1.79769313486e+308"
    assert [float(p) for _, p in rows][1:] == [0.5] * 6


_REFERENCE_TAU = {"min": -4, "max": 4, "steps": 17}


def _per_block_reference(sets):
    """(rows, stderr) of a dip job built one block at a time: each
    (m, n, Phi) block scans its own overlaps and makes its own
    coincidence_raw call on a 1-D row of c, in block order, so the first
    failing block raises."""
    cfg = dict(cli._DIP_DEFAULTS, tau=_REFERENCE_TAU, **sets)
    a = cfgmod.parse_profile(cfg["profile_a"], "profile_a")
    b = cfgmod.parse_profile(cfg.get("profile_b", cfg["profile_a"]), "profile_b")
    det_a, det_b = (pol.Detector(**cfg.get(key, {"eta_h": 1.0, "eta_v": 1.0}))
                    for key in ("detector_a", "detector_b"))
    bs = fock.BeamSplitter.balanced()
    taus = np.linspace(_REFERENCE_TAU["min"], _REFERENCE_TAU["max"], _REFERENCE_TAU["steps"])
    rows = []
    for m, n in cfg["photons"]:
        for phi in cfg["phi"]:
            pol_b = pol.rotate(pol.H, phi)
            cs = fock.mode_overlap(pol.H, pol_b, spc.overlaps(a, b.delayed(taus)))
            da = pol.click_probability(det_a, pol.H, pol_b, m, n)
            db = pol.click_probability(det_b, pol.H, pol_b, m, n)
            try:
                ps = fock.coincidence_raw(m, n, cs, bs, da, db)
            except fock.InvalidRegimeError as exc:
                return rows, f"numerical failure: {exc}\n"
            rows += [f"{cli._fmt(t)},{cli._fmt(p)}" for t, p in zip(taus, ps)]
    return rows, ""


def _dip_sets(sets):
    return [arg for key, value in sets.items() for arg in ("--set", f"{key}={json.dumps(value)}")]


def test_dip_blocks_match_per_block_reference(tmp_path):
    sets = {"profile_a": {"shape": "sech", "center_thz": 193.55, "width_thz": 0.4},
            "profile_b": {"shape": "sinc", "center_thz": 193.75, "width_thz": 2.5},
            "detector_a": {"eta_h": 0.9, "eta_v": 0.8},
            "detector_b": {"eta_h": 0.85, "eta_v": 0.95}}
    rc, text = run(["dip", "--set", f"tau={json.dumps(_REFERENCE_TAU)}"] + _dip_sets(sets),
                   tmp_path)
    assert rc == 0
    assert (data_rows(text), "") == _per_block_reference(sets)


def test_dip_names_the_first_failing_block_when_it_is_not_the_first(tmp_path, capsys):
    # the (2, 2) blocks and the (1, 1) block at Phi = pi/2 stay in [0, 1];
    # the (1, 1) block at Phi = 0 is the first to fail, at tau = 0
    lossy = {"eta_h": 0.95, "eta_v": 0.95}
    sets = {"detector_a": lossy, "detector_b": lossy,
            "phi": [1.5707963267948966, 0], "photons": [[2, 2], [1, 1]]}
    rc = cli.main(["dip", "--set", f"tau={json.dumps(_REFERENCE_TAU)}"] + _dip_sets(sets)
                  + ["--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == (
        "numerical failure: coincidence -0.00249375 outside [0,1] for m=1, n=1, c=1; "
        "parameter set lies outside the detection model's validity\n")
    rows, reference_err = _per_block_reference(sets)
    assert len(rows) == 3 * 17 and reference_err == err
    assert not (tmp_path / "x.csv").exists()


_SHAPE = st.sampled_from(["gaussian", "sech", "lorentzian", "sinc"])
# one end of a delay range: ordinary, subnormal, or out to the float range's end
_TAU_END = st.one_of(st.floats(0.0, 20.0), st.floats(0.0, 1e308),
                     st.sampled_from([0.0, 5e-324, 1e-310, 1e150, 1.5e305, 8.9e307, 1e308]))
_PHOTON_COUNT = st.one_of(st.integers(0, 3), st.integers(0, 70))
_IDEAL = {"eta_h": 1.0, "eta_v": 1.0}


def test_dip_property_ends_in_oracle_values_or_a_named_exit(tmp_path):
    # every documented dip key over its documented range: the run prints
    # finite values in [0, 1], equal to the exact oracle to the printed
    # precision where it applies (ideal detectors, m, n <= 3), or exits 2
    # naming a key, or exits 3 naming a numerical cause; never a traceback,
    # a warning or nan
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        width_a = 10.0 ** data.draw(st.floats(-2.0, 0.5))
        width_b = width_a * 10.0 ** data.draw(st.floats(-6.0, 6.0))
        center_a = data.draw(st.floats(150.0, 250.0))
        center_b = center_a + data.draw(st.floats(-4.0, 4.0)) * width_a
        if data.draw(st.booleans()):  # about zero, each end out to the float range
            tau_min, tau_max = -data.draw(_TAU_END), data.draw(_TAU_END)
        else:  # a few widths, now and then reversed
            tau_min = data.draw(st.floats(-20.0, 20.0))
            tau_max = tau_min + data.draw(st.floats(-1.0, 20.0))
        tau = {"min": tau_min, "max": tau_max,
               "steps": data.draw(st.one_of(st.just(2), st.integers(2, 6)))}
        sets = {
            "profile_a": {"shape": data.draw(_SHAPE), "center_thz": center_a,
                          "width_thz": width_a},
            "profile_b": {"shape": data.draw(_SHAPE), "center_thz": center_b,
                          "width_thz": width_b},
            "tau": tau,
            "photons": data.draw(st.lists(st.lists(_PHOTON_COUNT, min_size=2, max_size=2),
                                          min_size=1, max_size=3)),
            "phi": data.draw(st.lists(
                st.one_of(st.sampled_from([0.0, 0.25 * math.pi, 0.5 * math.pi]),
                          st.floats(-10.0, 10.0)), min_size=1, max_size=3)),
            "pol_a": data.draw(st.sampled_from("HVDA")),
            "detector_a": data.draw(st.one_of(st.just(_IDEAL), _DETECTOR)),
            "detector_b": data.draw(st.one_of(st.just(_IDEAL), _DETECTOR)),
        }
        rc, text, err = run_strict(["dip"] + _dip_sets(sets), tmp_path)
        assert "Traceback" not in err and "Warning" not in err, err
        if rc == 2:
            assert err.startswith("config error: config field '"), err
            return
        if rc == 3:
            assert re.match(r"numerical failure: [a-z]+.{20,}", err), err
            return
        assert rc == 0, err
        assert "nan" not in text
        rows = data_rows(text)
        blocks = [(m, n, phi) for m, n in sets["photons"] for phi in sets["phi"]]
        assert text.count("# block m=") == len(blocks)
        assert len(rows) == len(blocks) * tau["steps"]
        values = [float(row.split(",")[1]) for row in rows]
        assert all(0.0 <= p <= 1.0 for p in values), rows
        if sets["detector_a"] != _IDEAL or sets["detector_b"] != _IDEAL:
            return
        a = cfgmod.parse_profile(sets["profile_a"], "profile_a")
        b = cfgmod.parse_profile(sets["profile_b"], "profile_b")
        pol_a = cfgmod.parse_polarization(sets["pol_a"], "pol_a")
        with np.errstate(over="ignore"):
            taus = np.linspace(tau["min"], tau["max"], tau["steps"]).tolist()
        for k, (m, n, phi) in enumerate(blocks):
            if max(m, n) > 3:
                continue
            for tau_k, printed in zip(taus, values[k * len(taus):]):
                pair = fock.FockPair(m, n, pol_a, pol.rotate(pol_a, phi), a, b.delayed(tau_k))
                expected = oracle.oracle_coincidence(pair, fock.BeamSplitter.balanced())
                assert printed == pytest.approx(expected, abs=1e-11), (m, n, phi, tau_k)

    check()


def lorentzian_overlap_by_residues(a, b):
    """|int phi_a* phi_b d omega| of two Lorentzians, by the residue theorem.

    With x = omega - omega_a the integrand is e^{i x dt} over (x^2 + ha^2)
    ((x - d)^2 + hb^2) times the normalisations; the contour closes in the
    half plane where e^{i x dt} decays, around one pole of each factor.
    """
    with mpmath.workdps(30):
        ha, hb = mpmath.mpf(a.effective_width) / 2, mpmath.mpf(b.effective_width) / 2
        d = mpmath.mpf(b.center) - mpmath.mpf(a.center)
        dt = mpmath.mpf(b.delay) - mpmath.mpf(a.delay)
        s = 1 if dt >= 0 else -1
        pa, pb = s * 1j * ha, d + s * 1j * hb
        residues = (mpmath.exp(1j * pa * dt) / (2 * pa * ((pa - d) ** 2 + hb ** 2))
                    + mpmath.exp(1j * pb * dt) / ((pb ** 2 + ha ** 2) * 2 * (pb - d)))
        norm = mpmath.sqrt((2 * ha) ** 3 * (2 * hb) ** 3) / (4 * mpmath.pi)
        return float(abs(2 * mpmath.pi * 1j * s * norm * residues))


@pytest.mark.time_limit(10)
def test_narrowband_lorentzian_dip_is_exact(tmp_path):
    # FWHM 0.01 rad/ps, detuned by 5,000 FWHM, delays within 3 / FWHM: far
    # more beat periods than a quadrature can seed, none for the closed form
    fw = 0.01
    profile_a = {"shape": "lorentzian", "center_thz": 193.55, "width_thz": fw / (2 * math.pi)}
    profile_b = dict(profile_a, center_thz=193.55 + 5000.0 * fw / (2 * math.pi))
    rc, text = run(["dip", "--set", f"profile_a={json.dumps(profile_a)}",
                    "--set", f"profile_b={json.dumps(profile_b)}",
                    "--set", 'tau={"min":-300,"max":300,"steps":21}'], tmp_path)
    assert rc == 0
    a = cfgmod.parse_profile(profile_a, "profile_a")
    b = cfgmod.parse_profile(profile_b, "profile_b")
    taus = np.linspace(-300.0, 300.0, 21)
    cos_theta = [lorentzian_overlap_by_residues(a, b.delayed(float(t))) for t in taus]
    expected = []
    for m, n in [(1, 1), (2, 2), (3, 3)]:
        for phi in [0.0, 0.25 * math.pi, 0.5 * math.pi]:
            pair = fock.FockPair(m, n, pol.H, pol.rotate(pol.H, phi), a, b)
            expected += [p for _, p in fock.dip_curve(pair, taus, cos_theta=cos_theta)]
    printed = [float(ln.split(",")[1]) for ln in data_rows(text)]
    assert len(printed) == len(expected)
    assert all(0.0 <= p <= 1.0 for p in printed)
    assert max(abs(p - q) for p, q in zip(printed, expected)) < 1e-12


# ---------------------------------------------------------------------------
# tables / contour
# ---------------------------------------------------------------------------

def test_tables_contains_expected_cells(tmp_path):
    rc, text = run(["tables"], tmp_path)
    assert rc == 0
    lines = text.splitlines()
    gauss_row_m1 = next(ln for ln in lines if ln.startswith("gaussian"))
    assert "1.00 | 1.00" in gauss_row_m1
    assert "0.97 | 0.90" in gauss_row_m1  # Gaussian-Lorentzian pairing
    m2_idx = lines.index("# m=2 n=2")
    gauss_row_m2 = next(ln for ln in lines[m2_idx:] if ln.startswith("gaussian"))
    assert "0.71 | 1.00" in gauss_row_m2


def test_tables_body_does_not_depend_on_the_job_that_filled_the_cache(tmp_path):
    # each pairing's width search runs once per process, on a fixed
    # reference photon: a cold run for an unusual photon A, a cold default
    # run and a warm one print the same cells
    from homsim import sweeps
    unusual = ["--set", "center_thz=3e-6", "--set", "fwhm_nm=1e-200"]
    bodies = []
    for args in (unusual, [], unusual):
        if len(bodies) < 2:
            sweeps._unit_optimum.cache_clear()
        rc, text = run(["tables"] + args, tmp_path)
        assert rc == 0
        bodies.append(_table_body(text))
    assert bodies[0] == bodies[1] == bodies[2]


# log-uniform over the whole positive float range, and its edges
_ANY_POSITIVE = st.one_of(st.floats(-323.0, 308.25).map(lambda e: 10.0 ** e),
                          st.sampled_from([5e-324, 1e-300, 1e-160, 1e160, 1e300,
                                           1.7976931348623157e308]))
_PHOTON_NUMBER = st.one_of(st.integers(0, 4), st.integers(60, 130), st.sampled_from([62, 63]))
_TABLE_CELL = re.compile(r"(\S+) \| (\S+)")


def _table_body(text):
    return text.split("\n", 2)[2]  # past the title and the # config line


def test_tables_property_prints_the_default_body_or_a_named_exit(tmp_path):
    # photon A's centre and FWHM anywhere in the float range: the run prints
    # the default table for its photons (the cells do not depend on photon
    # A), or exits 2 naming a key; never a traceback, a warning or nan
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        photons = data.draw(st.lists(st.lists(_PHOTON_NUMBER, min_size=2, max_size=2),
                                     min_size=1, max_size=3))
        pairs = ["--set", f"photons={json.dumps(photons)}"]
        rc, text, err = run_strict(
            ["tables", "--set", f"center_thz={json.dumps(data.draw(_ANY_POSITIVE))}",
             "--set", f"fwhm_nm={json.dumps(data.draw(_ANY_POSITIVE))}"] + pairs, tmp_path)
        assert "Traceback" not in err and "Warning" not in err, err
        if rc == 0:
            rc_default, default, _ = run_strict(["tables"] + pairs, tmp_path)
            assert rc_default == 0 and _table_body(text) == _table_body(default)
            assert not re.search(r"\bnan\b", text, re.IGNORECASE), text
            cells = [cell for row in text.splitlines() if not row.startswith(("#", "B \\"))
                     for cell in _TABLE_CELL.findall(row)]
            assert len(cells) == 16 * len(photons)
            assert all(0.0 <= float(v) <= 1.0 and float(r) > 0.0 for v, r in cells)
        else:
            assert rc == 2, err
            assert re.match(r"config error: config field '(center_thz|fwhm_nm|photons)': ",
                            err), err

    check()


def test_contour_small_grid(tmp_path):
    rc, text = run(["contour", "--grid", "5", "--set", "shape_b=sech"], tmp_path)
    assert rc == 0
    rows = data_rows(text)
    assert len(rows) == 25
    vis = [float(r.split(",")[2]) for r in rows]
    assert max(vis) <= 1.0 + 1e-9
    assert min(vis) >= -1e-9


# ---------------------------------------------------------------------------
# coherent / channels / swap / protocols
# ---------------------------------------------------------------------------

def test_coherent_curve(tmp_path):
    rc, text = run(["coherent", "--set", "mode=curve",
                    "--set", 'mu_curve={"min":0.001,"max":2.0,"steps":5}'], tmp_path)
    assert rc == 0
    first = data_rows(text)[0].split(",")
    assert float(first[1]) == pytest.approx(0.5, abs=1e-4)


@pytest.mark.parametrize("phi", ["0", "1.5707963"])
def test_coherent_curve_high_mu_prints_values(phi, tmp_path):
    # past mu ~ 710 the closed form is evaluated in the log domain, so the
    # curve has a value where I0 and sinh^2 alone overflow
    rc, text = run(["coherent", "--set", "mode=curve", "--set", f"phi={phi}",
                    "--set", 'mu_curve={"min":1,"max":2000,"steps":3}'], tmp_path)
    assert rc == 0
    values = {float(mu): float(v) for mu, v in
              (ln.split(",") for ln in data_rows(text))}
    assert sorted(values) == [1.0, 1000.5, 2000.0]
    assert all(0.0 <= v <= 0.5 for v in values.values())
    if phi == "0":
        # I0(mu) / (2 sinh^2(mu/2)) -> 2 / sqrt(2 pi mu) for large mu
        assert values[2000.0] == pytest.approx(2.0 / math.sqrt(2.0 * math.pi * 2000.0),
                                               rel=1e-4)


def test_coherent_high_mu_coincidence_exits_3(tmp_path, capsys):
    # the general closed form still overflows at mu ~ 1000: a clean
    # numerical failure naming the intensities, not a traceback
    rc = cli.main(["coherent", "--set", "mode=contour", "--grid", "2",
                   "--set", "mu_a=1000", "--set", "mu_b=4000",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "mu_a=1000, mu_b=4000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args, point", [
    (["contour", "--grid", "3", "--set", "width_factor=1e200"],
     "B center 1212.97 rad/ps, effective width 3.33417e-201, delay 0 ps"),
    (["channels", "--set", "mode=broadening", "--grid", "3", "--set", "xi_max=1e300"],
     "B center 1216.11 rad/ps, effective width 3.14159e+300, delay 0 ps"),
], ids=["contour", "channels"])
def test_overflowing_overlaps_exit_3_naming_the_point(args, point):
    # a separate process, so that numpy's RuntimeWarnings would reach stderr
    # rather than fail the test
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "homsim.cli"] + args,
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr == (
        "numerical failure: gaussian-gaussian overlap magnitude is not finite or "
        f"exceeds the Cauchy-Schwarz bound at {point} (residual nan)\n")


@pytest.mark.parametrize("sets", [["mode=broadening", "xi_max=1e308"],
                                  ['channel_a={"xi":1e308}', 'channel_b={"xi":1e308}']])
def test_overflowing_broadening_exits_3_without_a_warning(sets, tmp_path, capsys):
    # in process, where the suite turns a numpy RuntimeWarning into an error
    args = ["channels", "--grid", "2"]
    for item in sets:
        args += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(args + ["--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err.startswith("numerical failure: gaussian-gaussian overlap magnitude is not finite")
    assert "Warning" not in err


_UNIT = st.floats(0.0, 1.0)
_GAMMA = st.one_of(st.sampled_from([0.0, 1.0]), _UNIT)
_P_DEPOL = st.one_of(st.sampled_from([0.75 - 1e-10, 0.75, 0.75 + 1e-10, 1.0]), _UNIT)
_XI = st.one_of(st.just(1e308), st.floats(1e-3, 1e3))
_CHANNEL = st.fixed_dictionaries({}, optional={"gamma": _GAMMA, "p_depol": _P_DEPOL,
                                               "xi": _XI})
_ETA = st.one_of(st.sampled_from([0.0, 1.0]), _UNIT)
_DETECTOR = st.fixed_dictionaries({"eta_h": _ETA, "eta_v": _ETA})


def test_channels_property_ends_in_values_or_a_named_exit(tmp_path):
    # every documented channels key over its documented range: the run
    # prints finite values in [0, 1], or exits 2 naming a key, or exits 3
    # naming a numerical cause; never a traceback, a warning or nan
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        sets = {
            "mode": data.draw(st.sampled_from(
                ["damping", "depolarizing", "broadening", "number_dist"])),
            "m": data.draw(st.integers(0, 4)), "n": data.draw(st.integers(0, 4)),
            "pol_a": data.draw(st.sampled_from("HVDA")),
            "pol_b": data.draw(st.sampled_from("HVDA")),
            "channel_a": data.draw(_CHANNEL), "channel_b": data.draw(_CHANNEL),
            "detector_a": data.draw(_DETECTOR), "detector_b": data.draw(_DETECTOR),
            "gamma_max": data.draw(_GAMMA), "p_max": data.draw(_P_DEPOL),
            "xi_min": data.draw(_XI), "xi_max": data.draw(_XI),
            "number_dist": {"n": data.draw(st.one_of(st.integers(0, 4),
                                                     st.integers(1030, 2000))),
                            "gammas": data.draw(st.lists(_GAMMA, min_size=1, max_size=3))},
        }
        args = ["channels", "--grid", str(data.draw(st.integers(2, 4)))]
        for key, value in sets.items():
            args += ["--set", f"{key}={json.dumps(value)}"]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            rc, text = run(args, tmp_path)
        err = err.getvalue()
        assert "Traceback" not in err and "Warning" not in err, err
        if rc == 0:
            assert "nan" not in text
            for row in data_rows(text):
                values = [float(x) for x in row.split(",")]
                assert all(math.isfinite(x) for x in values), row
                assert 0.0 <= values[-1] <= 1.0, row
        elif rc == 2:
            assert err.startswith("config error: config field '"), err
        else:
            assert rc == 3, err
            assert re.match(r"numerical failure: [a-z]+.{20,}", err), err

    check()


def test_coherent_ratio_map_max_at_unit_ratios(tmp_path):
    rc, text = run(["coherent", "--grid", "9"], tmp_path)
    assert rc == 0
    rows = [(float(a), float(b), float(v)) for a, b, v in
            (ln.split(",") for ln in data_rows(text))]
    best = max(rows, key=lambda r: r[2])
    assert best[0] == pytest.approx(1.0)
    assert best[1] == pytest.approx(1.0)


def test_channels_damping_corner(tmp_path):
    rc, text = run(["channels", "--grid", "3", "--set", "m=1", "--set", "n=1"],
                   tmp_path)
    assert rc == 0
    rows = [(float(a), float(b), float(v)) for a, b, v in
            (ln.split(",") for ln in data_rows(text))]
    corner = next(v for a, b, v in rows if a == 0.0 and b == 0.0)
    assert corner == pytest.approx(1.0, abs=1e-9)


def test_channels_vanishing_baseline_exits_3(tmp_path, capsys):
    # at gamma_A = gamma_B = 1 every photon is lost, so P(0) = 0
    rc = cli.main(["channels", "--grid", "5", "--set", "gamma_max=1.0",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "baseline coincidence vanishes" in capsys.readouterr().err


@pytest.mark.parametrize("sets, message", [
    (["mu_mean=2000"],
     "coherent coincidence overflows double precision at mu_a=1000, mu_b=4000"),
    (["mu_mean=0"], "baseline coincidence vanishes; visibility undefined"),
    (["fixed_mu_b=0"], "baseline coincidence vanishes; visibility undefined"),
])
def test_ratio_map_numerical_failures_exit_3(sets, message, tmp_path, capsys):
    args = ["coherent", "--grid", "3"]
    for item in sets:
        args += ["--set", item]
    rc = cli.main(args + ["--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not (tmp_path / "x.csv").exists()


def test_channels_fig9_damping_names_its_failing_branch(tmp_path, capsys):
    # the Fig-9 detectors push the (1, 1) branch's dip below zero at c = 1,
    # the first failure of the first cell
    rc = cli.main(["channels", "--set", "mode=damping", "--set", "m=1", "--set", "n=1",
                   "--set", 'detector_a={"eta_h":0.8,"eta_v":0.83}',
                   "--set", 'detector_b={"eta_h":0.78,"eta_v":0.85}',
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert capsys.readouterr().err == (
        "numerical failure: coincidence -0.042264 outside [0,1] for m=1, n=1, c=1; "
        "parameter set lies outside the detection model's validity\n")
    assert not (tmp_path / "x.csv").exists()


def test_channels_number_dist(tmp_path):
    rc, text = run(["channels", "--set", "mode=number_dist"], tmp_path)
    assert rc == 0
    rows = [ln.split(",") for ln in data_rows(text)]
    zero_gamma = {int(k): float(p) for g, k, p in rows if float(g) == 0.0}
    assert zero_gamma[4] == 1.0 and zero_gamma[0] == 0.0


def test_swap_angle_grid_values(tmp_path):
    rc, text = run(["swap", "--grid", "3"], tmp_path)
    assert rc == 0
    rows = [(float(a), float(b), float(v)) for a, b, v in
            (ln.split(",") for ln in data_rows(text))]
    assert next(v for a, b, v in rows if a == 0.0 and b == 0.0) == 1.0
    edge = next(v for a, b, v in rows
                if a == 0.0 and b == pytest.approx(math.pi / 2, abs=1e-9))
    assert edge == pytest.approx(0.5, abs=1e-9)


def test_swap_pair_mode_from_jsa_literals(tmp_path):
    cd_literal = {"separable": {
        "signal": {"shape": "gaussian", "center_thz": 193.55, "width_thz": 0.16},
        "idler": {"shape": "gaussian", "center_thz": 193.55, "width_thz": 0.1}},
        "grid": {"n": 160, "span": 6.0}}
    rc, text = run(["swap", "--set", "mode=pair", "--set", "phi=0.5",
                    "--set", f"jsa_cd={json.dumps(cd_literal)}"], tmp_path)
    assert rc == 0
    report = json.loads(text)
    # signal widths 0.08 vs 0.16 THz: sigma ratio 2 -> cos^2 Theta = 4/5
    expected = 0.5 * math.cos(0.5) ** 2 * 1.8
    assert report["fidelity"] == pytest.approx(expected, abs=1e-6)
    for p in report["bsm_outcome_probabilities"].values():
        assert p == pytest.approx(0.125, abs=1e-9)


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def test_shipped_configs_are_found():
    assert len(CONFIGS) >= 4


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_runs(tmp_path, path):
    # each example scenario runs through the command its name starts with
    rc = cli.main([path.name.split("_")[0], "--config", str(path),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out").read_text()


def _separable_literal(signal_thz):
    return {"separable": {
        "signal": {"shape": "gaussian", "center_thz": 193.55, "width_thz": signal_thz},
        "idler": {"shape": "gaussian", "center_thz": 193.55, "width_thz": 0.1}},
        "grid": {"n": 192, "span": 6.0}}


_PUMP_LITERAL = {"pump": {"center": 2432.2, "sigma": 0.5}, "pmf": {"sigma": 0.5},
                 "grid": {"n": 192, "span": 6.0}}


def test_swap_pair_of_separable_literals_is_exact(tmp_path):
    # two separable JSAs give F = (cos^2 Phi / 2)(1 + cos^2 Theta_BC) with
    # Theta_BC from the overlap of the two signal photons, and four 1/8
    # patterns; a sampled grid missed this pair by 9.5e-10
    ab, cd = _separable_literal(0.08), _separable_literal(0.1068258411)
    phi = 0.07993416494
    rc, text = run(["swap", "--set", "mode=pair", "--set", f"phi={phi}",
                    "--set", f"jsa_ab={json.dumps(ab)}",
                    "--set", f"jsa_cd={json.dumps(cd)}"], tmp_path)
    assert rc == 0
    report = json.loads(text)
    cos_bc = spc.overlap(cfgmod.parse_profile(ab["separable"]["signal"], "b"),
                         cfgmod.parse_profile(cd["separable"]["signal"], "c")).magnitude
    expected = 0.5 * math.cos(phi) ** 2 * (1.0 + cos_bc ** 2)
    assert abs(report["fidelity"] - expected) <= 1e-15
    assert report["bsm_outcome_probabilities"] == dict.fromkeys(
        ("M0", "M1", "M2", "M3"), 0.125)


def test_swap_pair_pump_against_separable_in_either_order(tmp_path):
    # the separable Gaussian signal photon against the pump is Gaussian
    # algebra too: 40-digit mpmath gives F = 0.894338202385433314; the
    # trapezoid over the pump's idler holds it whichever source it feeds
    pump = json.dumps(_PUMP_LITERAL)
    fidelities = []
    for key in ("jsa_ab", "jsa_cd"):
        rc, text = run(["swap", "--set", "mode=pair", "--set", f"{key}={pump}"], tmp_path)
        assert rc == 0, key
        fidelities.append(json.loads(text)["fidelity"])
    assert abs(fidelities[1] - 0.894338202385433314) <= 2e-15
    assert abs(fidelities[0] - fidelities[1]) <= 1e-15


def test_swap_pair_against_a_very_wide_pump_prints_one_half(tmp_path):
    # a 1e12 rad/ps pump against the default separable photons: the
    # Gaussian overlap's detuning exponent once cancelled to inf and the run
    # exited 3; 50-digit mpmath of the Gaussian exchange integral gives
    # X = 1.90744094703285e-12, so F = 0.50000000000095368158
    wide = json.dumps({"pump": {"center": 2432.2, "sigma": 1e12}, "pmf": {"sigma": 1e12}})
    rc, text, err = run_strict(["swap", "--set", "mode=pair", "--set", f"jsa_cd={wide}"],
                               tmp_path)
    assert rc == 0, err
    assert abs(json.loads(text)["fidelity"] - 0.50000000000095368158) <= 1.2e-16


def _gaussian_exchange_reference(ab, cd):
    """X = II |I f_AB(w, w_A) f_CD(w, w_D) dw|^2 dw_A dw_D / (N_AB N_CD) for
    two pump literals, as one 4-D Gaussian integral over (w_A, w_D, w, w').

    Each JSA is exp(-z^T A z / 2) in z = (signal, idler) minus the centres
    (pump centre / 2), with A = (1/sigma_p^2) [[1,1],[1,1]] + s s^T /
    sigma_pm^2 and s = (slope_s, slope_i); frequencies are taken relative
    to AB's centre.  The 4 x 4 determinant and solve run in 40-digit
    mpmath, since in float64 an ill-conditioned pump leaves them the less
    exact side.
    """
    with mpmath.workdps(40):
        origin = mpmath.mpf(ab["pump"]["center"]) / 2

        def form(lit):
            q, pm = 1 / mpmath.mpf(lit["pump"]["sigma"]) ** 2, lit["pmf"]
            s = mpmath.matrix([pm.get("slope_s", 1.0), pm.get("slope_i", -0.5)])
            a = q * mpmath.ones(2, 2) + s * s.T / mpmath.mpf(pm["sigma"]) ** 2
            return a, mpmath.matrix([mpmath.mpf(lit["pump"]["center"]) / 2 - origin] * 2)

        (a_ab, m_ab), (a_cd, m_cd) = form(ab), form(cd)
        q, b, c0 = mpmath.zeros(4, 4), mpmath.zeros(4, 1), mpmath.mpf(0)
        # f_AB(w, w_A) f_CD(w, w_D) f_AB(w', w_A) f_CD(w', w_D): (signal, idler) indices
        for idx, a, m in (((2, 0), a_ab, m_ab), ((2, 1), a_cd, m_cd),
                          ((3, 0), a_ab, m_ab), ((3, 1), a_cd, m_cd)):
            am = a * m
            for u, i in enumerate(idx):
                b[i] += am[u]
                for v, j in enumerate(idx):
                    q[i, j] += a[u, v]
            c0 -= (m.T * am)[0] / 2
        integral = (2 * mpmath.pi) ** 2 / mpmath.sqrt(mpmath.det(q)) * mpmath.exp(
            (b.T * mpmath.lu_solve(q, b))[0] / 2 + c0)
        norm_ab, norm_cd = (mpmath.pi / mpmath.sqrt(mpmath.det(a)) for a in (a_ab, a_cd))
        return float(integral / (norm_ab * norm_cd))


def test_gaussian_exchange_reference_is_the_schmidt_purity():
    # identical sources: X is the purity sqrt(1 - c^2 / (a b)) of the JSA
    a, b, c = 1 / 0.25 + 1 / 0.25, 1 / 0.25 + 0.25 / 0.25, 1 / 0.25 - 0.5 / 0.25
    x = _gaussian_exchange_reference(_PUMP_LITERAL, _PUMP_LITERAL)
    assert x == pytest.approx(math.sqrt(1.0 - c * c / (a * b)), abs=1e-14)


@pytest.mark.parametrize("phi", [0.0, 0.7])
@pytest.mark.parametrize("other", [
    {"pump": {"center": 2432.2, "sigma": 0.8}},
    {"pump": {"center": 2432.22, "sigma": 0.5}},
    {"pump": {"center": 2432.2, "sigma": 0.3},
     "pmf": {"sigma": 0.7, "slope_s": 1.0, "slope_i": -1.0}},
    # ill-conditioned: a float64 determinant and solve miss this X by 1.9e-14
    {"pump": {"center": 2432.2, "sigma": 0.05},
     "pmf": {"sigma": 5.0, "slope_s": 1.0, "slope_i": 0.0}},
], ids=["pump_widths", "offset_centres", "pmf_and_slopes", "ill_conditioned"])
def test_swap_pair_of_pump_literals_matches_gaussian_reference(tmp_path, other, phi):
    # jsa_cd's pump is sampled on jsa_ab's beam-splitter axis, so two pumps
    # whose own axes differ still meet at the same frequencies
    cd = dict(_PUMP_LITERAL, **other)
    rc, text = run(["swap", "--set", "mode=pair", "--set", f"phi={phi}",
                    "--set", f"jsa_ab={json.dumps(_PUMP_LITERAL)}",
                    "--set", f"jsa_cd={json.dumps(cd)}"], tmp_path)
    assert rc == 0
    report = json.loads(text)
    x = _gaussian_exchange_reference(_PUMP_LITERAL, cd)
    assert abs(report["fidelity"] - 0.5 * math.cos(phi) ** 2 * (1.0 + x)) <= 1e-15
    for p in report["bsm_outcome_probabilities"].values():
        assert p == 0.125


def test_swap_pair_narrow_pump_against_pump_matches_gaussian_reference(tmp_path):
    # a 0.05 rad/ps CD pump against AB's 0.5 rad/ps one: a shared sampled
    # axis could not resolve both (the grid exited 3 here); the closed form
    # needs none, and the literals' grids are validated but not used
    cd = {"pump": {"center": 2432.2, "sigma": 0.05}, "pmf": {"sigma": 0.5},
          "grid": {"n": 384, "span": 6.0}}
    rc, text = run(["swap", "--set", "mode=pair",
                    "--set", f"jsa_ab={json.dumps(_PUMP_LITERAL)}",
                    "--set", f"jsa_cd={json.dumps(cd)}"], tmp_path)
    assert rc == 0
    x = _gaussian_exchange_reference(_PUMP_LITERAL, cd)
    assert abs(json.loads(text)["fidelity"] - 0.5 * (1.0 + x)) <= 1e-15


def _precision(lit):
    """(A_ss, A_si, A_ii, det A) of a pump literal's JSA exp(-z^T A z / 2)."""
    q, pm = 1.0 / lit["pump"]["sigma"] ** 2, lit["pmf"]
    t, s, i = 1.0 / pm["sigma"] ** 2, pm["slope_s"], pm["slope_i"]
    return q + t * s * s, q + t * s * i, q + t * i * i, q * t * (s - i) ** 2


def _envelope(photon, x):
    """A separable photon's real amplitude (no delay) at x = w - w_0, from
    its textbook formula."""
    w, shape = photon.width, photon.shape
    if shape is spc.Shape.SINC:
        return math.sqrt(w / (2 * math.pi)) * (math.sin(0.5 * w * x) / (0.5 * w * x) if x else 1.0)
    if shape is spc.Shape.LORENTZIAN:
        return math.sqrt(w ** 3 / (4 * math.pi)) / (x * x + 0.25 * w * w)
    if shape is spc.Shape.SECH:  # sech u = 2 e^-|u| / (1 + e^-2|u|), without overflow
        decay = math.exp(-abs(x / w))
        return math.sqrt(0.5 / w) * 2.0 * decay / (1.0 + decay * decay)
    return (w * math.sqrt(2 * math.pi)) ** -0.5 * math.exp(-x * x / (4 * w * w))


def _separable_exchange_reference(photon, lit):
    """X = I |I phi(w) f(w, w_o) dw|^2 dw_o for a separable signal photon phi
    against a pump literal's normalized JSA f, signal first, by nested
    adaptive quadrature (scipy) of f itself, split where the photon sits."""
    from scipy.integrate import quad
    a_ss, a_si, a_ii, det = _precision(lit)
    norm, offset = (det / math.pi ** 2) ** 0.25, photon.center - 0.5 * lit["pump"]["center"]

    def integral(f, lo, hi, at):
        return quad(f, lo, hi, points=[at] if lo < at < hi else None,
                    epsabs=1e-15, epsrel=1e-12, limit=200)[0]

    def inner(y):  # f(., y) is a Gaussian of width 1 / sqrt(A_ss) about -A_si y / A_ss
        c, half = -a_si / a_ss * y, 9.0 / math.sqrt(a_ss)
        return integral(lambda x: _envelope(photon, x - offset) * norm * math.exp(
            -0.5 * (a_ss * x * x + 2.0 * a_si * x * y + a_ii * y * y)), c - half, c + half, offset)

    # the outer photon's marginal is e^{-det y^2 / A_ss}; the inner overlap
    # peaks where f(., y) is centred on the photon
    half = 9.0 / math.sqrt(det / a_ss)
    return integral(lambda y: inner(y) ** 2, -half, half,
                    -offset * a_ss / a_si if a_si else 0.0)


@st.composite
def _pump_literal(draw):
    """A pump literal with unequal slopes, its centre a few of its signal
    photon's widths off, and a grid too coarse to sample it (grids are
    validated but not used)."""
    slope_s, slope_i = draw(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                                     min_size=2, max_size=2, unique=True))
    lit = {"pump": {"center": 2432.2, "sigma": draw(st.floats(0.05, 5.0))},
           "pmf": {"sigma": draw(st.floats(0.05, 5.0)), "slope_s": slope_s, "slope_i": slope_i},
           "grid": {"n": 16, "span": 1.0}}
    a_ss, _, a_ii, det = _precision(lit)
    lit["pump"]["center"] += 2.0 * draw(st.floats(-3.0, 3.0)) * math.sqrt(a_ii / det)
    return lit


@pytest.mark.parametrize("shape, examples", [
    ("pump", 16), ("sinc", 3), ("lorentzian", 3), ("sech", 3), ("gaussian", 3)])
def test_swap_pair_property_matches_exact_references(tmp_path, shape, examples):
    # pump against pump: the determinant reference to 1e-13; a separable
    # sinc, Lorentzian, sech or Gaussian signal against a pump, in either
    # order: nested quadrature of the JSA itself to 1e-12
    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        pump = data.draw(_pump_literal())
        if shape == "pump":
            other = data.draw(_pump_literal())
            x, tolerance = _gaussian_exchange_reference(other, pump), 1e-13
        else:
            a_ss, _, a_ii, det = _precision(pump)
            # a photon 0.3-3 times as wide as the pump's conditional signal,
            # up to two marginal widths off its centre
            width = data.draw(st.floats(0.3, 3.0)) / math.sqrt(2.0 * a_ss)
            center = 0.5 * pump["pump"]["center"] + data.draw(
                st.floats(-2.0, 2.0)) * math.sqrt(a_ii / det)
            signal = {"shape": shape, "center_thz": center / (2 * math.pi),
                      "width_thz": 2 * math.pi / width if shape == "sinc" else width / (2 * math.pi)}
            other = {"separable": {"signal": signal, "idler": {
                "shape": "gaussian", "center_thz": 193.55, "width_thz": 0.1}}}
            x = _separable_exchange_reference(cfgmod.parse_profile(signal, "signal"), pump)
            tolerance = 1e-12
        phi = data.draw(st.floats(0.0, 0.5 * math.pi))
        ab, cd = (other, pump) if data.draw(st.booleans()) else (pump, other)
        rc, text = run(["swap", "--set", "mode=pair", "--set", f"phi={phi!r}",
                        "--set", f"jsa_ab={json.dumps(ab)}", "--set", f"jsa_cd={json.dumps(cd)}"],
                       tmp_path)
        assert rc == 0, (ab, cd)
        assert abs(json.loads(text)["fidelity"] - 0.5 * math.cos(phi) ** 2 * (1.0 + x)) <= tolerance

    check()


def test_pump_sweep_with_equal_slopes_exits_2_naming_them(tmp_path, capsys):
    # slope_s == slope_i leaves det A = 0: the JSA depends on w_s + w_i
    # alone and has no norm, which is a config error, not a coarse grid
    rc = cli.main(["swap", "--set", "mode=pump_sweep", "--set", "slope_i=1.0",
                   "--grid", "3", "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "slope_i" in err and "grid" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("key", ["jsa_ab", "jsa_cd"])
def test_swap_pair_pump_with_equal_slopes_exits_2_naming_it(tmp_path, capsys, key):
    singular = dict(_PUMP_LITERAL, pmf={"sigma": 0.5, "slope_s": 1.0, "slope_i": 1.0})
    rc = cli.main(["swap", "--set", "mode=pair",
                   "--set", f"jsa_ab={json.dumps(_PUMP_LITERAL)}",
                   "--set", f"jsa_cd={json.dumps(_PUMP_LITERAL)}",
                   "--set", f"{key}={json.dumps(singular)}",
                   "--out", str(tmp_path / "x.json")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"{key}.pmf" in err and "grid" not in err
    assert not (tmp_path / "x.json").exists()


def _pump(sigma=0.5, pmf=0.5, slope_s=1.0, slope_i=-0.5):
    return json.dumps({"pump": {"center": 2432.2, "sigma": sigma},
                       "pmf": {"sigma": pmf, "slope_s": slope_s, "slope_i": slope_i}})


@pytest.mark.parametrize("args, key", [
    (["--set", "mode=pump_sweep", "--set", 'pump_sigma={"min":1e-300,"max":1,"steps":3}'],
     "pump_sigma"),
    (["--set", "mode=pump_sweep", "--set", 'pump_sigma={"min":1e-300,"max":1e300,"steps":3}'],
     "pump_sigma"),
    (["--set", "mode=pump_sweep", "--set", 'pump_sigma={"min":1,"max":1e300,"steps":3}'],
     "pump_sigma"),
    (["--set", "mode=pump_sweep", "--set", "pmf_sigma=1e-300"], "pmf_sigma"),
    (["--set", "mode=pump_sweep", "--set", "pmf_sigma=1e300"], "pmf_sigma"),
    (["--set", "mode=pump_sweep", "--set", "slope_s=1e300"], "slope_s"),
    (["--set", "mode=pair", "--set", f"jsa_ab={_pump(sigma=1e-300)}"], "jsa_ab.pump"),
    (["--set", "mode=pair", "--set", f"jsa_cd={_pump(sigma=1e300)}"], "jsa_cd.pump"),
    (["--set", "mode=pair", "--set", f"jsa_ab={_pump(pmf=1e-300)}"], "jsa_ab.pmf"),
    (["--set", "mode=pair", "--set", f"jsa_cd={_pump(pmf=1e300)}"], "jsa_cd.pmf"),
    (["--set", "mode=pair", "--set", f"jsa_ab={_pump(slope_s=1e200, slope_i=-1e200)}"],
     "jsa_ab.pmf"),
], ids=["pump_min_tiny", "pump_span_all", "pump_max_huge", "pmf_tiny", "pmf_huge",
        "slope_huge", "pair_pump_tiny", "pair_pump_huge", "pair_pmf_tiny", "pair_pmf_huge",
        "pair_slopes_huge"])
def test_gaussian_widths_leaving_the_float_range_exit_2_naming_the_key(args, key, tmp_path):
    # 1 / sigma^2 or det A = q t (slope_s - slope_i)^2 out of the float
    # range: numpy warned and printed nan, or Python raised an unnamed error
    rc, text, err = run_strict(["swap"] + args + ["--grid", "3"], tmp_path)
    assert rc == 2, err
    assert err.startswith(f"config error: config field '{key}': "), err
    assert "Warning" not in err and not text


@pytest.mark.parametrize("item, key", [
    ("bandwidth.sigma_c=1e-300", "bandwidth.sigma_c"),
    ("bandwidth.sigma_c=1e300", "bandwidth.sigma_c"),
    ("bandwidth.factor=1e300", "bandwidth.factor"),
    ('bandwidth={"sigma_c":1e-100,"factor":1e100,"steps":3,"detunings":[0]}',
     "bandwidth.factor"),
    ("bandwidth.detunings=[1e300]", "bandwidth.detunings[0]"),
    ("bandwidth.detunings=[0,-1e200]", "bandwidth.detunings[1]"),
], ids=["sigma_c_tiny", "sigma_c_huge", "factor_huge", "factor_to_tiny",
        "detuning_huge", "detuning_second"])
def test_bandwidth_sweep_widths_leaving_the_float_range_exit_2_naming_the_key(item, key,
                                                                              tmp_path):
    # the Gaussian overlap squares each width and detuning: out of range it
    # printed nan, warned, or exited 3 with an unnamed "Numerical result
    # out of range"
    rc, text, err = run_strict(["swap", "--set", "mode=bandwidth_sweep", "--set", item,
                                "--grid", "2"], tmp_path)
    assert rc == 2, err
    assert err.startswith(f"config error: config field '{key}': "), err
    assert "Warning" not in err and not text


def test_bandwidth_sweep_far_detuned_narrow_photons_print_one_half(tmp_path):
    # a detuning 1e200 times the widths drives the overlap's exponent past
    # the float range: the overlap is 0 and the aligned fidelity 1/2
    rc, text, err = run_strict(
        ["swap", "--set", "mode=bandwidth_sweep", "--set", "bandwidth.sigma_c=1e-100",
         "--set", "bandwidth.detunings=[1e100]", "--grid", "2"], tmp_path)
    assert rc == 0, err
    assert [float(ln.split(",")[2]) for ln in data_rows(text)] == [0.5, 0.5]


# one draw in two a width of the usual size, the other out to the float range
_WIDTH = st.one_of(st.floats(0.05, 5.0), st.floats(0.05, 5.0), st.floats(1e-300, 1e300),
                   st.sampled_from([1e-300, 1e-160, 1e160, 1e300]))
_SLOPE = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]), st.floats(-3.0, 3.0),
                   st.floats(-1e300, 1e300), st.sampled_from([1e200, -1e200, 1e300]))
_IGNORED_GRID = st.fixed_dictionaries({}, optional={"n": st.integers(16, 1024),
                                                    "span": st.floats(0.1, 20.0)})


@st.composite
def _jsa_literal(draw):
    """A separable literal of any two shapes, or a pump literal whose widths
    and slopes reach the float range, equal slopes included."""
    if draw(st.booleans()):
        photon = st.fixed_dictionaries({
            "shape": st.sampled_from([s.value for s in spc.Shape]),
            "center_thz": st.floats(193.0, 194.0), "width_thz": st.floats(1e-3, 1.0)})
        lit = {"separable": {"signal": draw(photon), "idler": draw(photon)}}
    else:
        slope_s = draw(_SLOPE)
        slope_i = slope_s if draw(st.integers(0, 4)) == 0 else draw(_SLOPE)
        lit = {"pump": {"center": draw(st.floats(2400.0, 2460.0)), "sigma": draw(_WIDTH)},
               "pmf": {"sigma": draw(_WIDTH), "slope_s": slope_s, "slope_i": slope_i}}
    if draw(st.booleans()):
        lit["grid"] = draw(_IGNORED_GRID)
    return lit


def test_swap_property_ends_in_values_or_a_named_exit(tmp_path):
    # every swap mode over its documented keys, widths out to 1e-300 and
    # 1e300: the run prints fidelities in [0, 1], or exits 2 naming a key,
    # or exits 3 naming a numerical cause; never a traceback, a warning or nan
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        widths = sorted(data.draw(st.lists(_WIDTH, min_size=2, max_size=2)))
        sets = {
            "mode": data.draw(st.sampled_from(
                ["pair", "pump_sweep", "bandwidth_sweep", "pair", "pump_sweep", "angle_grid"])),
            "phi": data.draw(st.floats(-7.0, 7.0)),
            "jsa_ab": data.draw(_jsa_literal()), "jsa_cd": data.draw(_jsa_literal()),
            "pump_sigma": {"min": widths[0], "max": widths[1],
                           "steps": data.draw(st.integers(2, 4))},
            "pmf_sigma": data.draw(_WIDTH),
            "slope_s": data.draw(_SLOPE), "slope_i": data.draw(_SLOPE),
            "phi_steps": data.draw(st.integers(2, 4)),
            "jsa_grid": data.draw(_IGNORED_GRID),
            "bandwidth": {"sigma_c": data.draw(_WIDTH), "factor": data.draw(_WIDTH),
                          "steps": data.draw(st.integers(2, 4)),
                          "detunings": data.draw(st.lists(st.one_of(
                              st.floats(-1e300, 1e300), st.floats(-3.0, 3.0)),
                              min_size=1, max_size=3))},
        }
        args = ["swap", "--grid", str(data.draw(st.integers(2, 4)))]
        for key, value in sets.items():
            args += ["--set", f"{key}={json.dumps(value)}"]
        rc, text, err = run_strict(args, tmp_path)
        assert "Traceback" not in err and "Warning" not in err, err
        if rc == 0:
            assert not re.search(r"\bnan\b", text, re.IGNORECASE), text
            values = [v for k, v in _bounded_values(text) if k == "fidelity"]
            assert values and all(0.0 <= v <= 1.0 for v in values), text
        elif rc == 2:
            assert err.startswith("config error: config field '"), err
        else:
            assert rc == 3, err
            assert re.match(r"numerical failure: [a-z]+.{20,}", err), err

    check()


def test_number_dist_object_and_dotted_key_print_the_same_body(tmp_path):
    # number_dist={"n": 2} replaces the whole default object, number_dist.n=2
    # only its n: either way the gammas left out are the documented four
    bodies = []
    for item in ['number_dist={"n":2}', "number_dist.n=2"]:
        rc, text = run(["channels", "--set", "mode=number_dist", "--set", item], tmp_path)
        assert rc == 0
        bodies.append(data_rows(text))
    assert bodies[0] == bodies[1]
    assert sorted({float(ln.split(",")[0]) for ln in bodies[0]}) == [0.0, 0.2, 0.5, 0.8]


def test_channels_fixed_literal_composes_with_sweep(tmp_path):
    # a fully depolarized arm A pins every damping-sweep point to V = 1/2
    rc, text = run(["channels", "--grid", "3",
                    "--set", 'channel_a={"p_depol":0.75}'], tmp_path)
    assert rc == 0
    for ln in data_rows(text):
        assert float(ln.split(",")[2]) == pytest.approx(0.5, abs=1e-12)


def test_channels_bad_literal_exits_2(tmp_path):
    rc = cli.main(["channels", "--set", 'channel_a={"gamma":2.0}',
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_protocols_report(tmp_path):
    rc, text = run(["protocols"], tmp_path)
    assert rc == 0
    report = json.loads(text)
    assert report["fusion_fidelity"] == 1.0
    assert report["key_rate"] == pytest.approx(0.0694, abs=1e-4)
    assert report["mdi"]["outcome_table"]["DA"]["M23"] == pytest.approx(0.25,
                                                                        abs=1e-12)
    assert report["error_budget"]["useless_regime"] is False


@pytest.mark.parametrize("args", [
    ["channels", "--set", "mode=number_dist", "--set", "number_dist.n=2000"],
    ["channels", "--grid", "2", "--set", "m=1100", "--set", "n=1"],
])
def test_channels_past_1029_photons_prints_values(args, tmp_path):
    # from n = 1,030 on the binomial C(n, k) passes the float range, which
    # made both runs exit 3 with "int too large to convert to float"
    rc, text, err = run_strict(args, tmp_path)
    assert rc == 0, err
    rows = data_rows(text)
    assert rows
    for row in rows:
        assert 0.0 <= float(row.split(",")[-1]) <= 1.0, row


def test_protocols_with_mismatch(tmp_path):
    rc, text = run(["protocols", "--set", 'mdi={"phi":0.3,"theta":0.5}'], tmp_path)
    assert rc == 0
    report = json.loads(text)
    expected = 0.125 * math.cos(0.3) ** 2 * (1 + math.cos(0.5) ** 2)
    assert report["mdi"]["conclusive_probability"] == pytest.approx(expected)
    assert report["mdi"]["outcome_table"]["DA"]["M23"] == pytest.approx(expected)
    assert report["error_budget"]["contributions"]["e_spectral"] == pytest.approx(
        0.5 * math.sin(0.5) ** 2)


_ANGLE = st.one_of(st.floats(0.0, 0.5 * math.pi), st.floats(-7.0, 7.0),
                   st.sampled_from([0.0, 0.5 * math.pi, -5e-324, math.nextafter(0.5 * math.pi, 2)]))
_BUDGET_TERM = st.one_of(st.floats(0.0, 1.0), st.floats(-1.0, 1.0), st.just(0.0))
_RATE_TERM = st.one_of(st.floats(0.0, 1.0), st.floats(-1.0, 2.0), st.sampled_from([0.0, 1.0]))
_F_E = st.one_of(st.floats(1.0, 3.0), st.floats(0.0, 3.0), st.just(1.0), st.just(1e300))


def test_protocols_property_ends_in_a_report_or_a_named_exit(tmp_path):
    # every documented protocols key, in and out of range: the run prints a
    # report of finite numbers whose probabilities lie in [0, 1], or exits 2
    # naming a key; never a traceback, a warning or nan
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        sets = {
            "mdi": {"phi": data.draw(_ANGLE), "theta": data.draw(_ANGLE)},
            "error_budget": {key: data.draw(_BUDGET_TERM) for key in
                             ("e_background", "e_asymmetry", "e_polarization", "e_temporal")},
            "key_rate": {key: data.draw(_RATE_TERM)
                         for key in ("p_z11", "y_z11", "e_z11", "q_z", "e_z")},
            "noon": {"n": data.draw(st.one_of(st.integers(0, 70), st.floats(0.0, 70.0))),
                     "theta": data.draw(_ANGLE), "phase": data.draw(st.floats(-7.0, 7.0))},
            "classifier": {"theta": data.draw(_ANGLE), "theta_perp": data.draw(_ANGLE)},
            "fusion": {"theta": data.draw(_ANGLE)},
        }
        sets["key_rate"]["f_e"] = data.draw(_F_E)
        args = ["protocols"]
        for key, value in sets.items():
            args += ["--set", f"{key}={json.dumps(value)}"]
        rc, text, err = run_strict(args, tmp_path)
        assert "Traceback" not in err and "Warning" not in err, err
        if rc == 0:
            assert not re.search(r"NaN|Infinity", text), text
            report = json.loads(text)
            probabilities = [p for row in report["mdi"]["outcome_table"].values()
                             for p in row.values()]
            probabilities += [report["mdi"]["conclusive_probability"],
                              report["classifier"]["p0"], report["classifier"]["floor"],
                              report["fusion_fidelity"]]
            assert all(0.0 <= p <= 1.0 for p in probabilities), text
        else:
            assert rc == 2, err
            assert err.startswith("config error: config field '"), err

    check()


# ---------------------------------------------------------------------------
# one closed-form call per sweep row; large photon numbers
# ---------------------------------------------------------------------------

def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_contour_makes_one_visibility_call(tmp_path, monkeypatch):
    calls = _counting(monkeypatch, fock, "visibility_from_c")
    rc, text = run(["contour", "--grid", "21", "--set", "m=2", "--set", "phi=0.3"], tmp_path)
    assert rc == 0 and len(data_rows(text)) == 21 * 21
    assert len(calls) == 1
    assert np.shape(calls[0][2]) == (21 * 21,)


@pytest.mark.parametrize("shape_a, shape_b", [("gaussian", "sech"), ("sech", "gaussian")])
def test_zero_delay_contour_takes_half_the_faddeeva_points(shape_a, shape_b, tmp_path,
                                                           monkeypatch):
    # 25 photons B of 24 sech terms each: one argument per term pair at zero
    # delay, where the general form stacks two (1,200 points in one call)
    calls = _counting(monkeypatch, spc, "_faddeeva")
    rc, text = run(["contour", "--grid", "5", "--set", f"shape_a={shape_a}",
                    "--set", f"shape_b={shape_b}"], tmp_path)
    assert rc == 0 and len(data_rows(text)) == 5 * 5
    assert [np.size(args[0]) for args in calls] == [600]


def test_dip_makes_one_coincidence_call_per_photon_pair(tmp_path, monkeypatch):
    # each photon pair's 3 Phi blocks are one (Phi, tau) array of c
    calls = _counting(monkeypatch, fock, "coincidence_raw")
    rc, text = run(["dip", "--grid", "31"], tmp_path)
    assert rc == 0 and len(data_rows(text)) == 9 * 31
    assert [args[:2] for args in calls] == [(1, 1), (2, 2), (3, 3)]
    assert all(np.shape(args[2]) == (3, 31) for args in calls)


def test_lossy_dip_names_its_first_failing_point(tmp_path, capsys):
    det = '{"eta_h":0.95,"eta_v":0.95}'
    rc = cli.main(["dip", "--set", f"detector_a={det}", "--set", f"detector_b={det}",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert capsys.readouterr().err == (
        "numerical failure: coincidence -0.00249375 outside [0,1] for m=1, n=1, c=1; "
        "parameter set lies outside the detection model's validity\n")


@pytest.mark.parametrize("args", [
    ["dip", "--grid", "3", "--set", "photons=[[600,600]]"],
    ["dip", "--grid", "3", "--set", "photons=[[520,520]]"],
    ["contour", "--grid", "3", "--set", "m=600", "--set", "n=600"],
    ["tables", "--set", "photons=[[600,600]]"],
    ["channels", "--grid", "2", "--set", "mode=depolarizing", "--set", "m=600",
     "--set", "n=600"],
], ids=["dip600", "dip520", "contour", "tables", "channels"])
def test_large_photon_numbers_print_values(args, tmp_path):
    rc, text = run(args, tmp_path)
    assert rc == 0
    assert not re.search(r"\bnan\b", text)
    if args[0] == "dip":
        # the first block's dip at tau = 0 is 1 - 2 C(2m, m) / 4^m (mpmath)
        expected = {"600": 0.953943709462795, "520": 0.950529193582379}[args[-1][10:13]]
        at_zero = next(ln for ln in data_rows(text) if ln.startswith("0,"))
        assert float(at_zero[2:]) == pytest.approx(expected, abs=1e-11)


def test_coherent_curve_past_half_pi_exits_0(tmp_path):
    # I0 is even: Phi = 2 is Phi = pi - 2 as far as the visibility goes
    rc, text = run(["coherent", "--set", "mode=curve", "--set", "phi=2"], tmp_path)
    assert rc == 0
    assert all(0.0 <= float(ln.split(",")[1]) <= 0.5 for ln in data_rows(text))
