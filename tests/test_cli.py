import json
import math

import numpy as np
import pytest

from homsim import cli
from homsim import config as cfgmod
from homsim import fock
from homsim import polarization as pol
from homsim import spectral as spc


def run(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    rc = cli.main(args + ["--out", str(out)])
    return rc, (out.read_text() if out.exists() else "")


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


def test_byte_identical_across_processes(tmp_path):
    import subprocess
    import sys
    args = [sys.executable, "-m", "homsim.cli", "contour", "--grid", "7",
            "--set", "shape_b=lorentzian"]
    outs = [subprocess.run(args, capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]
    assert "visibility" in outs[0]


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
    # under-resolved JSA grid trips the resolution guard -> exit 3
    rc = cli.main(["swap", "--set", "mode=pump_sweep",
                   "--set", 'jsa_grid={"n":16,"span":8.0}',
                   "--set", 'pump_sigma={"min":0.01,"max":0.02,"steps":2}',
                   "--set", "phi_steps=2",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


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
    # shared by all nine, so each delay reaches spectral.overlap once
    delays = []
    real_overlap = spc.overlap

    def counting_overlap(a, b, *args, **kwargs):
        delays.append(b.delay)
        return real_overlap(a, b, *args, **kwargs)

    monkeypatch.setattr(spc, "overlap", counting_overlap)
    rc, text = run(["dip"], tmp_path)
    assert rc == 0
    assert text.count("# block m=") == 9
    taus = np.linspace(-6.0, 6.0, 241)
    assert delays == list(taus)


def test_dip_blocks_match_per_block_reference(tmp_path):
    # reference: every block scans its own overlaps via fock.dip_curve
    profile_a = {"shape": "sech", "center_thz": 193.55, "width_thz": 0.4}
    profile_b = {"shape": "sinc", "center_thz": 193.75, "width_thz": 2.5}
    det_a = {"eta_h": 0.9, "eta_v": 0.8}
    det_b = {"eta_h": 0.85, "eta_v": 0.95}
    rc, text = run(["dip", "--set", f"profile_a={json.dumps(profile_a)}",
                    "--set", f"profile_b={json.dumps(profile_b)}",
                    "--set", f"detector_a={json.dumps(det_a)}",
                    "--set", f"detector_b={json.dumps(det_b)}",
                    "--set", 'tau={"min":-4,"max":4,"steps":17}'], tmp_path)
    assert rc == 0
    app = fock.Apparatus(fock.BeamSplitter.balanced(),
                         pol.Detector(0.9, 0.8), pol.Detector(0.85, 0.95))
    a = cfgmod.parse_profile(profile_a, "profile_a")
    b = cfgmod.parse_profile(profile_b, "profile_b")
    taus = np.linspace(-4.0, 4.0, 17)
    expected = []
    for m, n in [(1, 1), (2, 2), (3, 3)]:
        for phi in [0.0, 0.25 * math.pi, 0.5 * math.pi]:
            pair = fock.FockPair(m, n, pol.H, pol.rotate(pol.H, phi), a, b)
            expected += [f"{cli._fmt(t)},{cli._fmt(p)}"
                         for t, p in fock.dip_curve(pair, taus, app)]
    assert data_rows(text) == expected


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


def test_coherent_curve_high_mu_exits_3(tmp_path, capsys):
    # math.exp overflows in bessel_i0 past x ~ 710: a clean numerical
    # failure naming mu, not a traceback
    rc = cli.main(["coherent", "--set", "mode=curve",
                   "--set", 'mu_curve={"min":1,"max":2000,"steps":3}',
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "mu=1000.5" in err
    assert "Traceback" not in err


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


def test_protocols_with_mismatch(tmp_path):
    rc, text = run(["protocols", "--set", 'mdi={"phi":0.3,"theta":0.5}'], tmp_path)
    assert rc == 0
    report = json.loads(text)
    expected = 0.125 * math.cos(0.3) ** 2 * (1 + math.cos(0.5) ** 2)
    assert report["mdi"]["conclusive_probability"] == pytest.approx(expected)
    assert report["mdi"]["outcome_table"]["DA"]["M23"] == pytest.approx(expected)
    assert report["error_budget"]["contributions"]["e_spectral"] == pytest.approx(
        0.5 * math.sin(0.5) ** 2)
