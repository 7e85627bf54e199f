"""Deterministic command-line front end: scenario configs in, CSV/JSON out.

Subcommands cover the library's sweep surfaces:

    dip        coincidence vs arrival delay, one block per (m, n, Phi)
    contour    visibility over photon B's (center, FWHM) grid
    tables     max visibility | FWHM ratio for every shape pairing
    coherent   coherent-source contours, ratio maps and visibility curves
    channels   amplitude-damping / depolarizing / broadening contours
    swap       entanglement-swap fidelity sweeps
    protocols  scalar application metrics as a JSON report

Common flags: --config <path> (JSON scenario, merged over built-in
defaults), --set key=value (dotted-path override), --grid N (grid side
override), --out <path> (default stdout).  Exit codes: 0 ok, 2 config
error, 3 numerical failure.  Identical inputs produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Callable, Sequence

import numpy as np

from . import channels as chn
from . import coherent as coh
from . import config as cfgmod
from . import fock
from . import jsa
from . import polarization as pol
from . import protocols as proto
from . import spectral as spc
from . import sweeps
from .config import ConfigError
from .fock import InvalidRegimeError
from .quadrature import IntegrationError

_NUMERIC_ERRORS = (IntegrationError, InvalidRegimeError,
                   jsa.GridResolutionError, ZeroDivisionError,
                   FloatingPointError, OverflowError)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _header_lines(command: str, cfg: dict) -> list[str]:
    return [f"# homsim {command}",
            f"# config {json.dumps(cfg, sort_keys=True, separators=(',', ':'))}"]


def _emit(out_path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_config(defaults: dict, args: argparse.Namespace) -> dict:
    cfg = dict(defaults)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError("config file must contain a JSON object")
        cfg = cfgmod.merge(cfg, user)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        cfgmod.set_path(cfg, key.strip(), raw.strip())
    if args.grid is not None:
        if args.grid < 2:
            raise ConfigError("--grid must be at least 2")
        cfg["grid_override"] = args.grid
    return cfg


def _grid_n(cfg: dict) -> int:
    return int(cfg.get("grid_override", cfg["grid_n"]))


def _linspace(obj: dict, field: str, n_override: int | None = None) -> np.ndarray:
    lo = obj.get("min")
    hi = obj.get("max")
    steps = n_override or obj.get("steps")
    if lo is None or hi is None or steps is None:
        raise ConfigError(f"config field '{field}': needs min, max, steps")
    if int(steps) < 2 or hi <= lo:
        raise ConfigError(f"config field '{field}': needs max > min and steps >= 2")
    return np.linspace(float(lo), float(hi), int(steps))


# ---------------------------------------------------------------------------
# dip
# ---------------------------------------------------------------------------

_DIP_DEFAULTS = {
    "profile_a": {"shape": "gaussian", "center_thz": 193.55, "width_thz": 0.5},
    "pol_a": "H",
    "phi": [0.0, 0.25 * math.pi, 0.5 * math.pi],
    "photons": [[1, 1], [2, 2], [3, 3]],
    "tau": {"min": -6.0, "max": 6.0, "steps": 241},
}


def cmd_dip(cfg: dict, out: str | None) -> None:
    prof_a = cfgmod.parse_profile(cfg["profile_a"], "profile_a")
    prof_b = cfgmod.parse_profile(cfg.get("profile_b", cfg["profile_a"]), "profile_b")
    pol_a = cfgmod.parse_polarization(cfg.get("pol_a", "H"), "pol_a")
    app = cfgmod.parse_apparatus(cfg)
    taus = _linspace(cfg["tau"], "tau", cfg.get("grid_override"))
    lines = _header_lines("dip", cfg)
    lines.append("# block columns: tau_ps, p_co")
    blocks = [(phi, fock.FockPair(m, n, pol_a, pol.rotate(pol_a, float(phi)),
                                  prof_a, prof_b))
              for m, n in cfgmod.parse_photons(cfg) for phi in cfg["phi"]]
    # cos(Theta(tau)) depends only on the spectra: one scan serves every block
    cos_theta = spc.overlap_curve(prof_a, prof_b, taus) if blocks else None
    for phi, pair in blocks:
        lines.append(f"# block m={pair.m} n={pair.n} phi={_fmt(phi)}")
        lines.append("tau_ps,p_co")
        for tau, p in fock.dip_curve(pair, taus, app, cos_theta):
            lines.append(f"{_fmt(tau)},{_fmt(p)}")
    _emit(out, lines)


# ---------------------------------------------------------------------------
# contour
# ---------------------------------------------------------------------------

_CONTOUR_DEFAULTS = {
    "m": 1, "n": 1,
    "shape_a": "gaussian", "shape_b": "gaussian",
    "center_thz": 193.55, "fwhm_nm": 1.0,
    "phi": 0.0,
    "grid_n": 61, "width_factor": 8.0, "center_span_fwhm": 4.0,
}


def _contour_axes(cfg: dict, prof_a: spc.SpectralProfile) -> tuple[np.ndarray, np.ndarray]:
    n = _grid_n(cfg)
    fw = spc.fwhm(prof_a)
    centers = np.linspace(prof_a.center - float(cfg["center_span_fwhm"]) * fw,
                          prof_a.center + float(cfg["center_span_fwhm"]) * fw, n)
    fwhms = sweeps.log_grid(fw, float(cfg["width_factor"]), n)
    return centers, fwhms


def _emit_grid(command: str, cfg: dict, out: str | None, xs, ys, grid,
               labels=("x", "y", "visibility")) -> None:
    lines = _header_lines(command, cfg)
    lines.append(f"# x: {labels[0]}; y: {labels[1]}; value: {labels[2]}")
    lines.append(",".join(labels))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(grid[i][j])}")
    _emit(out, lines)


def _emit_contour(command: str, cfg: dict, out: str | None,
                  prof_a: spc.SpectralProfile,
                  visibility_at: Callable[[float], float],
                  pol_b: pol.PolarizationVector) -> None:
    """Photon B's (center, FWHM) contour, shared by `contour` and
    `coherent --set mode=contour`; ``visibility_at`` maps the mode overlap c
    to the visibility of the command's input."""
    shape_b = cfgmod.parse_shape(cfg["shape_b"], "shape_b")
    centers, fwhms = _contour_axes(cfg, prof_a)
    grid = sweeps.contour_grid(visibility_at, prof_a, shape_b, centers, fwhms, pol_b)
    _emit_grid(command, cfg, out, centers, fwhms, grid,
               ("center_b_rad_ps", "fwhm_b_rad_ps", "visibility"))


def cmd_contour(cfg: dict, out: str | None) -> None:
    center, fw = cfgmod.parse_center_fwhm(cfg)
    prof_a = spc.SpectralProfile.from_fwhm(
        cfgmod.parse_shape(cfg["shape_a"], "shape_a"), center, fw)
    app = cfgmod.parse_apparatus(cfg)
    m, n = cfgmod.parse_count(cfg, "m"), cfgmod.parse_count(cfg, "n")
    if m + n < 1:
        raise ConfigError("config field 'm': m + n must be at least 1")
    pol_b = pol.rotate(pol.H, cfgmod.parse_real(cfg, "phi"))
    _emit_contour("contour", cfg, out, prof_a,
                  lambda c: fock.visibility_from_c(m, n, c, app, pol.H, pol_b), pol_b)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

_TABLES_DEFAULTS = {
    "center_thz": 193.55, "fwhm_nm": 1.0,
    "photons": [[1, 1], [2, 2]],
}


def cmd_tables(cfg: dict, out: str | None) -> None:
    center, fw = cfgmod.parse_center_fwhm(cfg)
    pairs = cfgmod.parse_photons(cfg)
    table = sweeps.max_visibility_table(center, fw, pairs)
    shapes = list(spc.Shape)
    lines = _header_lines("tables", cfg)
    lines.append("# cell: max_visibility | fwhm_ratio (ratio = FWHM of optimized "
                 "photon B over FWHM of fixed photon A)")
    for m, n in pairs:
        lines.append(f"# m={m} n={n}")
        header = "B \\ A".ljust(12) + "".join(s.value.ljust(16) for s in shapes)
        lines.append(header)
        for sb in shapes:
            row = sb.value.ljust(12)
            for sa in shapes:
                e = table[(sb, sa)]
                row += f"{e.visibility[(m, n)]:.2f} | {e.fwhm_ratio:.2f}".ljust(16)
            lines.append(row)
    _emit(out, lines)


# ---------------------------------------------------------------------------
# coherent
# ---------------------------------------------------------------------------

_COHERENT_DEFAULTS = {
    "mode": "ratio_map",
    "mu_a": 1.0, "mu_b": 1.0, "mu_mean": 1.0, "fixed_mu_b": None,
    "ratio_factor": 4.0, "grid_n": 41,
    "phi": 0.0,
    "profile_a": {"shape": "gaussian", "center_thz": 193.55, "width_thz": 0.5},
    "shape_b": "gaussian",
    "width_factor": 8.0, "center_span_fwhm": 4.0,
    "mu_curve": {"min": 0.01, "max": 5.0, "steps": 200},
}


def cmd_coherent(cfg: dict, out: str | None) -> None:
    mode = cfg.get("mode", "ratio_map")
    app = cfgmod.parse_apparatus(cfg)
    n = _grid_n(cfg)
    if mode == "ratio_map":
        ratios = sweeps.log_grid(1.0, float(cfg["ratio_factor"]), n)
        fixed = cfg.get("fixed_mu_b")
        grid = coh.visibility_ratio_map(
            ratios, ratios, app, mu_mean=float(cfg["mu_mean"]),
            fixed_mu_b=None if fixed is None else float(fixed))
        _emit_grid("coherent", cfg, out, ratios, ratios, grid,
                   ("mu_ratio", "tr_ratio", "visibility"))
    elif mode == "contour":
        prof_a = cfgmod.parse_profile(cfg["profile_a"], "profile_a")
        pol_b = pol.rotate(pol.H, cfgmod.parse_real(cfg, "phi"))
        pair = coh.CoherentPair(cfgmod.parse_real(cfg, "mu_a", nonnegative=True),
                                cfgmod.parse_real(cfg, "mu_b", nonnegative=True),
                                pol.H, pol_b)
        _emit_contour("coherent", cfg, out, prof_a,
                      lambda c: coh.visibility_from_params(pair, app, c), pol_b)
    elif mode == "curve":
        mus = _linspace(cfg["mu_curve"], "mu_curve", cfg.get("grid_override"))
        phi = cfgmod.parse_real(cfg, "phi")
        lines = _header_lines("coherent", cfg)
        lines.append("mu,visibility")
        for mu in mus:
            lines.append(f"{_fmt(mu)},{_fmt(coh.coherent_visibility(float(mu), phi))}")
        _emit(out, lines)
    else:
        raise ConfigError(f"config field 'mode': unknown coherent mode {mode!r}")


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

_CHANNELS_DEFAULTS = {
    "mode": "damping",
    "m": 1, "n": 1,
    "profile_a": {"shape": "gaussian", "center_thz": 193.55, "width_thz": 0.5},
    "pol_a": "H", "pol_b": "H",
    "channel_a": {}, "channel_b": {},
    "grid_n": 21,
    "gamma_max": 0.9, "p_max": 0.75, "xi_min": 0.5, "xi_max": 3.0,
    "number_dist": {"n": 4, "gammas": [0.0, 0.2, 0.5, 0.8]},
}


def cmd_channels(cfg: dict, out: str | None) -> None:
    mode = cfg.get("mode", "damping")
    if mode == "number_dist":
        nd = cfg["number_dist"]
        n_in = int(nd.get("n", 4))
        lines = _header_lines("channels", cfg)
        lines.append("gamma,k,probability")
        for g in nd.get("gammas", [0.0]):
            for k, p in chn.damp_number(n_in, float(g)):
                lines.append(f"{_fmt(g)},{k},{_fmt(p)}")
        _emit(out, lines)
        return

    prof_a = cfgmod.parse_profile(cfg["profile_a"], "profile_a")
    prof_b = cfgmod.parse_profile(cfg.get("profile_b", cfg["profile_a"]), "profile_b")
    src_a = chn.SourceSpec(cfgmod.parse_count(cfg, "m"),
                           cfgmod.parse_polarization(cfg["pol_a"], "pol_a"), prof_a)
    src_b = chn.SourceSpec(cfgmod.parse_count(cfg, "n"),
                           cfgmod.parse_polarization(cfg["pol_b"], "pol_b"), prof_b)
    app = cfgmod.parse_apparatus(cfg)
    n = _grid_n(cfg)
    # fixed per-arm channel literals; the swept parameter overrides its own
    # field on top of them
    base_a = cfgmod.parse_channel(cfg.get("channel_a", {}), "channel_a")
    base_b = cfgmod.parse_channel(cfg.get("channel_b", {}), "channel_b")
    if mode == "damping":
        vals = np.linspace(0.0, float(cfg["gamma_max"]), n)
        sweep = [{"gamma": float(g)} for g in vals]
        labels = ("gamma_a", "gamma_b", "visibility")
    elif mode == "depolarizing":
        vals = np.linspace(0.0, float(cfg["p_max"]), n)
        sweep = [{"p_depol": float(p)} for p in vals]
        labels = ("p_a", "p_b", "visibility")
    elif mode == "broadening":
        vals = np.exp(np.linspace(math.log(float(cfg["xi_min"])),
                                  math.log(float(cfg["xi_max"])), n))
        sweep = [{"xi": float(x)} for x in vals]
        labels = ("xi_a", "xi_b", "visibility")
    else:
        raise ConfigError(f"config field 'mode': unknown channels mode {mode!r}")
    ch_a = [dataclasses.replace(base_a, **kw) for kw in sweep]
    ch_b = [dataclasses.replace(base_b, **kw) for kw in sweep]
    grid = chn.channel_visibility_contour(src_a, src_b, ch_a, ch_b, app)
    _emit_grid("channels", cfg, out, vals, vals, grid, labels)


# ---------------------------------------------------------------------------
# swap
# ---------------------------------------------------------------------------

_SWAP_DEFAULTS = {
    "mode": "angle_grid",
    "grid_n": 41,
    "pump_center": 2432.2, "pmf_sigma": 0.5, "slope_s": 1.0, "slope_i": -0.5,
    "pump_sigma": {"min": 0.1, "max": 2.0, "steps": 15},
    "phi_steps": 7,
    "jsa_grid": {"n": 256, "span": 6.0},
    "bandwidth": {"sigma_c": 1.0, "factor": 8.0, "steps": 121,
                  "detunings": [0.0, 0.5, 1.0, 1.5]},
    "phi": 0.0,
    "jsa_ab": {"separable": {
        "signal": {"shape": "gaussian", "center_thz": 193.55, "width_thz": 0.08},
        "idler": {"shape": "gaussian", "center_thz": 193.55, "width_thz": 0.10}},
        "grid": {"n": 192, "span": 6.0}},
    "jsa_cd": {"separable": {
        "signal": {"shape": "gaussian", "center_thz": 193.55, "width_thz": 0.08},
        "idler": {"shape": "gaussian", "center_thz": 193.55, "width_thz": 0.10}},
        "grid": {"n": 192, "span": 6.0}},
}


def _build_jsa(parsed, grid: jsa.GridSpec, bsm_axis_first: bool,
               shared=None) -> jsa.GriddedJSA:
    """Realize a parsed JSA literal with the relay-bound photon placed on
    the requested axis (the literal's signal photon is the one sent to the
    Bell measurement)."""
    if isinstance(parsed, jsa.SeparableJSA):
        if bsm_axis_first:
            return jsa.separable_to_grid(parsed, grid, axis_first=shared)
        flipped = jsa.SeparableJSA(parsed.spec_second, parsed.spec_first)
        return jsa.separable_to_grid(flipped, grid, axis_second=shared)
    pump, pm = parsed
    built = jsa.build_gaussian_jsa(pump, pm, grid)
    if bsm_axis_first:
        return built
    return jsa.GriddedJSA(built.axis_second, built.axis_first, built.values.T)


def cmd_swap(cfg: dict, out: str | None) -> None:
    mode = cfg.get("mode", "angle_grid")
    n = _grid_n(cfg)
    if mode == "pair":
        # one scenario from two JSA literals; signal axis = BSM photon
        parsed_ab, grid_ab = cfgmod.parse_jsa(cfg["jsa_ab"], "jsa_ab")
        parsed_cd, grid_cd = cfgmod.parse_jsa(cfg["jsa_cd"], "jsa_cd")
        cd = _build_jsa(parsed_cd, grid_cd, bsm_axis_first=True)
        ab = _build_jsa(parsed_ab, grid_ab, bsm_axis_first=False,
                        shared=cd.axis_first)
        phi = float(cfg.get("phi", 0.0))
        scenario = jsa.SwapScenario(ab, cd, phi)
        report = {
            "phi": phi,
            "fidelity": jsa.swap_fidelity(scenario),
            "bsm_outcome_probabilities": jsa.bsm_outcome_probabilities(scenario),
        }
        _emit(out, [json.dumps(report, sort_keys=True, indent=2)])
    elif mode == "angle_grid":
        phis = np.linspace(0.0, 0.5 * math.pi, n)
        thetas = np.linspace(0.0, 0.5 * math.pi, n)
        grid = [[jsa.swap_fidelity_separable(float(p), float(t)) for t in thetas]
                for p in phis]
        _emit_grid("swap", cfg, out, phis, thetas, grid,
                   ("phi_rad", "theta_bc_rad", "fidelity"))
    elif mode == "bandwidth_sweep":
        bw = cfg["bandwidth"]
        sigma_c = float(bw["sigma_c"])
        sigmas = sweeps.log_grid(sigma_c, float(bw["factor"]),
                                 cfg.get("grid_override") or int(bw["steps"]))
        curves = jsa.detuned_bandwidth_sweep([float(d) for d in bw["detunings"]],
                                             list(sigmas), sigma_c)
        lines = _header_lines("swap", cfg)
        lines.append("detuning,sigma_b,fidelity")
        for d, curve in zip(bw["detunings"], curves):
            for sb, f in curve:
                lines.append(f"{_fmt(d)},{_fmt(sb)},{_fmt(f)}")
        _emit(out, lines)
    elif mode == "pump_sweep":
        grid_spec = jsa.GridSpec(n=int(cfg["jsa_grid"].get("n", 256)),
                                 span=float(cfg["jsa_grid"].get("span", 6.0)))
        sigmas = _linspace(cfg["pump_sigma"], "pump_sigma", cfg.get("grid_override"))
        phis = np.linspace(0.0, 0.5 * math.pi, int(cfg["phi_steps"]))
        pm = jsa.PhaseMatching(float(cfg["pmf_sigma"]), float(cfg["slope_s"]),
                               float(cfg["slope_i"]))
        rows = []
        for sp in sigmas:
            pump = jsa.Pump(float(cfg["pump_center"]), float(sp))
            built = jsa.build_gaussian_jsa(pump, pm, grid_spec)
            # photon going to the BSM on the first axis for the CD source;
            # the misalignment scales the aligned fidelity by cos^2 Phi
            cd = built
            ab = jsa.GriddedJSA(built.axis_second, built.axis_first, built.values.T)
            aligned = jsa.swap_fidelity(jsa.SwapScenario(ab, cd, 0.0), grid_spec)
            rows.append([math.cos(float(p)) ** 2 * aligned for p in phis])
        _emit_grid("swap", cfg, out, sigmas, phis, rows,
                   ("pump_sigma_rad_ps", "phi_rad", "fidelity"))
    else:
        raise ConfigError(f"config field 'mode': unknown swap mode {mode!r}")


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------

_PROTOCOLS_DEFAULTS = {
    "mdi": {"phi": 0.0, "theta": 0.0},
    "error_budget": {"e_background": 0.0, "e_asymmetry": 0.0,
                     "e_polarization": 0.0, "e_temporal": 0.0},
    "key_rate": {"p_z11": 1.0, "y_z11": 0.1, "e_z11": 0.02,
                 "q_z": 0.1, "e_z": 0.02, "f_e": 1.16},
    "noon": {"n": 3, "theta": 0.0, "phase": 1.5707963267948966},
    "classifier": {"theta": 0.0, "theta_perp": 0.0},
    "fusion": {"theta": 0.0},
}


def cmd_protocols(cfg: dict, out: str | None) -> None:
    mdi_cfg = cfg["mdi"]
    phi, theta = float(mdi_cfg["phi"]), float(mdi_cfg["theta"])
    try:
        table = {f"{sa}{sb}": proto.mdi_outcome_table(
                     proto.MdiScenario(sa, sb, phi, theta))
                 for sa in "HVDA" for sb in "HVDA"}
    except ValueError as exc:
        raise ConfigError(f"config field 'mdi': {exc}") from None
    e_f = proto.spectral_error(theta)
    eb = cfg["error_budget"]
    try:
        budget = proto.ErrorBudget(
            e_background=float(eb.get("e_background", 0.0)),
            e_asymmetry=float(eb.get("e_asymmetry", 0.0)),
            e_polarization=float(eb.get("e_polarization", 0.0)),
            e_temporal=float(eb.get("e_temporal", 0.0)),
            e_spectral=e_f)
        kr = cfg["key_rate"]
        rate = proto.key_rate_bound(proto.KeyRateInputs(
            p_z11=float(kr["p_z11"]), y_z11=float(kr["y_z11"]),
            e_z11=float(kr["e_z11"]), q_z=float(kr["q_z"]),
            e_z=float(kr["e_z"]), f_e=float(kr.get("f_e", 1.16))))
        noon_cfg = cfg["noon"]
        ncfg = int(noon_cfg["n"])
        noon = {
            "signal": proto.noon_signal(ncfg, float(noon_cfg["theta"]),
                                        float(noon_cfg["phase"])),
        }
        try:
            noon["sensitivity_scale"] = proto.noon_sensitivity_scale(
                ncfg, float(noon_cfg["theta"]))
        except ZeroDivisionError:
            noon["sensitivity_scale"] = None
        cl = cfg["classifier"]
        classifier = {
            "p0": proto.classifier_coincidence(float(cl["theta"]),
                                               float(cl["theta_perp"])),
            "floor": proto.classifier_floor(float(cl["theta"])),
        }
        fusion = proto.fusion_fidelity(float(cfg["fusion"]["theta"]))
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"protocols config: {exc}") from None
    total = proto.total_error(budget)
    report = {
        "mdi": {
            "phi": phi, "theta": theta,
            "outcome_table": table,
            "conclusive_probability": proto.mdi_conclusive_probability(phi, theta),
            "spectral_error": e_f,
        },
        "error_budget": {
            "contributions": {
                "e_background": budget.e_background,
                "e_asymmetry": budget.e_asymmetry,
                "e_polarization": budget.e_polarization,
                "e_temporal": budget.e_temporal,
                "e_spectral": budget.e_spectral,
            },
            "total": total,
            "useless_regime": total > 0.5,
        },
        "key_rate": rate,
        "noon": noon,
        "classifier": classifier,
        "fusion_fidelity": fusion,
    }
    _emit(out, [json.dumps(report, sort_keys=True, indent=2)])


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

_COMMANDS: dict[str, tuple[Callable[[dict, str | None], None], dict]] = {
    "dip": (cmd_dip, _DIP_DEFAULTS),
    "contour": (cmd_contour, _CONTOUR_DEFAULTS),
    "tables": (cmd_tables, _TABLES_DEFAULTS),
    "coherent": (cmd_coherent, _COHERENT_DEFAULTS),
    "channels": (cmd_channels, _CHANNELS_DEFAULTS),
    "swap": (cmd_swap, _SWAP_DEFAULTS),
    "protocols": (cmd_protocols, _PROTOCOLS_DEFAULTS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homsim",
        description="HOM interference sweeps: configs in, CSV/JSON out")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON scenario file")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-path config override")
        p.add_argument("--grid", type=int, help="grid side override")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, defaults = _COMMANDS[args.command]
    try:
        cfg = _load_config(defaults, args)
        command(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        # malformed structure that slipped past the literal parsers
        print(f"config error: {exc!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
