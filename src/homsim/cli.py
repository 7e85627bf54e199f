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
import copy
import dataclasses
import functools
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
    """The one number format of every CSV value; the dip rows and
    `_emit_grid`'s value column inline its spec on Python floats."""
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


def _emit_csv(command: str, cfg: dict, out: str | None, columns: str,
              rows: list[str], notes: Sequence[str] = ()) -> None:
    """The one CSV layout: the header lines and ``notes``, the ``columns``
    line, then the ``rows``."""
    _emit(out, [*_header_lines(command, cfg), *notes, columns, *rows])


def _mode(cfg: dict, command: str, modes: Sequence[str]) -> str:
    """`mode`, if it is a string naming one of the command's ``modes``."""
    mode = cfg["mode"]
    if not (isinstance(mode, str) and mode in modes):
        raise ConfigError(f"config field 'mode': unknown {command} mode {mode!r}")
    return mode


def _load_config(defaults: dict, args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(defaults)  # a dotted --set writes into nested objects
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        except ValueError:  # an integer past Python's int-to-str digit limit
            raise ConfigError("config file holds an integer too long to read") from None
        except RecursionError:
            raise ConfigError("config file nests too deep to read") from None
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


def _steps(cfg: dict, steps: int) -> int:
    """`grid_override` (--grid's integer >= 2) when set, else ``steps``."""
    return cfgmod.parse_count(cfg, "grid_override", steps, minimum=2)


def _grid_n(cfg: dict) -> int:
    """Grid side: --grid when given, else `grid_n` (checked either way)."""
    return _steps(cfg, cfgmod.parse_count(cfg, "grid_n", minimum=2))


def _linspace(cfg: dict, field: str, nonnegative: bool = False,
              positive: bool = False) -> np.ndarray:
    """The `field` range `{min, max, steps}`; --grid overrides the steps.

    ``nonnegative`` and ``positive`` apply to `min` (and so to every value).
    """
    lo = cfgmod.parse_real(cfg, f"{field}.min", nonnegative=nonnegative, positive=positive)
    hi = cfgmod.parse_real(cfg, f"{field}.max")
    steps = cfgmod.parse_count(cfg, f"{field}.steps")
    if steps < 2 or hi <= lo:
        raise ConfigError(f"config field '{field}': needs max > min and steps >= 2")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"config field '{field}': max - min must lie in the float range")
    # numpy forms the last point as (steps - 1) * step and then sets it to
    # max: near the float range's end only that product may overflow
    with np.errstate(over="ignore"):
        return np.linspace(lo, hi, _steps(cfg, steps))


def _log_axis(cfg: dict, key: str, center: float, n: int) -> np.ndarray:
    """``n`` log-spaced points from ``center`` over to times the factor at
    `key` (:func:`sweeps.log_grid`); an end that rounds to 0 or overflows
    exits 2 naming `key`."""
    factor = cfgmod.parse_real(cfg, key, positive=True)
    with np.errstate(over="ignore"):  # an infinite end exits below
        axis = sweeps.log_grid(center, factor, n)
    if not np.all((0.0 < axis) & (axis < math.inf)):
        raise ConfigError(f"config field '{key}': the axis from {_fmt(center)} / {_fmt(factor)}"
                          f" to {_fmt(center)} * {_fmt(factor)} leaves the float range")
    return axis


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
    taus = _linspace(cfg, "tau")
    lines = _header_lines("dip", cfg)
    lines.append("# block columns: tau_ps, p_co")
    pairs = cfgmod.parse_photons(cfg)
    phis = cfgmod.parse_reals(cfg, "phi")
    pols_b = [pol.rotate(pol_a, phi) for phi in phis]
    # cos(Theta(tau)) depends only on the spectra: one scan serves every block
    cos_theta = spc.overlaps(prof_a, prof_b.delayed(taus))
    # one (Phi, tau) array per photon pair, rows in the configured Phi order
    blocks = [fock.dip_blocks(m, n, pol_a, pols_b, app, cos_theta).tolist()
              for m, n in pairs]
    # the rows inline _fmt's ".12g" spec on the Python floats of .tolist()
    tau_texts = [f"{tau:.12g}" for tau in taus.tolist()]
    for (m, n), rows in zip(pairs, blocks):
        for phi, row in zip(phis, rows):
            lines += [f"# block m={m} n={n} phi={_fmt(phi)}", "tau_ps,p_co"]
            lines += [f"{tau},{p:.12g}" for tau, p in zip(tau_texts, row)]
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
    span = cfgmod.parse_real(cfg, "center_span_fwhm", positive=True)
    lo, hi = prof_a.center - span * fw, prof_a.center + span * fw
    if not (lo > 0.0 and hi < math.inf):  # an infinite span * fw fails both
        raise ConfigError("config field 'center_span_fwhm': photon B's centers, photon A's "
                          f"{_fmt(prof_a.center)} rad/ps -/+ {_fmt(span)} times its FWHM "
                          f"{_fmt(fw)} rad/ps, must be positive and finite")
    return np.linspace(lo, hi, n), _log_axis(cfg, "width_factor", fw, n)


def _emit_grid(command: str, cfg: dict, out: str | None, xs, ys, grid,
               labels=("x", "y", "visibility")) -> None:
    y_texts = [_fmt(y) for y in ys]
    # each axis value formatted once; _fmt's ".12g" spec inlined on .tolist()'s floats
    rows = [f"{x_text},{y_text},{v:.12g}"
            for x_text, row in zip(map(_fmt, xs), np.asarray(grid, dtype=float).tolist())
            for y_text, v in zip(y_texts, row)]
    _emit_csv(command, cfg, out, ",".join(labels), rows,
              [f"# x: {labels[0]}; y: {labels[1]}; value: {labels[2]}"])


def _emit_contour(command: str, cfg: dict, out: str | None,
                  prof_a: spc.SpectralProfile,
                  visibility_at: Callable[[np.ndarray], np.ndarray],
                  pol_b: pol.PolarizationVector, width_key: str) -> None:
    """Photon B's (center, FWHM) contour, shared by `contour` and
    `coherent --set mode=contour`; ``visibility_at`` maps the grid's flat
    array of mode overlaps c to the visibilities of the command's input.
    ``width_key`` names the key that set photon A's FWHM, which scales
    photon B's FWHM axis."""
    shape_b = cfgmod.parse_shape(cfg["shape_b"], "shape_b")
    centers, fwhms = _contour_axes(cfg, prof_a)
    try:  # a width is monotone in the FWHM, so the axis ends bound the family's
        spc.SpectralProfile.from_fwhm(shape_b, prof_a.center, fwhms[[0, -1]])
    except ValueError as exc:
        raise ConfigError(f"config field '{width_key}': photon B's FWHM axis, photon A's "
                          f"over and times width_factor, {_fmt(fwhms[0])} to "
                          f"{_fmt(fwhms[-1])} rad/ps: {exc}") from None
    grid = sweeps.contour_grid(visibility_at, prof_a, shape_b, centers, fwhms, pol_b)
    _emit_grid(command, cfg, out, centers, fwhms, grid,
               ("center_b_rad_ps", "fwhm_b_rad_ps", "visibility"))


def cmd_contour(cfg: dict, out: str | None) -> None:
    center, fw = cfgmod.parse_center_fwhm(cfg)
    shape_a = cfgmod.parse_shape(cfg["shape_a"], "shape_a")
    prof_a = cfgmod.build("fwhm_nm", spc.SpectralProfile.from_fwhm, shape_a, center, fw)
    app = cfgmod.parse_apparatus(cfg)
    m, n = cfgmod.parse_count(cfg, "m"), cfgmod.parse_count(cfg, "n")
    cfgmod.check_visibility_photons(m, n, "m")
    pol_b = pol.rotate(pol.H, cfgmod.parse_real(cfg, "phi"))
    _emit_contour("contour", cfg, out, prof_a,
                  lambda c: fock.visibility_from_c(m, n, c, app, pol.H, pol_b), pol_b,
                  "fwhm_nm")


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

_TABLES_DEFAULTS = {"photons": [[1, 1], [2, 2]]}


def cmd_tables(cfg: dict, out: str | None) -> None:
    pairs = cfgmod.parse_photons(cfg)
    for m, n in pairs:
        cfgmod.check_visibility_photons(m, n, "photons")
    table = sweeps.max_visibility_table(pairs)
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
    mode = _mode(cfg, "coherent", ("ratio_map", "contour", "curve"))
    app = cfgmod.parse_apparatus(cfg)
    n = _grid_n(cfg)
    if mode == "ratio_map":
        ratios = _log_axis(cfg, "ratio_factor", 1.0, n)
        mu_mean = cfgmod.parse_real(cfg, "mu_mean", nonnegative=True)
        fixed = cfg.get("fixed_mu_b")
        if fixed is not None:
            fixed = cfgmod.parse_real(cfg, "fixed_mu_b", nonnegative=True)
        grid = coh.visibility_ratio_map(ratios, ratios, app, mu_mean=mu_mean,
                                        fixed_mu_b=fixed)
        _emit_grid("coherent", cfg, out, ratios, ratios, grid,
                   ("mu_ratio", "tr_ratio", "visibility"))
    elif mode == "contour":
        prof_a = cfgmod.parse_profile(cfg["profile_a"], "profile_a")
        pol_b = pol.rotate(pol.H, cfgmod.parse_real(cfg, "phi"))
        pair = coh.CoherentPair(cfgmod.parse_real(cfg, "mu_a", nonnegative=True),
                                cfgmod.parse_real(cfg, "mu_b", nonnegative=True),
                                pol.H, pol_b)
        _emit_contour("coherent", cfg, out, prof_a,
                      lambda cs: coh.visibility_from_params(pair, app, cs), pol_b,
                      "profile_a")
    else:
        mus = _linspace(cfg, "mu_curve", nonnegative=True)
        phi = cfgmod.parse_real(cfg, "phi")
        _emit_csv("coherent", cfg, out, "mu,visibility",
                  [f"{_fmt(mu)},{_fmt(coh.coherent_visibility(float(mu), phi))}"
                   for mu in mus])


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
    # mode -> (config key of the range's end, ChannelSpec field, axis label)
    swept = {"damping": ("gamma_max", "gamma", "gamma"),
             "depolarizing": ("p_max", "p_depol", "p"),
             "broadening": ("xi_max", "xi", "xi")}
    mode = _mode(cfg, "channels", ("number_dist", *swept))
    if mode == "number_dist":
        n_in = cfgmod.parse_count(cfg, "number_dist.n", _CHANNELS_DEFAULTS["number_dist"]["n"],
                                  maximum=chn.MAX_PHOTONS)
        gammas = cfgmod.parse_reals(cfg, "number_dist.gammas",
                                    _CHANNELS_DEFAULTS["number_dist"]["gammas"])
        for i, g in enumerate(gammas):
            if not 0.0 <= g <= 1.0:
                raise ConfigError(f"config field 'number_dist.gammas[{i}]': must lie in [0, 1]")
        _emit_csv("channels", cfg, out, "gamma,k,probability",
                  [f"{_fmt(g)},{k},{_fmt(p)}" for g in gammas
                   for k, p in chn.damp_number(n_in, g)])
        return

    prof_a = cfgmod.parse_profile(cfg["profile_a"], "profile_a")
    prof_b = cfgmod.parse_profile(cfg.get("profile_b", cfg["profile_a"]), "profile_b")
    m, n = (cfgmod.parse_count(cfg, key, maximum=chn.MAX_PHOTONS) for key in ("m", "n"))
    cfgmod.check_visibility_photons(m, n, "m")
    src_a = chn.SourceSpec(m, cfgmod.parse_polarization(cfg["pol_a"], "pol_a"), prof_a)
    src_b = chn.SourceSpec(n, cfgmod.parse_polarization(cfg["pol_b"], "pol_b"), prof_b)
    app = cfgmod.parse_apparatus(cfg)
    n = _grid_n(cfg)
    # fixed per-arm channel literals; the swept parameter overrides its own
    # field on top of them
    base_a = cfgmod.parse_channel(cfg.get("channel_a", {}), "channel_a")
    base_b = cfgmod.parse_channel(cfg.get("channel_b", {}), "channel_b")
    key, field, label = swept[mode]
    if mode == "broadening":
        xi_min = cfgmod.parse_real(cfg, "xi_min", positive=True)
        xi_max = cfgmod.parse_real(cfg, key, positive=True)
        vals = np.exp(np.linspace(math.log(xi_min), math.log(xi_max), n))
    else:
        vals = np.linspace(0.0, cfgmod.parse_real(cfg, key, nonnegative=True), n)
    # a swept range leaving the channel's domain names the range's end
    ch_a, ch_b = ([cfgmod.build(key, dataclasses.replace, base, **{field: float(v)})
                   for v in vals] for base in (base_a, base_b))
    labels = (f"{label}_a", f"{label}_b", "visibility")
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


def cmd_swap(cfg: dict, out: str | None) -> None:
    mode = _mode(cfg, "swap", ("pair", "angle_grid", "bandwidth_sweep", "pump_sweep"))
    n = _grid_n(cfg)
    if mode == "pair":
        # one scenario from two exact JSA literals (separable or pump)
        ab = cfgmod.parse_jsa(cfg["jsa_ab"], "jsa_ab")
        cd = cfgmod.parse_jsa(cfg["jsa_cd"], "jsa_cd")
        phi = cfgmod.parse_real(cfg, "phi")
        # a literal's signal photon goes to the Bell measurement, which
        # SwapScenario wants on AB's second axis
        scenario = jsa.SwapScenario(ab.transposed(), cd, phi)
        fidelity = jsa.swap_fidelity(scenario)
        report = {
            "phi": phi,
            "fidelity": fidelity,
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
        sigma_c = cfgmod.parse_real(cfg, "bandwidth.sigma_c", positive=True)
        steps = cfgmod.parse_count(cfg, "bandwidth.steps", minimum=2)
        sigmas = _log_axis(cfg, "bandwidth.factor", sigma_c, _steps(cfg, steps))
        detunings = cfgmod.parse_reals(cfg, "bandwidth.detunings")
        curves = cfgmod.build("bandwidth.detunings", jsa.detuned_bandwidth_sweep,
                              detunings, sigmas.tolist(), sigma_c)
        _emit_csv("swap", cfg, out, "detuning,sigma_b,fidelity",
                  [f"{_fmt(d)},{_fmt(sb)},{_fmt(f)}"
                   for d, curve in zip(detunings, curves) for sb, f in curve])
    else:
        cfgmod.parse_ignored_grid(cfg.get("jsa_grid", {}), "jsa_grid")
        sigmas = _linspace(cfg, "pump_sigma", positive=True)
        phis = np.linspace(0.0, 0.5 * math.pi, cfgmod.parse_count(cfg, "phi_steps", minimum=2))
        pmf = (cfgmod.parse_real(cfg, "pmf_sigma", positive=True),
               cfgmod.parse_real(cfg, "slope_s"), cfgmod.parse_real(cfg, "slope_i"))
        sources = cfgmod.gaussian_jsa((cfgmod.parse_real(cfg, "pump_center"), sigmas), pmf,
                                      ("pump_sigma", "pmf_sigma", "slope_s"))
        # both sources are the same one, so the aligned fidelity is (1 + P) / 2
        # for each pump's Schmidt purity P; the misalignment scales it by cos^2 Phi
        aligned = jsa.swap_fidelity(jsa.SwapScenario(sources.transposed(), sources))
        rows = [[math.cos(float(p)) ** 2 * f for p in phis] for f in aligned.tolist()]
        _emit_grid("swap", cfg, out, sigmas, phis, rows,
                   ("pump_sigma_rad_ps", "phi_rad", "fidelity"))


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
    phi = cfgmod.parse_real(cfg, "mdi.phi")
    theta = cfgmod.parse_real(cfg, "mdi.theta")
    budget_terms = {key: cfgmod.parse_real(cfg, f"error_budget.{key}", default=0.0)
                    for key in ("e_background", "e_asymmetry", "e_polarization",
                                "e_temporal")}
    rate_terms = {key: cfgmod.parse_real(cfg, f"key_rate.{key}")
                  for key in ("p_z11", "y_z11", "e_z11", "q_z", "e_z")}
    rate_terms["f_e"] = cfgmod.parse_real(cfg, "key_rate.f_e", default=1.16)
    n_noon = cfgmod.parse_count(cfg, "noon.n")
    noon_theta = cfgmod.parse_real(cfg, "noon.theta")
    noon_phase = cfgmod.parse_real(cfg, "noon.phase")
    cl_theta = cfgmod.parse_real(cfg, "classifier.theta")
    cl_theta_perp = cfgmod.parse_real(cfg, "classifier.theta_perp")
    fusion_theta = cfgmod.parse_real(cfg, "fusion.theta")
    table = {f"{sa}{sb}": proto.mdi_outcome_table(
                 cfgmod.build("mdi", proto.MdiScenario, sa, sb, phi, theta))
             for sa in "HVDA" for sb in "HVDA"}
    e_f = proto.spectral_error(theta)
    budget = cfgmod.build("error_budget", proto.ErrorBudget, **budget_terms, e_spectral=e_f)
    rate = proto.key_rate_bound(cfgmod.build("key_rate", proto.KeyRateInputs, **rate_terms))
    noon = {"signal": cfgmod.build("noon.n", proto.noon_signal, n_noon, noon_theta, noon_phase)}
    try:
        noon["sensitivity_scale"] = proto.noon_sensitivity_scale(n_noon, noon_theta)
    except ZeroDivisionError:
        noon["sensitivity_scale"] = None
    classifier = {
        "p0": proto.classifier_coincidence(cl_theta, cl_theta_perp),
        "floor": proto.classifier_floor(cl_theta),
    }
    fusion = proto.fusion_fidelity(fusion_theta)
    total = proto.total_error(budget)
    report = {
        "mdi": {
            "phi": phi, "theta": theta,
            "outcome_table": table,
            "conclusive_probability": proto.mdi_conclusive_probability(phi, theta),
            "spectral_error": e_f,
        },
        "error_budget": {
            "contributions": dataclasses.asdict(budget),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: a parse reads nothing of an earlier one, so in-process
    callers of :func:`main` pay the build once per process."""
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
