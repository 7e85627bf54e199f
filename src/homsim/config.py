"""Config-file literals shared by the CLI: parsing and validation.

Scenario configs are JSON objects.  Every literal is validated against its
module's invariants before any computation; validation failures raise
:class:`ConfigError` naming the offending field (the CLI maps these to
exit code 2).
"""

from __future__ import annotations

import json
import math
from typing import Any

from . import channels as chn
from . import fock
from . import jsa
from . import polarization as pol
from . import spectral as spc

__all__ = ["ConfigError", "merge", "set_path", "parse_real", "parse_count",
           "parse_photons", "parse_shape", "parse_center_fwhm", "parse_profile",
           "parse_polarization", "parse_detector", "parse_beam_splitter",
           "parse_apparatus", "parse_channel", "parse_jsa"]

_POL_NAMES = {"H": pol.H, "V": pol.V, "D": pol.D, "A": pol.A}
TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Invalid scenario configuration; message names the field."""


def _fail(field: str, why: str) -> "ConfigError":
    return ConfigError(f"config field '{field}': {why}")


def merge(base: dict, override: dict) -> dict:
    """Recursive dict merge; override wins, sub-dicts merge key-wise."""
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = merge(out[k], v)
        else:
            out[k] = v
    return out


def set_path(cfg: dict, dotted: str, raw: str) -> None:
    """Apply a --set override: dotted path, value parsed as JSON if possible."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = dotted.split(".")
    node = cfg
    for k in keys[:-1]:
        nxt = node.get(k)
        if not isinstance(nxt, dict):
            nxt = {}
            node[k] = nxt
        node = nxt
    node[keys[-1]] = value


def _number(obj: dict, field: str, key: str, default: float | None = None,
            positive: bool = False) -> float:
    name = f"{field}.{key}" if field else key  # field "" names a top-level key
    if key not in obj:
        if default is None:
            raise _fail(name, "missing required value")
        return default
    v = obj[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise _fail(name, f"expected a number, got {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise _fail(name, f"must be finite, got {v!r}")
    if positive and v <= 0:
        raise _fail(name, "must be positive")
    return float(v)


def _is_count(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def parse_real(cfg: dict, key: str, nonnegative: bool = False) -> float:
    """Required finite number at top-level `key` (>= 0 if ``nonnegative``)."""
    v = _number(cfg, "", key)
    if nonnegative and v < 0:
        raise _fail(key, "must be non-negative")
    return v


def parse_count(cfg: dict, key: str) -> int:
    """Required photon number at top-level `key`: a non-negative integer."""
    v = cfg.get(key)
    if not _is_count(v):
        raise _fail(key, f"expected a non-negative integer, got {v!r}")
    return v


def parse_photons(cfg: dict) -> list[tuple[int, int]]:
    """`photons`: a list of [m, n] photon-number pairs (default [[1, 1]])."""
    out = []
    for p in cfg.get("photons", [[1, 1]]):
        if not isinstance(p, (list, tuple)) or len(p) != 2 or not all(map(_is_count, p)):
            raise _fail("photons", f"bad entry {p!r}")
        out.append((p[0], p[1]))
    return out


def parse_shape(obj: Any, field: str) -> spc.Shape:
    """Envelope family by name, case-insensitive."""
    try:
        return spc.Shape(str(obj).lower())
    except ValueError:
        raise _fail(field, f"unknown shape {obj!r}; use one of "
                           f"{[s.value for s in spc.Shape]}") from None


def _center(obj: dict, field: str) -> float:
    """omega_0 in rad/ps from `center_thz` (ordinary frequency) or `center_nm`."""
    if "center_thz" in obj:
        return TWO_PI * _number(obj, field, "center_thz", positive=True)
    if "center_nm" in obj:
        center_nm = _number(obj, field, "center_nm", positive=True)
        return TWO_PI * spc.SPEED_OF_LIGHT_NM_PS / center_nm
    raise _fail(field, "needs center_thz or center_nm")


def _fwhm_from_nm(obj: dict, field: str, center: float) -> float:
    """FWHM in rad/ps of a `fwhm_nm` bandwidth about omega_0 = ``center``."""
    fwhm_nm = _number(obj, field, "fwhm_nm", positive=True)
    return spc.wavelength_width_to_frequency(TWO_PI * spc.SPEED_OF_LIGHT_NM_PS / center,
                                             fwhm_nm)


def parse_center_fwhm(cfg: dict) -> tuple[float, float]:
    """(omega_0, FWHM) in rad/ps of photon A in `contour` and `tables`.

    Read from the top-level keys `center_thz` and `fwhm_nm` with the
    conversion that profile literals use.
    """
    center = _center(cfg, "")
    return center, _fwhm_from_nm(cfg, "", center)


def parse_profile(obj: Any, field: str) -> spc.SpectralProfile:
    """`{shape, center_thz | center_nm, width_thz | fwhm_nm, delay_ps, broadening}`."""
    if not isinstance(obj, dict):
        raise _fail(field, "expected a profile object")
    shape = parse_shape(obj.get("shape"), f"{field}.shape")
    delay = _number(obj, field, "delay_ps", 0.0)
    broadening = _number(obj, field, "broadening", 1.0)
    center = _center(obj, field)
    if "width_thz" in obj:
        width = _number(obj, field, "width_thz")
        build = spc.SpectralProfile
        if shape is not spc.Shape.SINC:
            width *= TWO_PI
    elif "fwhm_nm" in obj:
        width = _fwhm_from_nm(obj, field, center)
        build = spc.SpectralProfile.from_fwhm
    else:
        raise _fail(field, "needs width_thz or fwhm_nm")
    try:
        return build(shape, center, width, delay, broadening)
    except ValueError as exc:
        raise _fail(field, str(exc)) from None


def parse_polarization(obj: Any, field: str) -> pol.PolarizationVector:
    """Shorthand "H"/"V"/"D"/"A" or `{h_re, h_im, v_re, v_im}` (normalized)."""
    if isinstance(obj, str):
        if obj in _POL_NAMES:
            return _POL_NAMES[obj]
        raise _fail(field, f"unknown polarization name {obj!r}")
    if isinstance(obj, dict):
        h = complex(_number(obj, field, "h_re", 0.0), _number(obj, field, "h_im", 0.0))
        v = complex(_number(obj, field, "v_re", 0.0), _number(obj, field, "v_im", 0.0))
        try:
            return pol.PolarizationVector(h, v)
        except ValueError as exc:
            raise _fail(field, str(exc)) from None
    raise _fail(field, "expected a name or {h_re, h_im, v_re, v_im}")


def parse_detector(obj: Any, field: str) -> pol.Detector:
    if not isinstance(obj, dict):
        raise _fail(field, "expected {eta_h, eta_v}")
    try:
        return pol.Detector(_number(obj, field, "eta_h"), _number(obj, field, "eta_v"))
    except ValueError as exc:
        raise _fail(field, str(exc)) from None


def parse_beam_splitter(obj: Any, field: str) -> fock.BeamSplitter:
    if not isinstance(obj, dict):
        raise _fail(field, "expected {t, r}")
    try:
        return fock.BeamSplitter(_number(obj, field, "t"), _number(obj, field, "r"))
    except ValueError as exc:
        raise _fail(field, str(exc)) from None


def parse_apparatus(cfg: dict) -> fock.Apparatus:
    return fock.Apparatus(
        bs=parse_beam_splitter(cfg.get("beam_splitter", {"t": 0.5, "r": 0.5}),
                               "beam_splitter"),
        det_a=parse_detector(cfg.get("detector_a", {"eta_h": 1.0, "eta_v": 1.0}),
                             "detector_a"),
        det_b=parse_detector(cfg.get("detector_b", {"eta_h": 1.0, "eta_v": 1.0}),
                             "detector_b"),
    )


def parse_channel(obj: Any, field: str) -> chn.ChannelSpec:
    """`{gamma, p_depol, xi}`, all optional."""
    if not isinstance(obj, dict):
        raise _fail(field, "expected {gamma, p_depol, xi}")
    try:
        return chn.ChannelSpec(gamma=_number(obj, field, "gamma", 0.0),
                               p_depol=_number(obj, field, "p_depol", 0.0),
                               xi=_number(obj, field, "xi", 1.0))
    except ValueError as exc:
        raise _fail(field, str(exc)) from None


def parse_jsa(obj: Any, field: str) -> tuple[Any, jsa.GridSpec]:
    """`{separable: {signal, idler}}` or `{pump, pmf, grid}` literals.

    Returns (SeparableJSA | (Pump, PhaseMatching)) plus the grid spec so the
    caller controls orientation when sampling.
    """
    if not isinstance(obj, dict):
        raise _fail(field, "expected a JSA object")
    grid_obj = obj.get("grid", {})
    try:
        grid = jsa.GridSpec(n=int(_number(grid_obj, f"{field}.grid", "n", 256)),
                            span=_number(grid_obj, f"{field}.grid", "span", 5.0))
    except ValueError as exc:
        raise _fail(f"{field}.grid", str(exc)) from None
    if "separable" in obj:
        sep = obj["separable"]
        if not isinstance(sep, dict) or "signal" not in sep or "idler" not in sep:
            raise _fail(f"{field}.separable", "needs signal and idler profiles")
        return (jsa.SeparableJSA(parse_profile(sep["signal"], f"{field}.separable.signal"),
                                 parse_profile(sep["idler"], f"{field}.separable.idler")),
                grid)
    if "pump" in obj and "pmf" in obj:
        try:
            pump = jsa.Pump(center=_number(obj["pump"], f"{field}.pump", "center"),
                            sigma=_number(obj["pump"], f"{field}.pump", "sigma"))
            pm = jsa.PhaseMatching(sigma=_number(obj["pmf"], f"{field}.pmf", "sigma"),
                                   slope_s=_number(obj["pmf"], f"{field}.pmf", "slope_s", 1.0),
                                   slope_i=_number(obj["pmf"], f"{field}.pmf", "slope_i", -0.5))
        except ValueError as exc:
            raise _fail(field, str(exc)) from None
        return ((pump, pm), grid)
    raise _fail(field, "needs either 'separable' or 'pump'+'pmf'")
