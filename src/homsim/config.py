"""Config-file literals shared by the CLI: parsing and validation.

Scenario configs are JSON objects.  Every literal is validated against its
module's invariants before any computation; validation failures raise
:class:`ConfigError` naming the offending field (the CLI maps these to
exit code 2).
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, Callable

from . import channels as chn
from . import fock
from . import jsa
from . import polarization as pol
from . import spectral as spc

__all__ = ["ConfigError", "build", "merge", "set_path", "parse_real", "parse_reals", "parse_count",
           "parse_photons", "check_visibility_photons", "parse_shape", "parse_center_fwhm",
           "parse_profile", "parse_polarization", "parse_detector", "parse_beam_splitter",
           "parse_apparatus", "parse_channel", "parse_ignored_grid", "gaussian_jsa",
           "parse_jsa"]

_POL_NAMES = {"H": pol.H, "V": pol.V, "D": pol.D, "A": pol.A}
TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Invalid scenario configuration; message names the field."""


def _fail(field: str, why: str) -> "ConfigError":
    return ConfigError(f"config field '{field}': {why}")


def build(field: str, make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``, a library constructor or call, whose
    ValueError becomes a ConfigError naming ``field``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _fail(field, str(exc)) from None


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
    except ValueError:  # an integer past Python's int-to-str digit limit
        raise _fail(dotted, "holds an integer too long to read") from None
    except RecursionError:
        raise _fail(dotted, "nests too deep to read") from None
    keys = dotted.split(".")
    node = cfg
    for k in keys[:-1]:
        nxt = node.get(k)
        if not isinstance(nxt, dict):
            nxt = {}
            node[k] = nxt
        node = nxt
    node[keys[-1]] = value


def _real(v: Any, name: str, positive: bool = False) -> float:
    """A finite JSON number (not a boolean) named ``name`` in errors."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise _fail(name, f"expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # a JSON integer past the float range
        raise _fail(name, "must be finite, got an integer past the float range") from None
    if not math.isfinite(x):
        raise _fail(name, f"must be finite, got {v!r}")
    if positive and x <= 0:
        raise _fail(name, "must be positive")
    return x


def _name(field: str, key: str) -> str:
    return f"{field}.{key}" if field else key  # field "" names a top-level key


def _number(obj: dict, field: str, key: str, default: float | None = None,
            positive: bool = False) -> float:
    name = _name(field, key)
    if key not in obj:
        if default is None:
            raise _fail(name, "missing required value")
        return default
    return _real(obj[key], name, positive)


def _lookup(cfg: dict, key: str, default: Any = None) -> Any:
    """Value at the dotted path ``key``, the path a --set override names;
    ``default`` when absent (required when None)."""
    node = cfg
    parts = key.split(".")
    for i, part in enumerate(parts):
        if not isinstance(node, dict):
            raise _fail(".".join(parts[:i]), "expected an object")
        if part not in node:
            if default is None:
                raise _fail(key, "missing required value")
            return default
        node = node[part]
    return node


def _is_count(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def parse_real(cfg: dict, key: str, nonnegative: bool = False,
               positive: bool = False, default: float | None = None) -> float:
    """Finite number at `key` (>= 0 if ``nonnegative``, > 0 if
    ``positive``); required unless a ``default`` is given."""
    v = _real(_lookup(cfg, key, default), key, positive)
    if nonnegative and v < 0:
        raise _fail(key, "must be non-negative")
    return v


def parse_reals(cfg: dict, key: str, default: list | None = None) -> list[float]:
    """Non-empty list of finite numbers at `key` (a sweep with no points is
    an error); a bad entry is named `key[i]`."""
    v = _lookup(cfg, key, default)
    if not isinstance(v, list) or not v:
        raise _fail(key, f"expected a non-empty list of numbers, got {v!r}")
    return [_real(x, f"{key}[{i}]") for i, x in enumerate(v)]


def _count(v: Any, name: str) -> int:
    """A non-negative JSON integer (not a boolean) within the float range,
    since the model takes counts as floats; named ``name`` in errors."""
    if not _is_count(v):
        raise _fail(name, f"expected a non-negative integer, got {v!r}")
    if v > sys.float_info.max:
        raise _fail(name, f"must be at most {sys.float_info.max:g}, the largest float")
    return v


def parse_count(cfg: dict, key: str, default: int | None = None, minimum: int = 0,
                maximum: int | None = None) -> int:
    """Non-negative integer at `key`, at least ``minimum`` and at most
    ``maximum`` (the float range when None)."""
    n = _count(_lookup(cfg, key, default), key)
    if n < minimum:
        raise _fail(key, f"must be at least {minimum}")
    if maximum is not None and n > maximum:
        raise _fail(key, f"must be at most {maximum}")
    return n


def parse_photons(cfg: dict) -> list[tuple[int, int]]:
    """`photons`: a non-empty list of [m, n] photon-number pairs, each with
    at least one photon (default [[1, 1]])."""
    pairs = cfg.get("photons", [[1, 1]])
    if not isinstance(pairs, list) or not pairs:
        raise _fail("photons", f"expected a non-empty list of [m, n] pairs, got {pairs!r}")
    out = []
    for p in pairs:
        if not isinstance(p, (list, tuple)) or len(p) != 2 or not all(map(_is_count, p)):
            raise _fail("photons", f"bad entry {p!r}")
        for count in p:
            _count(count, "photons")
        if p[0] + p[1] < 1:
            raise _fail("photons", f"entry {p!r} needs at least one photon")
        out.append((p[0], p[1]))
    return out


def check_visibility_photons(m: int, n: int, name: str) -> None:
    """A visibility divides by a baseline coincidence, and fewer than two
    photons never give a coincidence: exit 2 naming ``name`` there."""
    if m + n < 2:
        raise _fail(name, f"m = {m}, n = {n}: a visibility needs at least two photons, "
                          "since fewer never give a coincidence")


def parse_shape(obj: Any, field: str) -> spc.Shape:
    """Envelope family by name, case-insensitive."""
    try:
        return spc.Shape(str(obj).lower())
    except ValueError:
        raise _fail(field, f"unknown shape {obj!r}; use one of "
                           f"{[s.value for s in spc.Shape]}") from None


def _center(obj: dict, field: str) -> float:
    """omega_0 in rad/ps from `center_thz` (ordinary frequency) or `center_nm`;
    a value that converts past the float range exits 2 naming its key."""
    if "center_thz" in obj:
        key = "center_thz"
        center = TWO_PI * _number(obj, field, key, positive=True)
    elif "center_nm" in obj:
        key = "center_nm"
        center = TWO_PI * spc.SPEED_OF_LIGHT_NM_PS / _number(obj, field, key, positive=True)
    else:
        raise _fail(field, "needs center_thz or center_nm")
    if not center < math.inf:
        raise _fail(_name(field, key), "converts to an infinite frequency in rad/ps")
    return center


def _fwhm_from_nm(obj: dict, field: str, center: float) -> float:
    """FWHM in rad/ps of a `fwhm_nm` bandwidth about omega_0 = ``center``.

    The conversion divides by the centre wavelength squared: where that
    square leaves the float range the centre's key is named, and where the
    FWHM itself does, `fwhm_nm`.
    """
    fwhm_nm = _number(obj, field, "fwhm_nm", positive=True)
    center_nm = TWO_PI * spc.SPEED_OF_LIGHT_NM_PS / center
    try:
        fwhm = spc.wavelength_width_to_frequency(center_nm, fwhm_nm)
    except (OverflowError, ZeroDivisionError):
        fwhm = None
    if fwhm is None or center_nm == math.inf:
        key = "center_thz" if "center_thz" in obj else "center_nm"
        raise _fail(_name(field, key), f"the centre wavelength {center_nm:g} nm squared "
                                       "leaves the float range, so fwhm_nm cannot be converted")
    if not 0.0 < fwhm < math.inf:
        raise _fail(_name(field, "fwhm_nm"), f"{fwhm_nm!r} nm about {center_nm:g} nm is "
                                             f"{fwhm:g} rad/ps, outside the float range")
    return fwhm


def parse_center_fwhm(cfg: dict) -> tuple[float, float]:
    """(omega_0, FWHM) in rad/ps of photon A in `contour`.

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
        make = spc.SpectralProfile
        if shape is not spc.Shape.SINC:
            width *= TWO_PI
    elif "fwhm_nm" in obj:
        width = _fwhm_from_nm(obj, field, center)
        make = spc.SpectralProfile.from_fwhm
    else:
        raise _fail(field, "needs width_thz or fwhm_nm")
    return build(field, make, shape, center, width, delay, broadening)


def parse_polarization(obj: Any, field: str) -> pol.PolarizationVector:
    """Shorthand "H"/"V"/"D"/"A" or `{h_re, h_im, v_re, v_im}` (normalized)."""
    if isinstance(obj, str):
        if obj in _POL_NAMES:
            return _POL_NAMES[obj]
        raise _fail(field, f"unknown polarization name {obj!r}")
    if isinstance(obj, dict):
        h = complex(_number(obj, field, "h_re", 0.0), _number(obj, field, "h_im", 0.0))
        v = complex(_number(obj, field, "v_re", 0.0), _number(obj, field, "v_im", 0.0))
        return build(field, pol.PolarizationVector, h, v)
    raise _fail(field, "expected a name or {h_re, h_im, v_re, v_im}")


def parse_detector(obj: Any, field: str) -> pol.Detector:
    if not isinstance(obj, dict):
        raise _fail(field, "expected {eta_h, eta_v}")
    return build(field, pol.Detector, _number(obj, field, "eta_h"), _number(obj, field, "eta_v"))


def parse_beam_splitter(obj: Any, field: str) -> fock.BeamSplitter:
    if not isinstance(obj, dict):
        raise _fail(field, "expected {t, r}")
    return build(field, fock.BeamSplitter, _number(obj, field, "t"), _number(obj, field, "r"))


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
    return build(field, chn.ChannelSpec, gamma=_number(obj, field, "gamma", 0.0),
                 p_depol=_number(obj, field, "p_depol", 0.0), xi=_number(obj, field, "xi", 1.0))


def parse_ignored_grid(grid: Any, field: str) -> None:
    """Validate the `{n, span}` grid object ``field`` of older configs and
    drop it: every JSA is exact, so no grid is sampled.  `n` (default 256)
    counts at least 16 points per axis; `span` (default 5.0) is positive."""
    if not isinstance(grid, dict):
        raise _fail(field, "expected {n, span}")
    n = _count(grid.get("n", 256), f"{field}.n")
    _number(grid, field, "span", 5.0, positive=True)
    if n < 16:
        raise _fail(field, "grid needs at least 16 points per axis")


def gaussian_jsa(pump: tuple, pmf: tuple, keys: tuple[str, str, str]) -> jsa.GaussianJSA:
    """The JSA of :class:`jsa.Pump` ``(*pump)`` and :class:`jsa.PhaseMatching`
    ``(*pmf)``; a ValueError of the pump, of the phase matching or of the
    two together names ``keys[0]``, ``keys[1]`` or ``keys[2]``."""
    source = build(keys[0], jsa.Pump, *pump)
    pm = build(keys[1], jsa.PhaseMatching, *pmf)
    # slope_s == slope_i, or det A out of range
    return build(keys[2], jsa.GaussianJSA.from_pump, source, pm)


def parse_jsa(obj: Any, field: str) -> jsa.SeparableJSA | jsa.GaussianJSA:
    """`{separable: {signal, idler}}` or `{pump, pmf}` literals.

    Both are exact, so a literal's `grid: {n, span}` is validated as
    before but not used.
    """
    if not isinstance(obj, dict):
        raise _fail(field, "expected a JSA object")
    parse_ignored_grid(obj.get("grid", {}), f"{field}.grid")
    if "separable" in obj:
        sep = obj["separable"]
        if not isinstance(sep, dict) or "signal" not in sep or "idler" not in sep:
            raise _fail(f"{field}.separable", "needs signal and idler profiles")
        return jsa.SeparableJSA(parse_profile(sep["signal"], f"{field}.separable.signal"),
                                parse_profile(sep["idler"], f"{field}.separable.idler"))
    if "pump" in obj and "pmf" in obj:
        pump, pmf, pump_key, pmf_key = obj["pump"], obj["pmf"], f"{field}.pump", f"{field}.pmf"
        return gaussian_jsa((_number(pump, pump_key, "center"), _number(pump, pump_key, "sigma")),
                            (_number(pmf, pmf_key, "sigma"), _number(pmf, pmf_key, "slope_s", 1.0),
                             _number(pmf, pmf_key, "slope_i", -0.5)),
                            (pump_key, pmf_key, pmf_key))
    raise _fail(field, "needs either 'separable' or 'pump'+'pmf'")
