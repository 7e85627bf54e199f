"""Output check for the benchmark, run outside the timed region.

Three checks, each turning a bad job into a failed job (or a known-defect
job, below):

* range: every probability, visibility and fidelity a job printed lies in
  [0, 1] (to 1e-12, the output's last printed digit);
* reference: a seeded sample of points is re-derived from references that
  share no numerics with the code under test, and must agree within
  ROADMAP's 1e-10 absolute.  Fock points use ``oracle.oracle_coincidence``
  (ideal detectors only); overlaps use scipy's QUADPACK with oscillatory
  weights over envelopes written out here; coherent points use
  ``coherent.total_coincidence_series``; separable swaps use
  ``jsa.swap_fidelity_separable``.  An error between 1e-10 and 1e-8 is the
  known ``accuracy`` defect; an error above 1e-8 (gross: a hundred times
  the tolerance, and ten times the seed's worst, 8.4e-10 on a contour
  point) fails the job and makes the run incorrect;
* repeat: one job is run twice more and must print the same bytes; a
  difference also makes the run incorrect.

A job the workload built to hit a documented defect (``KNOWN_DEFECTS``)
and that shows exactly that defect's signature counts as a known defect,
not as failed; any other outcome of it is graded like any job.  Known
defects are counted and reported separately, never dropped.

Inputs to a reference (profiles, axes, detectors) are rebuilt from the
resolved config each CSV embeds in its header, or from the job's ``--set``
arguments for JSON output, using only homsim's public API.
"""

from __future__ import annotations

import json
import math
import random
import re
import warnings

import numpy as np

from homsim import coherent as coh
from homsim import config as cfgmod
from homsim import fock, jsa, oracle, sweeps
from homsim import polarization as pol
from homsim import spectral as spc

TOL = 1e-10
GROSS_TOL = 1e-8
RANGE_TOL = 1e-12
_PROB_COLUMNS = {"visibility", "p_co", "probability", "fidelity"}
_PROB_KEYS = {"fidelity", "conclusive_probability", "fusion_fidelity", "p0", "floor",
              "M0", "M1", "M2", "M3", "M12", "M34", "M23", "M14"}
_CELL = re.compile(r"(-?\d+\.\d+) \| (-?\d+\.\d+)")
_FAR_DELAY_PS = 1e7

# Statuses of jobs that hit a documented defect (README "Known defects"),
# by the tag the workload gives such a job.
KNOWN_DEFECTS = {
    # ROADMAP item 3: IntegrationError at narrowband, far-detuned delays
    "narrowband": re.compile(r"exit 3: numerical failure: quadrature exceeded panel budget"),
    # ROADMAP item 2: the paper's lossy-detector formula, InvalidRegimeError
    "lossy_detector": re.compile(r"exit 3: numerical failure: coincidence -\S+ outside \[0,1\]"),
    # ROADMAP item 2: the coherent closed form prints that formula's
    # negative values without an error
    "negative_visibility": re.compile(r"range: \d+ visibility values below 0, 0 above 1$"),
}
# Reference errors in (TOL, GROSS_TOL] are the untagged "accuracy" defect:
# the overlap quadrature and the swap's default JSA grid miss 1e-10.
ACCURACY = "accuracy"


def shows_defect(tag: str | None, status: str) -> bool:
    """Whether a job tagged ``tag`` was graded with that defect's signature."""
    return tag is not None and bool(KNOWN_DEFECTS[tag].match(status))


def _floats(line: str) -> list[float] | None:
    try:
        return [float(x) for x in line.split(",")]
    except ValueError:
        return None


def parse(text: str):
    """(kind, config or report, data).

    CSV: data is a list of (column label, row values); tables: a list of
    (visibility, ratio) cells; JSON: the report itself.
    """
    if text.startswith("{"):
        return "json", json.loads(text), None
    cfg, rows, cells, label = {}, [], [], ""
    tables = text.startswith("# homsim tables")
    for line in text.splitlines():
        if line.startswith("# config "):
            cfg = json.loads(line[len("# config "):])
        elif tables:
            cells += [(float(a), float(b)) for a, b in _CELL.findall(line)]
        elif line and not line.startswith("#"):
            values = _floats(line)
            if values is None:
                label = line.split(",")[-1]
            else:
                rows.append((label, values))
    if tables:
        return "tables", cfg, cells
    return "csv", cfg, rows


def _json_numbers(obj, key=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _json_numbers(v, k)
    elif isinstance(obj, list):
        for v in obj:
            yield from _json_numbers(v, key)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield key, float(obj)


def _in_unit(x: float) -> bool:
    return -RANGE_TOL <= x <= 1.0 + RANGE_TOL


def points_and_range(text: str) -> tuple[int, str | None]:
    """Number of output values, and why the range check failed (or None)."""
    kind, cfg, data = parse(text)
    if kind == "json":
        numbers = list(_json_numbers(cfg))
        bad = [k for k, v in numbers if k in _PROB_KEYS and not _in_unit(v)]
        return len(numbers), (f"{len(bad)} values of {bad[0]} outside [0, 1]" if bad else None)
    if kind == "tables":
        bad = sum(1 for v, r in data if not (_in_unit(v) and r > 0.0))
        return len(data), (f"{bad} table cells out of range" if bad else None)
    probs = [values[-1] for label, values in data if label in _PROB_COLUMNS]
    low = sum(1 for v in probs if v < -RANGE_TOL)
    high = sum(1 for v in probs if v > 1.0 + RANGE_TOL)
    return len(data), (f"{low} {data[0][0]} values below 0, {high} above 1"
                       if low or high else None)


# ---------------------------------------------------------------------------
# independent overlap reference
# ---------------------------------------------------------------------------

def _envelope(shape: str, w: float):
    """Real time envelope G(t) and the radius beyond which G < ~1e-19 G(0)."""
    if shape == "gaussian":
        a = (2.0 * w * w / math.pi) ** 0.25
        return (lambda t: a * math.exp(-(w * t) ** 2)), 6.7 / w
    if shape == "sinc":
        return (lambda t: 1.0 / math.sqrt(w)), 0.5 * w
    if shape == "lorentzian":
        a = math.sqrt(0.5 * w)
        return (lambda t: a * math.exp(-0.5 * w * abs(t))), 90.0 / w
    a = 0.5 * math.sqrt(math.pi * w)
    k = 0.5 * math.pi * w
    return (lambda t: a / math.cosh(min(k * abs(t), 700.0))), 90.0 / (math.pi * w)


def reference_overlap(a: spc.SpectralProfile, b: spc.SpectralProfile) -> float:
    """|int phi_a* phi_b d omega| in the time domain by QUADPACK (QAWO).

    The product of the two real envelopes is integrated against cos and
    sin of the beat frequency, piecewise between the arrival times so the
    Lorentzian kink and the sinc edges sit on interval ends.
    """
    ga, ra = _envelope(a.shape.value, a.effective_width)
    gb, rb = _envelope(b.shape.value, b.effective_width)
    lo = max(a.delay - ra, b.delay - rb)
    hi = min(a.delay + ra, b.delay + rb)
    if lo >= hi:
        return 0.0
    dw = b.center - a.center
    cuts = sorted({lo, hi} | {x for x in (a.delay, b.delay) if lo < x < hi})

    def f(t):
        return ga(t - a.delay) * gb(t - b.delay)

    from scipy import integrate as sp_integrate  # here so grading needs no scipy

    re_part = im_part = 0.0
    opts = dict(epsabs=1e-15, epsrel=1e-13, limit=1000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x0, x1 in zip(cuts, cuts[1:]):
            if dw == 0.0:
                re_part += sp_integrate.quad(f, x0, x1, **opts)[0]
            else:
                re_part += sp_integrate.quad(f, x0, x1, weight="cos", wvar=dw, **opts)[0]
                im_part -= sp_integrate.quad(f, x0, x1, weight="sin", wvar=dw, **opts)[0]
    return math.hypot(re_part, im_part)


# ---------------------------------------------------------------------------
# per-command point references: each yields (printed value, reference value)
# ---------------------------------------------------------------------------

def _ideal(app: fock.Apparatus) -> bool:
    return (app.det_a == pol.IDEAL_DETECTOR and app.det_b == pol.IDEAL_DETECTOR
            and app.bs == fock.BeamSplitter.balanced())


def _dip_points(cfg, rows, picks):
    prof_a = cfgmod.parse_profile(cfg["profile_a"], "profile_a")
    prof_b = cfgmod.parse_profile(cfg.get("profile_b", cfg["profile_a"]), "profile_b")
    pol_a = cfgmod.parse_polarization(cfg.get("pol_a", "H"), "pol_a")
    app = cfgmod.parse_apparatus(cfg)
    if not _ideal(app):
        return
    t = cfg["tau"]
    taus = np.linspace(float(t["min"]), float(t["max"]), int(t["steps"]))
    blocks = [(m, n, float(phi)) for m, n in cfg["photons"] for phi in cfg["phi"]]
    for r in picks(len(rows)):
        (m, n, phi), i = blocks[r // len(taus)], r % len(taus)
        tau, p = rows[r][1]
        if abs(tau - taus[i]) > 1e-9 * max(1.0, abs(taus[i])):
            raise ValueError(f"printed tau {tau!r} is not the config's {taus[i]!r}")
        spec_b = prof_b.delayed(float(taus[i]))
        pol_b = pol.rotate(pol_a, phi)
        yield p, oracle.oracle_coincidence(fock.FockPair(m, n, pol_a, pol_b, prof_a, spec_b),
                                           app.bs)
        if m == n == 1:
            c = pol.cos_phi(pol_a, pol_b) * reference_overlap(prof_a, spec_b)
            yield p, 0.5 * (1.0 - c * c)


def _contour_points(cfg, rows, picks):
    app = cfgmod.parse_apparatus(cfg)
    if not _ideal(app):
        return
    center = 2.0 * math.pi * float(cfg["center_thz"])
    lam = 2.0 * math.pi * spc.SPEED_OF_LIGHT_NM_PS / center
    fw = spc.wavelength_width_to_frequency(lam, float(cfg["fwhm_nm"]))
    prof_a = spc.SpectralProfile.from_fwhm(cfg["shape_a"], center, fw)
    n = int(cfg.get("grid_override", cfg["grid_n"]))
    span = float(cfg["center_span_fwhm"]) * spc.fwhm(prof_a)
    centers = np.linspace(prof_a.center - span, prof_a.center + span, n)
    fwhms = sweeps.log_grid(spc.fwhm(prof_a), float(cfg["width_factor"]), n)
    m, k, phi = int(cfg["m"]), int(cfg["n"]), float(cfg["phi"])
    pol_b = pol.rotate(pol.H, phi)
    for r in picks(len(rows)):
        cb, wb, v = rows[r][1]
        i, j = divmod(r, n)
        if abs(cb - centers[i]) > 1e-9 * centers[i] or abs(wb - fwhms[j]) > 1e-9 * fwhms[j]:
            raise ValueError(f"printed axes ({cb!r}, {wb!r}) are not the config's "
                             f"({centers[i]!r}, {fwhms[j]!r})")
        prof_b = spc.SpectralProfile.from_fwhm(cfg["shape_b"], float(centers[i]),
                                               float(fwhms[j]))
        p0 = oracle.oracle_coincidence(
            fock.FockPair(m, k, pol.H, pol_b, prof_a, prof_b), app.bs)
        p_inf = oracle.oracle_coincidence(
            fock.FockPair(m, k, pol.H, pol_b, prof_a, prof_b.delayed(_FAR_DELAY_PS)), app.bs)
        yield v, (p_inf - p0) / p_inf
        if m == k == 1 and phi == 0.0:
            yield v, reference_overlap(prof_a, prof_b) ** 2


def _coherent_visibility(pair: coh.CoherentPair, app: fock.Apparatus, c: float) -> float:
    # the default 1e-12 Poisson tail is too coarse for visibilities at mu ~ 0.01
    p_inf = coh.total_coincidence_series(pair, app, tail_mass=1e-15, c=0.0)
    p0 = coh.total_coincidence_series(pair, app, tail_mass=1e-15, c=c)
    return (p_inf - p0) / p_inf


def _coherent_points(cfg, rows, picks):
    mode = cfg.get("mode", "ratio_map")
    n = int(cfg.get("grid_override", cfg.get("grid_n", 41)))
    if mode == "curve":
        curve = cfg["mu_curve"]
        mus = np.linspace(float(curve["min"]), float(curve["max"]),
                          int(cfg.get("grid_override") or curve["steps"]))
        pol_b = pol.rotate(pol.H, float(cfg["phi"]))
        for r in picks(len(rows)):
            mu, v = rows[r][1]
            pair = coh.CoherentPair(float(mus[r]), float(mus[r]), pol.H, pol_b)
            yield v, _coherent_visibility(pair, fock.IDEAL_APPARATUS,
                                          pol.cos_phi(pol.H, pol_b))
    elif mode == "ratio_map":
        app = cfgmod.parse_apparatus(cfg)
        ratios = sweeps.log_grid(1.0, float(cfg["ratio_factor"]), n)
        mu_mean, fixed = float(cfg["mu_mean"]), cfg.get("fixed_mu_b")
        for r in picks(len(rows)):
            i, j = divmod(r, n)
            q, s = float(ratios[i]), float(ratios[j])
            if fixed is None:
                mu_a, mu_b = mu_mean * math.sqrt(q), mu_mean / math.sqrt(q)
            else:
                mu_a, mu_b = q * float(fixed), float(fixed)
            t = s / (1.0 + s)
            local = fock.Apparatus(fock.BeamSplitter(t, 1.0 - t), app.det_a, app.det_b)
            yield rows[r][1][2], _coherent_visibility(coh.CoherentPair(mu_a, mu_b), local, 1.0)


def _swap_pair_points(args, report):
    sets = dict(a.split("=", 1) for a in args[2::2] if a[0] != "-")
    ab, cd = json.loads(sets["jsa_ab"]), json.loads(sets["jsa_cd"])
    sig_ab = cfgmod.parse_profile(ab["separable"]["signal"], "jsa_ab")
    sig_cd = cfgmod.parse_profile(cd["separable"]["signal"], "jsa_cd")
    theta = math.acos(min(reference_overlap(sig_ab, sig_cd), 1.0))
    yield report["fidelity"], jsa.swap_fidelity_separable(float(sets["phi"]), theta)


def referenceable(args: list[str]) -> bool:
    """Whether some points of this job have a reference here."""
    return args[0] in ("dip", "contour", "coherent") or (
        args[0] == "swap" and "mode=pair" in args)


def reference_errors(args: list[str], text: str, rng: random.Random,
                     budget: int) -> list[tuple[float, str]]:
    """(absolute error, description) of up to ``budget`` sampled points of one job.

    Raises ValueError (or KeyError) when the job's inputs cannot be rebuilt
    from its output, such as a printed axis that is not the config's.
    """
    kind, cfg, rows = parse(text)

    def picks(n):
        return sorted(rng.sample(range(n), min(budget, n)))

    command = args[0]
    if kind == "json" and command == "swap":
        pairs = _swap_pair_points(args, cfg)
    elif command == "dip":
        pairs = _dip_points(cfg, rows, picks)
    elif command == "contour":
        pairs = _contour_points(cfg, rows, picks)
    elif command == "coherent":
        pairs = _coherent_points(cfg, rows, picks)
    else:
        return []
    return [(abs(got - want), f"{command}: printed {got!r}, reference {want!r}")
            for got, want in pairs]
