"""Seeded job lists for the three benchmark workloads.

A job is one argument list for ``homsim.cli.main``, run in-process exactly
as the study scripts run it.  ``jobs(workload, seed, k)`` returns the k-th
pass of a workload: every pass draws fresh continuous parameters, so no
pass repeats an earlier pass's inputs and a cache that lives across jobs
can only gain from sharing that really exists inside one study.  The mix
of job kinds in a pass is fixed, so a pass costs about the same at every
seed and the share of jobs that hit a known defect is the same in every
pass.

Each job comes with the tag of the known defect it is built to hit
(``check.KNOWN_DEFECTS``), or None.
"""

from __future__ import annotations

import json
import math
import random

SHAPES = ("gaussian", "sinc", "lorentzian", "sech")
FIG9_DETECTORS = {"detector_a": {"eta_h": 0.8, "eta_v": 0.83},
                  "detector_b": {"eta_h": 0.78, "eta_v": 0.85}}

CONTOUR_GRID = 21
DIP_TAU_STEPS = 81

# Narrowband pairs at FWHM 0.01 rad/ps and 3,000-10,000 FWHM detuning: at
# a 3 / FWHM delay the window holds far more beat periods than the 2,000
# seeds the overlap engine places, Kronrod-15 aliases and the panel budget
# runs out (ROADMAP item 3).  Below ~3,000 FWHM some of these overlaps still
# converge, slowly, depending on the detuning.
NARROWBAND_PAIRS = (("lorentzian", "sech"), ("sech", "lorentzian"),
                    ("lorentzian", "lorentzian"))
NARROWBAND_TAU_STEPS = 21


def _num(x: float) -> str:
    return format(x, ".10g")


def _sets(**fields) -> list[str]:
    out = []
    for key, value in fields.items():
        raw = value if isinstance(value, str) else json.dumps(value)
        out += ["--set", f"{key}={raw}"]
    return out


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


Job = tuple[list[str], str | None]  # (argument list, known-defect tag)


def _spectral_sweep(rng: random.Random) -> list[Job]:
    """One ``tables`` job and the 16 shape-pairing contours.

    Photon A sits in the telecom band (185-200 THz) with a 0.2-5 nm FWHM,
    drawn afresh for every job; the contour grid side is fixed.
    """
    def photon_a() -> dict:
        return {"center_thz": _num(rng.uniform(185.0, 200.0)),
                "fwhm_nm": _num(_log_uniform(rng, 0.2, 5.0))}

    jobs = [(["tables"] + _sets(**photon_a()), None)]
    for shape_a in SHAPES:
        for shape_b in SHAPES:
            jobs.append((["contour", "--grid", str(CONTOUR_GRID)]
                         + _sets(shape_a=shape_a, shape_b=shape_b, **photon_a()), None))
    return jobs


def _profile(shape: str, center_thz: float, fwhm_rad_ps: float) -> dict:
    """Config literal for a profile with the given intensity FWHM.

    ``width_thz`` is an ordinary-frequency width for every family but the
    sinc, where it is the duration T in ps (FWHM = 5.566229 / T rad/ps).
    """
    if shape == "sinc":
        width = 5.566229 / fwhm_rad_ps
    elif shape == "gaussian":
        width = fwhm_rad_ps / (2.0 * math.sqrt(2.0 * math.log(2.0))) / (2 * math.pi)
    elif shape == "sech":
        width = fwhm_rad_ps / 1.762747 / (2 * math.pi)
    else:
        width = fwhm_rad_ps / (2 * math.pi)
    return {"shape": shape, "center_thz": float(_num(center_thz)),
            "width_thz": float(_num(width))}


def _dip_delay(rng: random.Random) -> list[Job]:
    """Dip scans over all 16 shape pairs plus three known-defect jobs.

    Broadband jobs: FWHM 1-4 rad/ps, detuning up to one FWHM, width ratio
    0.5-2, tau span 4-8 / FWHM.  Two narrowband jobs (FWHM 0.01 rad/ps,
    detuning 3,000-10,000 FWHM, tau from -3 / FWHM) hit the overlap
    engine's IntegrationError at their first delay; one job with eta =
    0.95 detectors and matched photons hits the detector model's
    InvalidRegimeError at zero delay.  All use the default 3 photon pairs
    x 3 Phi blocks.
    """
    jobs = []
    pairs = [(a, b) for a in SHAPES for b in SHAPES]
    rng.shuffle(pairs)
    for shape_a, shape_b in pairs:
        fw_a = rng.uniform(1.0, 4.0)
        fw_b = fw_a * _log_uniform(rng, 0.5, 2.0)
        center = rng.uniform(190.0, 197.0)
        detune = rng.uniform(-1.0, 1.0) * fw_a / (2 * math.pi)
        span = rng.uniform(4.0, 8.0) / min(fw_a, fw_b)
        jobs.append((["dip"] + _sets(
            profile_a=_profile(shape_a, center, fw_a),
            profile_b=_profile(shape_b, center + detune, fw_b),
            tau={"min": -float(_num(span)), "max": float(_num(span)),
                 "steps": DIP_TAU_STEPS}), None))
    for _ in range(2):
        shape_a, shape_b = rng.choice(NARROWBAND_PAIRS)
        fw = 0.01
        center = rng.uniform(190.0, 197.0)
        detune = rng.uniform(3000.0, 10000.0) * fw / (2 * math.pi)
        jobs.append((["dip"] + _sets(
            profile_a=_profile(shape_a, center, fw),
            profile_b=_profile(shape_b, center + detune, fw),
            tau={"min": -3.0 / fw, "max": 3.0 / fw, "steps": NARROWBAND_TAU_STEPS}),
            "narrowband"))
    shape = rng.choice(SHAPES)
    fw = rng.uniform(1.0, 4.0)
    span = rng.uniform(4.0, 8.0) / fw
    jobs.append((["dip"] + _sets(
        profile_a=_profile(shape, rng.uniform(190.0, 197.0), fw),
        tau={"min": -float(_num(span)), "max": float(_num(span)),
             "steps": DIP_TAU_STEPS},
        detector_a={"eta_h": 0.95, "eta_v": 0.95},
        detector_b={"eta_h": 0.95, "eta_v": 0.95}), "lossy_detector"))
    return jobs


def _closed_form(rng: random.Random) -> list[Job]:
    """Coherent maps and curves, channel contours, swap and protocols.

    No job here integrates an overlap numerically.  Two jobs hit known
    defects: a ratio map at mu ~ 0.01 with the Fig-9 detectors returns
    negative visibilities without an error, and a damping contour with the
    Fig-9 detectors exits 3 with InvalidRegimeError.
    """
    def separable(signal_thz: float) -> dict:
        # the signal photon of each literal is the one sent to the Bell
        # measurement; photon C at least as wide as B keeps B resolved on
        # the shared axis
        return {"separable": {
            "signal": {"shape": "gaussian", "center_thz": 193.55,
                       "width_thz": float(_num(signal_thz))},
            "idler": {"shape": "gaussian", "center_thz": 193.55, "width_thz": 0.1}},
            "grid": {"n": 192, "span": 6.0}}

    def detector() -> dict:
        return {"eta_h": float(_num(rng.uniform(0.85, 1.0))),
                "eta_v": float(_num(rng.uniform(0.85, 1.0)))}

    return [
        (["coherent", "--grid", "41"] + _sets(
            mu_mean=_num(_log_uniform(rng, 0.5, 2.0)),
            detector_a=detector(), detector_b=detector()), None),
        (["coherent", "--grid", "41"] + _sets(
            mu_mean=_num(rng.uniform(0.008, 0.012)), **FIG9_DETECTORS),
         "negative_visibility"),
        (["coherent"] + _sets(mode="curve", phi=_num(rng.uniform(0.0, 0.5 * math.pi))),
         None),
        (["channels"] + _sets(mode="damping", m="2", n="1",
                              gamma_max=_num(rng.uniform(0.8, 0.95))), None),
        (["channels"] + _sets(mode="depolarizing", m="1", n="1",
                              pol_b=rng.choice(["H", "D"]),
                              p_max=_num(rng.uniform(0.6, 0.75))), None),
        (["channels"] + _sets(mode="broadening", m="3", n="3",
                              xi_max=_num(rng.uniform(2.5, 3.5))), None),
        (["channels"] + _sets(mode="damping", m="1", n="1", **FIG9_DETECTORS),
         "lossy_detector"),
        (["swap"] + _sets(mode="pump_sweep",
                          pmf_sigma=_num(rng.uniform(0.4, 0.6))), None),
        (["swap"] + _sets(mode="pair", phi=_num(rng.uniform(0.0, 0.5 * math.pi)),
                          jsa_ab=separable(0.08),
                          jsa_cd=separable(rng.uniform(0.08, 0.2))), None),
        (["protocols"] + _sets(
            mdi={"phi": float(_num(rng.uniform(0.0, 0.4))),
                 "theta": float(_num(rng.uniform(0.0, 0.4)))},
            fusion={"theta": float(_num(rng.uniform(0.0, 0.5)))}), None),
    ]


WORKLOADS = {
    "spectral_sweep": _spectral_sweep,
    "dip_delay": _dip_delay,
    "closed_form": _closed_form,
}


def jobs(workload: str, seed: int, k: int) -> list[Job]:
    """(argument list, known-defect tag) of each job of pass ``k`` of
    ``workload`` at ``seed``."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:{k}"))


def warmup_job(workload: str, seed: int) -> list[str]:
    """A small job of the workload: its first sweep at a 3-point grid."""
    first = next(args for args, defect in jobs(workload, seed, 0)
                 if args[0] != "tables" and defect is None)
    return first + ["--grid", "3"]
