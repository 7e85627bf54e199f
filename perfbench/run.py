#!/usr/bin/env python3
"""homsim benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload spectral_sweep --seed 1 --seconds 30 --trace 0

Load model: closed loop, one client.  A pass is a seeded list of jobs
(argument lists for ``homsim.cli.main``) run in-process one after another,
exactly as ``scripts/run_*.py`` run them, with stdout captured in memory.
Passes repeat, each with freshly drawn inputs, until their time reaches
``--seconds``.  Between passes, fresh interpreters measure set-up (import
homsim and finish one small job); after the passes, the output check runs
(see check.py).  ``--trace 1`` alternates traced and untraced passes and
reports per-layer metrics instead of end-to-end ones (see tracer.py).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A full record (environment, per-pass samples, quartiles, job
failures) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_RUNS = 9
REFERENCE_JOBS = 6
REFERENCE_POINTS = 4
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {  # name: unit
    "points_per_s": "1/s", "wall_s": "s", "cpu_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Fresh-interpreter set-up probe: import homsim and finish one small job.
_SETUP_CODE = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from homsim import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = cli.main(json.loads(sys.argv[2]))
print(json.dumps({"rc": rc, "s": time.perf_counter() - t0}))
"""


def _pin_blas_threads() -> None:
    """One BLAS thread, as the load model has one client and no threads.

    Must run before numpy is imported.  On a 2-vCPU VM, two threads made
    the JSA matrix products spin on the second vCPU, which the host shares
    with other guests, and made closed_form's times swing widely.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


def _blas_threads() -> int | None:
    """Threads of the loaded OpenBLAS, read from the library itself."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _stats(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure_setup(warmup: list[str]) -> float:
    """Set-up seconds of one fresh interpreter, waited for."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), json.dumps(warmup)],
                          capture_output=True, text=True, timeout=120, env=os.environ)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["rc"] != 0:
        raise RuntimeError(f"set-up job exited {out['rc']}: {warmup}")
    return out["s"]


def run_job(cli, args: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(args)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback the CLI did not turn into an exit code
            rc = 1
            err.write(f"uncaught {type(exc).__name__}: {exc}")
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def grade(results: list[dict], tags: list[str | None]) -> None:
    """Mark each job ok, failed, or a known defect (a tagged job that shows
    its defect's signature) by its exit code and the range check."""
    import check
    for res, tag in zip(results, tags):
        res["points"] = 0
        if res["rc"] != 0:
            res["status"] = f"exit {res['rc']}: {res['err'].strip()[:200]}"
        else:
            try:
                res["points"], why = check.points_and_range(res["out"])
            except (ValueError, KeyError, IndexError) as exc:
                why = f"unparseable output: {exc!r}"
            res["status"] = "ok" if why is None else f"range: {why}"
        res["defect"] = tag if check.shows_defect(tag, res["status"]) else None


def run_passes(cli, workloads, name: str, seed: int, seconds: float, trace: bool):
    """Timed passes until ``seconds`` of pass time; with ``trace`` even
    passes run traced, odd ones not.  Returns the passes and the set-up
    samples.

    Each pass is graded right after its timer stops.  Only pass 0 keeps its
    output text and spans (for the reference and repeat checks and the span
    file), so memory does not grow with the number of passes a faster
    program fits into the run.  The SETUP_RUNS set-up probes are spread
    evenly over the run, between passes, so that their median, like the
    pass timings, spans the run and not only its first seconds.
    """
    warmup = workloads.warmup_job(name, seed)
    setup = []
    if trace:
        from tracer import Instrumentation, Trace, layer_metrics
        instr = Instrumentation()
        commands = {f"cli.{entry[0].__name__}"
                    for entry in getattr(cli, "_COMMANDS", {}).values()}
    passes = []
    measured = 0.0
    k = 0
    while True:
        jobs, tags = map(list, zip(*workloads.jobs(name, seed, k)))
        traced = trace and k % 2 == 0
        tr = None
        if traced:
            tr = Trace()
            instr.install(tr)
        c0, t0 = time.process_time(), time.perf_counter()
        results = [run_job(cli, args) for args in jobs]
        t1, c1 = time.perf_counter(), time.process_time()
        if traced:
            instr.uninstall()
        measured += t1 - t0
        out_bytes = sum(len(r["out"].encode()) for r in results)
        grade(results, tags)
        p = {"k": k, "jobs": jobs, "results": results, "wall_s": t1 - t0,
             "cpu_s": c1 - c0, "traced": traced, "trace": tr if k == 0 else None,
             "ok_points": sum(r["points"] for r in results if r["status"] == "ok")}
        if traced:
            p["layer"] = layer_metrics(tr, t1 - t0, out_bytes, commands)
        if k > 0:
            for r in results:
                del r["out"]
        passes.append(p)
        k += 1
        while len(setup) < SETUP_RUNS and measured >= seconds * (len(setup) + 0.5) / SETUP_RUNS:
            setup.append(measure_setup(warmup))
        if measured >= seconds and (not trace or k >= 2):
            while len(setup) < SETUP_RUNS:
                setup.append(measure_setup(warmup))
            return passes, setup


def check_outputs(cli, workload: str, seed: int, first: dict) -> dict:
    """Reference and repeat checks on pass 0, whose jobs depend on the seed
    only.  A reference error in (TOL, GROSS_TOL] marks the job as the known
    accuracy defect; a larger one, or a rerun that differs, marks it failed.

    Returns the check summary; its ``problems`` (gross reference errors,
    reruns that differ) make the run incorrect.
    """
    import check
    problems = []
    rng = random.Random(f"check:{workload}:{seed}")
    candidates = [i for i, r in enumerate(first["results"])
                  if r["status"] == "ok" and check.referenceable(first["jobs"][i])]
    chosen = sorted(rng.sample(candidates, min(REFERENCE_JOBS, len(candidates))))
    checked, worst = 0, 0.0
    for i in chosen:
        res = first["results"][i]
        try:
            errors = check.reference_errors(first["jobs"][i], res["out"], rng,
                                            REFERENCE_POINTS)
        except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
            errors = [(math.inf, f"cannot rebuild the inputs of job {i}: {exc!r}")]
        checked += len(errors)
        worst = max([worst] + [e for e, _ in errors])
        gross = [d for e, d in errors if e > check.GROSS_TOL]
        bad = gross or [d for e, d in errors if e > check.TOL]
        if bad:
            res["status"] = f"reference: {bad[0]}"
            res["defect"] = None if gross else check.ACCURACY
            problems += gross

    i = rng.randrange(len(first["jobs"]))
    again = [run_job(cli, first["jobs"][i]) for _ in range(2)]
    if any(a["out"] != first["results"][i]["out"] or a["rc"] != first["results"][i]["rc"]
           for a in again):
        first["results"][i]["status"] = "repeat: output bytes differ between runs"
        first["results"][i]["defect"] = None
        problems.append(f"job {i} of pass 0 is not byte-identical on rerun")
    return {"reference_jobs": len(chosen), "reference_points": checked,
            "worst_reference_error": worst, "repeat_job": i, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "homsim" / "cli.py").is_file():
        print(f"benchmark: no homsim sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    _pin_blas_threads()
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import numpy
    from homsim import cli
    run_job(cli, workloads.warmup_job(args.workload, args.seed))
    passes, setup = run_passes(cli, workloads, args.workload, args.seed, args.seconds,
                               bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = check_outputs(cli, args.workload, args.seed, passes[0])
    for p in passes:
        p["known_defects"] = sum(r["defect"] is not None for r in p["results"])
        p["failed"] = sum(r["status"] != "ok" for r in p["results"]) - p["known_defects"]
    attempted = sum(len(p["results"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    known = sum(p["known_defects"] for p in passes)
    correct = not report["problems"]

    untraced = [p for p in passes if not p["traced"]]
    samples = {
        "wall_s": [p["wall_s"] for p in untraced],
        "cpu_s": [p["cpu_s"] for p in untraced],
        "points_per_s": [p["ok_points"] / p["wall_s"] for p in untraced],
        "setup_s": setup,
    }
    stats = {k: _stats(v) for k, v in samples.items()}
    # Passes are timed back to back, so the run's totals are the mean over
    # its passes; on a shared host whose speed drifts from pass to pass
    # the mean varies less between runs than the median does.
    wall = sum(samples["wall_s"])
    values = {"wall_s": wall / len(untraced),
              "cpu_s": sum(samples["cpu_s"]) / len(untraced),
              "points_per_s": sum(p["ok_points"] for p in untraced) / wall,
              "setup_s": stats["setup_s"]["median"],
              "peak_rss_mb": peak_rss_mb}
    e2e = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    metrics = e2e
    layer = None
    if args.trace:
        from tracer import unit
        per_pass = [p["layer"] for p in passes if p["traced"]]
        # counts and shares repeat exactly for a seed: take them from pass
        # 0; times are medians over the traced passes
        layer = dict(per_pass[0])
        for key in layer:
            if key.endswith("_s"):
                layer[key] = statistics.median(m[key] for m in per_pass)
        layer["trace.unattributed_share"] = layer["trace.unattributed_s"] / layer["trace.wall_s"]
        layer["trace.overhead"] = layer["trace.wall_s"] / statistics.median(samples["wall_s"])
        layer["cli.fail_ratio"] = passes[0]["failed"] / len(passes[0]["results"])
        layer["cli.known_defect_ratio"] = passes[0]["known_defects"] / len(passes[0]["results"])
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in layer.items()}

    import scipy
    RESULTS.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_s{args.seed}_t{args.trace}"
    if args.trace:
        passes[0]["trace"].write(RESULTS / f"spans_{args.workload}_s{args.seed}.jsonl.gz")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "git_commit": _git_commit(), "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": _blas_threads(),
            "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
            "platform": platform.platform(),
        },
        "load_model": "closed loop, one client, jobs in-process one after another",
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "known_defects": known, "known_defect_ratio": known / attempted,
        "end_to_end": e2e, "per_layer": layer, "stats": stats, "samples": samples,
        "passes": [{"k": p["k"], "traced": p["traced"], "wall_s": p["wall_s"],
                    "cpu_s": p["cpu_s"], "jobs": len(p["jobs"]), "failed": p["failed"],
                    "known_defects": p["known_defects"], "ok_points": p["ok_points"]}
                   for p in passes],
        "check": report,
        "failures": [{"pass": p["k"], "job": i, "args": p["jobs"][i], "status": r["status"],
                      "known_defect": r["defect"]}
                     for p in passes for i, r in enumerate(p["results"]) if r["status"] != "ok"],
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"attempted={attempted} failed={failed} known_defects={known} correct={correct}")
    for k, m in metrics.items():
        print(f"{k:45s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':45s} {failed / attempted:.6g} ratio")
    print(f"{'known_defect_ratio':45s} {known / attempted:.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
