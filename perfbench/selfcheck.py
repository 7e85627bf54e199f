#!/usr/bin/env python3
"""Stability self-check of the benchmark.

    python3 perfbench/selfcheck.py [--seed N]

Runs the traced benchmark twice per workload on one seed, in fresh
processes, and requires every count metric to repeat exactly: integrand
evaluations, every ``*.calls``, every ``*_share``, the failure ratio and
the output bytes.  Then confirms the workloads still discriminate: no
quadrature on closed_form, each overlap asked for about nine times on
dip_delay and about once on spectral_sweep, the known defects showing on
dip_delay and closed_form, and no job failing otherwise.  Exits 1 if any of
this does not hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("spectral_sweep", "dip_delay", "closed_form")


def _is_count(name: str) -> bool:
    # trace.unattributed_share is a ratio of times, not a count
    return not name.startswith("trace.") and name.endswith(
        (".calls", ".evals", ".rounds", ".fail", "_share", "fail_ratio",
         "known_defect_ratio", "output_bytes", "bytes_computed"))


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    # the shortest run: one traced and one untraced pass
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", "1"],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: benchmark exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: m["value"] for k, m in result["metrics"].items() if _is_count(k)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    problems = []
    counts = {}
    for workload in WORKLOADS:
        first, second = traced_counts(workload, seed), traced_counts(workload, seed)
        for name in sorted(first):
            if first[name] != second.get(name):
                problems.append(f"{workload}: {name} gave {first[name]} then {second.get(name)}")
        counts[workload] = first
        print(f"{workload}: {len(first)} count metrics compared")

    expect = [
        ("closed_form", "quadrature.integrate.calls", lambda v: v == 0, "== 0"),
        ("dip_delay", "spectral.overlap.distinct_share", lambda v: v < 0.2, "< 0.2 (about 1/9)"),
        ("spectral_sweep", "spectral.overlap.distinct_share", lambda v: v > 0.9,
         "> 0.9 (about 1)"),
        ("dip_delay", "cli.known_defect_ratio", lambda v: v > 0, "> 0 (known defects)"),
        ("closed_form", "cli.known_defect_ratio", lambda v: v > 0, "> 0 (known defects)"),
    ] + [(w, "cli.fail_ratio", lambda v: v == 0, "== 0") for w in WORKLOADS]
    for workload, name, ok, rule in expect:
        value = counts[workload][name]
        print(f"{workload}: {name} = {value:.6g}, want {rule}")
        if not ok(value):
            problems.append(f"{workload}: {name} = {value}, want {rule}")
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
