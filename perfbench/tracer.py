"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the program, every public function of each
homsim module (the module is the layer), plus ``cli._emit`` and
``cli._load_config`` so the CLI's parse and emit phases show.  Each wrapped
call records a span: name, start, end, the span that caused it, and the job
(one ``cli.main`` call) it belongs to.  Spans stay in memory and are written
out once, after the run.

A name is wrapped wherever a module bound it, because modules import names
from each other (``spectral`` binds ``integrate``, ``channels`` binds
``coincidence_raw``) and ``cli._COMMANDS`` holds the command functions.
Names the program no longer has are skipped, so the tracer keeps working
when a later change renames or removes one.

Self time is a span's duration minus the time its child spans cover; it
is accumulated as spans close, because calls nest strictly in this
single-threaded program.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("quadrature", "spectral", "polarization", "fock", "coherent",
          "channels", "jsa", "protocols", "sweeps", "config", "cli")
_CLI_PRIVATE = ("_emit", "_load_config")


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    if module.__name__.endswith(".cli"):
        names = list(names) + list(_CLI_PRIVATE)
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Trace:
    """Spans and counters of one traced pass."""

    def __init__(self):
        # span records: [name, start, end, parent index, job]
        self.spans: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.fails: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.evals = 0
        self.rounds = 0
        self.overlaps_reaching_quad: set[int] = set()
        self.bytes_computed = 0
        self.job = -1
        self._open: list[int] = []
        self._child: list[float] = []

    def _note_args(self, name: str, idx: int, args, kwargs):
        """Per-function counters that need the call's arguments."""
        if name == "spectral.overlap":
            self.distinct[name].add((args[0], args[1]))
        elif name == "polarization.eigendecompose":
            self.distinct[name].add(args[0].rho.tobytes())
        elif name == "quadrature.integrate":
            parent = self.spans[idx][3]
            if parent >= 0 and self.spans[parent][0] == "spectral.overlap":
                self.overlaps_reaching_quad.add(parent)
            f = args[0] if args else kwargs.pop("f")

            def counted(x, _f=f):
                self.evals += x.size
                self.rounds += 1
                return _f(x)
            args = (counted,) + tuple(args[1:])
        elif name == "cli.main":
            self.job += 1
            self.spans[idx][4] = self.job
        elif name == "jsa.build_gaussian_jsa":
            grid = args[2] if len(args) > 2 else kwargs["grid"]
            self.bytes_computed += 16 * grid.n * grid.n
        elif name == "jsa.swap_fidelity":
            sc = args[0]
            ab, cd = sc.jsa_ab, sc.jsa_cd
            if hasattr(ab, "values") and hasattr(cd, "values"):
                # kernel matmul: read both JSAs, write the A x D kernel
                self.bytes_computed += (ab.values.nbytes + cd.values.nbytes
                                        + 16 * ab.values.shape[0] * cd.values.shape[1])
        return args, kwargs

    def wrap(self, name: str, fn):
        spans, open_, child = self.spans, self._open, self._child
        clock = time.perf_counter
        noted = name in ("spectral.overlap", "polarization.eigendecompose",
                         "quadrature.integrate", "cli.main",
                         "jsa.build_gaussian_jsa", "jsa.swap_fidelity")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.job]
            spans.append(rec)
            if noted:
                args, kwargs = self._note_args(name, idx, args, kwargs)
            open_.append(idx)
            child.append(0.0)
            rec[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.fails[name] += 1
                raise
            finally:
                rec[2] = end = clock()
                open_.pop()
                inner = child.pop()
                dur = end - start
                if child:
                    child[-1] += dur
                self.self_s[name] += dur - inner
                self.calls[name] += 1
        return traced

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: name, start, end, parent, job."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


class Instrumentation:
    """Installs a :class:`Trace`'s wrappers into the loaded homsim modules."""

    def __init__(self):
        self.modules = {layer: sys.modules[f"homsim.{layer}"] for layer in LAYERS}
        self.targets = {f"{layer}.{name}": fn
                        for layer, mod in self.modules.items()
                        for name, fn in _public_functions(mod)}
        self._saved: list = []

    def install(self, trace: Trace) -> None:
        by_id = {id(fn): (name, trace.wrap(name, fn))
                 for name, fn in self.targets.items()}
        namespaces = [vars(m) for n, m in sys.modules.items()
                      if n == "homsim" or n.startswith("homsim.")]
        for ns in namespaces:
            for key, value in list(ns.items()):
                hit = by_id.get(id(value))
                if hit is not None:
                    self._saved.append((ns, key, value))
                    ns[key] = hit[1]
        commands = getattr(self.modules["cli"], "_COMMANDS", {})
        for key, entry in list(commands.items()):
            hit = by_id.get(id(entry[0]))
            if hit is not None:
                self._saved.append((commands, key, entry))
                commands[key] = (hit[1],) + tuple(entry[1:])

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._saved):
            ns[key] = value
        self._saved.clear()


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith(("_share", "_ratio", ".overhead")):
        return "ratio"
    return "count"


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


# functions whose calls, self time and failures are reported by name
_CALLS = ("quadrature.integrate", "spectral.overlap", "fock.coincidence_raw",
          "polarization.eigendecompose", "polarization.click_probability",
          "coherent.total_coincidence", "channels.mixed_coincidence")
_SELF = ("quadrature.integrate", "spectral.overlap", "fock.coincidence_raw",
         "polarization.eigendecompose", "coherent.total_coincidence",
         "coherent.visibility_ratio_map", "channels.mixed_coincidence",
         "channels.channel_visibility_contour", "jsa.build_gaussian_jsa",
         "jsa.swap_fidelity", "sweeps.visibility_contour_grid",
         "sweeps.max_visibility_table", "sweeps.coherent_contour_grid")
_FAILS = ("quadrature.integrate", "spectral.overlap", "fock.coincidence_raw")


def layer_metrics(trace: Trace, wall_s: float, output_bytes: int,
                  command_names: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the failure and known-defect
    ratios are added by the caller once the output check has run).

    ``command_names`` are the span names of the CLI command functions; the
    CLI phases are inclusive times: parse is ``cli.main`` minus its
    command, emit is ``cli._emit``, compute is the command minus emit.
    """
    spans = trace.spans
    main_s = cmd_s = emit_s = 0.0
    for name, start, end, parent, _job in spans:
        if name == "cli.main":
            main_s += end - start
        elif name in command_names and parent >= 0 and spans[parent][0] == "cli.main":
            cmd_s += end - start
        elif name == "cli._emit":
            emit_s += end - start
    calls, distinct = trace.calls, trace.distinct
    m = {f"{f}.calls": calls[f] for f in _CALLS}
    m.update({f"{f}.self_s": trace.self_s[f] for f in _SELF})
    m.update({f"{f}.fail": trace.fails[f] for f in _FAILS})
    m.update({
        "quadrature.integrate.evals": trace.evals,
        "quadrature.integrate.rounds": trace.rounds,
        "spectral.overlap.quad_share": _share(len(trace.overlaps_reaching_quad),
                                              calls["spectral.overlap"]),
        "spectral.overlap.distinct_share": _share(len(distinct["spectral.overlap"]),
                                                  calls["spectral.overlap"]),
        "polarization.eigendecompose.distinct_share": _share(
            len(distinct["polarization.eigendecompose"]),
            calls["polarization.eigendecompose"]),
        "jsa.bytes_computed": trace.bytes_computed,
        "cli.parse_s": main_s - cmd_s,
        "cli.compute_s": cmd_s - emit_s,
        "cli.emit_s": emit_s,
        "cli.output_bytes": output_bytes,
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in trace.self_s.items()
                                   if k.split(".", 1)[0] == layer)
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - sum(m[f"{layer}.self_s"] for layer in LAYERS)
    return m
