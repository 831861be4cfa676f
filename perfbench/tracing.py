"""Spans around calls into heatext's layers, installed from outside the library.

A traced run wraps each layer's public entry point at run time: every
module-level name bound to a heatext function (including the copies that
`from x import y` makes) is rebound to a timing wrapper, and the scipy
solver routines are rebound only in the solver module that looks them up,
so the same routine gets a different span name per layer. Nothing under
`src/` is edited.

Each span records its name, start, end, parent and thread. Spans are kept
in one list per thread and merged when the run ends, so the worker
threads of `heatext sweep` lose no counts.
"""

import importlib
import os
import sys
import threading
import time
from collections import namedtuple
from itertools import count

Span = namedtuple("Span", "sid parent name start end thread attrs")

# (span name, module, attribute). A heatext function is rebound in every
# heatext module that holds it; a foreign routine (scipy) only in `module`.
TARGETS = (
    ("cli.sweep", "heatext.cli", "cmd_sweep"),
    ("radial.evolve", "heatext.solver.radial", "_crank_nicolson_run"),
    ("radial.assemble", "heatext.solver.radial", "radial_operator"),
    ("radial.solve", "heatext.solver.radial", "solve_banded"),
    ("planar.evolve", "heatext.solver.planar", "evolve_planar"),
    ("planar.assemble", "heatext.solver.planar", "planar_operator"),
    ("planar.factor", "heatext.solver.planar", "splu"),
    ("axisym.run", "heatext.solver.axisym", "_axisym_run"),
    ("axisym.assemble", "heatext.solver.axisym", "axisym_operator"),
    ("axisym.factor", "heatext.solver.axisym", "splu"),
    ("probes.kernel_probe", "heatext.solver.probes", "kernel_probe"),
    ("profiles.elliptic", "heatext.profiles", "profile_elliptic"),
    ("profiles.spsolve", "heatext.profiles", "spsolve"),
    ("ledger.append", "heatext.solver.ledger", "MassLedger.append"),
    ("csvio.write", "heatext.csvio", "write_csv"),
    ("csvio.read", "heatext.csvio", "read_csv"),
    ("svgplot.write", "heatext.svgplot", "line_plot_svg"),
    ("asymptotics.error_norms", "heatext.asymptotics", "error_norms"),
    ("asymptotics.kernel_l1_gap", "heatext.asymptotics", "kernel_l1_gap"),
)


class Tracer:
    """Collects spans from every thread that calls a wrapped function."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread = []
        self._ids = count(1)

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])  # (open span ids, finished spans)
            with self._lock:
                self._per_thread.append(state[1])
        return state

    def call(self, name, fn, args, kwargs, post=None):
        """Run fn(*args, **kwargs) inside a span; post(result) -> (result, attrs)."""
        stack, spans = self._state()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = None
        if post is not None:
            result, attrs = post(result)
        spans.append(Span(sid, parent, name, start, end, threading.get_ident(), attrs))
        return result

    def spans(self):
        with self._lock:
            merged = [s for per in self._per_thread for s in per]
        return sorted(merged, key=lambda s: s.start)


class _TracedLU:
    """Stands in for a SuperLU object so that every .solve is a span."""

    def __init__(self, lu, tracer, name):
        self._lu = lu
        self._tracer = tracer
        self._name = name

    def solve(self, *args, **kwargs):
        return self._tracer.call(self._name, self._lu.solve, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _post_for(name, tracer):
    if name.endswith(".factor"):
        solve_name = name.replace(".factor", ".solve")

        def post(lu):
            # SuperLU.nnz is the fill of L and U together; reading .L/.U
            # would materialise both factors and inflate peak memory
            return (_TracedLU(lu, tracer, solve_name),
                    {"nnz": int(lu.nnz), "n": int(lu.shape[0])})
        return post
    if name == "csvio.write":
        return lambda path: (path, {"bytes": os.path.getsize(path)})
    return None


def _wrapper(tracer, name, fn):
    post = _post_for(name, tracer)

    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, post)
    traced.__wrapped__ = fn
    return traced


def install(tracer):
    """Wrap every target; returns the span names whose target is absent."""
    absent = []
    for name, module_name, attr in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.append(name)
            continue
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, fn_name, None)
        if owner is None or not callable(fn):
            absent.append(name)
            continue
        wrapped = _wrapper(tracer, name, fn)
        if owner_name or not getattr(fn, "__module__", "").startswith("heatext"):
            setattr(owner, fn_name, wrapped)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "heatext" or mod_name.startswith("heatext."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
    return absent


# ------------------------------------------------------------ layer metrics

def _sum(spans, name):
    return sum(s.end - s.start for s in spans if s.name == name)


def _count(spans, name):
    return sum(1 for s in spans if s.name == name)


def _attr(spans, name, key, combine):
    return combine([s.attrs[key] for s in spans if s.name == name] or [0])


def _self_time(spans, name):
    """Duration of each `name` span minus the union of its child spans."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        covered = 0.0
        lo = hi = None
        for c0, c1 in sorted(children.get(s.sid, ())):
            c0, c1 = max(c0, s.start), min(c1, s.end)
            if hi is None or c0 > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c0, c1
            else:
                hi = max(hi, c1)
        if hi is not None:
            covered += hi - lo
        total += (s.end - s.start) - covered
    return total


def _probe_solves(spans):
    """Solves in the first (warm-up) and later (main) runs of each probe."""
    by_id = {s.sid: s for s in spans}
    runs = {}
    for s in spans:
        if s.name == "axisym.run":
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == "probes.kernel_probe":
                runs.setdefault(parent.sid, []).append(s)
    warm_ids, main_ids = set(), set()
    for probe_runs in runs.values():
        probe_runs.sort(key=lambda s: s.start)
        warm_ids.add(probe_runs[0].sid)
        main_ids.update(s.sid for s in probe_runs[1:])
    warm = sum(1 for s in spans if s.name == "axisym.solve" and s.parent in warm_ids)
    main = sum(1 for s in spans if s.name == "axisym.solve" and s.parent in main_ids)
    return warm, main


def _overlap(spans):
    sweep = _sum(spans, "cli.sweep")
    return _sum(spans, "radial.evolve") / sweep if sweep > 0 else 0.0


# metric name -> (function of the merged spans, span names it reads)
LAYER_METRICS = {
    "radial.solve_s": (lambda sp: _sum(sp, "radial.solve"), ("radial.solve",)),
    "radial.solve_calls": (lambda sp: _count(sp, "radial.solve"), ("radial.solve",)),
    "radial.assemble_s": (lambda sp: _sum(sp, "radial.assemble"), ("radial.assemble",)),
    "radial.evolve_s": (lambda sp: _sum(sp, "radial.evolve"), ("radial.evolve",)),
    "radial.evolve_calls": (lambda sp: _count(sp, "radial.evolve"), ("radial.evolve",)),
    "radial.step_self_s": (lambda sp: _self_time(sp, "radial.evolve"), ("radial.evolve",)),
    "cli.sweep_overlap": (_overlap, ("cli.sweep", "radial.evolve")),
    "planar.solve_s": (lambda sp: _sum(sp, "planar.solve"), ("planar.factor",)),
    "planar.solve_calls": (lambda sp: _count(sp, "planar.solve"), ("planar.factor",)),
    "planar.factor_s": (lambda sp: _sum(sp, "planar.factor"), ("planar.factor",)),
    "planar.factor_calls": (lambda sp: _count(sp, "planar.factor"), ("planar.factor",)),
    "planar.assemble_s": (lambda sp: _sum(sp, "planar.assemble"), ("planar.assemble",)),
    "planar.step_self_s": (lambda sp: _self_time(sp, "planar.evolve"), ("planar.evolve",)),
    "planar.unknowns": (lambda sp: _attr(sp, "planar.factor", "n", max), ("planar.factor",)),
    "planar.lu_fill_nnz": (lambda sp: _attr(sp, "planar.factor", "nnz", max),
                           ("planar.factor",)),
    "axisym.solve_s": (lambda sp: _sum(sp, "axisym.solve"), ("axisym.factor",)),
    "axisym.solve_calls": (lambda sp: _count(sp, "axisym.solve"), ("axisym.factor",)),
    "axisym.factor_s": (lambda sp: _sum(sp, "axisym.factor"), ("axisym.factor",)),
    "axisym.factor_calls": (lambda sp: _count(sp, "axisym.factor"), ("axisym.factor",)),
    "axisym.assemble_s": (lambda sp: _sum(sp, "axisym.assemble"), ("axisym.assemble",)),
    "axisym.unknowns": (lambda sp: _attr(sp, "axisym.factor", "n", max), ("axisym.factor",)),
    "axisym.lu_fill_nnz": (lambda sp: _attr(sp, "axisym.factor", "nnz", max),
                           ("axisym.factor",)),
    "probes.kernel_probe_s": (lambda sp: _sum(sp, "probes.kernel_probe"),
                              ("probes.kernel_probe",)),
    "probes.warmup_solves": (lambda sp: _probe_solves(sp)[0],
                             ("probes.kernel_probe", "axisym.run", "axisym.factor")),
    "probes.main_solves": (lambda sp: _probe_solves(sp)[1],
                           ("probes.kernel_probe", "axisym.run", "axisym.factor")),
    "profiles.elliptic_s": (lambda sp: _sum(sp, "profiles.elliptic"), ("profiles.elliptic",)),
    "profiles.spsolve_s": (lambda sp: _sum(sp, "profiles.spsolve"), ("profiles.spsolve",)),
    "profiles.spsolve_calls": (lambda sp: _count(sp, "profiles.spsolve"),
                               ("profiles.spsolve",)),
    "profiles.elliptic_self_s": (lambda sp: _self_time(sp, "profiles.elliptic"),
                                 ("profiles.elliptic",)),
    "csvio.write_s": (lambda sp: _sum(sp, "csvio.write"), ("csvio.write",)),
    "csvio.write_calls": (lambda sp: _count(sp, "csvio.write"), ("csvio.write",)),
    "csvio.bytes_written": (lambda sp: _attr(sp, "csvio.write", "bytes", sum),
                            ("csvio.write",)),
    "csvio.read_s": (lambda sp: _sum(sp, "csvio.read"), ("csvio.read",)),
    "svgplot.write_s": (lambda sp: _sum(sp, "svgplot.write"), ("svgplot.write",)),
    "ledger.rows": (lambda sp: _count(sp, "ledger.append"), ("ledger.append",)),
    "ledger.append_s": (lambda sp: _sum(sp, "ledger.append"), ("ledger.append",)),
    "asymptotics.error_norms_s": (lambda sp: _sum(sp, "asymptotics.error_norms"),
                                  ("asymptotics.error_norms",)),
    "asymptotics.error_norms_calls": (lambda sp: _count(sp, "asymptotics.error_norms"),
                                      ("asymptotics.error_norms",)),
    "asymptotics.kernel_l1_gap_s": (lambda sp: _sum(sp, "asymptotics.kernel_l1_gap"),
                                    ("asymptotics.kernel_l1_gap",)),
}


def is_exact_count(metric):
    """Counts that must repeat exactly between two traced runs."""
    return not metric.endswith("_s") and metric != "cli.sweep_overlap"


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric == "cli.sweep_overlap":
        return "ratio"
    if metric == "csvio.bytes_written":
        return "bytes"
    return "count"


def layer_metrics(spans, absent):
    """Per-layer metric values; metrics whose span target is absent read 0."""
    values, missing = {}, []
    for metric, (fn, sources) in LAYER_METRICS.items():
        if any(src in absent for src in sources):
            values[metric] = 0
            missing.append(metric)
        else:
            values[metric] = fn(spans)
    return values, missing
