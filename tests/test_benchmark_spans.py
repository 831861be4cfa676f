"""The benchmark tracer's span targets point at live heatext functions.

perfbench/tracing.py names each span by (module, attribute); a target
that no longer resolves silently reads 0 in the benchmark. The module is
loaded by file path and inspected without installing the tracer.
"""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")

# targets of routines the solvers no longer call; ROADMAP item 0 lists
# their retargeting for the next change to the benchmark
STALE = {"radial.solve", "planar.factor", "planar.assemble", "axisym.factor",
         "axisym.assemble"}


def _resolves(module_name, attr):
    module = importlib.import_module(module_name)
    owner_name, _, fn_name = attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    return callable(getattr(owner, fn_name, None))


def test_live_benchmark_spans_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    live = [(name, module, attr) for name, module, attr in tracing.TARGETS
            if name not in STALE]
    assert len(live) == len(tracing.TARGETS) - len(STALE)
    assert [name for name, module, attr in live if not _resolves(module, attr)] == []
