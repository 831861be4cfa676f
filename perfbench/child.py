"""One timed heatext CLI invocation in a fresh interpreter.

    python3 child.py RESULT_JSON TRACE [CLI ARGS...]

Times the import of `heatext.cli` (set-up) and the `main(argv)` call, and
writes those, the process's peak resident memory and, with TRACE = 1, the
per-layer metrics to RESULT_JSON. With no CLI arguments it only imports,
which compiles and caches the bytecode before any timed invocation.
The CLI's own output goes to standard output for the caller to check.
"""

import json
import platform
import resource
import sys
import time


def peak_rss_mb():
    """Peak resident memory of this process's own address space.

    ru_maxrss is not used where /proc is available: Linux carries it over
    from the parent across fork and exec, so it would report the caller's
    memory whenever the caller is the larger.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = time.perf_counter()
    import heatext.cli
    setup_s = time.perf_counter() - t0
    if not argv:
        return 0
    import numpy
    import scipy

    absent = []
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        absent = tracing.install(tracer)
    t0 = time.perf_counter()
    rc = heatext.cli.main(argv)
    wall_s = time.perf_counter() - t0
    sys.stdout.flush()
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "module_file": heatext.cli.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        result["layers"], result["absent"] = tracing.layer_metrics(tracer.spans(), absent)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
