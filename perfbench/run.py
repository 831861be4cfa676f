"""heatext benchmark: timed CLI workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     every workload in turn
    python3 perfbench/run.py --record-reference     rewrite reference.json

Run from the repository root; the library is imported from ./src. Every
invocation of the CLI entry point `heatext.cli.main` runs in a fresh
interpreter, one at a time, because a CLI user pays import and set-up on
every call and because a cache kept across repeats in one process must
not pass for a speed-up. Invocations repeat until S seconds have gone
(at least a few); each one writes its artifacts to a fresh temporary
`--out` directory that is checked and then deleted.

A run is correct when it exits 0, prints only PASS verdicts, and its
headline numbers match reference.json (recorded on the seed commit) to
the acceptance tolerances. --trace 0 reports the end-to-end metrics:
wall_s (the main(argv) call) and setup_s (import of heatext.cli), each
the mean over the run's invocations at reference host speed, and the
median peak_rss_mb. For the speed, a fixed calibration task
(calibration.py) is timed before the first and after every invocation,
and the mean timings are scaled by REFERENCE_S over the mean calibration
time; the raw means are printed and every raw sample is recorded too.
--trace 1 alternates untraced and traced invocations, reports the
per-layer metrics (medians over traced invocations) and the tracing
overhead, and checks that the exact counts repeat.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
seed, inputs, environment and every sample.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibration import REFERENCE_S, Calibration  # noqa: E402
from tracing import LAYER_METRICS, is_exact_count, unit_of  # noqa: E402
from workloads import VARIANTS, WORKLOADS, compare, variant_of  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".bench_tmp")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
CHILD_TIMEOUT_S = 150
MIN_UNTRACED = 3            # invocations per --trace 0 run
MIN_PAIRS = 2               # untraced/traced pairs per --trace 1 run
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SPEED_ADJUSTED = ("wall_s", "setup_s")
# one thread per BLAS library: the process then runs no more threads than
# the sweep's pool, which is capped at the core count
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _env():
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "HEATEXT_OUT")}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = TMP
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def _invoke(argv, trace, reference, workload):
    """One fresh-interpreter invocation.

    Returns (result or None, headline numbers or None, problems); with no
    argv the interpreter only imports the library.
    """
    tmp = tempfile.mkdtemp(dir=TMP)
    try:
        result_path = os.path.join(tmp, "result.json")
        out_dir = os.path.join(tmp, "out")
        cmd = [sys.executable, CHILD, result_path, "1" if trace else "0"]
        if argv:
            cmd += argv + ["--out", out_dir]
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            return None, None, [f"interpreter exited {proc.returncode}: "
                                f"{proc.stderr.strip()[-2000:]}"]
        if not argv:
            return None, None, []
        with open(result_path) as fh:
            result = json.load(fh)
        problems = []
        if not os.path.abspath(result["module_file"]).startswith(SRC + os.sep):
            problems.append(f"imported {result['module_file']}, not the library under {SRC}")
        if result["rc"] != 0:
            problems.append(f"CLI exit code {result['rc']}: {proc.stderr.strip()[-2000:]}")
        tags = [line.split("]", 1)[0] + "]" for line in proc.stdout.splitlines()
                if line.startswith("[")]
        if tags != ["[PASS]"] * workload.verdicts:
            problems.append(f"verdicts {tags}, expected {workload.verdicts} x [PASS]")
        headline = None
        try:
            headline = workload.headline(out_dir)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"cannot read headline numbers: {exc!r}")
        if headline is not None and reference is not None:
            problems += compare(headline, reference)
        return result, headline, problems
    except subprocess.TimeoutExpired:
        return None, None, [f"no result within {CHILD_TIMEOUT_S} s"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.mean(values) if values else 0.0


def _environment():
    commit = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "heatext")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "commit": commit,
            "src_sha256": digest.hexdigest()}


def measure(workload, seed, seconds, trace, reference):
    """Repeat the workload for `seconds`; returns (summary, record)."""
    variant = variant_of(seed)
    argv = workload.argv(variant)
    _, _, problems = _invoke([], False, None, workload)  # compiles bytecode, warms caches
    for p in problems:
        print(f"{workload.name}: warm-up: {p}", file=sys.stderr)
    calibration = Calibration()
    calibration_s = [calibration.run()]
    samples, failed, costs, versions = [], 0, [], {}
    start = time.perf_counter()
    min_runs = 2 * MIN_PAIRS if trace else MIN_UNTRACED
    while True:
        traced = trace and len(samples) % 2 == 1
        t0 = time.perf_counter()
        result, _, problems = _invoke(argv, traced, reference, workload)
        calibration_s.append(calibration.run())
        costs.append(time.perf_counter() - t0)
        for p in problems:
            print(f"{workload.name} seed {seed}: {p}", file=sys.stderr)
        if problems:
            failed += 1
        if result:
            versions = {k: result.pop(k) for k in ("python", "numpy", "scipy", "module_file")}
        samples.append({"traced": traced, "ok": not problems, **(result or {})})
        elapsed = time.perf_counter() - start
        if len(samples) >= min_runs and (not trace or len(samples) % 2 == 0) \
                and elapsed + _median(costs) > seconds:
            break

    timed = [s for s in samples if "wall_s" in s]
    plain = [s for s in timed if not s["traced"]]
    speed = REFERENCE_S / _mean(calibration_s)
    raw = {name: _mean([s[name] for s in plain]) for name in SPEED_ADJUSTED}
    metrics = {name: {"value": raw[name] * speed if name in raw
                      else _median([s[name] for s in plain]), "unit": unit}
               for name, unit in END_TO_END}
    summary = {"attempted": len(samples), "failed": failed, "counts_ok": True, "raw": raw}
    if trace:
        traced_runs = [s for s in timed if s["traced"]]
        layers = {}
        for name in LAYER_METRICS:
            values = [s["layers"][name] for s in traced_runs]
            if is_exact_count(name) and len(set(values)) > 1:
                summary["counts_ok"] = False
                print(f"{workload.name}: count {name} differs between traced runs: "
                      f"{values}", file=sys.stderr)
            value = _median(values)
            layers[name] = {"value": int(value) if is_exact_count(name) else value,
                            "unit": unit_of(name)}
        summary["absent"] = sorted({m for s in traced_runs for m in s["absent"]})
        summary["trace_overhead_s"] = (speed * _mean([s["wall_s"] for s in traced_runs])
                                       - metrics["wall_s"]["value"])
        summary["layers"] = layers
    summary["metrics"] = metrics
    record = {"workload": workload.name, "seed": seed, "variant": variant,
              "argv": argv, "seconds": seconds, "trace": int(trace),
              "calibration_reference_s": REFERENCE_S, "calibration_s": calibration_s,
              "versions": versions,
              "samples": [{k: v for k, v in s.items() if k not in ("layers", "absent")}
                          for s in samples]}
    return summary, record


def _report(workload, summary):
    m, raw = summary["metrics"], summary["raw"]
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"{workload}: wall_s {m['wall_s']['value']:.4f} s (raw {raw['wall_s']:.4f} s), "
          f"setup_s {m['setup_s']['value']:.4f} s (raw {raw['setup_s']:.4f} s), "
          f"peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB, "
          f"error_rate {failed / attempted:.4f} ({failed}/{attempted} runs failed)")
    if "layers" in summary:
        for name, v in summary["layers"].items():
            value = v["value"] if isinstance(v["value"], int) else f"{v['value']:.6g}"
            print(f"{workload}:   {name} {value} {v['unit']}")
        print(f"{workload}: trace overhead {summary['trace_overhead_s']:+.4f} s "
              f"(traced minus untraced wall_s)")
        if summary["absent"]:
            print(f"{workload}: absent wrap targets, reported as 0: "
                  f"{', '.join(summary['absent'])}")


def record_reference():
    """Run every variant of every workload once and store its headline numbers."""
    table = {}
    for workload in WORKLOADS.values():
        table[workload.name] = {}
        for variant in range(VARIANTS):
            argv = workload.argv(variant)
            _, headline, problems = _invoke(argv, False, None, workload)
            if problems:
                sys.exit(f"{workload.name} variant {variant}: {problems}")
            table[workload.name][str(variant)] = headline
            print(f"{workload.name} variant {variant}: {' '.join(argv)}")
    with open(REFERENCE, "w") as fh:
        json.dump({"commit": _environment()["commit"], "workloads": table}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "heatext", "cli.py")):
        print(f"no heatext library under {SRC}: run from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(TMP, exist_ok=True)
    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})  # before numpy loads
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    with open(REFERENCE) as fh:
        reference = json.load(fh)["workloads"]

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    env = _environment()
    print(f"environment: {json.dumps(env)}")
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = []
    for name in names:
        workload = WORKLOADS[name]
        ref = reference[name][str(variant_of(args.seed))]
        summary, record = measure(workload, args.seed, args.seconds, bool(args.trace), ref)
        _report(name, summary)
        records.append(record)
        out["correct"] &= summary["failed"] == 0 and summary["counts_ok"]
        out["attempted"] += summary["attempted"]
        out["failed"] += summary["failed"]
        metrics = summary["layers"] if args.trace else summary["metrics"]
        prefix = f"{name}." if len(names) > 1 else ""
        out["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"record": {"environment": env, "runs": records}}))
    print(json.dumps(out))
    if not os.listdir(TMP):
        os.rmdir(TMP)
    return 0


if __name__ == "__main__":
    sys.exit(main())
