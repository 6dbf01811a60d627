"""diluteu benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed 6] [--seconds 40] [--trace 0|1]

Workloads: clt_sparse, counterexample, decompose, conditions (see
README.md). Repetitions run one after another, each in a fresh worker
process, until --seconds have passed and at least MIN_REPS have run; every
repetition uses the same seed, so the same inputs.

--trace 0 prints the end-to-end metrics. setup_s and peak_rss_mb are
medians over repetitions. wall_s is the fastest repetition and reps_per_s
its units per second: on a shared host, neighbour load slows stretches of
10 to 40 seconds by 20 to 100 percent, so a median over one run flips
between a fast and a slow value while the fastest repetition tracks the
program's own cost. The median and slowest wall times are printed too.

Workers run with glibc's heap trimming and mmap threshold raised
(MALLOC_ENV), so freed numpy buffers are reused rather than returned to the
kernel and faulted in again: on the shared host, fault cost swings with
neighbour load and made counterexample's wall_s spread past its bound.

--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the fastest traced repetition, so its self times sum
to its trace.wall_s; trace.overhead_s is that repetition's wall time minus
the fastest untraced one. One more untraced repetition runs with glibc's
default allocator settings and gives the malloc_default.* metrics, which
show the page-fault cost that MALLOC_ENV takes out of wall_s. Spans go to
.perfbench/trace-<workload>-seed<seed>.json.

Either way the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

Exit codes: 0 with a result line (correct may still be false), 1 when a
worker process fails, 2 when src/diluteu is not next to perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNT_METRICS, LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("clt_sparse", "counterexample", "decompose", "conditions")
DEFAULT_SEED = 6
MIN_REPS = 3
DEADLINE_S = 150.0  # no new repetition may be expected to end later than this
HARD_LIMIT_S = 175.0  # a worker still running then is killed
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Keep freed heap memory in the process: trim only above 1 GiB, and serve
# blocks up to 32 MiB (glibc's largest mmap threshold) from the heap.
MALLOC_ENV = {"MALLOC_TRIM_THRESHOLD_": str(2**30), "MALLOC_MMAP_THRESHOLD_": str(2**25)}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("reps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, None if unknown."""
    import ctypes
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for fn_name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, fn_name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def env_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
        "malloc_env": MALLOC_ENV,
    }


def run_worker(workload: str, seed: int, trace: bool, timeout: float,
               pin_malloc: bool = True) -> dict:
    env = dict(os.environ)
    if pin_malloc:
        env.update(MALLOC_ENV)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1" if trace else "0"],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT, env=env,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(
            "perfbench: worker for %s exited with code %d" % (workload, proc.returncode)
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(reps: list, traced: list, extra=()) -> tuple:
    """(attempted, failed, failures) over every check of every repetition,
    plus one check per count metric that traced repetitions must repeat."""
    checks = [c for rep in [*reps, *traced, *extra] for c in rep["checks"]]
    layers = [rep["layers"] for rep in traced if rep["layers"] is not None]
    for name in COUNT_METRICS if layers else ():
        values = sorted({lay[name] for lay in layers})
        checks.append(["%s repeats across repetitions" % name, len(values) == 1, str(values)])
    failures = [c for c in checks if not c[1]]
    return len(checks), len(failures), failures


def end_to_end_metrics(reps: list) -> dict:
    fastest = min(reps, key=lambda r: r["wall_s"])
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": fastest["wall_s"],
        "reps_per_s": fastest["units"] / fastest["wall_s"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def fastest_traced(traced: list) -> dict:
    return min(traced, key=lambda r: r["wall_s"])


def layer_metric_values(reps: list, traced: list, default_malloc: dict) -> dict:
    best = fastest_traced(traced)
    layers = best["layers"] or {}
    out = {name: layers.get(name, 0.0) for name, _, _ in LAYER_METRICS}
    out["trace.overhead_s"] = best["wall_s"] - min(r["wall_s"] for r in reps)
    out["malloc_default.wall_s"] = default_malloc["wall_s"]
    out["malloc_default.sys_s"] = default_malloc["sys_s"]
    out["malloc_default.minor_faults"] = default_malloc["minor_faults"]
    return out


def _write_trace(workload: str, seed: int, rep: dict) -> Path:
    path = ROOT / ".perfbench" / ("trace-%s-seed%d.json" % (workload, seed))
    path.parent.mkdir(exist_ok=True)
    fields = ("name", "start", "end", "parent", "run_id")
    payload = {
        "workload": workload,
        "seed": seed,
        "layers": rep["layers"],
        "spans": [dict(zip(fields, s)) for s in rep["spans"] or ()],
    }
    path.write_text(json.dumps(payload), encoding="utf8")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="diluteu benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "diluteu" / "__init__.py").is_file():
        sys.stderr.write("perfbench: src/diluteu not found next to perfbench/; run from a checkout\n")
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)

    print("perfbench workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("env " + json.dumps(env_record(), sort_keys=True))
    reps, traced = [], []
    start = time.perf_counter()
    unpinned = (
        [run_worker(args.workload, args.seed, False, HARD_LIMIT_S, pin_malloc=False)]
        if args.trace else []
    )
    longest = 0.0
    while True:
        use_trace = bool(args.trace) and len(traced) < len(reps)
        t = time.perf_counter()
        timeout = max(1.0, HARD_LIMIT_S - (t - start))
        (traced if use_trace else reps).append(
            run_worker(args.workload, args.seed, use_trace, timeout)
        )
        longest = max(longest, time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        enough = len(reps) >= MIN_REPS and (not args.trace or len(traced) >= MIN_REPS)
        if enough and (elapsed >= args.seconds or elapsed + longest > DEADLINE_S):
            break

    attempted, failed, failures = summarize(reps, traced, unpinned)
    for name, _, detail in failures[:20]:
        print("FAILED %s: %s" % (name, detail.strip().splitlines()[-1] if detail.strip() else ""))
    for key, value in sorted(reps[-1]["info"].items()):
        print("info %s = %s" % (key, value))
    print("repetitions untraced=%d traced=%d" % (len(reps), len(traced)))
    walls = [r["wall_s"] for r in reps]
    print("wall_s per repetition " + json.dumps([round(w, 6) for w in walls]))
    print("wall_s median %.6g s, slowest %.6g s, over %d repetitions"
          % (statistics.median(walls), max(walls), len(walls)))
    print("fail_frac = %.6g (%d of %d checks failed)" % (failed / attempted, failed, attempted))

    if args.trace:
        values = layer_metric_values(reps, traced, unpinned[0])
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        trace_path = _write_trace(args.workload, args.seed, fastest_traced(traced))
        print("trace written to %s" % trace_path.relative_to(ROOT))
    else:
        values = end_to_end_metrics(reps)
        units = dict(END_TO_END)
    for name, value in values.items():
        print("%-40s %.6g %s" % (name, value, units[name]))
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
