"""One repetition of one benchmark workload; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

run.py starts a fresh process for every repetition, so each one pays the
import and kernel binding a CLI user pays, fills lazy caches itself, and
reports its own peak resident memory.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class MissingPackage(RuntimeError):
    pass


def load_package():
    """Import diluteu from the checkout's src/ tree, never from elsewhere."""
    pkg_dir = SRC / "diluteu"
    if not (pkg_dir / "__init__.py").is_file():
        raise MissingPackage("no diluteu source tree at src/diluteu next to perfbench/")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import diluteu

    if Path(diluteu.__file__).resolve().parent != pkg_dir.resolve():
        raise MissingPackage("diluteu was imported from %s, not src/diluteu" % diluteu.__file__)
    return diluteu


def _trace_checks(tracer, layers, wall_s):
    from workloads import Check

    top = layers["trace.wall_s"]
    total_self = sum(spans.self_times(tracer.spans))
    return [
        Check(
            "top-level span equals traced wall time",
            abs(top - wall_s) <= max(1e-3, 0.01 * wall_s),
            "span %.6f s, wall %.6f s" % (top, wall_s),
        ),
        Check(
            "self times sum to the top-level span",
            abs(total_self - top) <= 1e-6 + 1e-9 * top,
            "sum %.9f s, span %.9f s" % (total_self, top),
        ),
    ]


def run_once(name: str, seed: int, trace: bool, **params) -> dict:
    """Set up, run and check one workload in this process."""
    t0 = time.perf_counter()
    from workloads import WORKLOADS, Check

    d = load_package()
    wl = WORKLOADS[name]
    out = {"workload": name, "seed": seed, "trace": bool(trace), "units": 0,
           "info": {}, "layers": None, "spans": None}
    tracer = spans.Tracer("%s/seed%d" % (name, seed)) if trace else None
    t1 = None
    try:
        state = wl.setup(d, seed, **params)
        t1 = time.perf_counter()
        out["setup_s"] = t1 - t0
        if tracer is None:
            result = wl.run(state)
            out["wall_s"] = time.perf_counter() - t1
        else:
            with tracer.install(d):
                t1 = time.perf_counter()
                with tracer.span(spans.TOP_SPAN):
                    result = wl.run(state)
                out["wall_s"] = time.perf_counter() - t1
            out["layers"] = spans.layer_metrics(tracer)
            out["spans"] = tracer.spans
        checks = wl.check(state, result, out["layers"])
        if tracer is not None:
            checks += _trace_checks(tracer, out["layers"], out["wall_s"])
        out["units"] = wl.units(state, result)
        out["info"] = wl.info(state, result)
    except Exception:
        now = time.perf_counter()
        out.setdefault("setup_s", now - t0)
        out.setdefault("wall_s", now - (t1 if t1 is not None else t0))
        checks = [Check("workload raised no exception", False, traceback.format_exc())]
    out["checks"] = [[c.name, bool(c.ok), c.detail] for c in checks]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    out["sys_s"] = usage.ru_stime
    out["minor_faults"] = usage.ru_minflt
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = run_once(args.workload, args.seed, bool(args.trace))
    except MissingPackage as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
