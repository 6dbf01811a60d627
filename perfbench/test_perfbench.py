"""Self-tests of the benchmark, on tiny configurations.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

d = worker.load_package()

TINY = {
    "clt_sparse": {"n": 200, "R": 20},
    "counterexample": {"n": 60, "R": 400},
    "decompose": {"n": 40, "R": 3},
    "conditions": {"trend_grid": (50, 100), "eta_grid": (30, 60), "eta2_m": 8, "eta1_m": 8},
}

# Layers each workload reaches, from the per-layer table of the README.
CALLED = {
    "clt_sparse": (
        "sampling.sample_row", "sampling.sample_dilution", "sampling.edges",
        "sampling.edge_count", "sampling.seed", "kernels.pair_values",
        "decomposition.compute_ustat", "moments.moments_closed_form",
        "harness.replicate_loop", "harness.ks_distance", "harness.emit_report",
    ),
    "counterexample": (
        "sampling.sample_row", "sampling.sample_dilution", "sampling.edges",
        "sampling.edge_count", "sampling.seed", "kernels.pair_values",
        "decomposition.compute_ustat", "harness.replicate_loop",
        "harness.ks_distance", "harness.emit_report",
    ),
    "decompose": (
        "sampling.sample_row", "sampling.sample_dilution", "sampling.edges",
        "sampling.degrees", "sampling.seed", "kernels.pair_values",
        "decomposition.compute_ustat", "decomposition.hoeffding_parts",
        "decomposition.sample_realization", "decomposition.martingale_differences",
        "moments.moments_closed_form",
    ),
    "conditions": (
        "sampling.sample_row", "sampling.sample_dilution", "sampling.edges",
        "sampling.lower", "sampling.seed", "kernels.pair_values",
        "moments.moments_closed_form", "conditions.sweep_condition",
        "conditions.estimate_eta2", "conditions.estimate_eta1_mean",
        "conditions.truncated", "harness.emit_report",
    ),
}


def _run(name, **params):
    wl = workloads.WORKLOADS[name]
    state = wl.setup(d, 6, **{**TINY.get(name, {}), **params})
    return wl, state, wl.run(state)


def _failed(checks):
    return {c.name for c in checks if not c.ok}


# ------------------------------------------------------------------ spans


def test_self_time_of_nested_spans():
    spans_ = [
        ["a", 0.0, 10.0, None, "r"],
        ["b", 1.0, 4.0, 0, "r"],
        ["c", 2.0, 3.0, 1, "r"],
        ["d", 5.0, 6.0, 0, "r"],
    ]
    assert spans.self_times(spans_) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(spans.self_times(spans_)) == pytest.approx(10.0)
    assert spans.self_time_by_name(spans_ + [["d", 7.0, 7.5, 0, "r"]])["d"] == pytest.approx(1.5)


def test_self_time_counts_overlapping_children_once():
    spans_ = [
        ["a", 0.0, 10.0, None, "r"],
        ["b", 1.0, 5.0, 0, "r"],
        ["c", 3.0, 7.0, 0, "r"],
        ["e", 9.0, 12.0, 0, "r"],
    ]
    assert spans.self_times(spans_)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_restores_every_binding():
    originals = (
        d.sampling.sample_dilution, d.harness.sample_dilution,
        d.decomposition.sample_dilution, d.sample_dilution,
        d.sampling.DilutionGraph.__dict__["edges"],
        d.kernels.KernelSpec.__dict__["pair_values"],
    )
    tracer = spans.Tracer("t")
    with tracer.install(d):
        assert d.harness.sample_dilution is not originals[1]
        assert d.harness.sample_dilution is d.sampling.sample_dilution
    assert (
        d.sampling.sample_dilution, d.harness.sample_dilution,
        d.decomposition.sample_dilution, d.sample_dilution,
        d.sampling.DilutionGraph.__dict__["edges"],
        d.kernels.KernelSpec.__dict__["pair_values"],
    ) == originals


# ------------------------------------------------------------------ checks


def test_decompose_check_fires_on_identity_gap():
    wl, state, result = _run("decompose")
    assert not _failed(wl.check(state, result))
    real, md = result[1]
    bad = list(result)
    bad[1] = (dataclasses.replace(real, u_value=real.u_value + 1e-6), md)
    assert "identity r=1" in _failed(wl.check(state, bad))


def test_conditions_check_fires_on_flipped_verdict():
    wl = workloads.WORKLOADS["conditions"]
    state = wl.setup(d, 6)
    reports, report = wl.run(state)
    assert not _failed(wl.check(state, (reports, report)))
    flipped = dict(reports)
    flipped["C2"] = dataclasses.replace(reports["C2"], verdicts=("stagnant",))
    flipped["ETA2 sign"] = dataclasses.replace(reports["ETA2 sign"], verdicts=("stagnant",))
    assert _failed(wl.check(state, (flipped, report))) == {
        "C2 decreasing-toward-0", "sign ETA2 converging-to-1",
    }


def test_clt_check_fires_on_nan_sample():
    wl, state, (res, report) = _run("clt_sparse")
    assert not _failed(wl.check(state, (res, report)))
    samples = res.samples.copy()
    samples[3] = np.nan
    bad = dataclasses.replace(res, samples=samples)
    assert "samples finite" in _failed(wl.check(state, (bad, report)))


def test_counterexample_check_fires_on_wrong_eval_count():
    wl, state, ((vs_normal, vs_chi), report) = _run("counterexample")
    assert not _failed(wl.check(state, ((vs_normal, vs_chi), report)))
    bad = dataclasses.replace(vs_normal, eval_count=vs_normal.eval_count - 1)
    assert _failed(wl.check(state, ((bad, vs_chi), report))) == {"eval_count equals R*C(n,2)"}


def test_fail_frac_counting():
    def rep(oks, layers=None):
        return {"checks": [["c%d" % i, ok, ""] for i, ok in enumerate(oks)], "layers": layers}

    counts = {name: 5 for name in spans.COUNT_METRICS}
    reps = [rep([True, False, True]), rep([True, True])]
    traced = [rep([True], counts), rep([False], dict(counts, **{"kernels.evals": 6}))]
    attempted, failed, failures = bench.summarize(reps, traced, [rep([False])])
    assert attempted == 3 + 2 + 1 + 1 + 1 + len(spans.COUNT_METRICS)
    assert failed == 4
    assert "kernels.evals repeats across repetitions" in {f[0] for f in failures}


def test_exception_counts_as_failed_check():
    out = worker.run_once("decompose", 6, False, n=1, R=1)
    assert [c[:2] for c in out["checks"]] == [["workload raised no exception", False]]


# ------------------------------------------------------------------ traced run


@pytest.mark.parametrize("name", sorted(CALLED))
def test_traced_run_emits_every_layer_metric(name):
    out = worker.run_once(name, 6, True, **TINY[name])
    failed = [c for c in out["checks"] if not c[1]]
    if name != "conditions":  # tiny grids are too short for the trend verdicts
        assert not failed, failed
    assert [c for c in out["checks"] if "span" in c[0] and not c[1]] == []
    layers = out["layers"]
    expected = {m for m, _, _ in spans.LAYER_METRICS} - set(spans.RUN_LEVEL_METRICS)
    assert set(layers) == expected
    for layer in CALLED[name]:
        assert layers[layer + ".self_s"] > 0.0, layer
    if name == "decompose":
        assert layers["kernels.evals_per_edge"] == 3.0
    if name in ("clt_sparse", "counterexample"):
        assert 1.0 <= layers["kernels.evals_per_edge"] < 1.02


# ------------------------------------------------------------------ contract


def test_benchmark_json_matches_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [w for w in workloads.WORKLOADS if w in gated]
    assert set(gated) | {"clt_sparse"} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        spans.LAYER_METRICS
    )
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decompose", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
