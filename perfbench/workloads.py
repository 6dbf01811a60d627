"""The four benchmark workloads: set-up, timed run, and correctness checks.

Each workload draws every input from labeled ``SeedPolicy`` streams of the
workload seed, and goes through the public API the CLI subcommands call.
``setup`` covers what ``setup_s`` measures (law and kernel binding);
``run`` is what ``wall_s`` measures, report emission included; ``check``
turns the result into named pass/fail checks whose bounds hold for any
seed, so a redrawn random stream does not trip them.

n, p, law and kernel are fixed per workload. The replicate counts ``R``
were sized so one repetition takes about one second on a 2-core Xeon,
short against the load bursts of a shared machine; counterexample keeps
R=800 so that KS(normal) sits more than four standard deviations above
0.15. The self-tests shrink sizes through keyword overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import chdtri

SKEWED = ((-1.0, 5.0), (5.0 / 6.0, 1.0 / 6.0))  # table:-1=5/6,5=1/6
TREND_CONDITIONS = ("C1", "C2", "C3", "C4", "C4'", "C1''", "C2''", "C3''")
Z_BOUND = 5.0  # normal-bound width for sample means and variances
CHI2_TAIL = 1e-6  # two-sided chi-square tail for sample variances
IDENTITY_TOL = 1e-10
# Fourth standardized moment of Z^2 - 1, the limit law of n*U at p=1.
SQUARE_LAW_KURTOSIS = 15.0
# Replicate spread of product ETA2 at the largest n that rules out
# concentration at 1 (the sign kernel's spread there is about 0.07, the
# product kernel's about 1.2).
ETA2_SPREAD_FLOOR = 0.25


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    check: Callable
    units: Callable
    info: Callable = lambda state, result: {}


def _skewed(d):
    return d.table(*SKEWED)


def _mean_check(name, samples, var, z=Z_BOUND):
    mean = float(np.mean(samples))
    bound = z * math.sqrt(var / samples.size)
    return Check(name, abs(mean) <= bound, "mean %.4g, bound %.4g" % (mean, bound))


def _finite_check(samples):
    bad = int(np.count_nonzero(~np.isfinite(samples)))
    return Check("samples finite", bad == 0, "%d non-finite of %d" % (bad, samples.size))


# --------------------------------------------------------------- clt_sparse


def _clt_setup(d, seed, n=5000, a=0.5, R=12):
    law = _skewed(d)
    kernel = d.kernel_by_name("sign", law)
    config = d.ExperimentConfig(
        kernel_name="sign", dist=law, n_grid=(n,), p=float(n) ** -a, R=R,
        master_seed=seed, standardization="exact", threads=1,
    )
    return {"d": d, "law": law, "kernel": kernel, "config": config, "seed": seed}


def _emit(state, results):
    config = state["config"]
    return state["d"].emit_report(
        results, "csv", None, config_hash=config.config_hash(), seed=state["seed"]
    )


def _clt_run(state):
    result = state["d"].run_clt_experiment(state["config"])
    return result, _emit(state, [result])


def clt_checks(state, result, layers=None):
    res, report = result
    config = state["config"]
    n = config.n_grid[-1]
    p = config.p_at(n)
    trials = config.R * math.comb(n, 2)
    expected = trials * p
    sd = math.sqrt(trials * p * (1.0 - p))
    samples = np.asarray(res.samples, dtype=np.float64)
    checks = [
        Check(
            "eval_count within binomial bound",
            abs(res.eval_count - expected) <= 6.0 * sd + 1.0,
            "eval_count %d, expected %.1f +- 6*%.1f" % (res.eval_count, expected, sd),
        ),
        _finite_check(samples),
        _mean_check("standardized mean near 0", samples, 1.0),
    ]
    df = samples.size - 1
    s2 = float(np.var(samples, ddof=1)) if df > 0 else float("nan")
    lo = chdtri(df, 1.0 - CHI2_TAIL) / df
    hi = chdtri(df, CHI2_TAIL) / df
    checks.append(
        Check(
            "standardized variance near 1",
            lo <= s2 <= hi,
            "variance %.4g, chi-square bounds [%.4g, %.4g]" % (s2, lo, hi),
        )
    )
    checks.append(Check("report emitted", report.count("\n") == 3, "%d lines" % report.count("\n")))
    if layers is not None:
        checks.append(
            Check(
                "eval_count equals traced edge total",
                res.eval_count == layers["sampling.edges_kept"],
                "%d vs %d" % (res.eval_count, layers["sampling.edges_kept"]),
            )
        )
    return checks


# ----------------------------------------------------------- counterexample


def _ce_setup(d, seed, n=500, R=800):
    law = d.standard_normal()
    kernel = d.kernel_by_name("product", law)
    config = d.ExperimentConfig(
        kernel_name="product", dist=law, n_grid=(n,), p=1.0, R=R, master_seed=seed,
    )
    return {"d": d, "law": law, "kernel": kernel, "config": config, "seed": seed}


def _ce_run(state):
    vs_normal, vs_chi = state["d"].run_counterexample(state["config"])
    return (vs_normal, vs_chi), _emit(state, [vs_normal, vs_chi])


def ce_checks(state, result, layers=None):
    (vs_normal, _), report = result
    config = state["config"]
    n, R = config.n_grid[-1], config.R
    samples = np.asarray(vs_normal.samples, dtype=np.float64)
    var = 2.0 * n / (n - 1)  # Var(n U) for the undiluted product kernel
    s2 = float(np.var(samples, ddof=1))
    var_bound = Z_BOUND * var * math.sqrt((SQUARE_LAW_KURTOSIS - 1.0) / R)
    pairs = R * math.comb(n, 2)
    checks = [
        Check(
            "KS(normal) > 0.15",
            vs_normal.ks_statistic > 0.15,
            "KS %.4f" % vs_normal.ks_statistic,
        ),
        _finite_check(samples),
        _mean_check("n*U mean near 0", samples, var),
        Check(
            "n*U variance near 2n/(n-1)",
            abs(s2 - var) <= var_bound,
            "variance %.4g, target %.4g +- %.4g" % (s2, var, var_bound),
        ),
        Check(
            "eval_count equals R*C(n,2)",
            vs_normal.eval_count == pairs,
            "%d vs %d" % (vs_normal.eval_count, pairs),
        ),
        Check("report emitted", report.count("\n") == 4, "%d lines" % report.count("\n")),
    ]
    if layers is not None:
        checks.append(
            Check(
                "eval_count equals traced edge total",
                vs_normal.eval_count == layers["sampling.edges_kept"],
                "%d vs %d" % (vs_normal.eval_count, layers["sampling.edges_kept"]),
            )
        )
    return checks


def _ce_info(state, result):
    # Criterion 06's square-law gate is known red at n=500; shown, never checked.
    (_, vs_chi), _ = result
    return {"ks_square_law": vs_chi.ks_statistic}


# ---------------------------------------------------------------- decompose


def _dec_setup(d, seed, n=1000, p=0.3, R=32):
    law = _skewed(d)
    kernel = d.kernel_by_name("sign", law)
    return {
        "d": d, "law": law, "kernel": kernel, "policy": d.SeedPolicy(seed),
        "n": n, "p": p, "R": R,
    }


def _dec_run(state):
    d, law, kernel = state["d"], state["law"], state["kernel"]
    n, p, policy = state["n"], state["p"], state["policy"]
    theta = d.moments_closed_form(kernel, law, n, p).theta
    out = []
    for r in range(state["R"]):
        real = d.sample_realization(n, law, kernel, p, policy.child("decompose", r))
        out.append((real, d.martingale_differences(real.x, real.z, kernel, theta)))
    return out


def dec_checks(state, result, layers=None):
    n = state["n"]
    pairs = math.comb(n, 2)
    checks = []
    for r, (real, md) in enumerate(result):
        u = real.u_value
        parts = float(real.psi_part.sum() + real.phi_tilde_part.sum())
        gap = abs(u - parts / pairs)
        tol = IDENTITY_TOL * max(1.0, abs(u))
        checks.append(Check("identity r=%d" % r, gap <= tol, "gap %.3g, tol %.3g" % (gap, tol)))
        target = pairs * u / (n * md.theta)
        gap = abs(md.total() - target)
        tol = IDENTITY_TOL * max(1.0, abs(target))
        checks.append(Check("martingale total r=%d" % r, gap <= tol, "gap %.3g, tol %.3g" % (gap, tol)))
    return checks


# --------------------------------------------------------------- conditions


def _cond_setup(d, seed, trend_grid=(50, 100, 200, 400, 800), eta_grid=(100, 200, 400),
                eta2_m=64, eta1_m=256):
    law = _skewed(d)
    normal = d.standard_normal()
    return {
        "d": d, "seed": seed, "law": law, "normal": normal,
        "sign": d.kernel_by_name("sign", law),
        "product": d.kernel_by_name("product", normal),
        "policy": d.SeedPolicy(seed),
        "trend_grid": trend_grid, "eta_grid": eta_grid,
        "eta2_m": eta2_m, "eta1_m": eta1_m,
    }


def _cond_run(state):
    d, policy = state["d"], state["policy"]
    law, normal, sign, product = state["law"], state["normal"], state["sign"], state["product"]
    grid, eta_grid = state["trend_grid"], state["eta_grid"]
    reports = {}
    for cid in TREND_CONDITIONS:
        reports[cid] = d.sweep_condition(
            cid, sign, law, policy, n_grid=grid, eps_grid=(0.75,), a=0.3
        )
    reports["C4 product"] = d.sweep_condition(
        "C4", product, normal, policy, n_grid=grid, eps_grid=(0.75,), p_fixed=1.0
    )
    reports["ETA2 sign"] = d.sweep_condition(
        "ETA2", sign, law, policy, n_grid=eta_grid, a=0.3, m=state["eta2_m"]
    )
    reports["ETA2 product"] = d.sweep_condition(
        "ETA2", product, normal, policy, n_grid=eta_grid, m=state["eta2_m"], p_fixed=1.0
    )
    reports["ETA1 sign"] = d.sweep_condition(
        "ETA1", sign, law, policy, n_grid=eta_grid, eps_grid=(0.75,), a=0.3,
        m=state["eta1_m"],
    )
    report = d.emit_report(list(reports.values()), "csv", None, seed=state["seed"])
    return reports, report


def cond_checks(state, result, layers=None):
    reports, report = result
    checks = []
    for cid in TREND_CONDITIONS:
        verdicts = reports[cid].verdicts
        checks.append(
            Check(
                "%s decreasing-toward-0" % cid,
                all(v == "decreasing-toward-0" for v in verdicts),
                str(verdicts),
            )
        )
    prod = reports["C4 product"]
    vals = prod.estimates[:, 0]
    checks.append(
        Check(
            "product C4 stagnant near 4",
            prod.verdicts[0] == "stagnant" and bool(np.all(np.abs(vals - 4.0) < 0.5)),
            "%s %s" % (prod.verdicts[0], np.round(vals, 3).tolist()),
        )
    )
    sign_eta2 = reports["ETA2 sign"]
    checks.append(
        Check(
            "sign ETA2 converging-to-1",
            sign_eta2.verdicts[0] == "converging-to-1",
            str(sign_eta2.verdicts),
        )
    )
    # Criterion 09's product verdict compares two replicate spreads of a
    # chi-square-like sample at m=64; it reads converging-to-1 for about a
    # third of seeds. The property it witnesses, that product ETA2 does not
    # concentrate at 1, is checked through the spread at the largest n.
    prod_eta2 = reports["ETA2 product"]
    checks.append(
        Check(
            "product ETA2 not concentrating",
            prod_eta2.spread[-1] >= ETA2_SPREAD_FLOOR,
            "spread %s, verdict %s"
            % (np.round(prod_eta2.spread, 3).tolist(), prod_eta2.verdicts[0]),
        )
    )
    eta1 = reports["ETA1 sign"]
    checks.append(
        Check(
            "ETA1 decreasing-toward-0",
            all(v == "decreasing-toward-0" for v in eta1.verdicts),
            str(eta1.verdicts),
        )
    )
    checks.append(Check("report emitted", report.startswith("# config_hash="), report[:40]))
    return checks


def _cond_units(state, result):
    reports, _ = result
    return sum(len(r.n_grid) * max(1, len(r.eps_grid)) for r in reports.values())


def _cond_info(state, result):
    reports, _ = result
    return {"product_eta2_verdict": reports["ETA2 product"].verdicts[0]}


# The reason for each workload is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("clt_sparse", _clt_setup, _clt_run, clt_checks,
                 lambda state, result: state["config"].R),
        Workload("counterexample", _ce_setup, _ce_run, ce_checks,
                 lambda state, result: state["config"].R, _ce_info),
        Workload("decompose", _dec_setup, _dec_run, dec_checks,
                 lambda state, result: state["R"]),
        Workload("conditions", _cond_setup, _cond_run, cond_checks, _cond_units, _cond_info),
    )
}
