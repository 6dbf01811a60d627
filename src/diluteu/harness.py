"""Replication engine, distribution tests, and report emission.

A run is described by an ExperimentConfig; everything downstream is a
pure function of (config, master seed), so identical configs give
byte-identical reports. Replications run concurrently when asked, each
with a derived per-index seed, and are reduced in index order, so the
thread count never changes the output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np
from scipy.special import erf, gammaincinv, ndtr, roots_legendre

from .conditions import (
    DEFAULT_EPS_GRID,
    DEFAULT_N_GRID,
    _CONDITIONS,
    _DEFAULT_CONDITIONS,
    _check_n_grid,
    _check_sweep,
    sweep_condition,
)
from .decomposition import compute_ustat
from .errors import (
    ConfigurationError,
    DegenerateNormalizationError,
    ResourceBudgetError,
)
from .kernels import KernelSpec, kernel_by_name
from .moments import moments_closed_form, moments_mc
from .sampling import (
    DistributionSpec,
    SeedPolicy,
    as_seed_sequence,
    rademacher,
    sample_dilution,
    sample_row,
    standard_normal,
    _integer,
    _point,
    _real,
    _regime_p,
    _report_json,
    _report_value,
    _warn_if_slow,
)

__all__ = [
    "ExperimentConfig",
    "DistTestResult",
    "ks_distance",
    "normal_cdf",
    "chi1_shifted_cdf",
    "square_law_n_cdf",
    "run_clt_experiment",
    "run_counterexample",
    "run_condition_sweep",
    "emit_report",
    "DEFAULT_KS_THRESHOLD",
    "DEFAULT_MAX_PAIR_EVALS",
]

DEFAULT_KS_THRESHOLD = 0.05
DEFAULT_MAX_PAIR_EVALS = 2_000_000_000
# the values ExperimentConfig takes, and the cli's choices for the two flags
_STANDARDIZATIONS = ("exact", "mc", "asymptotic")
_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; hashable to a short config fingerprint.

    Dilution comes either as a fixed p or as an exponent a with
    p = n^-a; exactly one of the two must be set. standardization picks
    the variance used to scale the statistic: "exact" (closed-form
    finite-n variance), "mc" (estimated moments), or "asymptotic"
    (the 2 theta^2 / binom(n,2) large-n form).
    """

    kernel_name: str = "sign"
    dist: DistributionSpec = None
    n_grid: Tuple[int, ...] = DEFAULT_N_GRID
    p: Optional[float] = None
    a: Optional[float] = None
    R: int = 2000
    master_seed: int = 6
    standardization: str = "exact"
    eps_grid: Tuple[float, ...] = DEFAULT_EPS_GRID
    conditions: Tuple[str, ...] = ()
    m: Optional[int] = None
    ks_threshold: float = DEFAULT_KS_THRESHOLD
    threads: int = 1
    out_path: Optional[str] = None
    out_format: str = "csv"
    expected_verdicts: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.dist is None:
            object.__setattr__(self, "dist", rademacher())
        # counts are stored as ints, so R=2000.0 and R=2000 hash and report alike
        for name, what, least in (
            ("R", "replication count", 1), ("threads", "threads", 1), ("master_seed", "master seed", 0)
        ):
            object.__setattr__(self, name, _integer(getattr(self, name), what, least))
        if self.m is not None:
            object.__setattr__(self, "m", _integer(self.m, "m"))
        # reals are stored as floats, so p=1 and p=1.0 hash and report alike
        object.__setattr__(self, "eps_grid", tuple(_real(e, "eps") for e in self.eps_grid))
        for name in ("p", "a", "ks_threshold"):
            if (v := getattr(self, name)) is not None:
                object.__setattr__(self, name, _real(v, name))
        if not 0.0 < self.ks_threshold < 1.0:
            raise ConfigurationError("ks_threshold must be in (0, 1); got %r" % self.ks_threshold)
        object.__setattr__(self, "n_grid", _check_n_grid(self.n_grid))
        if (self.p is None) == (self.a is None):
            raise ConfigurationError("set exactly one of fixed p or exponent a")
        if self.standardization not in _STANDARDIZATIONS:
            raise ConfigurationError(
                "standardization must be exact, mc or asymptotic; got %r"
                % self.standardization
            )
        if self.out_format not in _FORMATS:
            raise ConfigurationError("format must be csv or json")
        for i, cid in enumerate(self.conditions):
            if cid in self.conditions[:i]:
                raise ConfigurationError("condition %s is named twice" % cid)
            _check_sweep(cid, self.n_grid, self.eps_grid, self.m, self.p_at)
        for n in self.n_grid:
            _warn_if_slow(*_point(n, self.p_at(n), floor=True), stacklevel=4)

    def p_at(self, n: int) -> float:
        """p at n, fixed or n^-a; silent, as the config warned per slow grid point."""
        return self.p if self.p is not None else _regime_p(n, self.a)

    def policy(self) -> SeedPolicy:
        return SeedPolicy(master_seed=self.master_seed)

    def canonical_json(self) -> str:
        payload = {
            "kernel": self.kernel_name,
            "dist": self.dist.describe(),
            "n_grid": self.n_grid,
            "p": self.p,
            "a": self.a,
            "R": self.R,
            "master_seed": self.master_seed,
            "standardization": self.standardization,
            "eps_grid": self.eps_grid,
            "conditions": self.conditions,
            "m": self.m,
            "ks_threshold": self.ks_threshold,
            "expected_verdicts": self.expected_verdicts,
        }
        return json.dumps(_report_value(payload), sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf8")).hexdigest()[:12]


@dataclass(frozen=True)
class DistTestResult:
    """Standardized samples against one target law, with the KS readout.

    A runner returns its sample against the normal; against() gives the
    same sample's row for another law. decision is derived: the literal
    threshold comparison (pass iff ks below the threshold); callers that
    expect a failure, like the normal leg of the counterexample, interpret
    it themselves. runtime_seconds is carried in memory only and never
    serialized, to keep reports byte-stable.
    """

    samples: np.ndarray
    target: str
    ks_statistic: float
    threshold: float
    n: int
    R: int
    eval_count: int
    standardization: str
    note: str = ""
    runtime_seconds: float = 0.0

    CSV_HEADER = ("target", "n", "R", "ks_statistic", "threshold", "decision", "eval_count")

    @property
    def decision(self) -> str:
        return "pass" if self.ks_statistic < self.threshold else "fail"

    def against(self, target: str, cdf, note: Optional[str] = None) -> "DistTestResult":
        """This sample KS-tested against the law with CDF cdf, named target;
        the note stays unless a new one is given."""
        return replace(
            self, target=target, ks_statistic=ks_distance(self.samples, cdf),
            note=self.note if note is None else note,
        )

    def to_json(self) -> str:
        return _report_json(self, self.CSV_HEADER + ("standardization", "note"))


# --------------------------------------------------------------------------
# target CDFs and the KS statistic


def normal_cdf(t):
    """Standard normal CDF via the library erf path (ndtr); abs error
    well under 1e-10 across the real line."""
    return ndtr(np.asarray(t, dtype=np.float64))


def chi1_shifted_cdf(t):
    """CDF of Z^2 - 1 for standard normal Z:
    F(t) = P(Z^2 <= t + 1) = erf(sqrt((t+1)/2)) for t >= -1, else 0."""
    t = np.asarray(t, dtype=np.float64)
    shifted = np.clip(t + 1.0, 0.0, None)
    return np.where(t >= -1.0, erf(np.sqrt(shifted / 2.0)), 0.0)


# 1000 nodes keep the quadrature within 4e-6 of adaptive quadrature at
# n=500; the error sits at the sqrt kink where t + W/(n-1) crosses 0
_SQUARE_LAW_NODES = 1000
# rows of t per pass, so the (rows, nodes) work array stays near 4 MB
_SQUARE_LAW_CHUNK = 512


def square_law_n_cdf(t, n: int):
    """CDF of Z^2 - W/(n-1) for independent Z ~ N(0,1), W ~ chi2(n-1).

    This is the exact law of n*U for the undiluted product kernel on n
    standard normal rows (Cochran: the sample mean and the centered sum
    of squares are independent); as n grows it tends to Z^2 - 1, whose
    CDF is chi1_shifted_cdf. F(t) = E_W[erf(sqrt(max(t + W/(n-1), 0)/2))],
    computed by Gauss-Legendre quadrature on W's chi2 quantile scale.
    """
    n = _point(n, 1.0)[0]  # the undiluted statistic's point
    x, w = roots_legendre(_SQUARE_LAW_NODES)
    # the chi2(k) quantile at u is 2 * gammaincinv(k/2, u)
    shift = 2.0 * gammaincinv(0.5 * (n - 1), 0.5 * (x + 1.0)) / (n - 1)
    t = np.asarray(t, dtype=np.float64)
    flat = t.reshape(-1)
    out = np.empty(flat.shape)
    for lo in range(0, flat.size, _SQUARE_LAW_CHUNK):
        inside = np.clip(flat[lo : lo + _SQUARE_LAW_CHUNK, None] + shift, 0.0, None)
        out[lo : lo + _SQUARE_LAW_CHUNK] = erf(np.sqrt(inside / 2.0)) @ (0.5 * w)
    return out.reshape(t.shape)


def ks_distance(samples, target_cdf) -> float:
    """Sup distance between the empirical CDF and a target CDF.

    Uses the sorted-sample form max_i max(F(x_(i)) - (i-1)/R,
    i/R - F(x_(i))); target_cdf is a callable.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ConfigurationError("ks_distance needs a nonempty sample")
    r = samples.size
    xs = np.sort(samples)
    fv = np.asarray(target_cdf(xs), dtype=np.float64)
    grid = np.arange(1, r + 1, dtype=np.float64) / r
    return float(np.max(np.maximum(fv - (grid - 1.0 / r), grid - fv)))


# --------------------------------------------------------------------------
# replication


def _standardizer(config: ExperimentConfig, kernel: KernelSpec, dist, n: int, p: float) -> float:
    """The divisor applied to U under config.standardization."""
    if config.standardization == "mc":
        moments = moments_mc(
            kernel, dist, n, p, m=100_000, seed=config.policy().child("standardize-mc", 0)
        )
        var = moments.var_u_exact
    else:
        moments = moments_closed_form(kernel, dist, n, p)
        if config.standardization == "asymptotic":
            var = 2.0 * moments.theta2 / math.comb(n, 2)
        else:
            var = moments.var_u_exact
    if not var > 0.0:
        raise DegenerateNormalizationError(
            "standardizing variance is %r; the statistic is degenerate" % var
        )
    return math.sqrt(var)


def _each_replicate(seed, m: int, n: int, dist, p: float, body: Callable, threads: int = 1) -> None:
    """Call body(r, x, graph) for r < m, drawing replicate r's row and graph from
    seed's spawn key plus (r, 0) and (r, 1). At p = 0 or 1 the graph draws
    nothing (every replicate gets the same shared graph), so no graph seed is
    derived. threads > 1 runs contiguous ranges of r concurrently, so body
    must write only slot r."""
    seed = as_seed_sequence(seed)
    entropy, key, pool = seed.entropy, seed.spawn_key, seed.pool_size
    draws_graph = 0.0 < p < 1.0

    def run_range(lo: int, hi: int) -> None:
        for r in range(lo, hi):
            sx = np.random.SeedSequence(entropy, spawn_key=key + (r, 0), pool_size=pool)
            sz = (
                np.random.SeedSequence(entropy, spawn_key=key + (r, 1), pool_size=pool)
                if draws_graph
                else None
            )
            body(r, sample_row(n, dist, sx), sample_dilution(n, p, sz))

    if threads <= 1 or m < 2 * threads:
        return run_range(0, m)
    step = -(-m // threads)
    with ThreadPoolExecutor(max_workers=threads) as executor:
        list(executor.map(lambda lo: run_range(lo, min(lo + step, m)), range(0, m, step)))


def _run_replicates(
    config: ExperimentConfig,
    dist,
    n: int,
    p: float,
    label: str,
    statistic: Callable,
    standardization: str,
    note: str = "",
) -> DistTestResult:
    """The R statistic values of the label's replicates, KS-tested against the
    normal, with their summed kernel-eval count."""
    t0 = time.perf_counter()
    R = config.R
    expected = R * math.comb(n, 2) * p
    if expected > DEFAULT_MAX_PAIR_EVALS:
        raise ResourceBudgetError(
            "about %.3g kernel evaluations expected (R=%d, n=%d, p=%.3g), "
            "over the %d budget" % (expected, R, n, p, DEFAULT_MAX_PAIR_EVALS)
        )
    out = np.empty(R)
    evals = np.zeros(R, dtype=np.int64)

    def body(r, x, graph):
        out[r] = statistic(x, graph)
        evals[r] = graph.edge_count()

    _each_replicate(config.policy().child(label), R, n, dist, p, body, config.threads)
    return DistTestResult(
        samples=out,
        target="normal",
        ks_statistic=ks_distance(out, normal_cdf),
        threshold=config.ks_threshold,
        n=n,
        R=R,
        eval_count=int(evals.sum()),
        standardization=standardization,
        note=note,
        runtime_seconds=time.perf_counter() - t0,
    )


def run_clt_experiment(config: ExperimentConfig) -> DistTestResult:
    """R draws of U / sqrt(Var U) at the config's largest grid point, KS-tested
    against the normal."""
    n = config.n_grid[-1]
    p = config.p_at(n)
    kernel = kernel_by_name(config.kernel_name, config.dist)
    denom = _standardizer(config, kernel, config.dist, n, p)
    return _run_replicates(
        config, config.dist, n, p, "replicate/n%d" % n,
        lambda x, graph: compute_ustat(x, graph, kernel) / denom,
        config.standardization,
    )


_COUNTEREXAMPLE_NOTE = (
    "undiluted product statistic: n*U equals (S_n^2 - sum X_i^2)/(n-1), "
    "whose limit is the square of a standard normal shifted to mean zero; "
    "the centered statistic is therefore tested against Z^2 - 1"
)


def run_counterexample(config: ExperimentConfig) -> Tuple[DistTestResult, DistTestResult]:
    """The no-CLT witness: undiluted product kernel on standard normal rows.

    Returns the n*U sample tested against the normal law (expected to
    fail) and against the shifted square law Z^2 - 1 (the actual limit).
    The exact law at finite n is square_law_n_cdf; the limit is still
    about 0.08 from it in sup distance at n=500.
    The kernel, row law, and p are pinned here regardless of the config,
    which contributes only n (its largest grid point), R, seed, threads,
    and the threshold.
    """
    n = config.n_grid[-1]
    dist = standard_normal()
    kernel = kernel_by_name("product", dist)
    vs_normal = _run_replicates(
        config, dist, n, 1.0, "counterexample/n%d" % n,
        lambda x, graph: n * compute_ustat(x, graph, kernel),
        "none (raw n*U)", _COUNTEREXAMPLE_NOTE,
    )
    return vs_normal, vs_normal.against("chi1_shifted", chi1_shifted_cdf)


def run_condition_sweep(config: ExperimentConfig):
    """ConditionReports for the configured condition subset.

    Every condition's sweep plan (the default set when none is named) is checked,
    and every expected verdict must name a swept condition and a verdict
    that condition can read, before the first sweep. The config has
    already warned once per slow grid point, so the sweeps' own
    slow-regime warnings are silenced.
    """
    ids = config.conditions or _DEFAULT_CONDITIONS
    for cid in ids:
        _check_sweep(cid, config.n_grid, config.eps_grid, config.m, config.p_at)
    unswept = sorted(set(config.expected_verdicts) - set(ids))
    if unswept:
        raise ConfigurationError(
            "expected verdicts name unswept conditions: %s" % ", ".join(unswept)
        )
    for cid, want in sorted(config.expected_verdicts.items()):
        verdicts = _CONDITIONS[cid].verdicts
        if want not in verdicts:
            raise ConfigurationError("%s reads only %s; expected %r" % (cid, ", ".join(verdicts), want))
    dist = config.dist
    kernel = kernel_by_name(config.kernel_name, dist)
    policy = config.policy()
    reports = []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="slow regime", category=UserWarning)
        for cid in ids:
            reports.append(
                sweep_condition(
                    cid,
                    kernel,
                    dist,
                    policy,
                    n_grid=config.n_grid,
                    eps_grid=config.eps_grid,
                    a=config.a if config.a is not None else 0.0,
                    m=config.m,
                    p_fixed=config.p,
                )
            )
    return reports


# --------------------------------------------------------------------------
# report emission


def _csv_text(flat, config_hash: str, seed) -> str:
    buf = io.StringIO()
    buf.write("# config_hash=%s seed=%s\n" % (config_hash, seed))
    writer = csv.writer(buf, lineterminator="\n")
    if len(flat) == 1 and isinstance(flat[0], np.ndarray):
        writer.writerow(["sample"])
        writer.writerows([v] for v in _report_value(flat[0]))
    elif len({type(r) for r in flat}) == 1 and hasattr(flat[0], "CSV_HEADER"):
        writer.writerow(flat[0].CSV_HEADER)
        for r in flat:
            if hasattr(r, "csv_rows"):
                writer.writerows(r.csv_rows())
            else:
                writer.writerow([_report_value(getattr(r, k)) for k in r.CSV_HEADER])
    else:
        raise ConfigurationError(
            "cannot emit a CSV for mixed or unsupported result types"
        )
    return buf.getvalue()


def _json_text(flat, config_hash: str, seed) -> str:
    body = []
    for r in flat:
        if isinstance(r, np.ndarray):
            body.append({"samples": _report_value(r)})
        elif hasattr(r, "to_json"):
            body.append(json.loads(r.to_json()))
        else:
            raise ConfigurationError("cannot serialize result %r" % type(r))
    return json.dumps(
        {"config_hash": config_hash, "seed": seed, "reports": body},
        sort_keys=True,
        indent=1,
    )


def emit_report(results, out_format: str, path, config_hash: str = "", seed=None) -> str:
    """Write results as CSV or JSON; returns the emitted text.

    results is one result or a nonempty list. A CSV holds one sample array
    or results of one type under its CSV_HEADER: each result's csv_rows()
    where the type defines them, else its one row of those fields;
    JSON takes any mix of to_json() results and 1-D sample arrays. Output
    is a pure function of the inputs (every value written by
    _report_value, keys sorted), so identical runs give byte-identical
    files. path None skips writing and just returns the text; a path that
    cannot be written raises ConfigurationError.
    """
    flat = results if isinstance(results, (list, tuple)) else [results]
    if not flat:
        raise ConfigurationError("no results to emit")
    if any(isinstance(r, np.ndarray) and r.ndim != 1 for r in flat):
        raise ConfigurationError("a sample array must be 1-D")
    if out_format == "csv":
        text = _csv_text(flat, config_hash, seed)
    elif out_format == "json":
        text = _json_text(flat, config_hash, seed)
    else:
        raise ConfigurationError("format must be csv or json; got %r" % out_format)
    if path is not None:
        try:
            with open(path, "w", encoding="utf8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigurationError("report file %s: %s" % (path, exc.strerror)) from None
    return text
