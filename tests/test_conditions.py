"""Condition estimators against independent oracles.

Each estimator gets at least one check that does not share code with it:
binomial enumeration for the projection-sum condition, adaptive
quadrature for the pair condition on normal rows, constant-integrand
cases with zero Monte Carlo error, and a direct conditional enumeration
for the summed conditional variance.
"""

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st
from scipy.integrate import quad
from scipy.stats import norm as normal_law

import diluteu as d
from conftest import dense_of
from diluteu.cli import main
from diluteu.conditions import ABSOLUTE_FLOOR, DEFAULT_M

# frozen oracle values; recomputed below and compared before use
C1_SIGN_SKEWED_N10 = 0.4223172169811322  # n=10 p=0.5 eps=0.5
XY2_TAIL_AT_1 = 0.8602121889132067       # E[(xy)^2 1{|xy| >= 1}], x,y std normal


def test_c1_binomial_enumeration_oracle(skewed):
    # S = deg * g(X) with deg ~ Bin(n-1, p) independent of X, so the
    # truncated second moment is a finite double sum
    k = d.sign_kernel(skewed)
    n, p, eps = 10, 0.5, 0.5
    ms = d.moments_closed_form(k, skewed, n, p)
    cut = eps * ms.theta * n
    vals = np.asarray(skewed.support)
    qs = np.asarray(skewed.probs)
    gv = k.conditional_mean(vals)
    total = 0.0
    for w, g in zip(qs, gv):
        for deg in range(n):
            pb = math.comb(n - 1, deg) * p**deg * (1 - p) ** (n - 1 - deg)
            s = deg * g
            if abs(s) >= cut:
                total += w * pb * s * s
    exact = total / (n * ms.theta2)
    assert exact == pytest.approx(C1_SIGN_SKEWED_N10, abs=1e-12)
    est = d.estimate_C1(k, skewed, n, p, (eps,), m=200_000, seed=42)[0]
    assert est.se > 0
    assert abs(est.value - exact) < 4 * est.se


# every (kernel, law) pair of the exact oracle below has a finite row law
EXACT_CASES = ("sign", "tri", "additive", "product")


def exact_case(case, skewed, tri, tri_kernel):
    if case == "sign":
        return d.sign_kernel(skewed), skewed
    return (tri_kernel if case == "tri" else d.kernel_by_name(case, tri)), tri


def exact_condition(cid, k, law, n, p, eps=None):
    """(exact value, exact standard deviation of one draw) of a truncated
    condition on a finite law: the integrand's first and second moments as
    sums over the support (C1: and over the Binomial(n - 1, p) row count),
    with g, h~, H and H~ built here from the table of h alone. C4 and C4'
    take no eps: p^2 sum_ab q_a q_b H(a, b)^2 / theta^4, and the same with H~."""
    t2 = d.moments_closed_form(k, law, n, p).theta2
    x = np.asarray(law.support, np.float64)
    q = np.asarray(law.probs, np.float64)
    h = k.pair_values(*np.meshgrid(x, x, indexing="ij"))
    g = h @ q
    ht = h - g[:, None] - g[None, :]
    pair_q = p * np.outer(q, q)  # the pair's bit is 1; a 0 bit is never cut
    if cid == "C1":
        count = np.arange(n)
        size = np.outer(g, count)
        w = np.outer(q, [math.comb(n - 1, c) * p**c * (1 - p) ** (n - 1 - c) for c in count])
        y, cut, factor = size * size, eps * math.sqrt(t2) * n, 1.0 / (n * t2)
    elif cid == "C1''":
        size, w = g, p * q
        y, cut, factor = size * size, eps * math.sqrt(t2), n * n / t2
    elif cid in ("C2", "C2''"):
        size, w = (ht if cid == "C2" else h), pair_q
        y, cut, factor = size * size, eps * math.sqrt(t2) * n, 1.0 / t2
    elif cid in ("C4", "C4'"):  # both of the pair's bits are 1
        f = h if cid == "C4" else ht
        size, w = (f * q) @ f, p * pair_q
        y, cut, factor = size * size, 0.0, 1.0 / (t2 * t2)
    else:  # C3, C3'': the diagonal of H~ or H
        f = ht if cid == "C3" else h
        size, w = np.diag((f * q) @ f), q
        y, cut, factor = size, eps * t2 * n / p, p / t2
    y = y * (np.abs(size) >= cut)
    mean = float(np.sum(w * y))
    var = max(float(np.sum(w * y * y)) - mean * mean, 0.0)
    return mean * factor, math.sqrt(var) * factor


def check_exact(cid, k, law, n, p, eps_grid, m, seed):
    """Assert each estimate of cid at (n, p), one per eps (C4 and C4': one),
    within 4 standard errors of exact_condition, taken from the exact spread
    of one draw: a sample SE is 0 when no draw hits a rare cut. Returns the
    number of nonzero exact values."""
    if cid in ("C4", "C4'"):
        cells = [(None, (d.estimate_C4 if cid == "C4" else d.estimate_C4prime)(k, law, n, p, m, seed))]
    else:
        cells = zip(eps_grid, eps_estimator(cid)(k, law, n, p, eps_grid, m, seed))
    nonzero = 0
    for eps, est in cells:
        exact, sd = exact_condition(cid, k, law, n, p, eps)
        nonzero += exact > 0.0
        tol = 4.0 * sd / math.sqrt(m) + 1e-12 * max(1.0, abs(exact))
        assert abs(est.value - exact) <= tol, (k.name, law.describe(), cid, n, p, eps, est, exact)
    return nonzero


@pytest.mark.parametrize("cid", ["C1", "C2", "C3", "C1''", "C2''", "C3''"])
def test_eps_conditions_match_exact_sums_on_finite_laws(cid, skewed, tri, tri_kernel):
    # the SE from the exact second moment (sign, skewed law, n=50, p=50^-0.3,
    # eps=0.5: C1 is 0.00231, and 4096 draws can see no event)
    nonzero = 0
    for case in EXACT_CASES:
        k, law = exact_case(case, skewed, tri, tri_kernel)
        for n in (50, 200):
            for p in (n**-0.3, 0.7):
                seed = d.SeedPolicy(6).child("exact/%s/%s" % (case, cid), n)
                nonzero += check_exact(cid, k, law, n, p, (0.01, 0.1, 0.5), 4096, seed)
    assert nonzero > 0


@pytest.mark.parametrize("cid", ["C4", "C4'"])
def test_c4_conditions_match_exact_sums_on_finite_laws(cid, skewed, tri, tri_kernel):
    # the SE from the exact fourth moment of G
    for case in EXACT_CASES:
        k, law = exact_case(case, skewed, tri, tri_kernel)
        for n in (50, 200):
            for p in (n**-0.3, 0.7):
                seed = d.SeedPolicy(6).child("exact/%s/%s" % (case, cid), n)
                check_exact(cid, k, law, n, p, (), 16384, seed)


@pytest.mark.parametrize("case", EXACT_CASES)
def test_c4_support_sums_equal_their_traces(case, skewed, tri, tri_kernel):
    # sum_ab q_a q_b H(a, b)^2 from the table of h against tr(M S M S) from
    # the kernel's (A, mu, Sigma): M = A Sigma A, S = Sigma for H; M = A Cov A,
    # S = Cov = Sigma - mu mu^T for H~
    k, law = exact_case(case, skewed, tri, tri_kernel)
    x = np.asarray(law.support, np.float64)
    q = np.asarray(law.probs, np.float64)
    h = k.pair_values(*np.meshgrid(x, x, indexing="ij"))
    g = h @ q
    a, mu, sigma = k.coef, k.feature_mean, k.feature_moment
    for f, cov in ((h, sigma), (h - g[:, None] - g[None, :], sigma - np.outer(mu, mu))):
        big_h = (f * q) @ f
        m = a @ cov @ a
        trace = float(np.trace(m @ cov @ m @ cov))
        assert float(q @ (big_h * big_h) @ q) == pytest.approx(trace, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "n_grid", [(20.9, 40), (20, 40.5), (True, 40), (20, "40")], ids=["20.9", "40.5", "bool", "str"]
)
def test_a_sweep_refuses_a_non_integral_n(n_grid, rad, policy):
    # a direct sweep ran n = 20.9 as n = 20; a config's n grid goes through the same check
    k = d.sign_kernel(rad)
    with pytest.raises(d.ConfigurationError, match="n must be an integer; got"):
        d.sweep_condition("C4", k, rad, policy, n_grid=n_grid, m=100, p_fixed=0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda k, law, pol: d.sweep_condition("C1", k, law, pol, n_grid=(20, 40), m=100.9, p_fixed=0.5),
        lambda k, law, pol: d.estimate_C1(k, law, 20, 0.5, (0.5,), 100.9, 1),
        lambda k, law, pol: d.estimate_Cdoubleprime("C2''", k, law, 20, 0.5, (0.5,), 100.5, 1),
        lambda k, law, pol: d.estimate_C4(k, law, 20, 0.5, True, 1),
        lambda k, law, pol: d.estimate_eta2(k, law, 20, 0.5, 2.5, 1),
        lambda k, law, pol: d.moments_mc(k, law, 20, 0.5, 100.9, 1),
    ],
    ids=["sweep", "C1", "C2''", "C4-bool", "ETA2", "moments_mc"],
)
def test_m_refuses_a_non_integral_count(call, rad, policy):
    # a sweep and a direct call ran m = 100.9 as 100; m = True read as 1
    with pytest.raises(d.ConfigurationError, match="m must be an integer; got"):
        call(d.sign_kernel(rad), rad, policy)


# every public estimator as fn(kernel, law, n, p), with valid eps, m and seed
ESTIMATORS = {
    "C1": lambda k, law, n, p: d.estimate_C1(k, law, n, p, (0.5,), 100, 1),
    "C2": lambda k, law, n, p: d.estimate_C2(k, law, n, p, (0.5,), 100, 1),
    "C3": lambda k, law, n, p: d.estimate_C3(k, law, n, p, (0.5,), 100, 1),
    "C4": lambda k, law, n, p: d.estimate_C4(k, law, n, p, 100, 1),
    "C4'": lambda k, law, n, p: d.estimate_C4prime(k, law, n, p, 100, 1),
    "C1''": lambda k, law, n, p: d.estimate_Cdoubleprime("C1''", k, law, n, p, (0.5,), 100, 1),
    "C2''": lambda k, law, n, p: d.estimate_Cdoubleprime("C2''", k, law, n, p, (0.5,), 100, 1),
    "C3''": lambda k, law, n, p: d.estimate_Cdoubleprime("C3''", k, law, n, p, (0.5,), 100, 1),
    "ETA1": lambda k, law, n, p: d.estimate_eta1_mean(k, law, n, p, (0.5,), 2, 1),
    "ETA2": lambda k, law, n, p: d.estimate_eta2(k, law, n, p, 2, 1),
}
NOT_INTEGRAL = "n must be an integer; got"
NAN_P = "p must be a finite real number; got nan"
BELOW_FLOOR = "n\\*p = 0.250 < 1 at n=5"
_NIL = d.Estimate(value=0.0, se=0.0)
REAL = "must be a finite real number; got"
NOT_A_SEED = "seed must be an integer; got"
_RAD_TABLE = [(-1, -1, 1), (-1, 1, -1), (1, 1, "1")]
POINT_REFUSALS = {
    "moments_closed_form-200.7": (lambda k, law: d.moments_closed_form(k, law, 200.7, 0.3), NOT_INTEGRAL),
    "moments_closed_form-bool": (lambda k, law: d.moments_closed_form(k, law, True, 0.3), NOT_INTEGRAL),
    "moments_closed_form-nan": (lambda k, law: d.moments_closed_form(k, law, 200, math.nan), NAN_P),
    "variance_exact-20.5": (lambda k, law: d.variance_exact(20.5, 0.3, 1.0, 1.0), NOT_INTEGRAL),
    "moments_mc-20.5": (lambda k, law: d.moments_mc(k, law, 20.5, 0.3, 100, 1), NOT_INTEGRAL),
    "enumerate_exact-2.5": (lambda k, law: d.enumerate_exact(k, law, 2.5, 0.5), NOT_INTEGRAL),
    "square_law_n_cdf-500.7": (lambda k, law: d.square_law_n_cdf(0.0, 500.7), NOT_INTEGRAL),
    "verify_c4-200.7": (lambda k, law: d.verify_c4_implies_c4prime(_NIL, _NIL, 200.7, 0.3), NOT_INTEGRAL),
    "verify_c4-nan": (lambda k, law: d.verify_c4_implies_c4prime(_NIL, _NIL, 200, math.nan), NAN_P),
    "sample_row-20.5": (lambda k, law: d.sample_row(20.5, law, 1), NOT_INTEGRAL),
    "sample_row-bool": (lambda k, law: d.sample_row(True, law, 1), NOT_INTEGRAL),
    "sample_dilution-20.5": (lambda k, law: d.sample_dilution(20.5, 0.3, 1), NOT_INTEGRAL),
    "sample_realization-20.5": (lambda k, law: d.sample_realization(20.5, law, k, 0.3, 1), NOT_INTEGRAL),
    "dilution_regime-200.5": (lambda k, law: d.dilution_regime(200.5, 0.3), NOT_INTEGRAL),
    "C4-bool": (lambda k, law: d.estimate_C4(k, law, True, 0.3, 100, 1), NOT_INTEGRAL),
    "moments_closed_form-p-bool": (lambda k, law: d.moments_closed_form(k, law, 20, True), "p " + REAL),
    "moments_closed_form-p-str": (lambda k, law: d.moments_closed_form(k, law, 20, "0.3"), "p " + REAL),
    "sample_dilution-p-bool": (lambda k, law: d.sample_dilution(5, True, 1), "probability " + REAL),
    "sample_dilution-p-str": (lambda k, law: d.sample_dilution(5, "0.3", 1), "probability " + REAL),
    "sample_realization-p-bool": (lambda k, law: d.sample_realization(20, law, k, True, 1), REAL),
    "sample_realization-p-str": (lambda k, law: d.sample_realization(20, law, k, "0.3", 1), REAL),
    "dilution_regime-a-str": (lambda k, law: d.dilution_regime(200, "0.3"), "exponent a " + REAL),
    "sweep_condition-a-str": (
        lambda k, law: d.sweep_condition("C4", k, law, d.SeedPolicy(6), n_grid=(40,), m=100, a="0.3"),
        "exponent a " + REAL,
    ),
    "sweep_condition-a-str-p_fixed": (
        lambda k, law: d.sweep_condition("C4", k, law, d.SeedPolicy(6), n_grid=(40,), m=100, a="0.3", p_fixed=0.5),
        "exponent a " + REAL,
    ),
    "sweep_condition-a-5-p_fixed": (
        lambda k, law: d.sweep_condition("C4", k, law, d.SeedPolicy(6), n_grid=(40,), m=100, a=5.0, p_fixed=0.5),
        r"exponent a=5\.0 outside \[0, 1\)",
    ),
    "sweep_condition-a-bool-p_fixed": (
        lambda k, law: d.sweep_condition("C4", k, law, d.SeedPolicy(6), n_grid=(40,), m=100, a=True, p_fixed=0.5),
        "exponent a " + REAL,
    ),
    "sweep_condition-p_fixed-str": (
        lambda k, law: d.sweep_condition("C4", k, law, d.SeedPolicy(6), n_grid=(40,), m=100, p_fixed="0.3"),
        "p " + REAL,
    ),
    "config-p-str": (lambda k, law: d.ExperimentConfig(dist=law, n_grid=(40,), p="0.3"), "p " + REAL),
    "config-a-str": (lambda k, law: d.ExperimentConfig(dist=law, n_grid=(200,), a="0.3"), "a " + REAL),
    "config-ks_threshold-str": (
        lambda k, law: d.ExperimentConfig(dist=law, n_grid=(40,), p=0.3, ks_threshold="0.05"),
        "ks_threshold " + REAL,
    ),
    "config-eps-str": (
        lambda k, law: d.ExperimentConfig(dist=law, n_grid=(40,), p=0.3, eps_grid=("0.5",)), "eps " + REAL
    ),
    "C2-eps-str": (lambda k, law: d.estimate_C2(k, law, 40, 0.3, ("0.5",), 100, 1), "C2 eps " + REAL),
    "uniform-str": (lambda k, law: d.uniform("-1", 1), "endpoint " + REAL),
    "table-str": (lambda k, law: d.table([-1, 1], ["0.5", 0.5]), "probability " + REAL),
    "kernel_from_table-str": (
        lambda k, law: d.kernel_from_table("t", _RAD_TABLE, d.rademacher()), r"pair \(1\.0, 1\.0\) " + REAL
    ),
    "enumerate_exact-vertex-0.5": (
        lambda k, law: d.enumerate_exact(k, law, 3, 0.5, [(("Phi", 0.5, 2),)]), "factor vertex must be an integer"
    ),
    "as_generator-1.5": (lambda k, law: d.as_generator(1.5), NOT_A_SEED),
    "as_seed_sequence-1.5": (lambda k, law: d.as_seed_sequence(1.5), NOT_A_SEED),
    "sample_row-seed-1.5": (lambda k, law: d.sample_row(5, law, 1.5), NOT_A_SEED),
    "sample_row-seed-bool": (lambda k, law: d.sample_row(5, law, True), NOT_A_SEED),
    "sample_row-seed-str": (lambda k, law: d.sample_row(5, law, "7"), NOT_A_SEED),
    "sample_dilution-seed-2.9": (lambda k, law: d.sample_dilution(30, 0.5, 2.9), NOT_A_SEED),
    "sample_dilution-p1-seed-2.9": (lambda k, law: d.sample_dilution(5, 1.0, 2.9), NOT_A_SEED),
    "sample_dilution-p0-seed-negative": (lambda k, law: d.sample_dilution(5, 0.0, -3), "seed must be >= 0; got -3"),
    "sample_dilution-p1-seed-bool": (lambda k, law: d.sample_dilution(5, 1.0, True), NOT_A_SEED),
    "sample_dilution-p1-seed-str": (lambda k, law: d.sample_dilution(5, 1.0, "7"), NOT_A_SEED),
    "variance_exact-beta2-bool": (lambda k, law: d.variance_exact(20, 0.3, True, 1.0), "beta2 " + REAL),
    "variance_exact-beta2-nan": (lambda k, law: d.variance_exact(20, 0.3, math.nan, 1.0), "beta2 " + REAL),
    "variance_exact-beta2-str": (lambda k, law: d.variance_exact(20, 0.3, "1.0", 1.0), "beta2 " + REAL),
    "variance_exact-gamma2-bool": (lambda k, law: d.variance_exact(20, 0.3, 1.0, True), "gamma2 " + REAL),
    "variance_exact-gamma2-nan": (lambda k, law: d.variance_exact(20, 0.3, 1.0, math.nan), "gamma2 " + REAL),
    "variance_exact-gamma2-str": (lambda k, law: d.variance_exact(20, 0.3, 1.0, "1.0"), "gamma2 " + REAL),
    "C2-seed-1.5": (lambda k, law: d.estimate_C2(k, law, 40, 0.3, (0.5,), 100, 1.5), NOT_A_SEED),
    "sample_realization-seed-1.5": (lambda k, law: d.sample_realization(20, law, k, 0.3, 1.5), NOT_A_SEED),
    "moments_mc-seed-2.5": (lambda k, law: d.moments_mc(k, law, 20, 0.3, 100, 2.5), NOT_A_SEED),
    "moments_mc-seed-negative": (lambda k, law: d.moments_mc(k, law, 20, 0.3, 100, -3), "seed must be >= 0; got -3"),
    "sample_row-seed-negative": (lambda k, law: d.sample_row(5, law, -3), "seed must be >= 0; got -3"),
    "DilutionGraph-n-bool": (lambda k, law: d.DilutionGraph(n=True, packed=np.zeros(0, np.uint8)), NOT_INTEGRAL),
    "DilutionGraph-n-2.5": (lambda k, law: d.DilutionGraph(n=2.5, packed=np.zeros(1, np.uint8)), NOT_INTEGRAL),
    "DilutionGraph-n-str": (lambda k, law: d.DilutionGraph(n="3", packed=np.zeros(1, np.uint8)), NOT_INTEGRAL),
    "child-index-2.7": (lambda k, law: d.SeedPolicy(6).child("x", 2.7), "seed index must be an integer; got"),
    "child-index-bool": (lambda k, law: d.SeedPolicy(6).child("x", True), "seed index must be an integer; got"),
    "child-index-str": (lambda k, law: d.SeedPolicy(6).child("x", "3"), "seed index must be an integer; got"),
    "child-index-negative": (lambda k, law: d.SeedPolicy(6).child("x", 0, -1), "seed index must be >= 0; got -1"),
    "kernel_from_table-2-fields": (
        lambda k, law: d.kernel_from_table("t", [(-1, -1, 1), (-1, 1), (1, 1, 1)], d.rademacher()),
        r"row \(-1, 1\) is not an \(x, y, value\) triple",
    ),
    "kernel_from_table-4-fields": (
        lambda k, law: d.kernel_from_table("t", [(-1, -1, 1), (-1, 1, -1, 9), (1, 1, 1)], d.rademacher()),
        r"row \(-1, 1, -1, 9\) is not an \(x, y, value\) triple",
    ),
    "sample_dilution-p-1.5": (lambda k, law: d.sample_dilution(5, 1.5, 1), r"probability 1\.5 outside \[0, 1\]"),
    "sample_dilution-p-negative": (lambda k, law: d.sample_dilution(5, -0.1, 1), r"probability -0\.1 outside"),
    "sample_row-unknown-kind": (
        lambda k, law: d.sample_row(5, d.DistributionSpec(kind="cauchy", variance=1.0), 1),
        "unknown distribution kind 'cauchy'",
    ),
    "compute_ustat-2-D": (
        lambda k, law: d.compute_ustat(np.zeros((5, 1)), d.sample_dilution(5, 1.0, 1), k), "one-dimensional"
    ),
    "compute_ustat-length": (
        lambda k, law: d.compute_ustat(np.zeros(4), d.sample_dilution(5, 1.0, 1), k),
        "row length 4 does not match graph size 5",
    ),
    "compute_ustat-1-vertex": (
        lambda k, law: d.compute_ustat(np.zeros(1), d.sample_dilution(1, 1.0, 1), k), "at least two observations"
    ),
    "ks_distance-empty": (lambda k, law: d.ks_distance(np.array([]), d.normal_cdf), "nonempty sample"),
}
for _cid, _fn in ESTIMATORS.items():
    for _tag, _n, _p, _match in (
        ("20.5", 20.5, 0.3, NOT_INTEGRAL), ("nan", 20, math.nan, NAN_P), ("np0.25", 5, 0.05, BELOW_FLOOR)
    ):
        POINT_REFUSALS["%s-%s" % (_cid, _tag)] = (lambda k, law, f=_fn, n=_n, p=_p: f(k, law, n, p), _match)


@pytest.mark.parametrize("case", sorted(POINT_REFUSALS))
def test_every_entry_point_refuses_a_bad_point(case, skewed):
    # each ran a truncated n or seed, returned a value (a bool p as 1.0, a
    # string real as its float) or raised a TypeError or ValueError; an
    # estimator takes a sweep's n*p >= 1 floor, the moments and samplers do not
    call, match = POINT_REFUSALS[case]
    with pytest.raises(d.ConfigurationError, match=match):
        call(d.sign_kernel(skewed), skewed)


def _run_bytes(config):
    result = d.run_clt_experiment(config)
    return d.emit_report(result, "json", None, config_hash=config.config_hash(), seed=config.master_seed)


@pytest.mark.parametrize("p, same", [(np.float64(0.3), 0.3), (1, 1.0)], ids=["numpy-float", "int"])
def test_a_numpy_or_int_p_runs_as_its_float(p, same, skewed):
    k = d.sign_kernel(skewed)
    configs = [d.ExperimentConfig(dist=skewed, n_grid=(40,), p=v, R=50) for v in (p, same)]
    assert configs[0].config_hash() == configs[1].config_hash()
    assert _run_bytes(configs[0]) == _run_bytes(configs[1])
    a, b = (d.sample_realization(40, skewed, k, v, 1) for v in (p, same))
    assert np.array_equal(a.z.packed, b.z.packed) and np.array_equal(a.x, b.x) and a.u_value == b.u_value
    ms = [d.moments_closed_form(k, skewed, 40, v).to_json() for v in (p, same)]
    assert ms[0] == ms[1]


def test_a_numpy_int_seed_runs_as_its_int(skewed):
    k = d.sign_kernel(skewed)
    configs = [d.ExperimentConfig(dist=skewed, n_grid=(40,), p=0.3, R=50, master_seed=s) for s in (np.int64(6), 6)]
    assert configs[0].config_hash() == configs[1].config_hash()
    assert _run_bytes(configs[0]) == _run_bytes(configs[1])
    s = np.int64(6)
    assert np.array_equal(d.sample_row(40, skewed, s), d.sample_row(40, skewed, 6))
    assert np.array_equal(d.sample_dilution(40, 0.3, s).packed, d.sample_dilution(40, 0.3, 6).packed)
    assert d.estimate_C2(k, skewed, 40, 0.3, (0.5,), 100, s) == d.estimate_C2(k, skewed, 40, 0.3, (0.5,), 100, 6)
    assert d.moments_mc(k, skewed, 40, 0.3, 100, s).to_json() == d.moments_mc(k, skewed, 40, 0.3, 100, 6).to_json()


def test_an_integral_float_n_runs_as_its_int(skewed):
    k = d.sign_kernel(skewed)
    ms = [d.moments_closed_form(k, skewed, n, 0.3).to_json() for n in (200.0, 200)]
    assert ms[0] == ms[1]
    assert d.estimate_C2(k, skewed, 200.0, 0.3, (0.5,), 200, 1) == d.estimate_C2(k, skewed, 200, 0.3, (0.5,), 200, 1)
    eta2 = [d.estimate_eta2(k, skewed, n, 0.3, 4, 1) for n in (200.0, 200)]
    assert np.array_equal(eta2[0], eta2[1])
    a, b = (d.sample_realization(n, skewed, k, 0.3, 1) for n in (200.0, 200))
    assert type(a.z.n) is int and np.array_equal(a.z.packed, b.z.packed)
    assert np.array_equal(a.x, b.x) and a.u_value == b.u_value
    assert np.array_equal(a.psi_part, b.psi_part) and np.array_equal(a.phi_tilde_part, b.phi_tilde_part)


def test_c2_quadrature_oracle(norm):
    # product kernel on normal rows: the centered pair value is just xy,
    # and E[(xy)^2 1{|xy| >= c}] reduces to a one-dimensional integral
    def xy2_tail(c):
        def inner(x):
            t = c / x
            a = 2.0 * (t * normal_law.pdf(t) + normal_law.sf(t))
            return 2.0 * x * x * normal_law.pdf(x) * a

        v, err = quad(inner, 0.0, np.inf, limit=200)
        assert err < 1e-8
        return v

    n, p, eps = 4, 0.5, 0.5
    k = d.product_kernel(norm)
    ms = d.moments_closed_form(k, norm, n, p)
    cut = eps * ms.theta * n
    assert cut == pytest.approx(1.0)
    tail = xy2_tail(cut)
    assert tail == pytest.approx(XY2_TAIL_AT_1, abs=1e-8)
    exact = p * tail / ms.theta2
    est = d.estimate_C2(k, norm, n, p, (eps,), m=400_000, seed=43)[0]
    assert abs(est.value - exact) < 4 * est.se
    # the kernel is degenerate, so the centered and plain versions agree
    est2 = d.estimate_Cdoubleprime("C2''", k, norm, n, p, (eps,), m=400_000, seed=44)[0]
    assert abs(est2.value - exact) < 4 * est2.se


def test_c3_constant_integrand_is_exact(rad):
    # sign kernel on symmetric two-point rows: the diagonal pair
    # conditional is identically 1, so the estimate has zero error
    k = d.sign_kernel(rad)
    p = 0.5
    for n, expected in ((10, 2.0), (50, 0.0)):  # cutoff eps n / 2 vs 1
        est = d.estimate_C3(k, rad, n, p, eps_grid=(0.1,), m=1000, seed=7)[0]
        assert est.value == expected
        assert est.se == 0.0
        est2 = d.estimate_Cdoubleprime("C3''", k, rad, n, p, eps_grid=(0.1,), m=1000, seed=8)[0]
        assert est2.value == expected


def test_c4_product_normal_is_four(norm):
    # H(a,b) = ab and theta^2 = p/2, so the constant works out to 4 at any p
    k = d.product_kernel(norm)
    for p in (1.0, 0.4):
        est = d.estimate_C4(k, norm, n=100, p=p, m=60_000, seed=11)
        assert abs(est.value - 4.0) < 4 * est.se


def test_c4_additive_rademacher_closed_form(rad):
    # E[G^2] = 2 p^2 and theta^4 = p^2 (np+1)^2, so C4 = 2/(np+1)^2
    k = d.additive_kernel(rad)
    n, p = 50, 0.3
    est = d.estimate_C4(k, rad, n, p, m=120_000, seed=12)
    assert abs(est.value - 2.0 / (n * p + 1) ** 2) < 4 * est.se


def test_c4prime_vanishes_for_additive(rad):
    # centered pair function is identically zero
    k = d.additive_kernel(rad)
    est = d.estimate_C4prime(k, rad, n=50, p=0.3, m=2000, seed=13)
    assert est.value == 0.0
    assert est.se == 0.0


def test_c4prime_equals_c4_for_degenerate(norm):
    k = d.product_kernel(norm)
    a = d.estimate_C4(k, norm, n=60, p=0.5, m=60_000, seed=14)
    b = d.estimate_C4prime(k, norm, n=60, p=0.5, m=60_000, seed=15)
    assert abs(a.value - b.value) < 4 * (a.se + b.se)


def test_structural_zero_beyond_kernel_bound(skewed):
    # bounded integrands truncated above their sup are exactly zero
    k = d.sign_kernel(skewed)
    n, p = 30, 0.4
    for fn in (d.estimate_C1, d.estimate_C2):
        est = fn(k, skewed, n, p, eps_grid=(100.0,), m=500, seed=1)[0]
        assert est.value == 0.0 and est.se == 0.0
    for cond in ("C1''", "C2''"):
        est = d.estimate_Cdoubleprime(cond, k, skewed, n, p, eps_grid=(100.0,), m=500, seed=2)[0]
        assert est.value == 0.0 and est.se == 0.0


def test_cdoubleprime_rejects_unknown_condition(skewed):
    k = d.sign_kernel(skewed)
    with pytest.raises(d.ConfigurationError):
        d.estimate_Cdoubleprime("C9''", k, skewed, 10, 0.5, 0.1, 500, 0)


def test_estimators_reject_tiny_m(skewed):
    k = d.sign_kernel(skewed)
    with pytest.raises(d.ConfigurationError):
        d.estimate_C1(k, skewed, 10, 0.5, 0.5, m=50, seed=0)


# ----------------------------------------------------------------- eta2


def brute_conditional_variance(x, low, kernel, n, p, theta2):
    """Direct sum_i E[xi_i^2 | past] by enumerating (X_i, future degree)."""
    dist = kernel.dist
    vals = np.asarray(dist.support)
    qs = np.asarray(dist.probs)
    gv_sup = kernel.conditional_mean(vals)
    theta = math.sqrt(theta2)
    total = 0.0
    for i in range(n):
        nfut = n - 1 - i
        ci = float(low[i, :i].sum())
        acc = 0.0
        for w, xi, gxi in zip(qs, vals, gv_sup):
            if i > 0:
                hrow = kernel.pair_values(np.full(i, xi), x[:i])
                tilde = hrow - gxi - kernel.conditional_mean(x[:i])
                phi_sum = float(low[i, :i] @ tilde)
            else:
                phi_sum = 0.0
            for deg in range(nfut + 1):
                wd = math.comb(nfut, deg) * p**deg * (1 - p) ** (nfut - deg)
                val = (gxi * (ci + deg) + phi_sum) / (n * theta)
                acc += w * wd * val * val
        total += acc
    return total


def replay_realizations(dist, n, p, m, seed):
    """The estimators' m draws of (row, dense strictly-lower L)."""
    seq = d.as_seed_sequence(seed)
    out = []
    for child in seq.spawn(m):
        sx, sz = child.spawn(2)
        x = d.sample_row(n, dist, sx)
        low = np.tril(dense_of(d.sample_dilution(n, p, sz))).astype(np.float64)
        out.append((x, low))
    return out


def test_eta2_matches_brute_force_enumeration(skewed, tri, tri_kernel):
    # sign kernel (rank 2) and a table kernel (one-hot features, rank 3)
    n, p, m, seed = 12, 0.35, 6, 99
    for k, law in ((d.sign_kernel(skewed), skewed), (tri_kernel, tri)):
        ms = d.moments_closed_form(k, law, n, p)
        samples = d.estimate_eta2(k, law, n, p, m=m, seed=seed)
        for val, (x, low) in zip(samples, replay_realizations(law, n, p, m, seed)):
            brute = brute_conditional_variance(x, low, k, n, p, ms.theta2)
            assert val == pytest.approx(brute, abs=1e-12)


def dense_eta2(kernel, x, low, n, p, theta2):
    """The O(n^3) form: n x n H~ matrix and the Gram matrix L^T L."""
    eg2 = kernel.g_second_moment
    fut = (n - 1) - np.arange(n, dtype=np.float64)
    c = low.sum(axis=1)
    colc = low.sum(axis=0)
    eta21 = eg2 * float((c * c + 2.0 * c * fut * p + fut * p * (1.0 - p + fut * p)).sum())
    htm = kernel.centered_pair_conditional(x[:, None], x[None, :])
    gram = low.T @ low
    diag_ht = np.diagonal(htm)
    eta22 = float(diag_ht @ colc)
    eta23 = float((htm * gram).sum()) - float(diag_ht @ np.diagonal(gram))
    kx = kernel.cross_conditional(x)
    eta24 = 2.0 * float((c + fut * p) @ (low @ (kx - eg2)))
    return (eta21 + eta22 + eta23 + eta24) / (n * n * theta2)


def test_eta2_matches_dense_reference(skewed, rad, norm, tri, tri_kernel):
    cases = [
        (d.sign_kernel(skewed), skewed, 0.35),
        (d.product_kernel(norm), norm, 1.0),
        (d.product_kernel(norm), norm, 0.4),
        (d.additive_kernel(rad), rad, 0.6),
        (tri_kernel, tri, 0.5),
    ]
    m, seed = 2, 7
    for n in (12, 60, 400):
        for k, law, p in cases:
            t2 = d.moments_closed_form(k, law, n, p).theta2
            samples = d.estimate_eta2(k, law, n, p, m=m, seed=seed)
            for val, (x, low) in zip(samples, replay_realizations(law, n, p, m, seed)):
                ref = dense_eta2(k, x, low, n, p, t2)
                assert val == pytest.approx(ref, rel=1e-12), (k.name, n, p)


def test_eta2_matches_brute_force_additive(rad):
    k = d.additive_kernel(rad)
    n, p, m, seed = 9, 0.6, 5, 31
    ms = d.moments_closed_form(k, rad, n, p)
    samples = d.estimate_eta2(k, rad, n, p, m=m, seed=seed)
    for val, (x, low) in zip(samples, replay_realizations(rad, n, p, m, seed)):
        brute = brute_conditional_variance(x, low, k, n, p, ms.theta2)
        assert val == pytest.approx(brute, abs=1e-12)


def test_eta2_undiluted_product_partial_sum_identity(norm):
    # with p=1 and the product kernel the conditional variance collapses
    # to sum_i (x_1 + ... + x_{i-1})^2 / (n^2 theta^2)
    k = d.product_kernel(norm)
    n, m, seed = 40, 8, 17
    ms = d.moments_closed_form(k, norm, n, 1.0)
    assert ms.theta2 == 0.5
    samples = d.estimate_eta2(k, norm, n, 1.0, m=m, seed=seed)
    for val, (x, _low) in zip(samples, replay_realizations(norm, n, 1.0, m, seed)):
        csum = np.concatenate(([0.0], np.cumsum(x)[:-1]))
        expect = float((csum * csum).sum()) / (n * n * ms.theta2)
        assert val == pytest.approx(expect, rel=1e-12)


def test_undiluted_eta_estimators_extract_no_edges(norm, skewed, monkeypatch):
    # at p = 1 lower(cols) is a prefix sum over rows, so neither eta2 nor
    # ETA1 extracts an edge list; the skewed sign kernel (rank 2, nonzero
    # cross term) still matches the references. Below p = 1, edges() is read
    n, m, seed, eps = 50, 3, 4, 0.2
    sign = d.sign_kernel(skewed)
    t2 = d.moments_closed_form(sign, skewed, n, 1.0).theta2
    refs = [dense_eta2(sign, x, low, n, 1.0, t2)
            for x, low in replay_realizations(skewed, n, 1.0, m, seed)]
    eta1_ref = sum(pairwise_eta1(sign, skewed, n, 1.0, eps, m, seed))

    def refuse(self):
        raise AssertionError("edges() called")

    monkeypatch.setattr(d.DilutionGraph, "edges", refuse)
    got = d.estimate_eta2(sign, skewed, n, 1.0, m=m, seed=seed)
    assert got == pytest.approx(refs, rel=1e-12)
    assert np.all(np.isfinite(d.estimate_eta2(d.product_kernel(norm), norm, n, 1.0, m=m, seed=seed)))
    eta1 = d.estimate_eta1_mean(sign, skewed, n, 1.0, (eps,), m, seed)[0]
    assert eta1.value == pytest.approx(eta1_ref, rel=1e-12)
    with pytest.raises(AssertionError, match="edges"):
        d.estimate_eta2(sign, skewed, n, 0.5, m=2, seed=seed)
    with pytest.raises(AssertionError, match="edges"):
        d.estimate_eta1_mean(sign, skewed, n, 0.5, (eps,), m, seed)


def test_eta2_mean_matches_exact_formula(skewed):
    # E[eta2] = (n-1)/n (beta2/2 + (n-2) p gamma2) / theta2
    k = d.sign_kernel(skewed)
    n, p = 60, 0.4
    ms = d.moments_closed_form(k, skewed, n, p)
    exact = (n - 1) / n * (ms.beta2 / 2 + (n - 2) * p * ms.gamma2) / ms.theta2
    samples = d.estimate_eta2(k, skewed, n, p, m=400, seed=55)
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - exact) < 4 * se


def test_eta2_guards(skewed):
    k = d.sign_kernel(skewed)
    with pytest.raises(d.ConfigurationError, match="nonempty"):
        d.sweep_condition("ETA2", k, skewed, d.SeedPolicy(6), n_grid=(), a=0.3)
    with pytest.raises(d.ConfigurationError):
        d.estimate_eta2(k, skewed, n=20, p=0.5, m=1, seed=0)


def test_eta2_has_no_size_cap(skewed):
    # no n x n matrix is built, so a grid past n = 2000 is a valid plan
    cfg = d.ExperimentConfig(
        dist=skewed, n_grid=(50, 2001), a=0.3, conditions=("ETA2",)
    )
    assert cfg.n_grid == (50, 2001)


def test_eta2_memory_stays_below_the_pair_bytes(skewed):
    # the peak is the dilution draw (about 3 bytes per pair) and the edge
    # list; the n x n float64 L alone would be 16 bytes per pair
    n = 2500
    c = n * (n - 1) // 2
    k = d.sign_kernel(skewed)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        d.estimate_eta2(k, skewed, n, 0.02, m=2, seed=5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 * c


def test_eta2_requires_closed_structure(rad):
    # a table kernel without its law cannot be built, so estimate_eta2
    # never meets one lacking its conditional structure; bound to the law,
    # the table form of x*y gives the product kernel's draws
    rows = [(-1, -1, 1), (-1, 1, -1), (1, 1, 1)]
    with pytest.raises(TypeError, match="dist"):
        d.kernel_from_table("flip", rows)
    bound = d.kernel_from_table("flip", rows, dist=rad)
    got = d.estimate_eta2(bound, rad, n=10, p=0.5, m=4, seed=0)
    want = d.estimate_eta2(d.product_kernel(rad), rad, n=10, p=0.5, m=4, seed=0)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


# ----------------------------------------------------------------- eta1


def pairwise_eta1(kernel, dist, n, p, eps, m, seed):
    """(4 S1, T1) of estimate_eta1_mean, with T1's rows summed pair by
    pair from centered_values over the dense L and S1 from estimate_C1."""
    t2 = d.moments_closed_form(kernel, dist, n, p).theta2
    cut = 0.5 * eps * math.sqrt(t2) * n
    s_seed, t_seed = d.as_seed_sequence(seed).spawn(2)
    s1 = d.estimate_C1(kernel, dist, n, p, (0.5 * eps,), max(m, 4096), s_seed)[0]
    t_vals = []
    for x, low in replay_realizations(dist, n, p, m, t_seed):
        rows = np.zeros(n)
        for j in range(n):
            for i in range(j):
                if low[j, i]:
                    rows[j] += float(kernel.centered_values(x[i : i + 1], x[j : j + 1])[0])
        t_vals.append(float((rows * rows * (np.abs(rows) >= cut)).sum()))
    return 4.0 * s1.value, 4.0 / (n * n * t2) * float(np.mean(t_vals))


@pytest.mark.parametrize("p", [0.4, 1.0])
@pytest.mark.parametrize("which", ["sign", "product", "additive", "table"])
def test_eta1_t1_rows_match_pairwise_centered_sums(which, p, skewed, norm, rad, tri, tri_kernel):
    # T1's rows come from lower(phi(x) - mu); the reference sums h~ pair by pair
    k, law = {
        "sign": (d.sign_kernel(skewed), skewed),
        "product": (d.product_kernel(norm), norm),
        "additive": (d.additive_kernel(rad), rad),
        "table": (tri_kernel, tri),
    }[which]
    n, eps, m, seed = 30, 0.05, 3, 12
    s1, t1 = pairwise_eta1(k, law, n, p, eps, m, seed)
    # h~ vanishes for the additive kernel; the others keep most rows
    assert (t1 == 0.0) == (which == "additive")
    est = d.estimate_eta1_mean(k, law, n, p, (eps,), m, seed)[0]
    assert est.value - s1 == pytest.approx(t1, rel=1e-12, abs=1e-15)


@st.composite
def table_kernels(draw):
    """(k support values in -5..5 shifted to mean zero, their rational
    probabilities, the symmetric integer table over them shifted by q^T M q
    so that E[h] = 0), for k in {2, 3}."""
    k = draw(st.integers(2, 3))
    values = draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    upper = iter(draw(st.lists(st.integers(-5, 5), min_size=k * (k + 1) // 2,
                               max_size=k * (k + 1) // 2)))
    qs = np.array(weights) / sum(weights)
    values = np.array(values) - float(np.dot(values, qs))
    order = np.argsort(values)
    values, qs = values[order], qs[order]
    table = np.zeros((k, k))
    for a in range(k):
        for b in range(a, k):
            table[a, b] = table[b, a] = next(upper)
    return values, qs, table - float(qs @ table @ qs)


@given(
    table_kernels(),
    st.sampled_from([(3, 0.5), (4, 1.0), (4, 0.3)]),
    st.integers(5, 59),
    st.sampled_from([0.2, 0.6, 1.0]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_random_table_kernels_agree_across_routes(tk, tiny, n, p, seed):
    # the closed form against enumeration; one realization's U, split and
    # L product against references read from the table; one eta2 replicate
    # against the dense-L form and ETA1's T1 against pairwise centered sums
    values, qs, table = tk
    assume(np.any(np.abs(table) > 1e-9))  # h = 0 has theta^2 = 0
    law = d.table(values, qs)
    k = d.kernel_from_table("random", [(a, b, table[i, j]) for i, a in enumerate(values)
                                       for j, b in enumerate(values)], dist=law)
    exact = d.moments_closed_form(k, law, *tiny)
    enum = d.enumerate_exact(k, law, *tiny).moment_set
    for field in ("beta2", "gamma2", "theta2", "var_u_exact"):
        assert getattr(enum, field) == pytest.approx(getattr(exact, field), abs=1e-12)

    real = d.sample_realization(n, law, k, p, seed)
    idx = np.searchsorted(law.support, real.x)
    h = table[idx][:, idx]
    g = (table @ qs)[idx]
    low = np.tril(dense_of(real.z)).astype(np.float64)
    assert real.u_value == pytest.approx(
        float((low * h).sum()) / math.comb(n, 2), rel=1e-12, abs=1e-12
    )
    np.testing.assert_allclose(real.psi_part, g * (low + low.T).sum(axis=1), rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        real.phi_tilde_part, (low * (h - g[:, None] - g[None, :])).sum(axis=1), rtol=0, atol=1e-10
    )
    assert real.identity_gap() <= 1e-10 * max(1.0, abs(real.u_value))
    cols = np.eye(len(values))[idx] - qs
    np.testing.assert_allclose(real.z.lower(cols), low @ cols, rtol=1e-12, atol=1e-12)

    t2 = d.moments_closed_form(k, law, n, p).theta2
    (x0, low0), _ = replay_realizations(law, n, p, 2, seed)
    eta2 = d.estimate_eta2(k, law, n, p, m=2, seed=seed)[0]
    assert eta2 == pytest.approx(dense_eta2(k, x0, low0, n, p, t2), rel=1e-12)
    s1, t1 = pairwise_eta1(k, law, n, p, 0.05, 2, seed)
    eta1 = d.estimate_eta1_mean(k, law, n, p, (0.05,), 2, seed)[0]
    assert eta1.value - s1 == pytest.approx(t1, rel=1e-12, abs=1e-15)


@given(table_kernels())
@settings(max_examples=12, derandomize=True, database=None, deadline=None)
def test_truncated_conditions_match_exact_sums_on_random_tables(tk):
    # a fixed set of tables (derandomized), so the 4-SE check cannot flake
    values, qs, table = tk
    assume(np.any(np.abs(table) > 1e-9))  # h = 0 has theta^2 = 0
    law = d.table(values, qs)
    k = d.kernel_from_table("random", [(a, b, table[i, j]) for i, a in enumerate(values)
                                       for j, b in enumerate(values)], dist=law)
    n = 50
    for p in (n**-0.3, 0.7):
        for cid in ("C1", "C2", "C3", "C1''", "C2''", "C3''", "C4", "C4'"):
            m = 16384 if cid in ("C4", "C4'") else 4096
            seed = d.SeedPolicy(6).child("exact/random/%s" % cid, n)
            check_exact(cid, k, law, n, p, (0.01, 0.1, 0.5), m, seed)


def test_eta1_bound_flag_and_large_eps_zero(skewed):
    k = d.sign_kernel(skewed)
    est = d.estimate_eta1_mean(k, skewed, n=30, p=0.4, eps_grid=(100.0,), m=8, seed=3)[0]
    assert est.upper_bound
    assert est.value == 0.0
    assert est.se == 0.0


def test_eta1_bound_decreases_along_n(rad):
    k = d.additive_kernel(rad)
    vals = []
    for n in (30, 120):
        est = d.estimate_eta1_mean(k, rad, n=n, p=0.5, eps_grid=(0.25,), m=64, seed=21)[0]
        vals.append(est.value)
    assert vals[1] < vals[0]


def test_eta1_monotone_in_eps(skewed):
    k = d.sign_kernel(skewed)
    a = d.estimate_eta1_mean(k, skewed, n=40, p=0.5, eps_grid=(0.05,), m=32, seed=9)[0]
    b = d.estimate_eta1_mean(k, skewed, n=40, p=0.5, eps_grid=(0.4,), m=32, seed=9)[0]
    assert b.value <= a.value


# -------------------------------------------------------------- verdicts


def test_trend_verdict_branches():
    small = [1e-9] * 3
    assert d.trend_verdict([1.0, 0.3, 0.0005], small) == "decreasing-toward-0"
    # a last point clearly above the floor is not converged, however steep
    assert d.trend_verdict([1.0, 0.3, 0.05], small) == "stagnant"
    assert d.trend_verdict([1.0, 2.0, 3.0], small) == "increasing"
    assert d.trend_verdict([4.0, 4.01, 3.99], small) == "stagnant"
    # exact zeros everywhere: strongest evidence, no fourfold drop needed
    assert d.trend_verdict([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == "decreasing-toward-0"
    # rise then a cliff to exact zero
    assert (
        d.trend_verdict([88.0, 233.0, 541.0, 0.0, 0.0], [1.0] * 5)
        == "decreasing-toward-0"
    )
    # sub-floor series counts as converged even without a fourfold drop
    assert (
        d.trend_verdict([9e-4, 7e-4, 8e-4], [1e-6] * 3) == "decreasing-toward-0"
    )
    assert ABSOLUTE_FLOOR == 1e-3
    # noisy flat series stays stagnant
    assert d.trend_verdict([1.0, 1.1, 1.05], [0.2, 0.2, 0.2]) == "stagnant"
    # one point reads its band alone: inside, outside, on its edge (4 SE, then
    # the floor), and a NaN SE, which leaves no band at all
    assert d.trend_verdict([0.5], [0.25]) == "decreasing-toward-0"
    assert d.trend_verdict([1.5], [0.25]) == "stagnant"
    assert d.trend_verdict([1.0], [0.25]) == "decreasing-toward-0"
    assert d.trend_verdict([1e-3], [0.0]) == "decreasing-toward-0"
    assert d.trend_verdict([0.0], [math.nan]) == "stagnant"
    with pytest.raises(d.ConfigurationError):
        d.trend_verdict([], [])


def test_eta2_verdict_branches():
    tiny = [1e-6] * 3
    assert d.eta2_verdict([0.9, 0.98, 1.0], [0.1, 0.05, 0.02], [0.4, 0.2, 0.1]) == "converging-to-1"
    # mean right but spread not shrinking
    assert d.eta2_verdict([1.0, 1.0, 1.0], [0.01] * 3, [0.5, 0.5, 0.5]) == "stagnant"
    # drifting away from 1
    assert d.eta2_verdict([1.0, 1.5, 2.0], tiny, [0.1, 0.1, 0.1]) == "increasing"


# ---------------------------------------------------------------- sweeps


def test_sweep_report_shapes_and_csv(skewed, policy):
    k = d.sign_kernel(skewed)
    rep = d.sweep_condition(
        "C2", k, skewed, policy, n_grid=(20, 40), eps_grid=(0.3, 0.6), a=0.0, m=256
    )
    assert rep.condition_id == "C2"
    assert rep.estimates.shape == (2, 2)
    assert rep.ses.shape == (2, 2)
    assert len(rep.verdicts) == 2
    assert rep.theta_provenance == "closed_form"
    rows = list(rep.csv_rows())
    assert len(rows) == 4
    assert rows[0][0] == "C2" and rows[0][1] == 20
    # repeating the sweep with the same policy is bit-identical
    rep2 = d.sweep_condition(
        "C2", k, skewed, policy, n_grid=(20, 40), eps_grid=(0.3, 0.6), a=0.0, m=256
    )
    assert np.array_equal(rep.estimates, rep2.estimates)
    assert np.array_equal(rep.ses, rep2.ses)


def test_sweep_epsfree_conditions_have_single_column(skewed, policy):
    k = d.sign_kernel(skewed)
    rep = d.sweep_condition("C4", k, skewed, policy, n_grid=(20, 40), a=0.0, m=256)
    assert rep.eps_grid == ()
    assert rep.estimates.shape == (2, 1)
    eta = d.sweep_condition("ETA2", k, skewed, policy, n_grid=(20, 40), a=0.0, m=8)
    assert eta.spread is not None and len(eta.spread) == 2
    assert eta.verdicts[0] in ("converging-to-1", "increasing", "stagnant")


def test_sweep_fixed_p_overrides_regime(skewed, policy):
    k = d.sign_kernel(skewed)
    rep = d.sweep_condition(
        "C4", k, skewed, policy, n_grid=(20,), a=0.7, m=256, p_fixed=0.5
    )
    # with p fixed the regime exponent must be ignored
    rep2 = d.sweep_condition(
        "C4", k, skewed, policy, n_grid=(20,), a=0.0, m=256, p_fixed=0.5
    )
    assert np.array_equal(rep.estimates, rep2.estimates)


def test_sweep_with_fixed_p_warns_once_per_slow_grid_point(skewed, policy):
    # n*p = 1 at n=20: a fixed p warns like the exponent a does
    k = d.sign_kernel(skewed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d.sweep_condition("C4", k, skewed, policy, n_grid=(20,), m=100, p_fixed=0.05)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1 and "slow regime" in messages[0], messages


def test_sweep_rejects_unknown_condition(skewed, policy):
    k = d.sign_kernel(skewed)
    with pytest.raises(d.ConfigurationError):
        d.sweep_condition("C7", k, skewed, policy, n_grid=(20,))


@pytest.mark.parametrize(
    "p_fixed, match", [(0.01, "n\\*p = 0.200 < 1 at n=20"), (1.5, "p=1.5 out of range")]
)
def test_sweep_rejects_a_bad_p_before_any_cell(rad, policy, monkeypatch, p_fixed, match):
    # the config's per-grid-point p rule: 0 < p <= 1 and n*p >= 1
    cells = []
    monkeypatch.setattr(d.conditions, "estimate_C4", lambda *a: cells.append(a))
    k = d.sign_kernel(rad)
    with pytest.raises(d.ConfigurationError, match=match):
        d.sweep_condition("C4", k, rad, policy, n_grid=(20, 40), m=100, p_fixed=p_fixed)
    assert cells == []
    with pytest.raises(d.ConfigurationError, match=match):
        d.ExperimentConfig(dist=rad, n_grid=(20, 40), p=p_fixed)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1.0])
def test_sweep_rejects_a_bad_eps_before_any_cell(rad, policy, monkeypatch, eps):
    # a nan cut keeps nothing and would read as convergence to 0; eps <= 0
    # keeps everything, an untruncated moment
    # (the real-number rule refuses nan and inf first)
    cells = []
    monkeypatch.setattr(d.conditions, "estimate_C1", lambda *a: cells.append(a))
    k = d.sign_kernel(rad)
    match = "C1 needs finite eps > 0" if math.isfinite(eps) else "eps must be a finite real number; got %r" % eps
    with pytest.raises(d.ConfigurationError, match=match):
        d.sweep_condition("C1", k, rad, policy, n_grid=(20, 40), eps_grid=(0.5, eps), a=0.3)
    assert cells == []
    with pytest.raises(d.ConfigurationError, match=match):
        d.ExperimentConfig(dist=rad, n_grid=(20, 40), a=0.3, conditions=("C1",), eps_grid=(eps,))


# the eps conditions, each on a (kernel, law) whose integrand is unbounded,
# so every eps of (0.3, 0.6, 1.2) cuts something at n = 16 or 32
EPS_CASES = {
    "C1": "additive", "C1''": "additive", "C2": "product", "C3": "product",
    "C2''": "product", "C3''": "product", "ETA1": "product",
}


def eps_sweep(cond, norm, policy, eps_grid):
    k = d.kernel_by_name(EPS_CASES[cond], norm)
    m = 64 if cond == "ETA1" else 4096
    return d.sweep_condition(
        cond, k, norm, policy, n_grid=(16, 32), eps_grid=eps_grid, p_fixed=0.7, m=m
    )


@pytest.mark.parametrize("cond", sorted(EPS_CASES))
def test_first_eps_column_matches_the_one_column_sweep(cond, norm, policy):
    # the draw's seed is the first column's label, so a one-column sweep
    # is the first column of a wider one, bit for bit
    wide = eps_sweep(cond, norm, policy, (0.3, 0.6, 1.2))
    one = eps_sweep(cond, norm, policy, (0.3,))
    assert np.array_equal(wide.estimates[:, :1], one.estimates)
    assert np.array_equal(wide.ses[:, :1], one.ses)


@pytest.mark.parametrize("cond", sorted(EPS_CASES))
def test_sweep_rows_are_nonincreasing_in_eps(cond, norm, policy):
    # every column cuts one draw per n, and a higher cut keeps less
    est = eps_sweep(cond, norm, policy, (0.3, 0.6, 1.2)).estimates
    assert np.all(np.diff(est, axis=1) <= 0.0), est
    assert np.any(est[:, 1:] > 0.0), est


def eps_estimator(cond):
    """The public estimator of an eps condition, as fn(kernel, dist, n, p, eps_grid, m, seed)."""
    if cond.endswith("''"):
        return functools.partial(d.estimate_Cdoubleprime, cond)
    return {"C1": d.estimate_C1, "C2": d.estimate_C2, "C3": d.estimate_C3,
            "ETA1": d.estimate_eta1_mean}[cond]


@pytest.mark.parametrize("cond", sorted(EPS_CASES))
@pytest.mark.parametrize(
    "eps_grid, match",
    [((0.5, float("nan")), "eps must be a finite real number; got nan"),
     ((0.5, float("inf")), "eps must be a finite real number; got inf"),
     ((0.5, 0.0), "needs finite eps > 0"), ((0.5, -1.0), "needs finite eps > 0"),
     ((), "needs a nonempty eps grid")],
    ids=["nan", "inf", "zero", "negative", "empty"],
)
def test_a_direct_eps_estimator_call_takes_the_sweep_eps_rule(cond, eps_grid, match, norm):
    # a nan or infinite cut keeps nothing and would read as convergence to
    # 0, eps <= 0 keeps everything, and an empty grid estimates nothing
    k = d.kernel_by_name(EPS_CASES[cond], norm)
    with pytest.raises(d.ConfigurationError, match="condition %s %s" % (cond, match)):
        eps_estimator(cond)(k, norm, 16, 0.7, eps_grid, 4096, 5)


@pytest.mark.parametrize("cond", sorted(EPS_CASES))
def test_a_later_eps_column_is_a_cut_of_the_same_draw(cond, norm):
    # estimate(..., (e1, e2), seed)[1] is estimate(..., (e2,), seed)[0]
    k = d.kernel_by_name(EPS_CASES[cond], norm)
    fn = eps_estimator(cond)
    m = 16 if cond == "ETA1" else 4096
    pair = fn(k, norm, 16, 0.7, (0.3, 0.6), m, 5)
    later = fn(k, norm, 16, 0.7, (0.6,), m, 5)
    assert len(pair) == 2 and len(later) == 1
    assert pair[1] == later[0]
    assert pair[0].value >= pair[1].value > 0.0


@pytest.mark.parametrize("cid", d.CONDITION_IDS)
def test_every_condition_row_sweeps_checks_m_and_reads_what_expect_accepts(
    cid, skewed, policy, monkeypatch, capsys
):
    # the rules each id must follow, written out here rather than read from the table
    takes_eps = cid not in ("C4", "C4'", "ETA2")
    least = 2 if cid in ("ETA1", "ETA2") else 100
    trend = ("decreasing-toward-0", "converging-to-1")
    toward, other = trend[::-1] if cid == "ETA2" else trend
    assert set(DEFAULT_M) == set(d.CONDITION_IDS) and DEFAULT_M[cid] >= least
    row = d.conditions._CONDITIONS[cid]
    k = d.sign_kernel(skewed)
    with pytest.raises(d.ConfigurationError, match="%s needs m >= %d" % (cid, least)):
        row.row(k, skewed, 16, 0.7, (0.3, 0.6), least - 1, 5)
    rep = d.sweep_condition(
        cid, k, skewed, policy, n_grid=(16, 32), eps_grid=(0.3, 0.6), p_fixed=0.7, m=least
    )
    cols = 2 if takes_eps else 1
    assert rep.eps_grid == ((0.3, 0.6) if takes_eps else ())
    assert rep.estimates.shape == rep.ses.shape == (2, cols) and len(rep.verdicts) == cols
    assert set(rep.verdicts) <= {toward, "increasing", "stagnant"}
    # --expect takes each word the id can read (exit 0 iff every column
    # matches) and refuses the other trend word before any cell (exit 2)
    monkeypatch.setattr(d.harness, "sweep_condition", lambda *a, **kw: rep)
    argv = ["conditions", "--kernel", "sign", "--dist", "table:-1=5/6,5=1/6", "--n", "16,32",
            "--p", "0.7", "--eps", "0.3,0.6", "--m", str(least), "--conditions", cid]
    for word in (toward, "increasing", "stagnant", other):
        code = main(argv + ["--expect", "%s=%s" % (cid, word)])
        err = capsys.readouterr().err
        if word == other:
            assert code == 2 and "%s reads only" % cid in err, err
        else:
            assert code == (0 if set(rep.verdicts) == {word} else 1), err


# ------------------------------------------- cliff-style trend property


SUPS = {
    # (kernel, law) -> sup|g|, sup|h|, sup|htilde|, sup H diag, sup Htilde diag
    ("additive", "rademacher"): (1.0, 2.0, 0.0, 2.0, 0.0),
    ("additive", "uniform"): (1.0, 2.0, 0.0, 4.0 / 3.0, 0.0),
    ("sign", "skewed"): (10.0 / 9.0, 13.0 / 9.0, 25.0 / 9.0, 145.0 / 81.0, 125.0 / 81.0),
}


def cutoff_eps(cond, n, theta, theta2, p, sups):
    sg, sh, sht, shd, shtd = sups
    if cond == "C1":
        return sg * (n - 1) / (theta * n)
    if cond == "C2":
        return sht / (theta * n)
    if cond == "C3":
        return shtd * p / (theta2 * n)
    if cond == "C1''":
        return sg / theta
    if cond == "C2''":
        return sh / (theta * n)
    if cond == "C3''":
        return shd * p / (theta2 * n)
    raise AssertionError(cond)


@pytest.mark.parametrize("pair", sorted(SUPS))
@pytest.mark.parametrize("a", [0.0, 0.3, 0.5])
def test_trend_verdicts_with_tail_cutoff_eps(pair, a, policy, rad, unif, skewed):
    """Every condition of a well-behaved configuration earns the
    decreasing verdict once eps sits just above the structural cutoff of
    the tail grid points (below it for the early ones, where the
    integrand can still fire)."""
    kname, lname = pair
    dist = {"rademacher": rad, "uniform": unif, "skewed": skewed}[lname]
    k = d.kernel_by_name(kname, dist)
    n_grid = (128, 256, 512)
    sups = SUPS[pair]
    for cond in ("C1", "C2", "C3", "C1''", "C2''", "C3''"):
        eps = 0.0
        for n in n_grid[-2:]:
            p = d.dilution_regime(n, a)
            ms = d.moments_closed_form(k, dist, n, p)
            eps = max(eps, cutoff_eps(cond, n, ms.theta, ms.theta2, p, sups))
        eps = max(1.05 * eps, 0.05)
        rep = d.sweep_condition(
            cond, k, dist, policy, n_grid=n_grid, eps_grid=(eps,), a=a, m=1024
        )
        assert rep.verdicts[0] == "decreasing-toward-0", (pair, a, cond, rep.estimates)
    for cond in ("C4", "C4'"):
        rep = d.sweep_condition(cond, k, dist, policy, n_grid=n_grid, a=a, m=2048)
        assert rep.verdicts[0] == "decreasing-toward-0", (pair, a, cond, rep.estimates)


# ------------------------------------------------------------ inequality


def test_c4_implies_c4prime_report(rad):
    k = d.additive_kernel(rad)
    n, p = 50, 0.3
    c4 = d.estimate_C4(k, rad, n, p, m=4096, seed=61)
    c4p = d.estimate_C4prime(k, rad, n, p, m=4096, seed=62)
    rep = d.verify_c4_implies_c4prime(c4, c4p, n, p)
    assert rep.satisfied
    assert rep.lhs == 0.0
    assert rep.rhs > 0.0
    assert rep.slack == pytest.approx(rep.rhs - rep.lhs)
    fake = d.verify_c4_implies_c4prime(
        d.Estimate(value=0.0, se=0.0), d.Estimate(value=1e6, se=0.0), n, p
    )
    assert not fake.satisfied
