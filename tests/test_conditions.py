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
    cells = []
    monkeypatch.setattr(d.conditions, "estimate_C1", lambda *a: cells.append(a))
    k = d.sign_kernel(rad)
    with pytest.raises(d.ConfigurationError, match="C1 needs finite eps > 0"):
        d.sweep_condition("C1", k, rad, policy, n_grid=(20, 40), eps_grid=(0.5, eps), a=0.3)
    assert cells == []
    with pytest.raises(d.ConfigurationError, match="C1 needs finite eps > 0"):
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


@pytest.mark.parametrize("cond", sorted(EPS_CASES))
def test_a_later_eps_column_is_a_cut_of_the_same_draw(cond, norm):
    # estimate(..., (e1, e2), seed)[1] is estimate(..., (e2,), seed)[0]
    k = d.kernel_by_name(EPS_CASES[cond], norm)
    if cond.endswith("''"):
        fn = functools.partial(d.estimate_Cdoubleprime, cond)
    else:
        fn = {"C1": d.estimate_C1, "C2": d.estimate_C2, "C3": d.estimate_C3,
              "ETA1": d.estimate_eta1_mean}[cond]
    m = 16 if cond == "ETA1" else 4096
    pair = fn(k, norm, 16, 0.7, (0.3, 0.6), m, 5)
    later = fn(k, norm, 16, 0.7, (0.6,), m, 5)
    assert len(pair) == 2 and len(later) == 1
    assert pair[1] == later[0]
    assert pair[0].value >= pair[1].value > 0.0


def test_default_m_covers_all_conditions():
    assert set(DEFAULT_M) == set(d.CONDITION_IDS)


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
