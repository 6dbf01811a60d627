"""Pair statistic, projection split, martingale differences."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import diluteu as d


def build(name, dist, n, p, seed):
    k = d.kernel_by_name(name, dist)
    r = d.sample_realization(n, dist, k, p, seed)
    return k, r


def test_ustat_matches_manual_sum(skewed):
    k = d.sign_kernel(skewed)
    x = d.sample_row(10, skewed, 5)
    g = d.sample_dilution(10, 0.6, 6)
    u = d.compute_ustat(x, g, k)
    total = 0.0
    for i in range(10):
        for j in range(i + 1, 10):
            total += g.bit(i, j) * float(k.pair_values(x[i : i + 1], x[j : j + 1])[0])
    assert u == pytest.approx(total / math.comb(10, 2), rel=1e-12)


def test_undiluted_product_reduces_to_square_identity(norm):
    # binom(n,2) U = sum_{i<j} x_i x_j = (S^2 - sum x^2) / 2 at p = 1
    k = d.product_kernel(norm)
    n = 37
    x = d.sample_row(n, norm, 8)
    g = d.sample_dilution(n, 1.0, 0)
    u = d.compute_ustat(x, g, k)
    s = x.sum()
    direct = (s * s - (x * x).sum()) / 2.0 / math.comb(n, 2)
    assert u == pytest.approx(direct, rel=1e-12)


def counting(fn, calls):
    """fn wrapped to record the size of every argument it is called with."""

    def wrapped(*args):
        calls.append(np.asarray(args[0]).size)
        return fn(*args)

    return wrapped


def test_eval_count_equals_edge_count(skewed):
    evals = []
    sign = d.sign_kernel(skewed)
    k = replace(sign, evaluate=counting(sign.evaluate, evals))
    x = d.sample_row(25, skewed, 1)
    g = d.sample_dilution(25, 0.3, 2)
    d.compute_ustat(x, g, k)
    assert sum(evals) == g.edge_count()


def test_identity_on_empty_graph(skewed):
    k = d.sign_kernel(skewed)
    x = d.sample_row(8, skewed, 3)
    g = d.sample_dilution(8, 0.0, 4)
    assert d.compute_ustat(x, g, k) == 0.0
    psi, phi = d.hoeffding_parts(x, g, k)
    assert np.all(psi == 0.0) and np.all(phi == 0.0)


@given(
    st.sampled_from(["product", "additive", "sign"]),
    st.sampled_from(["rademacher", "uniform", "skewed"]),
    st.integers(3, 20),
    st.sampled_from([0.2, 0.5, 1.0]),
    st.integers(0, 10**6),
)
@settings(max_examples=80, deadline=None)
def test_projection_split_reconstructs_statistic(name, law, n, p, seed):
    dist = {
        "rademacher": d.rademacher(),
        "uniform": d.uniform(-1.0, 1.0),
        "skewed": d.table([-1, 5], [5.0 / 6.0, 1.0 / 6.0]),
    }[law]
    k, r = build(name, dist, n, p, seed)
    # identity_gap is |binom(n,2) U - (sum psi + sum phi)| on the raw scale
    tol = 1e-10 * max(1.0, abs(r.u_value))
    assert r.identity_gap() <= tol


def test_hoeffding_parts_evaluates_g_once_on_the_row(skewed):
    g_calls = []
    sign = d.sign_kernel(skewed)
    k = replace(sign, conditional_mean=counting(sign.conditional_mean, g_calls))
    n = 20
    x = d.sample_row(n, skewed, 5)
    graph = d.sample_dilution(n, 0.5, 6)
    psi, phi = d.hoeffding_parts(x, graph, k)
    assert g_calls == [n]
    psi0, phi0 = d.hoeffding_parts(x, graph, sign)
    assert np.array_equal(psi, psi0) and np.array_equal(phi, phi0)


def test_hoeffding_parts_manual_small_case(skewed):
    k = d.sign_kernel(skewed)
    n = 7
    x = d.sample_row(n, skewed, 11)
    g = d.sample_dilution(n, 0.5, 12)
    psi, phi = d.hoeffding_parts(x, g, k)
    dense = g.dense()
    gv = k.conditional_mean(x)
    assert np.allclose(psi, gv * dense.sum(axis=1), atol=1e-12)
    # phi charges each centered pair to its larger index
    expect = np.zeros(n)
    for j in range(n):
        for i in range(j):
            if dense[i, j]:
                hij = float(k.pair_values(x[i : i + 1], x[j : j + 1])[0])
                expect[j] += hij - gv[i] - gv[j]
    assert np.allclose(phi, expect, atol=1e-12)
    total = psi.sum() + phi.sum()
    assert total == pytest.approx(math.comb(n, 2) * d.compute_ustat(x, g, k), rel=1e-12)


def test_martingale_differences_total(skewed):
    k = d.sign_kernel(skewed)
    n, p = 30, 0.4
    ms = d.moments_closed_form(k, skewed, n, p)
    x = d.sample_row(n, skewed, 21)
    g = d.sample_dilution(n, p, 22)
    md = d.martingale_differences(x, g, k, ms.theta)
    u = d.compute_ustat(x, g, k)
    assert md.total() == pytest.approx(
        math.comb(n, 2) * u / (n * ms.theta), rel=1e-12
    )
    assert np.allclose(md.xi, md.xi1 + md.xi2, atol=1e-15)
    assert md.theta == ms.theta


def test_martingale_differences_zero_mean(skewed):
    # unconditional mean of each difference vanishes
    k = d.sign_kernel(skewed)
    n, p, R = 12, 0.5, 4000
    ms = d.moments_closed_form(k, skewed, n, p)
    acc = np.zeros(n)
    acc2 = np.zeros(n)
    cross = 0.0
    for r in range(R):
        seq = np.random.SeedSequence((500, r))
        sx, sz = seq.spawn(2)
        x = d.sample_row(n, skewed, sx)
        g = d.sample_dilution(n, p, sz)
        md = d.martingale_differences(x, g, k, ms.theta)
        acc += md.xi
        acc2 += md.xi * md.xi
        cross += md.xi[3] * md.xi[7]
    mean = acc / R
    se = np.sqrt(np.maximum(acc2 / R - mean * mean, 1e-30) / R)
    assert np.all(np.abs(mean) < 4 * se + 1e-12)
    # distinct differences are uncorrelated
    assert abs(cross / R) < 4 / math.sqrt(R)


def test_martingale_rejects_degenerate_theta(skewed):
    k = d.sign_kernel(skewed)
    x = d.sample_row(5, skewed, 0)
    g = d.sample_dilution(5, 0.5, 1)
    with pytest.raises(d.DegenerateNormalizationError):
        d.martingale_differences(x, g, k, 0.0)


def test_realization_json_round_trip(skewed):
    k = d.sign_kernel(skewed)
    r = d.sample_realization(14, skewed, k, 0.35, 77)
    r2 = d.Realization.from_json(r.to_json())
    assert np.array_equal(r2.x, r.x)
    assert np.array_equal(r2.z.dense(), r.z.dense())
    assert r2.u_value == r.u_value
    assert np.array_equal(r2.psi_part, r.psi_part)
    assert np.array_equal(r2.phi_tilde_part, r.phi_tilde_part)
    assert r2.identity_gap() == r.identity_gap()


def test_sample_realization_accepts_numpy_integer_seeds(skewed):
    k = d.sign_kernel(skewed)
    r = d.sample_realization(14, skewed, k, 0.35, 77)
    r64 = d.sample_realization(14, skewed, k, 0.35, np.int64(77))
    assert r64.to_json() == r.to_json()


def test_sample_realization_reuses_given_graph(skewed):
    k = d.sign_kernel(skewed)
    g = d.sample_dilution(9, 0.5, 123)
    r = d.sample_realization(9, skewed, k, 0.5, 124, graph=g)
    assert r.z is g
    # row draw still deterministic in the seed
    r2 = d.sample_realization(9, skewed, k, 0.5, 124, graph=g)
    assert np.array_equal(r.x, r2.x)
