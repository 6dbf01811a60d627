"""Pair statistic, projection split, martingale differences."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import diluteu as d
from conftest import dense_of


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
    # binom(n,2) U = sum_{i<j} x_i x_j = (S^2 - sum x^2) / 2 at p = 1;
    # odd and even n, with and without the half diagonal's lone call
    k = d.product_kernel(norm)
    for n in (2, 3, 4, 37, 500, 501):
        x = d.sample_row(n, norm, 8)
        g = d.sample_dilution(n, 1.0, 0)
        u = d.compute_ustat(x, g, k)
        s = x.sum()
        direct = (s * s - (x * x).sum()) / 2.0 / math.comb(n, 2)
        assert u == pytest.approx(direct, rel=1e-12), n


def counting(fn, calls):
    """fn wrapped to record the size of every argument it is called with."""

    def wrapped(*args):
        calls.append(np.asarray(args[0]).size)
        return fn(*args)

    return wrapped


def test_eval_count_equals_edge_count(skewed):
    sign = d.sign_kernel(skewed)
    x = d.sample_row(25, skewed, 1)
    for p in (0.3, 1.0):  # row-form blocks, then circulant diagonals
        evals = []
        k = replace(sign, evaluate=counting(sign.evaluate, evals))
        g = d.sample_dilution(25, p, 2)
        d.compute_ustat(x, g, k)
        assert sum(evals) == g.edge_count(), p


def test_realization_and_martingale_extract_edges_once(skewed, monkeypatch):
    # compute_ustat extracts the edges; degrees() and both hoeffding_parts
    # calls read the kept list. h still runs on every edge in compute_ustat
    # and in both hoeffding_parts calls
    extracted = []
    row_form = d.sampling._row_form

    def counted(k, n):
        extracted.append(n)
        return row_form(k, n)

    monkeypatch.setattr(d.sampling, "_row_form", counted)
    evals = []
    sign = d.sign_kernel(skewed)
    k = replace(sign, evaluate=counting(sign.evaluate, evals))
    real = d.sample_realization(200, skewed, k, 0.3, 6)
    d.martingale_differences(real.x, real.z, k, 1.0)
    assert extracted == [200]
    assert sum(evals) == 3 * real.z.edge_count() > 0


def test_identity_on_empty_graph(skewed):
    k = d.sign_kernel(skewed)
    x = d.sample_row(8, skewed, 3)
    g = d.sample_dilution(8, 0.0, 4)
    assert d.compute_ustat(x, g, k) == 0.0
    psi, phi = d.hoeffding_parts(x, g, k)
    assert np.all(psi == 0.0) and np.all(phi == 0.0)


def unblocked_parts(x, graph, kernel):
    """U, psi and phi~ from one gather and one bincount over all E edges."""
    counts, jj = graph.edges()
    ii = np.repeat(np.arange(graph.n), counts)
    gv = kernel.conditional_mean(x)
    h = kernel.pair_values(x[ii], x[jj])
    u = float(h.sum()) / math.comb(graph.n, 2)
    h -= gv[ii]
    h -= gv[jj]
    return u, gv * graph.degrees(), np.bincount(jj, weights=h, minlength=graph.n)


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [8, 40])
def test_blocked_evaluation_matches_unblocked(skewed, monkeypatch, block, p, n):
    # n=8 keeps E < 64; at n=40, p=1, E = 780 is no multiple of 7 or 64
    monkeypatch.setattr(d.decomposition, "_BLOCK", block)
    sign = d.sign_kernel(skewed)
    x = d.sample_row(n, skewed, 31 + n)
    graph = d.sample_dilution(n, p, 32 + n)
    e = graph.edge_count()
    u_ref, psi_ref, phi_ref = unblocked_parts(x, graph, sign)
    evals = []
    k = replace(sign, evaluate=counting(sign.evaluate, evals))

    u = d.compute_ustat(x, graph, k)
    if e == graph.pair_count:  # complete: whole circulant diagonals per call
        assert sum(evals) == e and max(evals) <= max(block, n)
    else:
        assert sum(evals) == e and len(evals) == -(-e // block)
        assert all(size == block for size in evals[:-1])
    assert u == pytest.approx(u_ref, rel=1e-12, abs=1e-300)

    evals.clear()
    psi, phi = d.hoeffding_parts(x, graph, k)
    assert sum(evals) == e and len(evals) == -(-e // block)
    assert np.array_equal(psi, psi_ref) and np.array_equal(phi, phi_ref)
    gap = abs(math.comb(n, 2) * u - float(psi.sum() + phi.sum()))
    assert gap <= 1e-10 * max(1.0, abs(u))


def test_blocked_evaluation_edge_list_sizes(skewed):
    # E = 0, E < _BLOCK and a ragged last block, at the module's block size
    block = d.decomposition._BLOCK
    sign = d.sign_kernel(skewed)
    for n, p in [(50, 0.0), (50, 0.5), (300, 1.0)]:
        x = d.sample_row(n, skewed, n)
        graph = d.sample_dilution(n, p, n + 1)
        e = graph.edge_count()
        evals = []
        k = replace(sign, evaluate=counting(sign.evaluate, evals))
        u_ref, psi_ref, phi_ref = unblocked_parts(x, graph, sign)
        u = d.compute_ustat(x, graph, k)
        ustat_calls = len(evals)
        psi, phi = d.hoeffding_parts(x, graph, k)
        if e == graph.pair_count:  # U by whole circulant diagonals per call
            ustat_evals, parts_evals = evals[:ustat_calls], evals[ustat_calls:]
            assert sum(ustat_evals) == e and max(ustat_evals) <= max(block, n)
            assert parts_evals == [block] * (e // block) + [e % block] * (e % block > 0)
        else:
            assert evals == 2 * ([block] * (e // block) + [e % block] * (e % block > 0))
        assert u == pytest.approx(u_ref, rel=1e-12, abs=1e-300)
        assert np.array_equal(psi, psi_ref) and np.array_equal(phi, phi_ref)
    assert 0 < e % block and e > block  # the last graph's final block is ragged


def recording_ndim(fn, calls):
    """fn wrapped to record the number of axes of its first argument."""

    def wrapped(*args):
        calls.append(np.ndim(args[0]))
        return fn(*args)

    return wrapped


@pytest.mark.parametrize("n", [40, 41])
def test_complete_graph_ustat_matches_row_form(skewed, rad, tri, tri_kernel, n):
    # a graph whose edge list covers every pair is summed by circulant
    # diagonals (2-D kernel calls); one pair short of complete it takes the
    # row-form blocks (1-D calls)
    full = d.sample_dilution(n, 1.0, 0).packed
    short = full.copy()
    short[0] = 0x7F  # drops the pair (0, 1)
    for k, law in ((tri_kernel, tri), (d.sign_kernel(skewed), skewed),
                   (d.additive_kernel(rad), rad)):
        x = d.sample_row(n, law, n)
        for packed, ndim in ((full, 2), (short, 1)):
            graph = d.DilutionGraph(n=n, packed=packed)
            u_ref = unblocked_parts(x, graph, k)[0]
            calls = []
            u = d.compute_ustat(x, graph, replace(k, evaluate=recording_ndim(k.evaluate, calls)))
            assert u == pytest.approx(u_ref, rel=1e-12, abs=1e-300), (k.name, ndim)
            assert calls[0] == ndim, (k.name, ndim)


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
    # g = phi^T A mu, so each evaluation of g maps the row through phi once
    k = replace(sign, features=counting(sign.features, g_calls))
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
    dense = dense_of(g)
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


def test_sample_realization_refuses_a_row_law_other_than_the_kernels(skewed, rad):
    # the sign kernel's shift and g belong to the skewed law; rows from
    # another law would give a U that is not centered
    k = d.sign_kernel(skewed)
    with pytest.raises(d.ConfigurationError) as exc:
        d.sample_realization(200, rad, k, 0.3, 0)
    assert skewed.describe() in str(exc.value)
    assert rad.describe() in str(exc.value)


def test_sample_realization_accepts_numpy_integer_seeds(skewed):
    k = d.sign_kernel(skewed)
    r = d.sample_realization(14, skewed, k, 0.35, 77)
    r64 = d.sample_realization(14, skewed, k, 0.35, np.int64(77))
    assert np.array_equal(r64.x, r.x)
    assert np.array_equal(r64.z.packed, r.z.packed)
    assert r64.u_value == r.u_value
    assert np.array_equal(r64.psi_part, r.psi_part)
    assert np.array_equal(r64.phi_tilde_part, r.phi_tilde_part)


def traced_peak(fn):
    """Peak bytes numpy and Python allocate during fn(), above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_evaluation_memory_is_bounded_by_the_edge_list(skewed):
    # blocks keep the float temporaries at O(_BLOCK); the extraction's own
    # peak, about 5 C bytes here, is what remains
    n, p = 3000, 0.3
    c = math.comb(n, 2)
    k = d.sign_kernel(skewed)
    x = d.sample_row(n, skewed, 1)
    packed = d.sample_dilution(n, p, 2).packed
    d.compute_ustat(x, d.DilutionGraph(n=n, packed=packed), k)
    # fresh graphs, so hoeffding_parts also pays the first degrees() call
    ustat = traced_peak(
        lambda: d.compute_ustat(x, d.DilutionGraph(n=n, packed=packed), k)
    )
    parts = traced_peak(
        lambda: d.hoeffding_parts(x, d.DilutionGraph(n=n, packed=packed), k)
    )
    assert ustat < 7 * c and parts < 7 * c


def test_complete_graph_evaluation_memory_is_independent_of_c(norm):
    # the complete graph's edge list is the cached row form (counts, jj),
    # 8 C + 8 n bytes filled by the warm-up call; evaluation adds only the
    # doubled row and one block of diagonals
    n = 2000
    c = math.comb(n, 2)
    k = d.product_kernel(norm)
    x = d.sample_row(n, norm, 3)
    graph = d.sample_dilution(n, 1.0, 0)
    d.compute_ustat(x, graph, k)
    assert traced_peak(lambda: d.compute_ustat(x, graph, k)) < c
