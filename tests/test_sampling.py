"""Row laws, dilution graphs, seed policy."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import diluteu as d
from conftest import dense_of, rng_of


def law_mean(dist):
    return math.fsum(v * q for v, q in zip(dist.support, dist.probs))


def test_rademacher_spec(rad):
    assert law_mean(rad) == 0.0
    assert rad.variance == 1.0
    sign = d.sign_kernel(rad)
    assert sign.feature_mean[0] == 0.0  # E[sign X]
    assert sign.feature_moment[0, 0] == 1.0  # P(X != 0)
    assert rad.is_discrete
    assert set(rad.support) == {-1.0, 1.0}


def test_rademacher_row_statistics(rad):
    n = 40000
    x = d.sample_row(n, rad, 11)
    assert set(np.unique(x)) == {-1.0, 1.0}
    # mean of n signs has sd 1/sqrt(n); allow 4 sigma
    assert abs(x.mean()) < 4.0 / math.sqrt(n)


def test_sample_row_deterministic(norm):
    a = d.sample_row(64, norm, 123)
    b = d.sample_row(64, norm, 123)
    c = d.sample_row(64, norm, 124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniform_moments_and_samples():
    u = d.uniform(-2.0, 2.0)
    assert u.variance == pytest.approx(16.0 / 12.0)
    x = d.sample_row(10000, u, 7)
    assert x.min() >= -2.0 and x.max() <= 2.0
    assert abs(x.mean()) < 4 * math.sqrt(u.variance / 10000)


def test_uniform_autocenters_with_warning():
    with pytest.warns(UserWarning, match="auto-centering"):
        u = d.uniform(0.0, 2.0)
    assert u.params == (-1.0, 1.0)


def test_uniform_rejects_empty_interval():
    with pytest.raises(d.ConfigurationError):
        d.uniform(1.0, 1.0)


def test_table_law_exact_moments(skewed):
    # P(-1) = 5/6, P(5) = 1/6: mean 0, variance 5, sign mean -2/3
    assert abs(law_mean(skewed)) < 1e-15
    assert skewed.variance == pytest.approx(5.0, abs=1e-12)
    sign = d.sign_kernel(skewed)
    assert sign.feature_mean[0] == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert sign.feature_moment[0, 0] == 1.0


def test_table_autocenter_warning_and_shift():
    with pytest.warns(UserWarning, match="auto-centering"):
        t = d.table([1, 3], [0.5, 0.5])
    assert t.support == (-1.0, 1.0)
    assert law_mean(t) == 0.0


def test_table_point_mass_centers_to_zero():
    with pytest.warns(UserWarning, match="auto-centering"):
        t = d.table([1.0], [1.0])
    assert t.support == (0.0,)
    assert law_mean(t) == 0.0
    x = d.sample_row(32, t, 0)
    assert np.all(x == 0.0)


def test_table_merges_duplicates():
    t = d.table([1.0, -1.0, 1.0], [0.25, 0.5, 0.25])
    assert t.support == (-1.0, 1.0)
    assert t.probs == (0.5, 0.5)


def test_table_validation_errors():
    with pytest.raises(d.ConfigurationError):
        d.table([1.0], [0.5])  # does not sum to 1
    with pytest.raises(d.ConfigurationError):
        d.table([1.0, -1.0], [1.5, -0.5])
    with pytest.raises(d.ConfigurationError):
        d.table([], [])


def test_table_from_file(tmp_path):
    f = tmp_path / "law.txt"
    f.write_text("# two-point law\n-1 0.833333333333333333\n5 0.166666666666666667\n")
    t = d.table_from_file(f)
    assert t.support == pytest.approx((-1.0, 5.0))
    with pytest.raises(d.ConfigurationError):
        f2 = tmp_path / "bad.txt"
        f2.write_text("1 2 3\n")
        d.table_from_file(f2)


@pytest.mark.parametrize(
    "kind, text",
    [
        ("distribution table", "-1 0.5\nabc 0.5\n"),
        ("kernel table", "# x y h\n-1 -1 x\n"),
        ("config", "\nkernel product\n"),
    ],
)
def test_text_file_readers_name_the_kind_and_bad_line(kind, text, tmp_path):
    from diluteu.cli import load_config_file

    read = {
        "distribution table": d.table_from_file,
        "kernel table": lambda f: d.load_kernel_table(f, dist=d.rademacher()),
        "config": load_config_file,
    }[kind]
    f = tmp_path / "in.txt"
    f.write_text(text)
    bad = text.strip().splitlines()[-1]
    with pytest.raises(d.ConfigurationError, match="^%s line %r: " % (kind, bad)):
        read(f)


def test_sample_row_rejects_bad_n(rad):
    with pytest.raises(d.ConfigurationError):
        d.sample_row(0, rad, 1)


# ---------------------------------------------------------------- dilution


def test_dilution_determinism_and_symmetry():
    g = d.sample_dilution(12, 0.4, 99)
    h = d.sample_dilution(12, 0.4, 99)
    assert np.array_equal(dense_of(g), dense_of(h))
    m = dense_of(g)
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 0)
    for i in range(g.n):
        for j in range(g.n):
            if i != j:
                assert g.bit(i, j) == g.bit(j, i) == m[i, j]


def test_dilution_no_diagonal_access():
    g = d.sample_dilution(5, 0.5, 1)
    # out-of-range indices would alias another pair's bit
    for i, j in [(2, 2), (0, 5), (0, 7), (-1, 2), (5, 0), (2, -3)]:
        with pytest.raises(d.ConfigurationError):
            g.bit(i, j)


def test_dilution_degenerate_probabilities():
    g0 = d.sample_dilution(10, 0.0, 3)
    g1 = d.sample_dilution(10, 1.0, 3)
    assert g0.edge_count() == 0
    assert g1.edge_count() == g1.pair_count == 45
    assert np.array_equal(g1.degrees(), np.full(10, 9))
    # nothing is drawn, so every valid seed, None included, gives the shared graph
    for seed in (None, 0, np.random.SeedSequence(3), rng_of(3)):
        assert d.sample_dilution(10, 1.0, seed) is g1


def test_dilution_edge_count_concentrates():
    # pooled over graphs the edge count is Binomial(R*pairs, p)
    R, n, p = 200, 20, 0.3
    pairs = math.comb(n, 2)
    total = sum(
        d.sample_dilution(n, p, np.random.SeedSequence((5, r))).edge_count()
        for r in range(R)
    )
    mean = R * pairs * p
    sd = math.sqrt(R * pairs * p * (1 - p))
    assert abs(total - mean) < 5 * sd


def test_dilution_lower_and_degrees_agree():
    g = d.sample_dilution(9, 0.5, 21)
    # 0/1 columns sum exactly, so L applied to the identity is L itself
    low = g.lower(np.eye(9))
    assert np.all(np.triu(low) == 0)
    assert np.array_equal(low + low.T, dense_of(g))
    assert np.array_equal(g.degrees(), dense_of(g).sum(axis=1).astype(int))
    counts, jj = g.edges()
    ii = np.repeat(np.arange(g.n), counts)
    assert len(ii) == g.edge_count()
    assert np.all(ii < jj)


def test_dilution_pair_independence():
    # sample covariance between two fixed pair indicators should vanish
    R, p = 4000, 0.35
    a = np.empty(R)
    b = np.empty(R)
    for r in range(R):
        g = d.sample_dilution(6, p, np.random.SeedSequence((77, r)))
        a[r] = g.bit(0, 1)
        b[r] = g.bit(3, 4)
    se = 1.0 / math.sqrt(R)
    assert abs(a.mean() - p) < 4 * se * math.sqrt(p * (1 - p))
    assert abs(np.cov(a, b)[0, 1]) < 4 * se * p * (1 - p) + 4e-3


@given(st.integers(2, 14), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_dilution_bitset_roundtrip(n, p, seed):
    g = d.sample_dilution(n, p, seed)
    m = dense_of(g)
    # dense view, bit probes, edge list, and degree vector all consistent
    counts, jj = g.edges()
    ii = np.repeat(np.arange(n), counts)
    rebuilt = np.zeros_like(m)
    rebuilt[ii, jj] = 1
    rebuilt[jj, ii] = 1
    assert np.array_equal(rebuilt, m)
    assert g.edge_count() == int(m.sum()) // 2
    assert np.array_equal(g.degrees(), m.sum(axis=1).astype(int))


def _reference_dilution(n, p, rng):
    # the byte rule written out over all words at once, with no chunks:
    # pair k reads bits 8(k%8)..8(k%8)+7 of word k//8; ties draw last
    c = n * (n - 1) // 2
    words = rng.bit_generator.random_raw(-(-c // 8))
    k = np.arange(c)
    byte = (words[k // 8] >> (8 * (k % 8)).astype(np.uint64)) & np.uint64(0xFF)
    top = math.floor(256 * p)
    frac = 256 * p - top
    keep = byte < top
    tie = np.flatnonzero(byte == top)
    if frac > 0:
        keep[tie] = rng.random(tie.size) < frac
    return np.packbits(keep)


# 0.002: top 0, every kept pair is a tie; 0.25: frac 0, no tie draws;
# 0.999: top 255
SAMPLER_PS = (0.002, 0.25, 0.3, 0.999)


@pytest.mark.parametrize(
    "n, p", [(300, q) for q in SAMPLER_PS] + [(3000, 0.3)]  # 3000 crosses the 2**22 chunk
)
def test_dilution_matches_byte_rule_reference(n, p):
    got_rng, ref_rng = rng_of(70 + n), rng_of(70 + n)
    g = d.sample_dilution(n, p, got_rng)
    assert np.array_equal(g.packed, _reference_dilution(n, p, ref_rng))
    # both left the generator at the same point: same words, same ties
    assert got_rng.bit_generator.random_raw() == ref_rng.bit_generator.random_raw()


@pytest.mark.parametrize("p", SAMPLER_PS)
def test_dilution_pooled_edge_count_is_binomial(p):
    R, n = 40, 300
    trials = R * math.comb(n, 2)
    total = sum(
        d.sample_dilution(n, p, np.random.SeedSequence((31, r))).edge_count()
        for r in range(R)
    )
    assert abs(total - trials * p) < 5 * math.sqrt(trials * p * (1 - p))


# sample_dilution(12, 0.3, 2024): 66 pairs, 22 kept
GOLDEN_N12_P03_SEED2024 = "1611064000b12bdb00"


def test_dilution_golden_packed_bytes():
    g = d.sample_dilution(12, 0.3, 2024)
    assert g.packed.tobytes().hex() == GOLDEN_N12_P03_SEED2024


def test_dilution_sampling_memory_bound():
    # one byte per pair in flight: the bool vector plus a chunk of words
    # and its tie mask, not a float64 per pair
    n = 3000
    c = n * (n - 1) // 2
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g = d.sample_dilution(n, 0.3, 8)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.pair_count == c
    assert peak < 4 * c


def _reference_edges(g):
    # the triu-mask gather over all C pairs that edges() once used
    iu, ju = np.triu_indices(g.n, k=1)
    mask = np.unpackbits(g.packed, count=g.pair_count).astype(bool)
    return iu[mask], ju[mask]


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 2900])  # 2900 crosses the 2**22 chunk
def test_edges_match_triu_mask_reference(n, p):
    g = d.sample_dilution(n, p, 40 + n)
    ri, rj = _reference_edges(g)
    counts, jj = g.edges()
    ii = np.repeat(np.arange(n), counts)
    assert counts.dtype == jj.dtype == np.intp
    assert np.array_equal(ii, ri) and np.array_equal(jj, rj)
    assert g.edge_count() == ri.size
    deg = np.bincount(ri, minlength=n) + np.bincount(rj, minlength=n)
    # computed once, kept on the graph and shared read-only
    kept = g.degrees()
    assert kept.dtype == np.int64 and kept.shape == (n,)
    assert np.array_equal(kept, deg)
    assert not kept.flags.writeable and g.degrees() is kept
    dense = np.zeros((n, n), dtype=bool)
    dense[ri, rj] = dense[rj, ri] = True
    assert np.array_equal(dense_of(g), dense)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 64])
def test_lower_applies_the_strict_lower_matrix(n, p):
    # L[i, j] = Z_ij for j < i, from the bits; p = 1 takes the prefix sum
    g = d.sample_dilution(n, p, 40 + n)
    low = np.tril(dense_of(g)).astype(np.float64)
    cols = rng_of(n).standard_normal((n, 3))
    for c in (cols[:, 0], cols):
        got = g.lower(c)
        assert got.shape == c.shape and got.dtype == np.float64
        np.testing.assert_allclose(got, low @ c, rtol=1e-12, atol=1e-12)
    assert np.array_equal(g.lower(np.eye(n)), low)


def test_degenerate_dilution_packed_bytes():
    for n in range(1, 21):
        c = n * (n - 1) // 2
        for p, fill in ((0.0, np.zeros), (1.0, np.ones)):
            packed = d.sample_dilution(n, p, 3).packed
            assert packed.dtype == np.uint8
            assert packed.tobytes() == np.packbits(fill(c, dtype=bool)).tobytes(), (n, p)


def test_edge_count_matches_table_popcount():
    table = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)
    rng = rng_of(12)
    for n in (2, 5, 9, 40, 301):
        c = n * (n - 1) // 2
        packed = rng.integers(0, 256, size=-(-c // 8), dtype=np.uint8)
        if c % 8:
            packed[-1] &= (0xFF << (8 - c % 8)) & 0xFF
        g = d.DilutionGraph(n=n, packed=packed)
        assert g.edge_count() == int(table[packed].sum())


def test_complete_graph_edges_are_read_only():
    g = d.sample_dilution(7, 1.0, 0)
    counts, jj = g.edges()
    assert not counts.flags.writeable and not jj.flags.writeable
    with pytest.raises(ValueError):
        jj[0] = 3


def test_complete_graph_edges_are_extracted_into_the_one_slot():
    # a complete graph is read like any other: the pair-by-pair list, kept
    # until a graph is drawn; returning the p = 1 constant is not a draw
    n = 23
    g = d.sample_dilution(n, 1.0, 0)
    counts, jj = g.edges()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert np.array_equal(np.repeat(np.arange(n), counts), [i for i, _ in pairs])
    assert np.array_equal(jj, [j for _, j in pairs])
    again = g.edges()
    assert again[0] is counts and again[1] is jj
    assert d.sample_dilution(n, 1.0, 1) is g
    assert g.edges()[1] is jj
    d.sample_dilution(n, 0.5, 1)
    assert g.edges()[1] is not jj


def test_complete_graph_edges_keep_one_list():
    # complete graphs of two sizes: the second extraction frees the first
    small, big = (d.sample_dilution(n, 1.0, 0) for n in (1500, 1600))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        small.edges()
        list_bytes = sum(a.nbytes for a in big.edges())
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert list_bytes > 10**7
    assert held < list_bytes + 2**16


@pytest.mark.parametrize("n", [1, 2, 37])
def test_lower_on_a_hand_built_complete_graph_takes_the_prefix_sum(n, monkeypatch):
    # completeness is read from the edge count, whoever built the bytes
    g = d.DilutionGraph(n=n, packed=np.packbits(np.ones(n * (n - 1) // 2, dtype=bool)))

    def no_edges(self):
        raise AssertionError("a complete graph's lower() read its edge list")

    monkeypatch.setattr(d.DilutionGraph, "edges", no_edges)
    cols = rng_of(n).standard_normal((n, 3))
    low = np.tril(np.ones((n, n)), -1)
    np.testing.assert_allclose(g.lower(cols), low @ cols, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("shape", [(9,), (20,), (9, 3), (20, 3), ()])
def test_lower_refuses_columns_without_n_rows(p, shape):
    # p = 1 takes the prefix sum, p = 0.5 the edge list; n = 10 on both
    g = d.sample_dilution(10, p, 1)
    with pytest.raises(d.ConfigurationError, match="needs 10 rows"):
        g.lower(np.ones(shape))


@pytest.mark.parametrize("n, nbytes", [(0, 0), (-3, 1)])
def test_graph_rejects_fewer_than_one_vertex(n, nbytes):
    with pytest.raises(d.ConfigurationError, match="n >= 1"):
        d.DilutionGraph(n=n, packed=np.zeros(nbytes, dtype=np.uint8))


def test_graph_stores_an_integral_float_n_as_its_int():
    g = d.DilutionGraph(n=4.0, packed=np.zeros(1, dtype=np.uint8))
    assert type(g.n) is int and g.n == 4 and g.edge_count() == 0


@pytest.mark.parametrize("n", [1, 2, 37])  # 37: 666 pairs, a padded last byte
def test_constant_graphs_are_shared_and_read_only(n):
    # p = 0 and p = 1 draw nothing: one graph per (n, p), whatever the seed
    full = d.sample_dilution(n, 1.0, 1)
    assert d.sample_dilution(n, 1.0, 2) is full
    assert d.sample_dilution(n, 1, None) is full
    assert full.edge_count() == full.pair_count
    assert np.array_equal(full.degrees(), np.full(n, n - 1))
    empty = d.sample_dilution(n, 0.0, 1)
    assert d.sample_dilution(n, 0.0, 2) is empty and empty is not full
    assert empty.edge_count() == 0 and not empty.degrees().any()
    assert empty.edges()[1].size == 0
    for g in (full, empty):
        assert not g.packed.flags.writeable
        if g.packed.size:
            with pytest.raises(ValueError):
                g.packed[0] = 0x0F


def test_constant_graph_cache_keeps_the_last_two():
    a, b, c = (d.sample_dilution(n, 1.0, 0) for n in (10, 11, 12))
    assert d.sample_dilution(12, 1.0, 5) is c
    assert d.sample_dilution(11, 1.0, 5) is b
    # the third size evicted the first; it is built again, equal
    again = d.sample_dilution(10, 1.0, 0)
    assert again is not a and again.packed.tobytes() == a.packed.tobytes()


def test_repeated_constant_graphs_allocate_no_packed_bytes():
    # a replicate loop at p = 1 (or 0) reuses one graph and its counts
    n = 2000
    nbytes = -(-(n * (n - 1) // 2) // 8)
    for p in (1.0, 0.0):
        d.sample_dilution(n, p, 0).edge_count()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for s in range(20):
                g = d.sample_dilution(n, p, s)
                g.edge_count()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < nbytes // 100, (p, peak)


def test_drawn_graphs_have_read_only_bytes_and_kept_counts(monkeypatch):
    # the bytes cannot change, so the first popcount is kept on the graph
    g = d.sample_dilution(40, 0.3, 9)
    assert not g.packed.flags.writeable
    with pytest.raises(ValueError):
        g.packed[0] = 0
    count = g.edge_count()
    assert count == int(np.unpackbits(g.packed).sum())

    def no_popcount(*args, **kw):
        raise AssertionError("edge count computed twice")

    monkeypatch.setattr(np, "bitwise_count", no_popcount)
    assert g.edge_count() == count


def test_kept_edge_list_belongs_to_its_graph():
    # same (n, p), different bits: alternate calls never cross arrays
    n, p = 60, 0.4
    graphs = [d.sample_dilution(n, p, seed) for seed in (1, 2)]
    assert graphs[0].packed.tobytes() != graphs[1].packed.tobytes()
    for g in graphs + graphs + graphs[::-1]:
        ri, rj = _reference_edges(g)
        counts, jj = g.edges()
        assert np.array_equal(np.repeat(np.arange(n), counts), ri)
        assert np.array_equal(jj, rj)
        assert not counts.flags.writeable and not jj.flags.writeable
        with pytest.raises(ValueError):
            jj[0] = 0
        # a repeated call on the same graph returns the kept arrays
        again = g.edges()
        assert again[0] is counts and again[1] is jj


def test_kept_edge_list_is_released_by_the_next_graph():
    # three graphs of one size: a's list is kept while b is extracted,
    # nothing is kept while c is
    n, p = 1000, 0.3
    a, b, c = (
        d.DilutionGraph(n=n, packed=d.sample_dilution(n, p, s).packed)
        for s in (5, 6, 7)
    )

    def peak_of(fn):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        jj_bytes = a.edges()[1].nbytes
        held_b = peak_of(b.edges)
        before = tracemalloc.get_traced_memory()[0]
        d.sample_dilution(2, 0.5, 1)
        freed = before - tracemalloc.get_traced_memory()[0]
        fresh_c = peak_of(c.edges)
    finally:
        tracemalloc.stop()
    assert jj_bytes > 10**6
    # sample_dilution drops b's list; b's extraction dropped a's first
    assert freed > jj_bytes - 4096
    assert held_b < fresh_c - jj_bytes // 2


def test_graph_rejects_truncated_or_padded_bits():
    # n=6: 15 bits in 2 bytes, the last bit of the second byte is padding
    ok = np.frombuffer(bytes.fromhex("fffe"), dtype=np.uint8)
    assert d.DilutionGraph(n=6, packed=ok).edge_count() == 15
    for packed in ("ff", "ffff", "fffe00"):
        bits = np.frombuffer(bytes.fromhex(packed), dtype=np.uint8)
        with pytest.raises(d.ConfigurationError):
            d.DilutionGraph(n=6, packed=bits)


def test_graph_rejects_packed_bits_of_another_dtype():
    # length and padding checks: test_graph_rejects_truncated_or_padded_bits
    ok = np.packbits(np.ones(15, dtype=bool))  # n=6: 15 bits in 2 bytes
    with pytest.raises(d.ConfigurationError):
        d.DilutionGraph(n=6, packed=ok.astype(np.int64))


def test_edges_keep_no_pair_sized_memory():
    # an n^2/2 index cache (16*C bytes) must not come back
    n = 3000
    c = n * (n - 1) // 2
    g = d.sample_dilution(n, 0.01, 8)
    assert not hasattr(d.sampling, "_pair_indices")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        counts, jj = g.edges()
        peak = tracemalloc.get_traced_memory()[1] - base
        del counts, jj
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * c
    assert left < c // 8


def test_dilution_regime_values():
    assert d.dilution_regime(100, 0.0) == 1.0
    assert d.dilution_regime(100, 0.5) == pytest.approx(0.1)
    assert d.dilution_regime(50, 0.3) == pytest.approx(50 ** -0.3)
    with pytest.raises(d.ConfigurationError):
        d.dilution_regime(100, 1.0)
    with pytest.raises(d.ConfigurationError):
        d.dilution_regime(100, -0.1)
    for n in (1, 0, -5):  # (-5) ** -0.3 would be complex
        with pytest.raises(d.ConfigurationError, match="needs n >= 2"):
            d.dilution_regime(n, 0.3)


def test_dilution_regime_warns_when_np_small():
    with pytest.warns(UserWarning):
        d.dilution_regime(4, 0.9)  # np ~ 1.15, far below 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d.dilution_regime(1000, 0.3)  # np ~ 126, quiet


# ---------------------------------------------------------------- seeds


def test_seed_policy_streams_are_stable_and_distinct():
    pol = d.SeedPolicy(master_seed=6)
    s1 = pol.child("replicate/n50", 3)
    s2 = pol.child("replicate/n50", 3)
    s3 = pol.child("replicate/n50", 4)
    s4 = pol.child("replicate/n100", 3)
    r1 = np.random.Generator(np.random.PCG64(s1)).random(8)
    assert np.array_equal(r1, np.random.Generator(np.random.PCG64(s2)).random(8))
    assert not np.array_equal(r1, np.random.Generator(np.random.PCG64(s3)).random(8))
    assert not np.array_equal(r1, np.random.Generator(np.random.PCG64(s4)).random(8))


def test_seed_policy_differs_across_masters():
    a = d.SeedPolicy(master_seed=1).child("x", 0)
    b = d.SeedPolicy(master_seed=2).child("x", 0)
    ra = np.random.Generator(np.random.PCG64(a)).random(4)
    rb = np.random.Generator(np.random.PCG64(b)).random(4)
    assert not np.array_equal(ra, rb)


def test_negative_master_seed_is_rejected_when_built(rad):
    # numpy's SeedSequence takes no negative entropy; the error comes at
    # construction, not at the first child()
    with pytest.raises(d.ConfigurationError, match="master seed must be >= 0; got -1"):
        d.SeedPolicy(master_seed=-1)
    with pytest.raises(d.ConfigurationError, match="master seed must be >= 0"):
        d.ExperimentConfig(dist=rad, n_grid=(20,), p=0.5, master_seed=-1)
    assert d.SeedPolicy(master_seed=0).child("x", 0).entropy == 0


@pytest.mark.parametrize("seed", [1.5, True, float("inf"), "6"])
def test_seed_policy_refuses_a_non_integral_master_seed(seed):
    with pytest.raises(d.ConfigurationError, match="master seed must be an integer; got"):
        d.SeedPolicy(master_seed=seed)


def test_seed_policy_child_reads_each_index_as_a_count():
    pol = d.SeedPolicy(master_seed=6)
    child = pol.child("x", np.int64(2), 0.0)
    assert child.spawn_key == pol.child("x", 2, 0).spawn_key
    assert all(type(i) is int for i in child.spawn_key)


def test_seed_policy_stores_an_integral_float_seed_as_its_int():
    pol = d.SeedPolicy(master_seed=6.0)
    assert type(pol.master_seed) is int
    assert pol.child("x", 0).entropy == d.SeedPolicy(master_seed=6).child("x", 0).entropy


@pytest.mark.parametrize(
    "draw",
    [
        lambda s, k, law: d.sample_realization(50, law, k, 0.3, s).u_value,
        lambda s, k, law: d.estimate_eta2(k, law, 50, 0.3, 4, s),
        lambda s, k, law: [e.value for e in d.estimate_eta1_mean(k, law, 50, 0.3, [0.01], 4, s)],
        lambda s, k, law: [e.value for e in d.estimate_C2(k, law, 50, 0.3, [0.01], 200, s)],
        lambda s, k, law: d.moments_mc(k, law, 50, 0.3, 200, s).beta2,
    ],
    ids=["sample_realization", "estimate_eta2", "estimate_eta1_mean", "estimate_C2", "moments_mc"],
)
def test_a_seedsequence_argument_is_copied_not_advanced(draw, skewed):
    # spawn() advances the SeedSequence it is called on; the package spawns
    # from a copy, so one seed object gives the same draw on every call
    k = d.sign_kernel(skewed)
    seq = d.SeedPolicy(master_seed=6).child("twice", 0)
    assert np.array_equal(draw(seq, k, skewed), draw(seq, k, skewed))
    assert seq.n_children_spawned == 0


def test_as_generator_accepts_common_seed_types():
    g1 = d.as_generator(5)
    g2 = d.as_generator(np.random.SeedSequence(5))
    assert np.array_equal(g1.random(4), g2.random(4))
    g3 = d.as_generator(g1)
    assert g3 is g1


def test_rng_of_helper_matches_seedsequence():
    assert np.array_equal(rng_of(9).random(3), d.as_generator(9).random(3))
