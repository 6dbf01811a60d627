"""Built-in kernels, registration checks, table kernels, centering."""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import diluteu as d
from conftest import TRI_TABLE


def enum_pairs(dist):
    vals = np.asarray(dist.support)
    qs = np.asarray(dist.probs)
    return vals, qs


def test_builtin_names(rad):
    ks = [d.kernel_by_name(k, rad) for k in ("product", "additive", "sign")]
    assert [k.name for k in ks] == ["product", "additive", "sign"]
    assert d.kernel_by_name("zero", rad).name == "zero"
    with pytest.raises(
        d.UnsupportedKernelError,
        match=r"^unknown kernel 'cubic' \(built-ins: additive, product, sign, zero\)$",
    ):
        d.kernel_by_name("cubic", rad)


def test_product_kernel_structure(norm):
    k = d.product_kernel(norm)
    assert k.degenerate_flag  # E[xY] = 0 for a mean-zero law
    assert k.second_moment == pytest.approx(1.0)
    assert k.g_second_moment == pytest.approx(0.0, abs=1e-18)
    x = np.array([0.5, -2.0])
    y = np.array([3.0, 1.5])
    assert np.allclose(k.pair_values(x, y), x * y)


def test_product_requires_centered_law():
    # built directly: table() would center it
    shifted = d.DistributionSpec(kind="table", support=(1.0,), probs=(1.0,), variance=0.0)
    with pytest.raises(d.ConfigurationError):
        d.product_kernel(shifted)
    with pytest.raises(d.ConfigurationError):
        d.additive_kernel(shifted)


def test_additive_kernel_structure(rad):
    k = d.additive_kernel(rad)
    assert not k.degenerate_flag
    assert k.second_moment == pytest.approx(2.0)  # E[(X+Y)^2] = 2 Var
    assert k.g_second_moment == pytest.approx(1.0)
    gv = k.conditional_mean(np.array([-1.0, 1.0]))
    assert np.allclose(gv, [-1.0, 1.0])


def test_sign_kernel_closed_forms(skewed):
    # sb = -2/3, q = 1: h = sx sy - sb^2, g = sb (sx - sb)
    k = d.sign_kernel(skewed)
    sb = -2.0 / 3.0
    assert not k.degenerate_flag
    assert k.second_moment == pytest.approx(1.0 - sb**4)  # 65/81
    assert k.g_second_moment == pytest.approx(sb * sb * (1.0 - sb * sb))  # 20/81
    x = np.array([-1.0, 5.0, -1.0])
    y = np.array([5.0, 5.0, -1.0])
    assert np.allclose(k.pair_values(x, y), np.sign(x) * np.sign(y) - sb * sb)
    assert np.allclose(k.conditional_mean(x), sb * (np.sign(x) - sb))
    # pair conditionals against direct enumeration over the law
    vals, qs = enum_pairs(skewed)
    for a in vals:
        for b in vals:
            hya = k.pair_values(vals, np.full(vals.size, a))
            hyb = k.pair_values(vals, np.full(vals.size, b))
            assert float(qs @ (hya * hyb)) == pytest.approx(
                float(k.pair_conditional(np.array([a]), np.array([b]))[0]), abs=1e-12
            )


def test_sign_kernel_degenerate_on_symmetric_laws(rad, norm):
    assert d.sign_kernel(rad).degenerate_flag
    assert d.sign_kernel(norm).degenerate_flag


def test_sign_kernel_derives_its_feature_moments(tri, norm, unif):
    # sb = E[sign X] and q = P(X != 0) summed over the law: tri has an atom at 0
    k = d.sign_kernel(tri)
    assert (k.feature_mean[0], k.feature_moment[0, 0]) == (-0.25, 0.75)
    assert k.feature_moment.tolist() == [[0.75, -0.25], [-0.25, 1.0]]
    # continuous laws are symmetric with no atoms
    for law in (norm, unif):
        k = d.sign_kernel(law)
        assert k.feature_mean.tolist() == [0.0, 1.0]
        assert k.feature_moment.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_sign_kernel_on_a_near_symmetric_law_registers_as_degenerate():
    # E[sign X] = -1e-10 after centering, so E[g^2] = 1e-20: degenerate by
    # E[g^2] <= 1e-18, though |E[sign X]| is above 1e-15
    with pytest.warns(UserWarning, match="auto-centering"):
        law = d.table([-1, 1], [0.5 + 5e-11, 0.5 - 5e-11])
    k = d.kernel_by_name("sign", law)
    assert k.g_second_moment == pytest.approx(1e-20, rel=1e-3)
    assert k.degenerate_flag


def test_builtin_centering_by_enumeration(skewed, rad):
    # E[h(X, Y)] must be 0 for every registration
    for dist in (skewed, rad):
        vals, qs = enum_pairs(dist)
        for k in [d.kernel_by_name(name, dist) for name in ("product", "additive", "sign")]:
            hm = k.pair_values(
                np.repeat(vals, vals.size), np.tile(vals, vals.size)
            ).reshape(vals.size, vals.size)
            assert abs(float(qs @ hm @ qs)) < 1e-12


def test_zero_kernel(rad, norm, skewed):
    # registered and checked like the other built-ins, on discrete and
    # continuous laws alike
    for law in (rad, norm, skewed):
        k = d.kernel_by_name("zero", law)
        assert k.degenerate_flag
        assert k.second_moment == 0.0
    assert np.all(k.pair_values(np.array([1.0, -1.0]), np.array([1.0, 1.0])) == 0.0)


def test_cross_conditional_matches_enumeration(skewed, tri, tri_kernel):
    # g, H, H~, K, E[h^2] and E[g^2] derived from (phi, A, mu, Sigma)
    # against direct enumeration of h over the support, for every built-in
    # kernel on two discrete laws and for a rank-3 table kernel
    cases = [
        (d.kernel_by_name(name, law), law)
        for law in (skewed, tri)
        for name in ("product", "additive", "sign")
    ]
    cases.append((tri_kernel, tri))
    for k, law in cases:
        vals, qs = enum_pairs(law)
        hm = k.pair_values(vals[:, None], vals[None, :])
        g = hm @ qs
        ht = hm - g[:, None] - g[None, :]
        derived_vs_direct = [
            (k.conditional_mean(vals), g),
            (k.pair_conditional(vals[:, None], vals[None, :]), hm @ (qs[:, None] * hm)),
            (k.centered_pair_conditional(vals[:, None], vals[None, :]), ht @ (qs[:, None] * ht)),
            # K(x) = E[g(Y) h(Y, x)]
            (k.cross_conditional(vals), (qs * g) @ hm),
            (k.second_moment, qs @ (hm * hm) @ qs),
            (k.g_second_moment, qs @ (g * g)),
        ]
        for derived, direct in derived_vs_direct:
            np.testing.assert_allclose(derived, direct, rtol=1e-12, atol=1e-12, err_msg=k.name)


def test_cross_conditional_needs_structure(rad):
    rows = [(-1, -1, 1), (-1, 1, -1), (1, 1, 1)]
    with pytest.raises(TypeError, match="dist"):
        d.kernel_from_table("flip", rows)
    # bound to its law the structure is there: x*y has g = 0, so K = 0
    bound = d.kernel_from_table("flip", rows, dist=rad)
    np.testing.assert_allclose(bound.cross_conditional(np.array([-1.0, 1.0])), 0.0, atol=1e-12)


# ------------------------------------------------------------- table kernels


def test_table_kernel_round_trip(rad):
    # product kernel on {-1, +1} written out as triples
    rows = [(-1, -1, 1.0), (-1, 1, -1.0), (1, 1, 1.0)]
    k = d.kernel_from_table("tbl", rows, dist=rad)
    x = np.array([-1.0, 1.0, 1.0])
    y = np.array([1.0, 1.0, -1.0])
    assert np.allclose(k.pair_values(x, y), x * y)
    assert k.second_moment == pytest.approx(1.0)
    assert k.degenerate_flag  # same structure as the product kernel
    ref = d.product_kernel(rad)
    vals = np.array([-1.0, 1.0])
    assert np.allclose(
        k.pair_conditional(vals[:, None], vals[None, :]),
        ref.pair_conditional(vals[:, None], vals[None, :]),
    )


def test_table_kernel_symmetry_conflict(rad):
    rows = [(-1, 1, 2.0), (1, -1, 3.0)]
    with pytest.raises(d.ConfigurationError, match="symmetry"):
        d.kernel_from_table("bad", rows, dist=rad)


def test_table_kernel_coverage_and_centering(rad):
    with pytest.raises(d.ConfigurationError, match="not covered"):
        d.kernel_from_table("partial", [(1, 1, 1.0)], dist=rad)
    # uncentered: constant 1 kernel has E[h] = 1
    rows = [(-1, -1, 1.0), (-1, 1, 1.0), (1, 1, 1.0)]
    with pytest.raises(d.ConfigurationError, match="not centered"):
        d.kernel_from_table("const", rows, dist=rad)


def test_table_kernel_rejects_unknown_points(rad):
    rows = [(-1, -1, 1.0), (-1, 1, -1.0), (1, 1, 1.0)]
    k = d.kernel_from_table("tbl", rows, dist=rad)
    with pytest.raises(d.ConfigurationError):
        k.pair_values(np.array([0.5]), np.array([1.0]))


def test_load_kernel_table(tmp_path, rad):
    f = tmp_path / "k.txt"
    f.write_text("# x y h\n-1 -1 1\n-1 1 -1\n1 1 1\n")
    k = d.load_kernel_table(f, dist=rad)
    assert float(k.pair_values(np.array([-1.0]), np.array([1.0]))[0]) == -1.0


def test_kernel_table_file_takes_the_flags_number_grammar(tmp_path, rad):
    f = tmp_path / "k.txt"
    f.write_text("-1 -1 1/2\n-1 1 -1/2\n1 1 1/2\n")
    k = d.load_kernel_table(f, dist=rad)
    assert k.pair_values(np.array([-1.0, 1.0]), np.array([1.0, 1.0])).tolist() == [-0.5, 0.5]
    f.write_text("-1 -1 1\n-1 1 nan\n1 1 1\n")
    with pytest.raises(d.ConfigurationError, match="'nan' is not a number"):
        d.load_kernel_table(f, dist=rad)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: d.table([-1, 1], [math.nan, 1.0]), "table law probability must be a finite real number; got nan"),
        (lambda: d.table([-1, math.inf], [0.5, 0.5]), "table law value must be a finite real number; got inf"),
        (lambda: d.uniform(-math.inf, 1.0), "uniform law endpoint must be a finite real number; got -inf"),
        (
            lambda: d.kernel_from_table(
                "t", [(-1, -1, 1), (-1, 1, math.nan), (1, 1, 1)], d.rademacher()
            ),
            r"pair \(-1\.0, 1\.0\) must be a finite real number; got nan",
        ),
        (
            lambda: d.kernels._verify_registration(
                dataclasses.replace(d.product_kernel(d.rademacher()), feature_mean=np.array([math.nan]))
            ),
            "declared E\\[phi\\]",
        ),
    ],
    ids=["table-prob", "table-value", "uniform-endpoint", "kernel-entry", "declared-mean"],
)
def test_non_finite_python_inputs_are_refused(build, message):
    with pytest.raises(d.ConfigurationError, match=message):
        build()


def test_table_kernel_values_are_the_raw_table(tri_kernel):
    # an oracle independent of A: the triples as written, in both orders
    for x, y, v in TRI_TABLE:
        assert tri_kernel.pair_values([x, y], [y, x]).tolist() == [v, v]


def test_table_entries_off_the_law_support_are_ignored(rad):
    rows = [(-1, -1, 1.0), (-1, 1, -1.0), (1, 1, 1.0)]
    base = d.kernel_from_table("tbl", rows, dist=rad)
    extra = d.kernel_from_table("tbl", rows + [(0, 0, 5.0), (0, 1, 7.0)], dist=rad)
    x = np.array([-1.0, -1.0, 1.0, 1.0])
    y = np.array([-1.0, 1.0, -1.0, 1.0])
    np.testing.assert_array_equal(extra.coef, base.coef)
    np.testing.assert_array_equal(extra.pair_values(x, y), base.pair_values(x, y))
    assert extra.second_moment == base.second_moment
    # 0 has table entries, but rows of this law never take it
    with pytest.raises(d.ConfigurationError, match=r"^1 value\(s\) outside the row-law support; first 0\.0$"):
        extra.pair_values([0.0], [1.0])
    with pytest.raises(d.ConfigurationError, match="outside the row-law support"):
        extra.conditional_mean([0.0])


def test_table_kernel_needs_every_support_pair(rad):
    # both support points appear, but the pair (-1, 1) has no entry
    with pytest.raises(d.ConfigurationError, match=r"pairs \[\(-1\.0, 1\.0\)\] not covered"):
        d.kernel_from_table("gap", [(-1, -1, 1.0), (1, 1, 1.0)], dist=rad)


def test_empty_kernel_table(rad):
    with pytest.raises(d.ConfigurationError):
        d.kernel_from_table("empty", [], dist=rad)


# ---------------------------------------------------------------- centering


def test_centered_values_closed_form(skewed):
    k = d.sign_kernel(skewed)
    x = np.array([-1.0, 5.0])
    y = np.array([5.0, 5.0])
    expect = k.pair_values(x, y) - k.conditional_mean(x) - k.conditional_mean(y)
    assert np.allclose(k.centered_values(x, y), expect, atol=1e-12)


def test_centered_values_enumerates_table_kernels(rad):
    rows = [(-1, -1, 0.5), (-1, 1, -0.5), (1, 1, 0.5)]
    k = d.kernel_from_table("halfprod", rows, dist=rad)
    # g = 0 for this kernel, so tilde == h
    x = np.array([-1.0, 1.0])
    assert np.allclose(k.centered_values(x, x), k.pair_values(x, x))


def test_centered_values_without_law_fails():
    with pytest.raises(TypeError, match="dist"):
        d.kernel_from_table("orphan", [(-1, -1, 1.0), (-1, 1, -1.0), (1, 1, 1.0)])


def test_registration_verify_catches_bad_second_moment(rad):
    from dataclasses import replace
    from diluteu.kernels import _verify_registration

    # Sigma = [[sqrt(2.5)]] declares E[h^2] = tr(A Sigma A Sigma) = 2.5
    k = replace(d.product_kernel(rad), feature_moment=np.array([[math.sqrt(2.5)]]))
    assert k.second_moment == pytest.approx(2.5)
    with pytest.raises(d.ConfigurationError):
        _verify_registration(k)


def test_registration_rejects_features_that_disagree_with_h(skewed, norm):
    from dataclasses import replace
    from diluteu.kernels import _verify_registration

    # discrete law: h moved at the single support pair (5, 5)
    sign = d.sign_kernel(skewed)
    moved = replace(
        sign,
        evaluate=lambda x, y: sign.evaluate(x, y) + 1e-6 * ((x == 5.0) & (y == 5.0)),
    )
    with pytest.raises(d.ConfigurationError, match=r"differs from h at 1 of 4 pairs"):
        _verify_registration(moved)
    # continuous law: h moved only where x > 2.5, a set of probability
    # 0.006 that the registration draws still hit
    prod = d.product_kernel(norm)
    moved = replace(prod, evaluate=lambda x, y: x * y + 1e-6 * (x > 2.5))
    with pytest.raises(d.ConfigurationError, match=r"differs from h at \d+ of 4096 pairs"):
        _verify_registration(moved)
    # and a wrong A with the right h is caught the same way
    with pytest.raises(d.ConfigurationError, match="differs from h"):
        _verify_registration(replace(prod, coef=np.array([[1.0 + 1e-6]])))


_NO_G_CALLS = {
    "centered_values": lambda k, law: k.centered_values(np.array([-1.0]), np.array([5.0])),
    "hoeffding_parts": lambda k, law: d.hoeffding_parts(
        np.array([-1.0, 5.0, -1.0]), d.sample_dilution(3, 1.0, 0), k
    ),
    "moments_mc": lambda k, law: d.moments_mc(k, law, 10, 0.5, m=200, seed=0),
    "estimate_C1": lambda k, law: d.estimate_C1(k, law, 10, 0.5, (0.1,), 200, 0)[0],
    "sweep_condition": lambda k, law: d.sweep_condition(
        "C2", k, law, d.SeedPolicy(6), n_grid=(10,), eps_grid=(0.1,), m=200
    ),
}


@pytest.mark.parametrize("call", sorted(_NO_G_CALLS))
def test_kernel_with_law_but_no_g_is_rejected(call, skewed):
    # bound to a law and carrying A, mu and Sigma, but no feature map phi,
    # so no g, H or H~: such a kernel cannot be built, while the kernel
    # with phi runs the call
    sign = d.sign_kernel(skewed)
    with pytest.raises(TypeError, match="features"):
        d.KernelSpec(
            name="no-g",
            evaluate=sign.evaluate,
            coef=sign.coef,
            feature_mean=sign.feature_mean,
            feature_moment=sign.feature_moment,
            dist=skewed,
        )
    _NO_G_CALLS[call](sign, skewed)


def test_kernel_without_its_form_or_law_fails_at_construction(rad, tmp_path):
    # phi, A, mu, Sigma and the law are required, so a kernel missing any
    # of them cannot be built in the first place; the degeneracy flag is
    # derived from them
    ref = d.sign_kernel(rad)
    fields = {f.name: getattr(ref, f.name) for f in dataclasses.fields(d.KernelSpec)}
    assert d.KernelSpec(**fields).second_moment == ref.second_moment
    for left_out in fields:
        partial = {k: v for k, v in fields.items() if k != left_out}
        with pytest.raises(TypeError, match=left_out):
            d.KernelSpec(**partial)
    rows = [(-1, -1, 1.0), (-1, 1, -1.0), (1, 1, 1.0)]
    with pytest.raises(TypeError):
        d.kernel_from_table("tbl", rows)
    f = tmp_path / "k.txt"
    f.write_text("-1 -1 1\n-1 1 -1\n1 1 1\n")
    with pytest.raises(TypeError):
        d.load_kernel_table(f)


def test_table_kernel_rejects_continuous_law_at_bind_time():
    rows = [(-1, -1, 1.0), (-1, 1, -1.0), (1, 1, 1.0)]
    with pytest.raises(d.ConfigurationError, match="discrete row law"):
        d.kernel_from_table("tbl", rows, dist=d.uniform(-1, 1))


def test_table_kernel_error_names_the_offending_value(rad):
    rows = [(-1, -1, 1.0), (-1, 1, -1.0), (1, 1, 1.0)]
    k = d.kernel_from_table("tbl", rows, dist=rad)
    # 1.0 is in the support; 2.0, the other argument, is not
    with pytest.raises(d.ConfigurationError, match=r"^1 value\(s\) outside the row-law support; first 2\.0$"):
        k.pair_values([1.0], [2.0])
    # h, like phi, looks up and refuses one argument at a time
    with pytest.raises(d.ConfigurationError, match=r"^2 value\(s\) outside the row-law support; first 0\.5$"):
        k.pair_values([1.0, 0.5, -1.0, 3.0], [1.0, 1.0, 1.0, -1.0])
    with pytest.raises(d.ConfigurationError, match=r"^2 value\(s\) outside the row-law support; first 0\.5$"):
        k.features(np.array([1.0, 0.5, -1.0, 3.0]))


def test_every_factory_returns_through_the_registration_check(rad, tmp_path, monkeypatch):
    # no factory can hand out a kernel that _verify_registration has not seen
    def refuse(spec):
        raise d.ConfigurationError("checked %s" % spec.name)

    monkeypatch.setattr(d.kernels, "_verify_registration", refuse)
    f = tmp_path / "k.txt"
    f.write_text("-1 -1 1\n-1 1 -1\n1 1 1\n")
    rows = [(-1, -1, 1.0), (-1, 1, -1.0), (1, 1, 1.0)]
    builds = {
        "product": lambda: d.product_kernel(rad),
        "additive": lambda: d.additive_kernel(rad),
        "sign": lambda: d.sign_kernel(rad),
        "zero": lambda: d.zero_kernel(rad),
        "tbl": lambda: d.kernel_from_table("tbl", rows, rad),
        "k": lambda: d.load_kernel_table(f, rad),
    }
    for name, build in builds.items():
        with pytest.raises(d.ConfigurationError, match="^checked %s$" % name):
            build()


def test_every_exported_name_resolves():
    modules = [d] + [
        importlib.import_module("diluteu." + info.name)
        for info in pkgutil.iter_modules(d.__path__)
    ]
    missing = [
        (mod.__name__, name)
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []


def test_each_public_name_is_listed_once():
    # a module's __all__ names every public function and class it defines,
    # and the package list is their concatenation
    modules = (d.errors, d.sampling, d.kernels, d.decomposition, d.moments,
               d.conditions, d.harness)
    for mod in modules:
        defined = {
            name
            for name, value in vars(mod).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == mod.__name__
        }
        assert defined - set(mod.__all__) == set(), mod.__name__
    assert d.__all__ == [name for mod in modules for name in mod.__all__]
    assert len(set(d.__all__)) == len(d.__all__)
