"""Closed-form moments, Monte Carlo moments, and the enumeration oracle.

The enumeration path sums over every (row, dilution) outcome, so any
disagreement with the closed forms falsifies one of the two.
"""

import math

import numpy as np
import pytest

import diluteu as d
from diluteu.moments import MAX_ENUM_STATES, _Neumaier


def test_product_normal_undiluted_theta(norm):
    k = d.product_kernel(norm)
    ms = d.moments_closed_form(k, norm, n=500, p=1.0)
    assert ms.beta2 == 1.0
    assert ms.gamma2 == 0.0
    assert ms.theta2 == 0.5
    assert ms.var_u_exact == pytest.approx(1.0 / math.comb(500, 2), rel=1e-15)
    assert ms.provenance == "closed_form"


def test_additive_rademacher_small_case(rad):
    k = d.additive_kernel(rad)
    ms = d.moments_closed_form(k, rad, n=3, p=0.5)
    assert ms.beta2 == pytest.approx(1.0, abs=1e-15)   # p E[(X+Y)^2] = 0.5 * 2
    assert ms.gamma2 == pytest.approx(0.5, abs=1e-15)
    assert ms.theta2 == pytest.approx(3 * 0.5 * 0.5 + 0.5, abs=1e-15)
    assert ms.var_u_exact == pytest.approx((1.0 + 2 * 1 * 0.5 * 0.5) / 3, abs=1e-15)


def test_zero_kernel_moments(rad):
    k = d.kernel_by_name("zero", rad)
    ms = d.moments_closed_form(k, rad, n=10, p=0.5)
    assert ms.beta2 == ms.gamma2 == ms.theta2 == ms.var_u_exact == 0.0


def test_variance_exact_edge_cases():
    assert d.variance_exact(2, 0.7, 1.3, 9.9) == pytest.approx(1.3)
    with pytest.raises(d.ConfigurationError):
        d.variance_exact(1, 0.5, 1.0, 1.0)
    with pytest.raises(d.ConfigurationError):
        d.variance_exact(5, 0.0, 1.0, 1.0)
    with pytest.raises(d.ConfigurationError):
        d.variance_exact(5, 1.5, 1.0, 1.0)


def test_moments_rejects_foreign_law(rad, norm):
    k = d.product_kernel(rad)
    with pytest.raises(d.ConfigurationError):
        d.moments_closed_form(k, norm, n=5, p=0.5)


def test_moments_mc_rejects_foreign_law(skewed, rad):
    # the sign kernel's g belongs to the skewed law; sampling Rademacher
    # rows through it would mix the two laws
    k = d.sign_kernel(skewed)
    with pytest.raises(d.ConfigurationError, match="registered against"):
        d.moments_mc(k, rad, 100, 0.5, 1000, 1)


def test_asymptotic_variance_ratio(skewed):
    # n^2 theta^2 over binom(n,2) (beta2 + 2(n-2) p gamma2) tends to 1
    k = d.sign_kernel(skewed)
    last = None
    for n in (200, 2000, 20000):
        p = d.dilution_regime(n, 0.3)
        ms = d.moments_closed_form(k, skewed, n, p)
        ratio = (n * n * ms.theta2) / (math.comb(n, 2) * ms.var_u_exact * math.comb(n, 2))
        # var_u_exact = (beta2 + 2(n-2) p gamma2)/binom, so undo one binom
        gap = abs(ratio - 1.0)
        if last is not None:
            assert gap < last
        last = gap
    assert last < 0.01


def test_mc_moments_match_closed_forms():
    laws = {
        "rademacher": d.rademacher(),
        "normal": d.standard_normal(),
        "uniform": d.uniform(-1.0, 1.0),
        "skewed": d.table([-1, 5], [5.0 / 6.0, 1.0 / 6.0]),
    }
    n, p = 40, 0.3
    for lname, dist in laws.items():
        for kname in ("product", "additive", "sign"):
            k = d.kernel_by_name(kname, dist)
            exact = d.moments_closed_form(k, dist, n, p)
            mc = d.moments_mc(k, dist, n, p, m=40000, seed=(hash((lname, kname)) % 2**32))
            assert mc.provenance == "mc"
            for fieldname in ("beta2", "gamma2", "theta2", "var_u_exact"):
                se = mc.standard_errors[fieldname]
                gap = abs(getattr(mc, fieldname) - getattr(exact, fieldname))
                assert gap <= 4 * se + 1e-12, (lname, kname, fieldname, gap, se)


def test_mc_moments_rejects_tiny_m(rad):
    k = d.product_kernel(rad)
    with pytest.raises(d.ConfigurationError):
        d.moments_mc(k, rad, 10, 0.5, m=99, seed=0)


def test_missing_closed_forms_name_the_remedy_not_the_other_route(rad):
    # a table kernel without a law is refused when it is built, naming the
    # missing law, so neither route is reached; bound to it, both routes
    # agree with the product kernel x*y it tabulates
    rows = [(-1, -1, 1.0), (-1, 1, -1.0), (1, 1, 1.0)]
    with pytest.raises(TypeError, match="dist") as missing:
        d.kernel_from_table("orphan", rows)
    assert "moments" not in str(missing.value)
    k = d.kernel_from_table("orphan", rows, dist=rad)
    closed = d.moments_closed_form(k, rad, 10, 0.5)
    exact = d.moments_closed_form(d.product_kernel(rad), rad, 10, 0.5)
    mc = d.moments_mc(k, rad, 10, 0.5, m=200, seed=0)
    for fieldname in ("beta2", "gamma2", "theta2", "var_u_exact"):
        assert getattr(closed, fieldname) == pytest.approx(getattr(exact, fieldname), abs=1e-12)
        gap = abs(getattr(mc, fieldname) - getattr(exact, fieldname))
        assert gap <= 4 * mc.standard_errors[fieldname] + 1e-12, (fieldname, gap)


def test_momentset_json_round_trip(skewed):
    k = d.sign_kernel(skewed)
    ms = d.moments_mc(k, skewed, 25, 0.4, m=500, seed=3)
    ms2 = d.MomentSet.from_json(ms.to_json())
    assert ms2 == ms


def test_neumaier_compensation():
    acc = _Neumaier()
    for v in (1e16, 1.0, -1e16):
        acc.add(v)
    assert acc.value() == 1.0
    assert isinstance(acc.value(), float)


# ------------------------------------------------------------- enumeration


def test_enumeration_matches_closed_forms_all_kernels(rad, skewed):
    for dist in (rad, skewed):
        for kname in ("product", "additive", "sign"):
            k = d.kernel_by_name(kname, dist)
            for p in (0.5, 1.0):
                res = d.enumerate_exact(k, dist, n=3, p=p)
                ms = res.moment_set
                exact = d.moments_closed_form(k, dist, 3, p)
                assert ms.beta2 == pytest.approx(exact.beta2, abs=1e-12)
                assert ms.gamma2 == pytest.approx(exact.gamma2, abs=1e-12)
                assert ms.theta2 == pytest.approx(exact.theta2, abs=1e-12)
                assert ms.var_u_exact == pytest.approx(exact.var_u_exact, abs=1e-12)
                assert ms.provenance == "enumerated"
                # raw second moments and the centered pair variance
                assert p * res.e_h2 == pytest.approx(exact.beta2, abs=1e-12)
                assert p * res.e_g2 == pytest.approx(exact.gamma2, abs=1e-12)
                assert res.e_htilde2 == pytest.approx(
                    (exact.beta2 - 2 * exact.gamma2) / p, abs=1e-12
                )


def test_enumeration_base_products(skewed):
    k = d.sign_kernel(skewed)
    p = 0.5
    res = d.enumerate_exact(k, skewed, n=3, p=p)
    ms = res.moment_set
    assert res.products[(("Phi", 0, 1), ("Phi", 0, 1))] == pytest.approx(
        ms.beta2, abs=1e-12
    )
    assert res.products[(("Psi", 0, 1), ("Psi", 0, 1))] == pytest.approx(
        ms.gamma2, abs=1e-12
    )
    assert res.products[(("PhiTilde", 0, 1), ("PhiTilde", 0, 1))] == pytest.approx(
        ms.beta2 - 2 * ms.gamma2, abs=1e-12
    )


def test_enumeration_cross_products(skewed):
    # shared-index identities: E[Phi(1,2) Phi(1,3)] = p^2 E[g^2],
    # all PhiTilde cross terms vanish
    k = d.sign_kernel(skewed)
    p = 0.5
    res = d.enumerate_exact(
        k,
        skewed,
        n=4,
        p=p,
        products=(
            (("Phi", 0, 1), ("Phi", 0, 2)),
            (("PhiTilde", 0, 1), ("PhiTilde", 0, 2)),
            (("PhiTilde", 0, 1), ("PhiTilde", 2, 3)),
            (("PhiTilde", 0, 1), ("Psi", 0, 1)),
        ),
    )
    e_g2 = res.e_g2
    assert res.products[(("Phi", 0, 1), ("Phi", 0, 2))] == pytest.approx(
        p * p * e_g2, abs=1e-12
    )
    assert abs(res.products[(("PhiTilde", 0, 1), ("PhiTilde", 0, 2))]) < 1e-12
    assert abs(res.products[(("PhiTilde", 0, 1), ("PhiTilde", 2, 3))]) < 1e-12
    assert abs(res.products[(("PhiTilde", 0, 1), ("Psi", 0, 1))]) < 1e-12


def test_enumeration_variance_is_full_joint(rad):
    # enumerated Var(U) must equal the closed formula without using it
    k = d.additive_kernel(rad)
    for n, p in ((3, 0.5), (4, 0.25), (4, 1.0)):
        res = d.enumerate_exact(k, rad, n=n, p=p)
        assert res.moment_set.var_u_exact == pytest.approx(
            d.variance_exact(n, p, res.moment_set.beta2, res.moment_set.gamma2),
            abs=1e-12,
        )


def test_enumeration_size_guard(rad):
    k = d.product_kernel(rad)
    with pytest.raises(d.EnumerationSizeError):
        d.enumerate_exact(k, rad, n=12, p=0.5)  # 2^12 * 2^66 states
    assert MAX_ENUM_STATES == 10_000_000


def test_enumeration_needs_discrete_law(norm):
    k = d.product_kernel(norm)
    with pytest.raises(d.ConfigurationError):
        d.enumerate_exact(k, norm, n=3, p=0.5)


def test_enumeration_rejects_bad_factor(rad):
    k = d.product_kernel(rad)
    with pytest.raises(d.ConfigurationError):
        d.enumerate_exact(k, rad, n=3, p=0.5, products=((("Rho", 0, 1),),))
    with pytest.raises(d.ConfigurationError):
        d.enumerate_exact(k, rad, n=3, p=0.5, products=((("Phi", 0, 7),),))
