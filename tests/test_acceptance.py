"""Acceptance gate: eleven end-to-end criteria, each printing one visible
pass/fail line with its measured value, stated tolerance, and runtime.

The criteria pin the package's central claims: the per-realization
decomposition identity, exactness of the enumeration oracle, the closed
variance formula, the degenerate-case constants, normal convergence in
the diluted regime, the undiluted failure witness, projection
orthogonality, condition trend verdicts, the conditional-variance (B2)
witness, the C4 -> C4' bound, and byte-level determinism of reports.
"""

import math
import time

import numpy as np
import pytest

import diluteu as d


def announce(capsys, num, name, ok, detail, elapsed, limit):
    line = "[criterion %02d] %-24s %s  %s  (%.1fs, limit %ds)" % (
        num, name, "PASS" if ok else "FAIL", detail, elapsed, limit
    )
    with capsys.disabled():
        print(line)


BUILTIN_KERNELS = ("product", "additive", "sign", "zero")


# --------------------------------------------------------------- criterion 1


def test_criterion_01_decomposition_identity(capsys, rad, norm, unif, skewed):
    """|U_direct - U_reconstructed| <= 1e-10 * max(1, |U_direct|) over 100
    random configurations of builtin kernels, n in [3, 20], p in
    {0.2, 0.5, 1}."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(601))
    dists = {"rademacher": rad, "normal": norm, "uniform": unif, "lawB": skewed}
    cache = {}
    worst = 0.0
    for trial in range(100):
        kname = BUILTIN_KERNELS[int(rng.integers(len(BUILTIN_KERNELS)))]
        dname = list(dists)[int(rng.integers(len(dists)))]
        dist = dists[dname]
        key = (kname, dname)
        if key not in cache:
            cache[key] = d.kernel_by_name(kname, dist)
        kernel = cache[key]
        n = int(rng.integers(3, 21))
        p = float(rng.choice([0.2, 0.5, 1.0]))
        seed = np.random.SeedSequence(int(rng.integers(2**63)))
        r = d.sample_realization(n, dist, kernel, p, seed)
        pairs = math.comb(n, 2)
        u_rec = float(r.psi_part.sum() + r.phi_tilde_part.sum()) / pairs
        gap = abs(r.u_value - u_rec)
        tol = 1e-10 * max(1.0, abs(r.u_value))
        worst = max(worst, gap / tol)
        assert gap <= tol, (kname, dname, n, p, gap, tol)
    elapsed = time.perf_counter() - start
    announce(
        capsys, 1, "decomposition-identity",
        True, "worst gap = %.2e of the 1e-10 budget" % worst, elapsed, 5,
    )
    assert elapsed < 5.0


# --------------------------------------------------------------- criterion 2


def test_criterion_02_enumeration_exactness(capsys, rad):
    """Full enumeration at n=3, fair-sign rows, p=1/2 reproduces
    E[PhiTilde^2] = beta2 - 2 gamma2, p E[h^2] = beta2, p E[g^2] = gamma2,
    and E[Htilde(x, x)] = (beta2 - 2 gamma2)/p to 1e-12, for every
    builtin kernel."""
    start = time.perf_counter()
    p = 0.5
    key = (("PhiTilde", 0, 1), ("PhiTilde", 0, 1))
    worst = 0.0
    for kname in BUILTIN_KERNELS:
        kernel = d.kernel_by_name(kname, rad)
        res = d.enumerate_exact(kernel, rad, 3, p, products=(key,))
        ms = res.moment_set
        errs = [
            abs(res.products[key] - (ms.beta2 - 2.0 * ms.gamma2)),
            abs(p * res.e_h2 - ms.beta2),
            abs(p * res.e_g2 - ms.gamma2),
            abs(res.e_htilde2 - (ms.beta2 - 2.0 * ms.gamma2) / p),
        ]
        if kernel.centered_pair_conditional is not None:
            sup = np.asarray(rad.support, dtype=np.float64)
            qs = np.asarray(rad.probs, dtype=np.float64)
            ht_diag = float(qs @ np.asarray(kernel.centered_pair_conditional(sup, sup)))
            errs.append(abs(ht_diag - (ms.beta2 - 2.0 * ms.gamma2) / p))
        worst = max(worst, max(errs))
        for e in errs:
            assert e <= 1e-12, (kname, errs)
    elapsed = time.perf_counter() - start
    announce(
        capsys, 2, "enumeration-exactness",
        True, "max error %.2e <= 1e-12 over %d kernels" % (worst, len(BUILTIN_KERNELS)),
        elapsed, 10,
    )
    assert elapsed < 10.0


# --------------------------------------------------------------- criterion 3


def test_criterion_03_exact_variance(capsys, skewed):
    """Empirical variance over R=20000 replicates at (n=30, p=0.5, sign
    kernel) within 5 standard errors of the closed-form variance."""
    start = time.perf_counter()
    R = 20000
    cfg = d.ExperimentConfig(
        kernel_name="sign", dist=skewed, n_grid=(30,), p=0.5, R=R,
        master_seed=6, standardization="exact",
    )
    samples = d.run_clt_experiment(cfg).samples
    c = samples - samples.mean()
    v = float(c @ c) / (R - 1)
    m4 = float(np.mean(c**4))
    se_v = math.sqrt(max(m4 - v * v * (R - 3) / (R - 1), 0.0) / R)
    ok = abs(v - 1.0) <= 5.0 * se_v
    elapsed = time.perf_counter() - start
    announce(
        capsys, 3, "exact-variance",
        ok, "|var_hat/var_exact - 1| = %.4f <= 5*SE = %.4f" % (abs(v - 1.0), 5 * se_v),
        elapsed, 60,
    )
    assert ok
    assert elapsed < 60.0


# --------------------------------------------------------------- criterion 4


def test_criterion_04_degenerate_constants(capsys, norm, policy):
    """Product kernel, standard normal rows, p=1: closed-form theta^2 is
    exactly 0.5 and estimate_C4 lands within 4 SE of 4.0 at m=1e5."""
    start = time.perf_counter()
    kernel = d.kernel_by_name("product", norm)
    ms = d.moments_closed_form(kernel, norm, 500, 1.0)
    est = d.estimate_C4(
        kernel, norm, 500, 1.0, 100_000, policy.child("cond/C4/n500/eps0", 0)
    )
    theta_ok = ms.theta2 == 0.5
    c4_ok = abs(est.value - 4.0) <= 4.0 * est.se
    elapsed = time.perf_counter() - start
    announce(
        capsys, 4, "degenerate-constants",
        theta_ok and c4_ok,
        "theta2 = %r (want 0.500 exactly); C4 = %.4f, |C4-4| = %.4f <= 4*SE = %.4f"
        % (ms.theta2, est.value, abs(est.value - 4.0), 4 * est.se),
        elapsed, 60,
    )
    assert theta_ok
    assert c4_ok
    assert elapsed < 60.0


# --------------------------------------------------------------- criterion 5


def test_criterion_05_clt_pass(capsys, rad):
    """Sign kernel, fair-sign rows, n=200, p=0.3, R=2000: KS distance of
    the standardized sample to the standard normal below 0.05."""
    start = time.perf_counter()
    cfg = d.ExperimentConfig(
        kernel_name="sign", dist=rad, n_grid=(200,), p=0.3, R=2000,
        master_seed=6, standardization="exact",
    )
    res = d.run_clt_experiment(cfg)
    ok = res.ks_statistic < 0.05 and res.decision == "pass"
    elapsed = time.perf_counter() - start
    announce(
        capsys, 5, "clt-pass",
        ok, "KS = %.4f < 0.05" % res.ks_statistic, elapsed, 180,
    )
    assert ok
    assert elapsed < 180.0


# --------------------------------------------------------------- criterion 6


def test_criterion_06_clt_failure_witness(capsys, norm):
    """Undiluted product kernel, normal rows, n=500, R=2000: n*U must fit
    its square law (KS < 0.05) while staying far from normal (KS > 0.15).

    For normal rows n*U = Z^2 - W/(n-1) exactly, with Z ~ N(0,1) and
    W ~ chi2(n-1) independent (Cochran). Its n -> infinity limit Z^2 - 1
    is still 0.08 away in sup distance at n=500, because the limit's
    density is singular at -1, so the reference is the exact finite-n
    law square_law_n_cdf. The distance to the limit is printed as
    information only.
    """
    start = time.perf_counter()
    n = 500
    cfg = d.ExperimentConfig(
        kernel_name="product", dist=norm, n_grid=(n,), p=1.0, R=2000,
        master_seed=6,
    )
    vs_normal, vs_chi = d.run_counterexample(cfg)

    def exact_cdf(t):
        return d.square_law_n_cdf(t, n)

    ks_exact = d.ks_distance(vs_normal.samples, exact_cdf)
    t = np.linspace(-1.2, 4.0, 20001)
    law_gap = float(np.max(np.abs(exact_cdf(t) - d.chi1_shifted_cdf(t))))
    normal_ok = vs_normal.ks_statistic > 0.15
    chi_ok = ks_exact < 0.05
    elapsed = time.perf_counter() - start
    announce(
        capsys, 6, "clt-failure-witness",
        normal_ok and chi_ok,
        "KS(normal) = %.4f > 0.15: %s; KS(square law, n=%d) = %.4f < 0.05: "
        "%s; info: KS(limit Z^2-1) = %.4f, law gap to limit = %.4f"
        % (vs_normal.ks_statistic, normal_ok, n, ks_exact, chi_ok,
           vs_chi.ks_statistic, law_gap),
        elapsed, 180,
    )
    assert elapsed < 180.0
    assert normal_ok
    assert chi_ok, (
        "n*U does not fit its exact square law Z^2 - chi2(n-1)/(n-1) at "
        "n=%d: KS %.4f >= 0.05" % (n, ks_exact)
    )


# --------------------------------------------------------------- criterion 7


def _orthogonality_triple(kernel, dist, p, R, seed):
    """MC means/SEs of PhiTilde(1,2)PhiTilde(1,3), PhiTilde(1,2)PhiTilde(3,4),
    PhiTilde(1,2)Psi_2(1), sharing the Z_12 bit where the indices share it."""
    sx, sz = seed.spawn(2)
    x = d.sample_row(4 * R, dist, sx).reshape(R, 4)
    rng = np.random.Generator(np.random.PCG64(sz))
    bits = (rng.random((R, 3)) < p).astype(np.float64)
    g = kernel.conditional_mean
    def htilde(a, b):
        return kernel.pair_values(a, b) - np.asarray(g(a)) - np.asarray(g(b))
    t12 = bits[:, 0] * htilde(x[:, 0], x[:, 1])
    t13 = bits[:, 1] * htilde(x[:, 0], x[:, 2])
    t34 = bits[:, 2] * htilde(x[:, 2], x[:, 3])
    psi21 = bits[:, 0] * np.asarray(g(x[:, 0]))
    out = []
    for prod in (t12 * t13, t12 * t34, t12 * psi21):
        out.append((float(prod.mean()), float(prod.std(ddof=1)) / math.sqrt(R)))
    return out


def test_criterion_07_projection_orthogonality(capsys, skewed, policy):
    """The three cross moments of the centered parts vanish: each MC
    estimate within 4 SE of 0 at R=20000."""
    start = time.perf_counter()
    kernel = d.kernel_by_name("sign", skewed)
    triple = _orthogonality_triple(
        kernel, skewed, 0.3, 20000, policy.child("orthogonality", 0)
    )
    labels = ("PhiT(1,2)PhiT(1,3)", "PhiT(1,2)PhiT(3,4)", "PhiT(1,2)Psi_2(1)")
    ok = all(abs(mean) <= 4.0 * se for mean, se in triple)
    elapsed = time.perf_counter() - start
    detail = "; ".join(
        "%s = %.5f (4*SE %.5f)" % (lab, mean, 4 * se)
        for lab, (mean, se) in zip(labels, triple)
    )
    announce(capsys, 7, "projection-orthogonality", ok, detail, elapsed, 30)
    for lab, (mean, se) in zip(labels, triple):
        assert abs(mean) <= 4.0 * se, (lab, mean, se)
    assert elapsed < 30.0


# --------------------------------------------------------------- criterion 8


TREND_GRID = (50, 100, 200, 400, 800)
TREND_CONDITIONS = ("C1", "C2", "C3", "C4", "C4'", "C1''", "C2''", "C3''")


def test_criterion_08_condition_trends(capsys, skewed, norm, policy):
    """Sign kernel with p = n^-0.3 on {50,...,800}: every condition among
    C1-C4, C4', C1''-C3'' earns "decreasing-toward-0"; the undiluted
    product kernel keeps C4 "stagnant" near 4."""
    start = time.perf_counter()
    kernel = d.kernel_by_name("sign", skewed)
    verdicts = {}
    for cid in TREND_CONDITIONS:
        rep = d.sweep_condition(
            cid, kernel, skewed, policy,
            n_grid=TREND_GRID, eps_grid=(0.75,), a=0.3,
        )
        verdicts[cid] = rep.verdicts
    prod = d.kernel_by_name("product", norm)
    prep = d.sweep_condition(
        "C4", prod, norm, policy, n_grid=TREND_GRID, eps_grid=(0.75,), p_fixed=1.0
    )
    trend_ok = all(
        v == "decreasing-toward-0" for vs in verdicts.values() for v in vs
    )
    prod_vals = prep.estimates[:, 0]
    prod_ok = prep.verdicts[0] == "stagnant" and np.all(np.abs(prod_vals - 4.0) < 0.5)
    elapsed = time.perf_counter() - start
    bad = [cid for cid, vs in verdicts.items() if any(v != "decreasing-toward-0" for v in vs)]
    announce(
        capsys, 8, "condition-trends",
        trend_ok and prod_ok,
        "diluted sign: %d/8 decreasing-toward-0%s; undiluted product C4 %s at %.3f"
        % (
            len(TREND_CONDITIONS) - len(bad),
            "" if not bad else " (bad: %s)" % ",".join(bad),
            prep.verdicts[0],
            prod_vals[-1],
        ),
        elapsed, 600,
    )
    assert trend_ok, verdicts
    assert prod_ok, (prep.verdicts, prod_vals)
    assert elapsed < 600.0


# --------------------------------------------------------------- criterion 9


def test_criterion_09_conditional_variance_witness(capsys, skewed, norm, policy):
    """eta2 sample mean within 4 SE of 1 with shrinking spread along the
    grid for the diluted sign config; non-shrinking spread for the
    undiluted product counterexample."""
    start = time.perf_counter()
    grid = (100, 200, 400)
    kernel = d.kernel_by_name("sign", skewed)
    rep = d.sweep_condition(
        "ETA2", kernel, skewed, policy, n_grid=grid, a=0.3, m=64
    )
    means, ses, sds = rep.estimates[:, 0], rep.ses[:, 0], rep.spread
    sign_ok = (
        rep.verdicts[0] == "converging-to-1"
        and abs(means[-1] - 1.0) <= 4.0 * ses[-1]
        and sds[-1] <= 0.8 * sds[0]
    )
    prod = d.kernel_by_name("product", norm)
    crep = d.sweep_condition(
        "ETA2", prod, norm, policy, n_grid=grid, m=64, p_fixed=1.0
    )
    counter_ok = (
        crep.verdicts[0] != "converging-to-1"
        and crep.spread[-1] > 0.8 * crep.spread[0]
    )
    elapsed = time.perf_counter() - start
    announce(
        capsys, 9, "eta2-witness",
        sign_ok and counter_ok,
        "sign: mean %.4f (4*SE %.4f), spread %.3f -> %.3f, %s; "
        "product: spread %.3f -> %.3f, %s"
        % (
            means[-1], 4 * ses[-1], sds[0], sds[-1], rep.verdicts[0],
            crep.spread[0], crep.spread[-1], crep.verdicts[0],
        ),
        elapsed, 600,
    )
    assert sign_ok, (means, ses, sds, rep.verdicts)
    assert counter_ok, (crep.spread, crep.verdicts)
    assert elapsed < 600.0


# -------------------------------------------------------------- criterion 10


def test_criterion_10_c4_bound(capsys, rad, norm, skewed, policy):
    """verify_c4_implies_c4prime holds on every builtin kernel paired with
    each stock law at n=50, p=0.3, m=16384."""
    start = time.perf_counter()
    combos = [
        (kname, dlabel, dist)
        for kname in ("product", "additive", "sign")
        for dlabel, dist in (("rademacher", rad), ("normal", norm), ("lawB", skewed))
    ]
    worst_slack = math.inf
    for kname, dlabel, dist in combos:
        kernel = d.kernel_by_name(kname, dist)
        label = "cond/C4/prop/%s/%s" % (kname, dlabel)
        c4 = d.estimate_C4(kernel, dist, 50, 0.3, 16384, policy.child(label, 0))
        c4p = d.estimate_C4prime(kernel, dist, 50, 0.3, 16384, policy.child(label, 1))
        report = d.verify_c4_implies_c4prime(c4, c4p, 50, 0.3)
        worst_slack = min(worst_slack, report.slack)
        assert report.satisfied, (kname, dlabel, report)
        assert report.lhs <= report.rhs
    elapsed = time.perf_counter() - start
    announce(
        capsys, 10, "c4-implies-c4prime",
        True, "%d/%d configs satisfied, min slack %.3f" % (len(combos), len(combos), worst_slack),
        elapsed, 60,
    )
    assert elapsed < 60.0


# -------------------------------------------------------------- criterion 11


def test_criterion_11_deterministic_reports(capsys, rad, norm, skewed, policy):
    """Re-running each report-producing pipeline from criteria 3-9 with the
    fixed master seed yields byte-identical report text (reduced
    replication counts, identical code paths)."""
    start = time.perf_counter()

    def emit(cfg, results):
        return d.emit_report(
            results, "csv", None, config_hash=cfg.config_hash(), seed=cfg.master_seed
        )

    def p3():
        cfg = d.ExperimentConfig(
            kernel_name="sign", dist=skewed, n_grid=(30,), p=0.5, R=400, master_seed=6
        )
        return emit(cfg, d.run_clt_experiment(cfg).samples)

    def p4():
        kernel = d.kernel_by_name("product", norm)
        ms = d.moments_closed_form(kernel, norm, 500, 1.0)
        cfg = d.ExperimentConfig(
            kernel_name="product", dist=norm, n_grid=(50,), p=1.0, R=100,
            master_seed=6, conditions=("C4",), m=256,
        )
        return emit(cfg, ms) + emit(cfg, d.run_condition_sweep(cfg))

    def p5():
        cfg = d.ExperimentConfig(
            kernel_name="sign", dist=rad, n_grid=(60,), p=0.4, R=200, master_seed=6
        )
        return emit(cfg, [d.run_clt_experiment(cfg)])

    def p6():
        cfg = d.ExperimentConfig(
            kernel_name="product", dist=norm, n_grid=(80,), p=1.0, R=150, master_seed=6
        )
        return emit(cfg, list(d.run_counterexample(cfg)))

    def p7():
        kernel = d.kernel_by_name("sign", skewed)
        pol = d.SeedPolicy(master_seed=6)
        triple = _orthogonality_triple(
            kernel, skewed, 0.3, 2000, pol.child("orthogonality", 0)
        )
        flat = np.asarray([v for pair in triple for v in pair])
        cfg = d.ExperimentConfig(
            kernel_name="sign", dist=skewed, n_grid=(60,), p=0.3, R=2000, master_seed=6
        )
        return emit(cfg, flat)

    def p8():
        kernel = d.kernel_by_name("sign", skewed)
        pol = d.SeedPolicy(master_seed=6)
        rep = d.sweep_condition(
            "C2", kernel, skewed, pol, n_grid=(50, 100), eps_grid=(0.75,),
            a=0.3, m=256,
        )
        cfg = d.ExperimentConfig(
            kernel_name="sign", dist=skewed, n_grid=(50, 100), a=0.3, R=100,
            master_seed=6,
        )
        return emit(cfg, [rep])

    def p9():
        kernel = d.kernel_by_name("sign", skewed)
        pol = d.SeedPolicy(master_seed=6)
        rep = d.sweep_condition(
            "ETA2", kernel, skewed, pol, n_grid=(50, 100), a=0.3, m=16
        )
        cfg = d.ExperimentConfig(
            kernel_name="sign", dist=skewed, n_grid=(50, 100), a=0.3, R=100,
            master_seed=6,
        )
        return emit(cfg, [rep])

    pipelines = {"crit3": p3, "crit4": p4, "crit5": p5, "crit6": p6,
                 "crit7": p7, "crit8": p8, "crit9": p9}
    stable = []
    for name, fn in pipelines.items():
        first, second = fn(), fn()
        assert first.encode() == second.encode(), "%s report text drifted" % name
        stable.append(name)
    elapsed = time.perf_counter() - start
    announce(
        capsys, 11, "deterministic-reports",
        True, "%d/%d pipelines byte-identical across reruns" % (len(stable), len(pipelines)),
        elapsed, 600,
    )
