"""Replication engine, KS distance, targets, reports, determinism."""

import inspect
import json
import math
import warnings
from textwrap import dedent

import numpy as np
import pytest
from scipy.special import ndtr

import diluteu as d


def sign_config(**kw):
    base = dict(
        kernel_name="sign",
        dist=d.table([-1, 5], [5.0 / 6.0, 1.0 / 6.0]),
        n_grid=(60,),
        p=0.4,
        R=200,
        master_seed=6,
    )
    base.update(kw)
    return d.ExperimentConfig(**base)


# ------------------------------------------------------------------- KS


def test_ks_distance_single_point():
    # a lone sample at the median leaves half the mass on each side
    assert d.ks_distance(np.array([0.0]), ndtr) == pytest.approx(0.5)


def test_ks_distance_degenerate_sample():
    s = np.zeros(1000)
    assert d.ks_distance(s, ndtr) == pytest.approx(0.5, abs=1e-3)


def test_ks_distance_matches_brute_force():
    rng = np.random.Generator(np.random.PCG64(3))
    s = rng.standard_normal(37)
    fast = d.ks_distance(s, ndtr)
    xs = np.sort(s)
    brute = 0.0
    r = len(xs)
    for i, v in enumerate(xs):
        f = ndtr(v)
        brute = max(brute, abs(f - i / r), abs((i + 1) / r - f))
    assert fast == pytest.approx(brute, abs=1e-15)


def test_ks_null_calibration():
    # for true normal samples of size 2000 the 95% KS quantile is about
    # 1.358/sqrt(2000); a handful of fixed seeds must mostly stay below
    crit = 1.358 / math.sqrt(2000)
    misses = 0
    for seed in range(40):
        s = np.random.Generator(np.random.PCG64(seed)).standard_normal(2000)
        if d.ks_distance(s, ndtr) > crit:
            misses += 1
    assert misses <= 4


def test_chi1_shifted_cdf_values():
    from scipy.special import erf

    assert d.chi1_shifted_cdf(np.array([-2.0]))[0] == 0.0
    assert d.chi1_shifted_cdf(np.array([-1.0]))[0] == 0.0
    assert d.chi1_shifted_cdf(np.array([0.0]))[0] == pytest.approx(
        float(erf(math.sqrt(0.5)))
    )
    t = np.linspace(-1.5, 30, 200)
    v = d.chi1_shifted_cdf(t)
    assert np.all(np.diff(v) >= 0)
    assert v[-1] > 0.999


def _square_law_n_cdf_by_quad(t, n):
    # conditions on Z instead of W: F(t) = E_Z[P(W >= (n-1)(Z^2 - t))],
    # with the chi2(n-1) survival function as gammaincc((n-1)/2, x/2)
    from scipy.integrate import quad
    from scipy.special import gammaincc

    def integrand(z):
        x = (n - 1) * (z * z - t)
        tail = gammaincc(0.5 * (n - 1), 0.5 * x) if x > 0 else 1.0
        return math.exp(-0.5 * z * z) * tail

    value, _ = quad(integrand, 0.0, math.inf, epsabs=1e-13, epsrel=1e-13, limit=1000)
    return 2.0 * value / math.sqrt(2.0 * math.pi)


def test_square_law_n_cdf_matches_adaptive_quadrature():
    t = np.linspace(-1.5, 4.0, 111)
    got = d.square_law_n_cdf(t, 500)
    want = np.array([_square_law_n_cdf_by_quad(v, 500) for v in t])
    assert np.max(np.abs(got - want)) < 1e-5


def test_square_law_n_cdf_is_a_cdf():
    t = np.linspace(-3.0, 30.0, 2001)
    for n in (2, 10, 500):
        v = d.square_law_n_cdf(t, n)
        assert v.shape == t.shape
        assert np.all(np.diff(v) >= 0)
        assert np.all((v >= 0.0) & (v <= 1.0))
    assert d.square_law_n_cdf(np.array([[0.0, 1.0]]), 500).shape == (1, 2)


def test_square_law_n_cdf_approaches_the_limit():
    # the limit Z^2 - 1 has a density singular at -1, so the sup distance
    # shrinks roughly like n^-1/4, not n^-1/2
    t = np.linspace(-1.2, 4.0, 20001)
    gaps = [
        float(np.max(np.abs(d.square_law_n_cdf(t, n) - d.chi1_shifted_cdf(t))))
        for n in (500, 5000, 50000)
    ]
    assert gaps[0] == pytest.approx(0.0806, abs=1e-3)
    assert gaps[0] > gaps[1] > gaps[2]


def test_square_law_n_cdf_separates_the_limit_law():
    # draws of the limit Z^2 - 1 sit beyond the 0.05 gate of criterion 06
    # against the exact n=500 law, so that gate tells the two apart
    z = np.random.Generator(np.random.PCG64(61)).standard_normal(2000)
    ks = d.ks_distance(z * z - 1.0, lambda t: d.square_law_n_cdf(t, 500))
    assert ks > 0.05


def test_square_law_n_cdf_rejects_small_n():
    with pytest.raises(d.ConfigurationError):
        d.square_law_n_cdf(np.array([0.0]), 1)


def test_normal_cdf_is_ndtr():
    x = np.array([-1.5, 0.0, 2.0])
    assert np.allclose(d.normal_cdf(x), ndtr(x))


# ---------------------------------------------------------------- config


def test_config_validation_errors(norm):
    with pytest.raises(d.ConfigurationError):
        sign_config(R=0)
    with pytest.raises(d.ConfigurationError):
        sign_config(p=0.4, a=0.3)  # both set
    with pytest.raises(d.ConfigurationError):
        d.ExperimentConfig(kernel_name="sign", dist=norm, n_grid=(50,))  # neither
    with pytest.raises(d.ConfigurationError):
        sign_config(n_grid=(50, 50))
    with pytest.raises(d.ConfigurationError):
        sign_config(n_grid=(100, 50))
    with pytest.raises(d.ConfigurationError):
        sign_config(standardization="bootstrap")
    with pytest.raises(d.ConfigurationError):
        sign_config(out_format="xml")
    with pytest.raises(d.ConfigurationError):
        sign_config(conditions=("C1", "C9"))
    with pytest.raises(d.ConfigurationError):
        sign_config(p=0.001, n_grid=(60,))  # np < 1
    with pytest.warns(UserWarning, match="slow regime"):
        sign_config(p=0.1, n_grid=(60,))  # np = 6
    with pytest.raises(d.ConfigurationError, match="threads must be >= 1"):
        sign_config(threads=0)
    for bad in (float("nan"), float("inf"), 0.0, 1.0, 2.0, -0.05):
        with pytest.raises(d.ConfigurationError, match="ks_threshold"):
            sign_config(ks_threshold=bad)
    for grid in ((1, 60), (-5,)):
        with pytest.raises(d.ConfigurationError, match="needs n >= 2"):
            sign_config(n_grid=grid, p=None, a=0.3)


@pytest.mark.parametrize(
    "field, value, what",
    [
        ("R", 2.5, "replication count"),
        ("R", True, "replication count"),
        ("threads", 1.5, "threads"),
        ("threads", True, "threads"),
        ("master_seed", 1.5, "master seed"),
        ("master_seed", float("nan"), "master seed"),
        ("m", 100.5, "m"),
        ("n_grid", (200.7,), "n"),
    ],
    ids=["R-2.5", "R-bool", "threads-1.5", "threads-bool", "seed-1.5", "seed-nan", "m-100.5", "n-200.7"],
)
def test_config_refuses_a_non_integral_count(field, value, what):
    # each would otherwise fail with a TypeError at run time, or run a
    # truncated count (n=200.7 as 200)
    with pytest.raises(d.ConfigurationError, match="%s must be an integer; got" % what):
        sign_config(**{field: value})


def test_config_stores_an_integral_float_count_as_its_int():
    base = sign_config(R=2000, n_grid=(200,), threads=1, master_seed=6, m=4096)
    cfg = sign_config(R=2000.0, n_grid=(200.0,), threads=1.0, master_seed=6.0, m=4096.0)
    assert [type(v) for v in (cfg.R, cfg.n_grid[0], cfg.threads, cfg.master_seed, cfg.m)] == [int] * 5
    assert cfg.config_hash() == base.config_hash()


def test_config_rejects_an_empty_eps_grid_for_eps_conditions():
    with pytest.raises(d.ConfigurationError, match="C1 needs a nonempty eps grid"):
        sign_config(conditions=("C1",), eps_grid=())
    sign_config(conditions=("C4", "ETA2"), eps_grid=())  # eps-free


def test_config_warns_once_per_slow_grid_point(skewed):
    # n*p is 1.35 at n=20 and 1.4 to 2.0 at n=30, under exponent a and
    # under fixed p alike: one warning per grid point either way
    for dilution in (dict(a=0.9), dict(p=0.0675)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            d.ExperimentConfig(dist=skewed, n_grid=(20, 30), R=10, **dilution)
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2, (dilution, messages)
        assert "slow regime" in messages[0] and "at n=20" in messages[0]
        assert "slow regime" in messages[1] and "at n=30" in messages[1]


def test_config_hash_tracks_content():
    c1 = sign_config()
    c2 = sign_config()
    c3 = sign_config(R=201)
    assert c1.config_hash() == c2.config_hash()
    assert c1.config_hash() != c3.config_hash()
    payload = json.loads(c1.canonical_json())
    assert payload["master_seed"] == 6
    assert len(c1.config_hash()) == 12


def test_config_p_at_regimes(skewed):
    c = d.ExperimentConfig(
        kernel_name="sign", dist=skewed, n_grid=(100, 400), a=0.5, R=10
    )
    assert c.p_at(100) == pytest.approx(0.1)
    assert c.p_at(400) == pytest.approx(0.05)
    cf = sign_config()
    assert cf.p_at(60) == 0.4


# ------------------------------------------------------------ replication


def test_replicates_deterministic_and_thread_independent():
    cfg1 = sign_config(threads=1)
    cfg4 = sign_config(threads=4)
    s1 = d.run_clt_experiment(cfg1).samples
    s1b = d.run_clt_experiment(cfg1).samples
    s4 = d.run_clt_experiment(cfg4).samples
    assert np.array_equal(s1, s1b)
    assert np.array_equal(s1, s4)
    assert s1.shape == (200,)


def test_replicate_streams_are_the_spawned_children_of_the_label():
    # _run_replicates draws replicate r's row and graph from the label's
    # prefix child(label) plus (r, 0) and (r, 1); they must be
    # policy.child(label, r).spawn(2)
    pol = d.SeedPolicy(master_seed=6)
    for label in ("replicate/n60", "counterexample/n500", "x"):
        prefix = pol.child(label)
        assert prefix.spawn_key == pol.child(label, 0).spawn_key[:1]
        for r in (0, 1, 2, 1999):
            spawned = pol.child(label, r).spawn(2)
            for i in (0, 1):
                direct = np.random.SeedSequence(
                    prefix.entropy, spawn_key=prefix.spawn_key + (r, i)
                )
                assert np.array_equal(
                    direct.generate_state(4), spawned[i].generate_state(4)
                )
                assert pol.child(label, r, i).spawn_key == direct.spawn_key
    # and the replicates themselves replay from the spawned children
    cfg = sign_config(R=20)
    kernel = d.kernel_by_name("sign", cfg.dist)
    u = []
    for r in range(20):
        sx, sz = cfg.policy().child("replicate/n60", r).spawn(2)
        graph = d.sample_dilution(60, cfg.p_at(60), sz)
        u.append(d.compute_ustat(d.sample_row(60, cfg.dist, sx), graph, kernel))
    s = d.run_clt_experiment(cfg).samples
    assert np.allclose(s * (u[0] / s[0]), u, rtol=1e-14, atol=0.0)


def test_each_replicate_fills_the_same_slots_at_any_thread_count(skewed):
    # 10 replicates over 3 threads split unevenly (4, 4, 2); every slot is
    # written once, with the draw the sequential loop gives it
    seed = d.SeedPolicy(master_seed=6).child("slots")
    slots = {}
    for threads in (1, 3):
        out = np.full((10, 2), np.nan)

        def body(r, x, graph):
            out[r] = x.sum(), graph.edge_count()

        d.harness._each_replicate(seed, 10, 30, skewed, 0.3, body, threads)
        slots[threads] = out
    assert not np.isnan(slots[1]).any()
    assert np.array_equal(slots[1], slots[3])
    assert len(set(slots[1][:, 1])) > 1


def test_graph_seed_is_derived_only_where_a_graph_is_drawn(skewed, monkeypatch):
    # rows always come from key + (r, 0); at p = 0.3 replicate r's graph is
    # sample_dilution(n, p, key + (r, 1)), while at p = 0 and 1 every
    # replicate gets the one shared graph and no (r, 1) seed is made
    seed = d.SeedPolicy(master_seed=6).child("graphs")
    n, m = 30, 6
    made = []
    real = np.random.SeedSequence

    def recording(*args, **kw):
        made.append(kw["spawn_key"][-2:])
        return real(*args, **kw)

    def child(r, i):
        return real(seed.entropy, spawn_key=seed.spawn_key + (r, i))

    for p in (0.3, 1.0, 0.0):
        rows, graphs = {}, {}

        def body(r, x, graph):
            rows[r], graphs[r] = x, graph

        made.clear()
        monkeypatch.setattr(np.random, "SeedSequence", recording)
        d.harness._each_replicate(seed, m, n, skewed, p, body)
        monkeypatch.undo()
        for r in range(m):
            assert np.array_equal(rows[r], d.sample_row(n, skewed, child(r, 0)))
            want = d.sample_dilution(n, p, child(r, 1))
            assert graphs[r].packed.tobytes() == want.packed.tobytes(), (p, r)
        graph_seeds = [key for key in made if key[1] == 1]
        if p == 0.3:
            assert graph_seeds == [(r, 1) for r in range(m)]
            assert len({g.packed.tobytes() for g in graphs.values()}) == m
        else:
            assert graph_seeds == []
            assert all(g is graphs[0] for g in graphs.values())


def test_counterexample_is_thread_independent_on_the_shared_graph(monkeypatch):
    n, R = 60, 40
    seen = []
    draw = d.harness.sample_dilution

    def recording(*args):
        seen.append(draw(*args))
        return seen[-1]

    monkeypatch.setattr(d.harness, "sample_dilution", recording)
    runs = [d.run_counterexample(sign_config(R=R, n_grid=(n,), threads=t)) for t in (1, 2)]
    for vs_normal, vs_chi in runs:
        assert vs_normal.eval_count == vs_chi.eval_count == R * math.comb(n, 2)
    assert np.array_equal(runs[0][0].samples, runs[1][0].samples)
    assert len(seen) == 2 * R and all(g is seen[0] for g in seen)
    assert seen[0].edge_count() == seen[0].pair_count


@pytest.mark.parametrize("runner", ["run_clt_experiment", "run_counterexample"])
def test_a_runner_takes_only_its_config(runner):
    # a per-call n would skip the config's checks at that n (n*p >= 1 among them)
    assert list(inspect.signature(getattr(d, runner)).parameters) == ["config"]


def test_the_clt_run_reads_its_largest_grid_point():
    assert d.run_clt_experiment(sign_config(R=40, n_grid=(30, 60))).n == 60


def test_against_is_the_same_sample_tested_through_the_harness_ks(monkeypatch):
    # every KS row goes through harness.ks_distance by name, which a tracer rebinds
    calls = []
    real = d.harness.ks_distance

    def recording(samples, cdf):
        calls.append(samples)
        return real(samples, cdf)

    monkeypatch.setattr(d.harness, "ks_distance", recording)
    vs_normal, vs_chi = d.run_counterexample(sign_config(R=40, n_grid=(60,)))
    assert len(calls) == 2 and all(s is vs_normal.samples for s in calls)
    assert vs_chi.samples is vs_normal.samples
    assert vs_chi.ks_statistic == real(vs_normal.samples, d.chi1_shifted_cdf)
    exact = vs_chi.against("square_law_n", lambda t: d.square_law_n_cdf(t, 60), "exact law")
    assert len(calls) == 3 and exact.samples is vs_normal.samples
    want = dict(json.loads(vs_normal.to_json()), target="square_law_n", note="exact law")
    want["ks_statistic"] = repr(real(vs_normal.samples, lambda t: d.square_law_n_cdf(t, 60)))
    want["decision"] = exact.decision
    assert json.loads(exact.to_json()) == want
    # without a new note the row keeps the sample's own
    assert vs_normal.against("normal", d.normal_cdf).to_json() == vs_normal.to_json()


def test_replicates_single_run():
    cfg = sign_config(R=1)
    s = d.run_clt_experiment(cfg).samples
    assert s.shape == (1,)


def test_replicate_eval_accounting():
    # the reported evaluation count must equal the summed edge counts of
    # the replayed dilution graphs
    cfg = sign_config(R=50)
    res = d.run_clt_experiment(cfg)
    n = 60
    pol = cfg.policy()
    total = 0
    for r in range(50):
        seq = pol.child("replicate/n%d" % n, r)
        _sx, sz = seq.spawn(2)
        total += d.sample_dilution(n, cfg.p_at(n), sz).edge_count()
    assert res.eval_count == total


def test_budget_guard_trips(monkeypatch):
    # R * C(n, 2) * p = 2000 * 1999000 = 4.0e9 expected evaluations, over
    # DEFAULT_MAX_PAIR_EVALS; the guard trips before any row is drawn
    rows = []
    monkeypatch.setattr(d.harness, "sample_row", lambda *a: rows.append(a))
    cfg = sign_config(n_grid=(2000,), p=1.0, R=2000)
    assert cfg.R * math.comb(2000, 2) > d.harness.DEFAULT_MAX_PAIR_EVALS
    with pytest.raises(d.ResourceBudgetError):
        d.run_clt_experiment(cfg)
    assert rows == []


def test_standardizations_agree_at_scale(skewed):
    # exact and asymptotic variance differ by O(1/n), so the KS value
    # moves only slightly at n=400
    base = dict(
        kernel_name="sign", dist=skewed, n_grid=(400,), a=0.3, R=400, master_seed=6
    )
    ks_exact = d.run_clt_experiment(
        d.ExperimentConfig(standardization="exact", **base)
    ).ks_statistic
    ks_asym = d.run_clt_experiment(
        d.ExperimentConfig(standardization="asymptotic", **base)
    ).ks_statistic
    assert abs(ks_exact - ks_asym) < 0.01
    ks_mc = d.run_clt_experiment(
        d.ExperimentConfig(standardization="mc", **base)
    ).ks_statistic
    assert abs(ks_exact - ks_mc) < 0.02


def test_empirical_variance_matches_exact(skewed):
    # standardized samples should have unit variance within MC error
    cfg = sign_config(R=4000, n_grid=(30,), p=0.5)
    s = d.run_clt_experiment(cfg).samples
    v = s.var(ddof=1)
    m4 = np.mean((s - s.mean()) ** 4)
    se = math.sqrt(max(m4 - v * v, 0.0) / s.size)
    assert abs(v - 1.0) < 5 * se


def test_clt_experiment_result_fields():
    cfg = sign_config(R=300, n_grid=(120,), p=0.3)
    res = d.run_clt_experiment(cfg)
    assert res.target == "normal"
    assert res.n == 120 and res.R == 300
    assert res.threshold == 0.05
    assert res.decision in ("pass", "fail")
    assert (res.decision == "pass") == (res.ks_statistic < 0.05)
    assert res.samples.shape == (300,)
    assert res.runtime_seconds >= 0.0
    j = json.loads(res.to_json())
    assert "runtime_seconds" not in j  # timings must not break determinism
    assert j["target"] == "normal"


def test_counterexample_run_pins_its_config(skewed):
    # whatever the incoming config says, the witness is the undiluted
    # product kernel on normal rows, compared against both targets
    cfg = sign_config(R=300, n_grid=(80, 200))
    vs_normal, vs_chi = d.run_counterexample(cfg)
    assert vs_normal.target == "normal"
    assert vs_chi.target == "chi1_shifted"
    assert vs_chi.n == 200
    assert "shifted" in vs_chi.note or "square" in vs_chi.note
    assert np.array_equal(vs_normal.samples, vs_chi.samples)
    # at n=200 the quadratic limit is already far from normal
    assert vs_normal.ks_statistic > 0.15


def test_condition_sweep_uses_config_subset(skewed):
    cfg = d.ExperimentConfig(
        kernel_name="sign",
        dist=skewed,
        n_grid=(30, 60),
        a=0.3,
        R=10,
        master_seed=6,
        conditions=("C2", "C4"),
        eps_grid=(0.5,),
        m=256,
    )
    reports = d.run_condition_sweep(cfg)
    assert [r.condition_id for r in reports] == ["C2", "C4"]
    assert reports[0].estimates.shape == (2, 1)
    assert reports[1].eps_grid == ()


# ---------------------------------------------------------------- reports


def test_emit_report_csv_layout(tmp_path, skewed, policy):
    k = d.sign_kernel(skewed)
    rep = d.sweep_condition("C2", k, skewed, policy, n_grid=(20, 40), eps_grid=(0.5,), a=0.0, m=256)
    out = tmp_path / "r.csv"
    text = d.emit_report([rep], "csv", out, config_hash="abc123", seed=6)
    lines = text.splitlines()
    assert lines[0] == "# config_hash=abc123 seed=6"
    assert lines[1].startswith("condition_id,n,eps,estimate,se,verdict")
    assert len(lines) == 2 + 2
    assert out.read_text() == text


def _literal_results(i=int, f=float):
    """One result of each emitted type, built from literal numbers passed
    through i (ints) and f (floats)."""
    moments = d.MomentSet(
        beta2=f(0.5), gamma2=f(0.25), var_u_exact=f(0.0375), provenance="mc", n=i(10),
        p=f(0.5), standard_errors={"beta2": f(0.01), "gamma2": f(0.002), "theta2": f(0.03),
                                   "var_u_exact": f(0.0004)},
    )
    return [
        d.DistTestResult(
            samples=np.array([0.1, 0.2]), target="normal", ks_statistic=f(0.125),
            threshold=f(0.05), n=i(10), R=i(2), eval_count=i(45), standardization="exact",
            note="a, note",
        ),
        moments,
        d.ConditionReport(
            condition_id="C1", n_grid=(i(20),), eps_grid=(f(0.5), f(0.75)),
            estimates=np.array([[0.25, 0.125]]), ses=np.array([[0.01, 0.02]]),
            verdicts=("decreasing-toward-0", "stagnant"),
        ),
        d.ConditionReport(
            condition_id="ETA2", n_grid=(i(20), i(40)), eps_grid=(),
            estimates=np.array([[1.25], [1.0625]]), ses=np.array([[0.5], [0.25]]),
            verdicts=("converging-to-1",), spread=np.array([0.75, 0.375]),
        ),
        d.EnumerationResult(
            moment_set=moments, e_h2=f(1.0), e_g2=f(0.5), e_htilde2=f(0.1),
            products={(("Phi", 0, 1), ("Psi", 1, 0)): f(0.0625),
                      (("Phi", 0, 1), ("Phi", 0, 1)): f(0.5)},
        ),
        np.array([0.25, -1.5, 3.0]),
    ]


# the CSV and JSON bytes of each _literal_results() entry; CSV is None for
# the enumeration, which has no CSV form
_LITERAL_BYTES = [
    (
        dedent('''\
        # config_hash=abc123 seed=6
        target,n,R,ks_statistic,threshold,decision,eval_count
        normal,10,2,0.125,0.05,fail,45
        '''),
        dedent('''\
        {
         "config_hash": "abc123",
         "reports": [
          {
           "R": 2,
           "decision": "fail",
           "eval_count": 45,
           "ks_statistic": "0.125",
           "n": 10,
           "note": "a, note",
           "standardization": "exact",
           "target": "normal",
           "threshold": "0.05"
          }
         ],
         "seed": 6
        }'''),
    ),
    (
        dedent('''\
        # config_hash=abc123 seed=6
        n,p,beta2,gamma2,theta2,var_u_exact,provenance
        10,0.5,0.5,0.25,1.5,0.0375,mc
        '''),
        dedent('''\
        {
         "config_hash": "abc123",
         "reports": [
          {
           "beta2": "0.5",
           "gamma2": "0.25",
           "n": 10,
           "p": "0.5",
           "provenance": "mc",
           "standard_errors": {
            "beta2": "0.01",
            "gamma2": "0.002",
            "theta2": "0.03",
            "var_u_exact": "0.0004"
           },
           "theta2": "1.5",
           "var_u_exact": "0.0375"
          }
         ],
         "seed": 6
        }'''),
    ),
    (
        dedent('''\
        # config_hash=abc123 seed=6
        condition_id,n,eps,estimate,se,verdict
        C1,20,0.5,0.25,0.01,decreasing-toward-0
        C1,20,0.75,0.125,0.02,stagnant
        '''),
        dedent('''\
        {
         "config_hash": "abc123",
         "reports": [
          {
           "condition_id": "C1",
           "eps_grid": [
            "0.5",
            "0.75"
           ],
           "estimates": [
            [
             "0.25",
             "0.125"
            ]
           ],
           "n_grid": [
            20
           ],
           "ses": [
            [
             "0.01",
             "0.02"
            ]
           ],
           "spread": null,
           "theta_provenance": "closed_form",
           "upper_bound": false,
           "verdicts": [
            "decreasing-toward-0",
            "stagnant"
           ]
          }
         ],
         "seed": 6
        }'''),
    ),
    (
        dedent('''\
        # config_hash=abc123 seed=6
        condition_id,n,eps,estimate,se,verdict
        ETA2,20,,1.25,0.5,converging-to-1
        ETA2,40,,1.0625,0.25,converging-to-1
        '''),
        dedent('''\
        {
         "config_hash": "abc123",
         "reports": [
          {
           "condition_id": "ETA2",
           "eps_grid": [],
           "estimates": [
            [
             "1.25"
            ],
            [
             "1.0625"
            ]
           ],
           "n_grid": [
            20,
            40
           ],
           "ses": [
            [
             "0.5"
            ],
            [
             "0.25"
            ]
           ],
           "spread": [
            "0.75",
            "0.375"
           ],
           "theta_provenance": "closed_form",
           "upper_bound": false,
           "verdicts": [
            "converging-to-1"
           ]
          }
         ],
         "seed": 6
        }'''),
    ),
    (
        None,
        dedent('''\
        {
         "config_hash": "abc123",
         "reports": [
          {
           "e_g2": "0.5",
           "e_h2": "1.0",
           "e_htilde2": "0.1",
           "moment_set": {
            "beta2": "0.5",
            "gamma2": "0.25",
            "n": 10,
            "p": "0.5",
            "provenance": "mc",
            "standard_errors": {
             "beta2": "0.01",
             "gamma2": "0.002",
             "theta2": "0.03",
             "var_u_exact": "0.0004"
            },
            "theta2": "1.5",
            "var_u_exact": "0.0375"
           },
           "products": {
            "Phi(0,1) Phi(0,1)": "0.5",
            "Phi(0,1) Psi(1,0)": "0.0625"
           }
          }
         ],
         "seed": 6
        }'''),
    ),
    (
        dedent('''\
        # config_hash=abc123 seed=6
        sample
        0.25
        -1.5
        3.0
        '''),
        dedent('''\
        {
         "config_hash": "abc123",
         "reports": [
          {
           "samples": [
            "0.25",
            "-1.5",
            "3.0"
           ]
          }
         ],
         "seed": 6
        }'''),
    ),
]


def test_emit_report_bytes_per_result_type():
    # one result of each emitted type, built from literal numbers, pinned
    # byte for byte as CSV and as JSON
    for result, (csv_text, json_text) in zip(_literal_results(), _LITERAL_BYTES, strict=True):
        if csv_text is None:
            with pytest.raises(d.ConfigurationError, match="cannot emit a CSV"):
                d.emit_report([result], "csv", None)
        else:
            assert d.emit_report([result], "csv", None, config_hash="abc123", seed=6) == csv_text
        assert d.emit_report([result], "json", None, config_hash="abc123", seed=6) == json_text


def test_numpy_scalar_fields_write_the_bytes_of_python_ones():
    # np.int64 counts and np.float64 statistics are written as int and float are
    for numpy_result, result in zip(_literal_results(np.int64, np.float64), _literal_results()):
        for out_format in ("csv", "json") if hasattr(result, "CSV_HEADER") else ("json",):
            assert d.emit_report(numpy_result, out_format, None) == d.emit_report(
                result, out_format, None
            )
    numpy_config = sign_config(p=np.float64(0.4), R=np.int64(200), m=np.int64(100))
    assert numpy_config.canonical_json() == sign_config(m=100).canonical_json()


@pytest.mark.parametrize("out_format", ["csv", "json"])
@pytest.mark.parametrize("samples", [np.array(1.0), np.ones((2, 2))], ids=["0-d", "2-D"])
def test_emit_report_refuses_a_sample_array_that_is_not_1d(samples, out_format):
    with pytest.raises(d.ConfigurationError, match="must be 1-D"):
        d.emit_report(samples, out_format, None)


def test_emit_report_per_type_csv_and_mixed_json(tmp_path, skewed):
    cfg = sign_config(R=50)
    res = d.run_clt_experiment(cfg)
    ms = d.moments_closed_form(d.sign_kernel(skewed), skewed, 60, 0.4)
    samples = np.array([0.25, -1.5])
    # CSV handles one result type at a time
    assert "normal" in d.emit_report([res], "csv", None)
    assert "beta2" in d.emit_report([ms], "csv", None)
    sample_text = d.emit_report([samples], "csv", None)
    assert sample_text.splitlines()[1] == "sample"
    with pytest.raises(d.ConfigurationError):
        d.emit_report([res, ms], "csv", None)
    # JSON takes the mix
    jtext = d.emit_report([res, ms, samples], "json", None, config_hash="x", seed=1)
    payload = json.loads(jtext)
    assert payload["config_hash"] == "x"
    assert payload["seed"] == 1
    assert len(payload["reports"]) == 3


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_emit_report_refuses_an_empty_result_list(out_format):
    with pytest.raises(d.ConfigurationError, match="no results"):
        d.emit_report([], out_format, None)


@pytest.mark.parametrize(
    "out_format, message",
    [("csv", "cannot emit a CSV for mixed or unsupported"), ("json", "cannot serialize result <class 'dict'>")],
)
def test_emit_report_refuses_an_unsupported_result(out_format, message):
    with pytest.raises(d.ConfigurationError, match=message):
        d.emit_report([{"u": 1.0}], out_format, None)


def test_emit_report_json_deterministic(tmp_path):
    cfg = sign_config(R=80)
    a = d.emit_report([d.run_clt_experiment(cfg)], "json", None, config_hash=cfg.config_hash(), seed=6)
    b = d.emit_report([d.run_clt_experiment(cfg)], "json", None, config_hash=cfg.config_hash(), seed=6)
    assert a == b


def test_emit_report_rejects_unknown_format(skewed, policy):
    k = d.sign_kernel(skewed)
    rep = d.sweep_condition("C4", k, skewed, policy, n_grid=(20,), a=0.0, m=256)
    with pytest.raises(d.ConfigurationError):
        d.emit_report([rep], "yaml", None)
