"""CLI behavior: the distribution/config parsers, exit codes for every
subcommand, flag-over-file precedence, and the module entry point."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

import diluteu as d
from diluteu.cli import load_config_file, main, parse_dist


def run_main(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv)


# ---------------------------------------------------------------- parse_dist


def test_parse_dist_builtin_names():
    r = parse_dist("rademacher")
    assert r.kind == "rademacher"
    assert r.support == (-1.0, 1.0)

    assert parse_dist("normal").kind == "normal"
    assert parse_dist("standard_normal").kind == "normal"

    u = parse_dist("uniform:-2,2")
    assert u.kind == "uniform"
    assert u.variance == pytest.approx(4.0 / 3.0)


def test_parse_dist_inline_table_with_fractions():
    t = parse_dist("table:-1=5/6,5=1/6")
    assert t.support == (-1.0, 5.0)
    assert t.probs == pytest.approx((5.0 / 6.0, 1.0 / 6.0))
    assert t.sign_mean == pytest.approx(-2.0 / 3.0)
    assert abs(t.mean) < 1e-15


def test_parse_dist_table_file(tmp_path):
    path = tmp_path / "law.txt"
    path.write_text("# two-point fair law\n-1 0.5\n1 0.5\n")
    t = parse_dist("table:%s" % path)
    assert t.support == (-1.0, 1.0)
    assert t.probs == pytest.approx((0.5, 0.5))


def test_parse_dist_rejects_malformed():
    with pytest.raises(d.ConfigurationError):
        parse_dist("uniform:3")
    with pytest.raises(d.ConfigurationError):
        parse_dist("table:-1=0.5,1")
    with pytest.raises(d.ConfigurationError):
        parse_dist("triangle")


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment setup\n"
        "kernel = product\n"
        "p=0.5  # overridden below\n"
        "p=1\n"
        "\n"
        "R=100\n"
    )
    opts = load_config_file(str(path))
    assert opts == {"kernel": "product", "p": "1", "R": "100"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("kernel product\n")
    with pytest.raises(d.ConfigurationError):
        load_config_file(str(bad))


# ------------------------------------------------------------------ moments


def test_moments_closed_form_stdout_csv(capsys):
    code = run_main(
        ["moments", "--kernel", "product", "--dist", "normal", "--n", "10", "--p", "1"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert "seed=6" in lines[0]
    assert lines[1] == "n,p,beta2,gamma2,theta2,var_u_exact,provenance"
    fields = lines[2].split(",")
    assert fields[0] == "10"
    assert float(fields[2]) == pytest.approx(1.0)  # beta2 = p E[h^2]
    assert float(fields[4]) == 0.5  # theta2, exact for this pair
    assert fields[6] == "closed_form"


def test_moments_mc_provenance(capsys):
    code = run_main(
        [
            "moments", "--method", "mc", "--m", "500",
            "--kernel", "sign", "--dist", "rademacher",
            "--n", "40", "--p", "0.5",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    row = lines[2].split(",")
    assert row[6] == "mc"
    assert float(row[2]) == pytest.approx(0.5, abs=0.15)  # beta2 near p


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(
        "kernel=product\n"
        "dist=normal\n"
        "n_grid=8\n"
        "p=0.5\n"
        "p=1   # later key wins\n"
        "seed=11\n"
        "format=json\n"
    )
    assert run_main(["moments", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 11
    assert payload["reports"][0]["n"] == 8
    assert float(payload["reports"][0]["p"]) == 1.0

    assert run_main(["moments", "--config", str(cfg), "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 5  # flag beats file


@pytest.mark.parametrize(
    "line, message",
    [
        ("kernal=product", "unknown config key 'kernal'"),
        ("R=abc", "config key R: invalid literal"),
        ("p=1/0", "config key p: '1/0' is not a number"),
        ("p=1e400", "config key p: '1e400' is not a number"),
        ("kernel product", "expected 2 fields separated by '='"),
        ("seed=-1", "master seed must be >= 0; got -1"),
    ],
    ids=[
        "unknown-key", "bad-value", "zero-denominator", "overflow", "no-separator",
        "negative-seed",
    ],
)
def test_bad_config_key_exits_2_before_any_replicate(line, message, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("n_grid=40\np=0.5\n%s\n" % line)
    calls = []
    monkeypatch.setattr(d.harness, "_run_replicates", lambda *a, **kw: calls.append(a))
    code = run_main(["clt-test", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert calls == []
    assert message in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["moments", "--p", "abc"], "argument --p: 'abc' is not a number"),
        (["moments", "--p", "1/0"], "argument --p: '1/0' is not a number"),
        (["conditions", "--eps", "x"], "argument --eps: 'x' is not a number"),
        (["clt-test", "--n", "20,x"], "argument --n: invalid literal for int() with base 10: 'x'"),
    ],
    ids=["p-word", "p-zero-denominator", "eps-word", "n-word"],
)
def test_bad_flag_value_names_the_flag_and_the_text(argv, message, capsys):
    # argparse exits 2; the message names no parser function
    with pytest.raises(SystemExit) as exc:
        run_main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert message in err
    assert "invalid _" not in err


def test_bare_command_keeps_the_config_defaults():
    # the CLI sets a = 0 when neither p nor a is given and nothing else
    from diluteu.cli import _build_config, _parser

    built = _build_config(_parser().parse_args(["clt-test"]))
    default = d.ExperimentConfig(a=0.0)
    assert built.canonical_json() == default.canonical_json()
    assert (built.threads, built.out_path, built.out_format) == (
        default.threads, default.out_path, default.out_format,
    )


def test_conditions_flag_and_config_key_parse_one_list(tmp_path):
    # a trailing comma leaves an empty item, which both sources drop
    from diluteu.cli import _build_config, _parser

    cfg = tmp_path / "c.cfg"
    cfg.write_text("conditions=C1,\n")
    flag = _build_config(_parser().parse_args(["conditions", "--conditions", "C1,"]))
    key = _build_config(_parser().parse_args(["conditions", "--config", str(cfg)]))
    assert flag.conditions == key.conditions == ("C1",)
    assert flag.canonical_json() == key.canonical_json()


def _first_line_and_code(argv, capsys):
    code = run_main(argv)
    return code, capsys.readouterr().out.splitlines()[:1]


@pytest.mark.parametrize(
    "argv, text",
    [
        (["counterexample", "--n", "50", "--R", "10"], "p=0.01\n"),
        (["counterexample", "--n", "50", "--R", "10"], "kernel=additive\ndist=uniform:-1,1\n"),
        (["counterexample", "--n", "50", "--R", "10"], "expect.C1=stagnant\n"),
        (["moments", "--n", "10", "--p", "0.5"], "R=0\nthreads=x\n"),
    ],
    ids=["counterexample-p", "counterexample-law", "counterexample-expect", "moments-R"],
)
def test_config_keys_the_subcommand_does_not_read_are_ignored(argv, text, tmp_path, capsys):
    # neither parsed, validated nor hashed: the run matches the one without the file
    cfg = tmp_path / "other.cfg"
    cfg.write_text(text)
    plain = _first_line_and_code(argv, capsys)
    assert plain[1][0].startswith("# config_hash=")
    assert _first_line_and_code(argv + ["--config", str(cfg)], capsys) == plain


# ----------------------------------------------------------------- simulate


def test_simulate_writes_sample_csv(tmp_path):
    out = tmp_path / "samples.csv"
    code = run_main(
        [
            "simulate", "--kernel", "sign", "--dist", "rademacher",
            "--n", "30", "--p", "0.5", "--R", "150", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "sample"
    vals = np.array([float(v) for v in lines[2:]])
    assert vals.shape == (150,)
    assert np.all(np.isfinite(vals))


# ----------------------------------------------------------------- clt-test


def test_clt_test_passes_for_linear_normal_case(capsys):
    # additive kernel on normal rows: the statistic is exactly Gaussian,
    # so only KS sampling noise is left and the test must pass.
    code = run_main(
        [
            "clt-test", "--kernel", "additive", "--dist", "normal",
            "--n", "30", "--p", "1", "--R", "1200",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert ",pass," in out


def test_clt_test_fails_for_degenerate_case(capsys):
    # undiluted product kernel: the limit is a shifted square, not normal
    code = run_main(
        [
            "clt-test", "--kernel", "product", "--dist", "normal",
            "--n", "100", "--p", "1", "--R", "400",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert ",fail," in out


# ------------------------------------------------------------ counterexample


def test_counterexample_small_n_exits_1(capsys):
    # a gate tighter than the sample's distance to the exact n=100 law
    # (about 0.03 for R=400) fails; the command says so on stderr while
    # still emitting both reports
    code = run_main(
        ["counterexample", "--n", "100", "--R", "400", "--ks-threshold", "0.01"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "counterexample expectations not met" in captured.err
    assert "normal," in captured.out
    assert "chi1_shifted," in captured.out
    # far from normal even at this size
    ks_normal = float(captured.out.strip().splitlines()[2].split(",")[3])
    assert ks_normal > 0.15
    # the exact-law row carries the gate that failed
    exact = captured.out.strip().splitlines()[4].split(",")
    assert exact[0] == "square_law_n" and exact[5] == "fail"
    assert "ks_square_law_n=%.4f" % float(exact[3]) in captured.err


def test_counterexample_passes_against_the_exact_law(capsys):
    # the square-law gate compares with the exact finite-n law, not the
    # limit Z^2 - 1, so a correct sampler clears it at the default 0.05
    code = run_main(["counterexample", "--n", "100", "--R", "2000"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "chi1_shifted," in captured.out
    # the row the exit code reads says pass, whatever the limit row says
    exact = captured.out.strip().splitlines()[4].split(",")
    assert exact[0] == "square_law_n" and exact[5] == "pass"
    assert float(exact[3]) < 0.05


# --------------------------------------------------------------- conditions


CONDITIONS_C3 = [
    "conditions", "--kernel", "sign", "--dist", "rademacher",
    "--p", "0.5", "--n", "10,50", "--eps", "0.2",
    "--conditions", "C3", "--m", "128",
]
# sign kernel on fair signs has a constant diagonal, so the C3 integrand
# is deterministic: exactly 2.0 at n=10 and 0.0 at n=50 for eps=0.2.


def test_conditions_expect_match_exits_0(capsys):
    code = run_main(CONDITIONS_C3 + ["--expect", "C3=decreasing-toward-0"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "condition_id,n,eps,estimate,se,verdict"
    assert any(line.startswith("C3,10,0.2,2.0,0.0") for line in lines)
    assert any(line.startswith("C3,50,0.2,0.0,0.0") for line in lines)


def test_conditions_expect_mismatch_exits_1(capsys):
    code = run_main(CONDITIONS_C3 + ["--expect", "C3=stagnant"])
    captured = capsys.readouterr()
    assert code == 1
    assert "verdict mismatch for C3" in captured.err


def test_conditions_expect_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("expect.C3=stagnant\n")
    assert run_main(CONDITIONS_C3 + ["--config", str(cfg)]) == 1
    capsys.readouterr()
    # an explicit flag overrides the file entry for the same condition
    code = run_main(
        CONDITIONS_C3
        + ["--config", str(cfg), "--expect", "C3=decreasing-toward-0"]
    )
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize(
    "extra",
    [
        ["--conditions", "C1", "--expect", "C2=decreasing-toward-0"],
        ["--expect", "C9=stagnant"],
    ],
)
def test_conditions_expect_on_unswept_condition_exits_2_before_any_cell(
    extra, monkeypatch, capsys
):
    # C2 is not among the swept C1; C9 is no condition, so never swept
    cells = []
    monkeypatch.setattr(d.harness, "sweep_condition", lambda cid, *a, **kw: cells.append(cid))
    code = run_main(
        ["conditions", "--n", "50,100", "--a", "0.3", "--dist", "table:-1=5/6,5=1/6"] + extra
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert cells == []
    assert "unswept conditions: %s" % extra[-1].split("=")[0] in captured.err


def test_conditions_too_small_m_exits_2_before_any_cell(monkeypatch, capsys):
    # ETA2 accepts m=50 but C1 needs m >= 100; the default condition set
    # (C1-C4) is checked the same way
    cells = []
    monkeypatch.setattr(d.harness, "sweep_condition", lambda cid, *a, **kw: cells.append(cid))
    law = ["--kernel", "sign", "--dist", "table:-1=5/6,5=1/6", "--a", "0.3", "--n", "50,100"]
    for subset in (["--conditions", "ETA2,C1"], []):
        code = run_main(["conditions"] + law + subset + ["--m", "50"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert cells == []
        assert "C1 needs m >= 100" in captured.err


def test_moments_mc_too_small_m_names_moments_mc(capsys):
    code = run_main(["moments", "--method", "mc", "--m", "50"])
    captured = capsys.readouterr()
    assert code == 2
    assert "moments_mc needs m >= 100" in captured.err
    assert "C1" not in captured.err


def test_moments_mc_zero_m_is_not_the_default(capsys):
    # --m 0 is an explicit, too small m, not a request for the default
    code = run_main(["moments", "--method", "mc", "--m", "0", "--n", "50", "--p", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "moments_mc needs m >= 100" in captured.err


def test_conditions_warn_once_per_slow_grid_point(capsys):
    # n*p = 1.35 at n=20 under a=0.9: the config warns, the sweeps do not
    argv = ["conditions", "--a", "0.9", "--n", "20", "--conditions", "C1,C2", "--m", "100"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    capsys.readouterr()
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1 and "slow regime" in messages[0], messages
    # a sweep called on its own still warns
    law = d.table([-1, 5], [5.0 / 6.0, 1.0 / 6.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d.sweep_condition(
            "C1", d.sign_kernel(law), law, d.SeedPolicy(6), n_grid=(20,), eps_grid=(0.75,),
            a=0.9, m=100,
        )
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1 and "slow regime" in messages[0], messages


def test_conditions_empty_eps_grid_exits_2_before_any_cell(monkeypatch, capsys):
    # C4 needs no eps grid but C1 does; the config rejects the pair before C4 runs
    cells = []
    monkeypatch.setattr(d.harness, "sweep_condition", lambda cid, *a, **kw: cells.append(cid))
    code = run_main(
        [
            "conditions", "--conditions", "C4,C1", "--eps", "", "--n", "50,100",
            "--a", "0.3", "--dist", "table:-1=5/6,5=1/6",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert cells == []
    assert "C1 needs a nonempty eps grid" in captured.err


@pytest.mark.parametrize("command", [["moments"], ["simulate", "--R", "50"]])
def test_single_point_commands_warn_once_for_a_slow_point(command, capsys):
    # n*p = 1.35 at n=20 under a=0.9; p_at is silent after the config warned
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(command + ["--a", "0.9", "--n", "20"]) == 0
    capsys.readouterr()
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1 and "slow regime" in messages[0], messages


# ------------------------------------------------------------------- oracle


def test_oracle_json_payload(capsys):
    code = run_main(
        ["oracle", "--kernel", "sign", "--dist", "rademacher", "--n", "4", "--p", "0.5"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert float(payload["e_h2"]) == 1.0
    assert float(payload["e_g2"]) == 0.0
    assert float(payload["e_htilde2"]) == 1.0
    assert float(payload["moment_set"]["theta2"]) == 0.25
    products = payload["products"]
    assert float(products["Phi(0,1) Phi(0,1)"]) == 0.5  # p * E[h^2]
    assert "PhiTilde(0,1) PhiTilde(0,1)" in products


def test_oracle_too_large_exits_3(capsys):
    code = run_main(
        ["oracle", "--kernel", "sign", "--dist", "rademacher", "--n", "12", "--p", "0.5"]
    )
    assert code == 3
    assert "resource budget" in capsys.readouterr().err


# -------------------------------------------------------------- exit code 2


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--kernel", "wavelet", "--dist", "normal", "--n", "8", "--p", "1"],
        ["moments", "--kernel", "sign", "--dist", "triangle", "--n", "8", "--p", "1"],
        ["simulate", "--n", "10", "--p", "0.05", "--R", "50"],  # n*p < 1
        CONDITIONS_C3 + ["--expect", "C3"],  # missing =verdict
        ["conditions", "--eps", "-1", "--n", "50,100", "--a", "0.3"],
        ["clt-test", "--ks-threshold", "nan", "--n", "50", "--p", "1", "--R", "20"],
        ["clt-test", "--threads", "0", "--n", "50", "--p", "1", "--R", "20"],
        ["clt-test", "--seed", "-1", "--n", "50", "--p", "0.5", "--R", "10"],
        ["moments", "--method", "mc", "--seed", "-1", "--n", "50", "--p", "0.5"],
    ],
)
def test_configuration_errors_exit_2(argv, capsys):
    code = run_main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "configuration error" in captured.err


@pytest.mark.parametrize(
    "dist",
    [
        "table:LAWFILE", "table:a=1/2,1=1/2", "uniform:x,1", "table:-1=1/2,1=0.5x",
        "uniform:1e400,1",
    ],
)
def test_malformed_dist_text_exits_2(dist, tmp_path, capsys):
    law = tmp_path / "law.txt"
    law.write_text("abc 0.5\n")
    dist = dist.replace("LAWFILE", str(law))
    code = run_main(["moments", "--n", "10", "--p", "0.5", "--dist", dist])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("configuration error: ")


@pytest.mark.parametrize(
    "argv", [["clt-test", "--n", "-5", "--a", "0.3"], ["clt-test", "--n", "1", "--p", "1"]]
)
def test_n_below_2_exits_2_without_a_slow_regime_warning(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert "needs n >= 2" in capsys.readouterr().err
    assert [str(w.message) for w in caught] == []


# ------------------------------------------------------------------- flags

_SUBCOMMAND_OPTIONS = {
    "simulate": "--kernel --dist --n --p --a --R --seed --threads --out --format "
    "--standardization",
    "moments": "--kernel --dist --n --p --a --seed --out --format --method --m",
    "conditions": "--kernel --dist --n --p --a --seed --out --format --conditions "
    "--eps --m --expect",
    "clt-test": "--kernel --dist --n --p --a --R --seed --threads --out --format "
    "--standardization --ks-threshold",
    "counterexample": "--n --R --seed --threads --out --format --ks-threshold",
    "oracle": "--kernel --dist --n --p --a --out",
}


def _subcommand_options(command):
    from diluteu.cli import _parser

    (subs,) = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {opt for a in subs.choices[command]._actions for opt in a.option_strings}


def _expected_options(flags):
    # every subcommand also takes -h/--help and --config
    return {"-h", "--help", "--config"} | set(flags.split())


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_OPTIONS))
def test_each_subcommand_takes_only_the_flags_it_reads(command):
    assert _subcommand_options(command) == _expected_options(_SUBCOMMAND_OPTIONS[command])


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_command_line_section_matches_the_parser():
    from diluteu.cli import _parser

    with open(README, encoding="utf8") as fh:
        section = fh.read().split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [
        line for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("diluteu ")
    ]
    assert len(commands) == 6
    for line in commands:
        _parser().parse_args(shlex.split(line)[1:])  # SystemExit on a bad flag
    table = dict(re.findall(r"^\| `([\w-]+)` \| `([^`]*)`", section, flags=re.M))
    assert sorted(table) == sorted(_SUBCOMMAND_OPTIONS)
    for command, flags in table.items():
        assert _subcommand_options(command) == _expected_options(flags), command


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--R", "10"],
        ["moments", "--threads", "2"],
        ["conditions", "--R", "10"],
        ["conditions", "--threads", "2"],
        ["counterexample", "--kernel", "sign"],
        ["counterexample", "--dist", "rademacher"],
        ["counterexample", "--p", "0.5"],
        ["counterexample", "--a", "0.3"],
        ["oracle", "--R", "10"],
        ["oracle", "--threads", "2"],
        ["oracle", "--seed", "3"],
        ["oracle", "--format", "csv"],
    ],
)
def test_a_flag_the_subcommand_would_ignore_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % " ".join(argv[1:]) in capsys.readouterr().err


# -------------------------------------------------------------- entry point


def test_module_entry_point():
    # the child process imports the same package as this test, installed or not
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(d.__file__)))
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "diluteu", "moments",
            "--kernel", "product", "--dist", "normal", "--n", "6", "--p", "1",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "theta2" in proc.stdout
    row = proc.stdout.strip().splitlines()[2].split(",")
    assert float(row[4]) == 0.5
