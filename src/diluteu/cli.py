"""Command-line frontend.

Subcommands: simulate, moments, conditions, clt-test, counterexample,
oracle. Options come from an optional key=value config file plus flag
overrides (flags win). Exit codes: 0 success or statistical pass, 1
statistical-test failure or verdict mismatch, 2 configuration error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .conditions import CONDITION_IDS
from .errors import ConfigurationError, ResourceBudgetError
from .harness import (
    _FORMATS,
    _STANDARDIZATIONS,
    ExperimentConfig,
    emit_report,
    run_clt_experiment,
    run_condition_sweep,
    run_counterexample,
    square_law_n_cdf,
)
from .kernels import kernel_by_name
from .moments import enumerate_exact, moments_closed_form, moments_mc
from .sampling import (
    DistributionSpec,
    _number,
    _read_rows,
    rademacher,
    standard_normal,
    table,
    table_from_file,
    uniform,
)

__all__ = ["main", "parse_dist", "load_config_file"]


def parse_dist(text: str) -> DistributionSpec:
    """rademacher | normal | uniform:a,b | table:PATH | table:v=frac,..."""
    text = text.strip()
    if text == "rademacher":
        return rademacher()
    if text in ("normal", "standard_normal"):
        return standard_normal()
    if text.startswith("uniform:"):
        parts = text[len("uniform:"):].split(",")
        if len(parts) != 2:
            raise ConfigurationError("uniform needs two endpoints, e.g. uniform:-1,1")
        return uniform(_number(parts[0]), _number(parts[1]))
    if text.startswith("table:"):
        payload = text[len("table:"):]
        if "=" not in payload:
            return table_from_file(payload)
        values, probs = [], []
        for item in payload.split(","):
            v, _, q = item.partition("=")
            if not q:
                raise ConfigurationError(
                    "inline table entries look like value=prob; got %r" % item
                )
            values.append(_number(v))
            probs.append(_number(q))
        return table(values, probs)
    raise ConfigurationError(
        "unknown distribution %r (rademacher, normal, uniform:a,b, "
        "table:PATH, table:v=p,...)" % text
    )


def load_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment; later keys win."""
    return dict(_read_rows(path, "config", 2, sep="=", convert=str))


def _list_of(parse):
    """A parser of comma-separated items; blank items are skipped."""
    return lambda text: tuple(parse(v) for v in text.split(",") if v.strip())


def _flag_type(parse):
    """parse as an argparse type: a bad value's error is parse's own
    message after the flag, not 'invalid <function name> value'."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


# config-file key -> (flag, ExperimentConfig field, parser of the text, the
# flag's other argparse options). Flags arrive parsed and win over the file;
# dist, from either, goes through parse_dist last. A field that neither sets
# keeps ExperimentConfig's default. A subcommand reads only the keys whose
# flag it takes (expect.* with --expect); the others are skipped unparsed.
_SETTINGS = {
    "kernel": ("--kernel", "kernel_name", str,
               dict(help="product | additive | sign | zero")),
    "dist": ("--dist", "dist", str,
             dict(help="rademacher | normal | uniform:a,b | table:...")),
    "n_grid": ("--n", "n_grid", _list_of(int), dict(help="n grid, comma-separated")),
    "p": ("--p", "p", _number, dict(help="fixed dilution p")),
    "a": ("--a", "a", _number, dict(help="dilution exponent: p = n^-a")),
    "R": ("--R", "R", int, dict(help="replication count")),
    "seed": ("--seed", "master_seed", int, dict(help="master seed")),
    "threads": ("--threads", "threads", int,
                dict(help="replicate worker threads (default 1); pays only on large "
                     "replicates, see README")),
    "out": ("--out", "out_path", str, dict(help="output file (default stdout)")),
    "format": ("--format", "out_format", str,
               dict(choices=_FORMATS, help="output format")),
    "standardization": ("--standardization", "standardization", str,
                        dict(choices=_STANDARDIZATIONS)),
    "ks_threshold": ("--ks-threshold", "ks_threshold", _number, {}),
    "conditions": ("--conditions", "conditions", _list_of(str.strip),
                   dict(help="subset of " + ",".join(CONDITION_IDS))),
    "eps_grid": ("--eps", "eps_grid", _list_of(_number),
                 dict(help="eps grid, comma-separated")),
    "m": ("--m", "m", int, dict(help="MC replicates for --method mc, or per grid cell")),
}
_LAW = ("kernel", "dist", "n_grid", "p", "a")
_REPLICATES = ("R", "seed", "threads")


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _build_config(args) -> ExperimentConfig:
    fields, expected = {}, {}
    for key, text in (load_config_file(args.config) if args.config else {}).items():
        if key.startswith("expect."):
            if hasattr(args, "expect"):
                expected[key[len("expect."):]] = text
            continue
        if key not in _SETTINGS:
            raise ConfigurationError("unknown config key %r" % key)
        flag, name, parse, _ = _SETTINGS[key]
        if not hasattr(args, _dest(flag)):
            continue
        try:
            fields[name] = parse(text)
        except ValueError as exc:
            raise ConfigurationError("config key %s: %s" % (key, exc)) from None
    for flag, name, _, _ in _SETTINGS.values():
        if (value := getattr(args, _dest(flag), None)) is not None:
            fields[name] = value
    for item in getattr(args, "expect", None) or ():
        cid, _, verdict = item.partition("=")
        if not verdict:
            raise ConfigurationError("--expect looks like COND=verdict")
        expected[cid] = verdict
    if "dist" in fields:
        fields["dist"] = parse_dist(fields["dist"])
    if "p" not in fields and "a" not in fields:
        fields["a"] = 0.0
    return ExperimentConfig(expected_verdicts=expected, **fields)


def _add_flags(sub, *keys) -> None:
    """Add the flags of these config keys; int keeps argparse's message."""
    for key in keys:
        flag, _, parse, options = _SETTINGS[key]
        if parse is not str:
            options = dict(options, type=parse if parse is int else _flag_type(parse))
        sub.add_argument(flag, **options)


def _subcommand(subs, name: str, summary: str, *keys):
    sub = subs.add_parser(name, help=summary)
    sub.add_argument("--config", help="key=value config file")
    _add_flags(sub, *keys)
    return sub


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diluteu",
        description="diluted pair-statistic simulation and normal-limit diagnostics",
    )
    subs = ap.add_subparsers(dest="command", required=True)
    _subcommand(subs, "simulate", "emit standardized statistic samples",
                *_LAW, *_REPLICATES, "out", "format", "standardization")

    s = _subcommand(subs, "moments", "moment set for one (n, p) point",
                    *_LAW, "seed", "out", "format")
    s.add_argument("--method", choices=("closed", "mc"), default="closed")
    _add_flags(s, "m")

    s = _subcommand(subs, "conditions", "sweep condition estimates over the grid",
                    *_LAW, "seed", "out", "format", "conditions", "eps_grid", "m")
    s.add_argument(
        "--expect",
        action="append",
        help="COND=verdict; exit 1 unless every verdict matches (repeatable)",
    )

    _subcommand(subs, "clt-test", "KS test of standardized samples vs normal",
                *_LAW, *_REPLICATES, "out", "format", "standardization", "ks_threshold")

    # the counterexample pins the product kernel, normal rows and p = 1
    _subcommand(subs, "counterexample",
                "undiluted product statistic vs normal and vs the shifted square law",
                "n_grid", *_REPLICATES, "out", "format", "ks_threshold")

    _subcommand(subs, "oracle", "exhaustive enumeration of a tiny instance", *_LAW, "out")
    return ap


def _emit(config: ExperimentConfig, results) -> None:
    text = emit_report(
        results,
        config.out_format,
        config.out_path,
        config_hash=config.config_hash(),
        seed=config.master_seed,
    )
    if config.out_path is None:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        config = _build_config(args)
        if args.command == "simulate":
            _emit(config, run_clt_experiment(config).samples)
            return 0
        if args.command == "moments":
            n = config.n_grid[-1]
            p = config.p_at(n)
            kernel = kernel_by_name(config.kernel_name, config.dist)
            if args.method == "mc":
                ms = moments_mc(
                    kernel, config.dist, n, p,
                    m=100_000 if config.m is None else config.m,
                    seed=config.policy().child("moments-cli", 0),
                )
            else:
                ms = moments_closed_form(kernel, config.dist, n, p)
            _emit(config, ms)
            return 0
        if args.command == "conditions":
            reports = run_condition_sweep(config)
            _emit(config, reports)
            bad = []
            for rep in reports:
                want = config.expected_verdicts.get(rep.condition_id)
                if want is not None and any(v != want for v in rep.verdicts):
                    bad.append((rep.condition_id, rep.verdicts))
            if bad:
                for cid, verdicts in bad:
                    sys.stderr.write(
                        "verdict mismatch for %s: got %s\n" % (cid, list(verdicts))
                    )
                return 1
            return 0
        if args.command == "clt-test":
            result = run_clt_experiment(config)
            _emit(config, [result])
            return 0 if result.decision == "pass" else 1
        if args.command == "counterexample":
            vs_normal, vs_chi = run_counterexample(config)
            # the square-law gate uses the exact finite-n law, reported in
            # its own row; the limit Z^2 - 1 is about 0.08 from it at n=500
            vs_exact = vs_chi.against(
                "square_law_n", lambda t: square_law_n_cdf(t, vs_chi.n),
                "exact finite-n law of n*U: Z^2 - chi2(n-1)/(n-1)",
            )
            _emit(config, [vs_normal, vs_chi, vs_exact])
            ok = vs_normal.ks_statistic > 0.15 and vs_exact.decision == "pass"
            if not ok:
                sys.stderr.write(
                    "counterexample expectations not met: ks_normal=%.4f "
                    "(want > 0.15), ks_square_law_n=%.4f (want < %.3g)\n"
                    % (vs_normal.ks_statistic, vs_exact.ks_statistic, config.ks_threshold)
                )
            return 0 if ok else 1
        if args.command == "oracle":
            n = config.n_grid[-1]
            p = config.p_at(n)
            kernel = kernel_by_name(config.kernel_name, config.dist)
            res = enumerate_exact(kernel, config.dist, n, p)
            # the oracle draws nothing, so its report names no seed
            text = emit_report(res, "json", config.out_path,
                               config_hash=config.config_hash(), seed=None)
            if config.out_path is None:
                sys.stdout.write(text)
            return 0
        raise ConfigurationError("unknown command %r" % args.command)
    except ResourceBudgetError as exc:
        sys.stderr.write("resource budget: %s\n" % exc)
        return 3
    except ConfigurationError as exc:
        sys.stderr.write("configuration error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
