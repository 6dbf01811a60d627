"""Command-line frontend.

Subcommands: simulate, moments, conditions, clt-test, counterexample,
oracle. Options come from an optional key=value config file plus flag
overrides (flags win). Exit codes: 0 success or statistical pass, 1
statistical-test failure or verdict mismatch, 2 configuration error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

from .conditions import CONDITION_IDS
from .errors import ConfigurationError, ResourceBudgetError
from .harness import (
    ExperimentConfig,
    emit_report,
    ks_distance,
    replicate_standardized,
    run_clt_experiment,
    run_condition_sweep,
    run_counterexample,
    square_law_n_cdf,
)
from .kernels import kernel_by_name
from .moments import enumerate_exact, moments_closed_form, moments_mc
from .sampling import (
    DistributionSpec,
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
        return uniform(_fraction(parts[0]), _fraction(parts[1]))
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
            values.append(_fraction(v))
            probs.append(_fraction(q))
        return table(values, probs)
    raise ConfigurationError(
        "unknown distribution %r (rademacher, normal, uniform:a,b, "
        "table:PATH, table:v=p,...)" % text
    )


def load_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment; later keys win."""
    return dict(_read_rows(path, "config", 2, sep="=", convert=str))


def _int_list(text: str):
    return tuple(int(v) for v in text.split(",") if v.strip())


def _float_list(text: str):
    return tuple(_fraction(v) for v in text.split(",") if v.strip())


def _name_list(text: str):
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _fraction(text: str) -> float:
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigurationError("%r is not a number" % text) from None


def _flag_type(parse):
    """parse as an argparse type: a bad value's error is parse's own
    message after the flag, not 'invalid <function name> value'."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


# config-file key -> (dest of its flag, ExperimentConfig field, parser of
# the file's text). Flags arrive parsed and win over the file; dist, from
# either, goes through parse_dist last. A field that neither sets keeps
# ExperimentConfig's default. A subcommand reads only the keys whose flag
# it takes (expect.* with --expect); the others are skipped unparsed.
_CONFIG_KEYS = {
    "kernel": ("kernel", "kernel_name", str),
    "dist": ("dist", "dist", str),
    "n_grid": ("n", "n_grid", _int_list),
    "p": ("p", "p", _fraction),
    "a": ("a", "a", _fraction),
    "R": ("R", "R", int),
    "seed": ("seed", "master_seed", int),
    "standardization": ("standardization", "standardization", str),
    "eps_grid": ("eps", "eps_grid", _float_list),
    "conditions": ("conditions", "conditions", _name_list),
    "m": ("m", "m", int),
    "ks_threshold": ("ks_threshold", "ks_threshold", float),
    "threads": ("threads", "threads", int),
    "out": ("out", "out_path", str),
    "format": ("format", "out_format", str),
}


def _build_config(args) -> ExperimentConfig:
    fields, expected = {}, {}
    for key, text in (load_config_file(args.config) if args.config else {}).items():
        if key.startswith("expect."):
            if hasattr(args, "expect"):
                expected[key[len("expect."):]] = text
            continue
        if key not in _CONFIG_KEYS:
            raise ConfigurationError("unknown config key %r" % key)
        dest, name, parse = _CONFIG_KEYS[key]
        if not hasattr(args, dest):
            continue
        try:
            fields[name] = parse(text)
        except ValueError as exc:
            raise ConfigurationError("config key %s: %s" % (key, exc)) from None
    for dest, name, _ in _CONFIG_KEYS.values():
        if (value := getattr(args, dest, None)) is not None:
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


# flags that several subcommands take; each subcommand adds only the ones it reads
_SHARED_FLAGS = {
    "--config": dict(help="key=value config file"),
    "--kernel": dict(help="product | additive | sign | zero"),
    "--dist": dict(help="rademacher | normal | uniform:a,b | table:..."),
    "--n": dict(type=_flag_type(_int_list), help="n grid, comma-separated"),
    "--p": dict(type=_flag_type(_fraction), help="fixed dilution p"),
    "--a": dict(type=_flag_type(_fraction), help="dilution exponent: p = n^-a"),
    "--R": dict(type=int, help="replication count"),
    "--seed": dict(type=int, help="master seed"),
    "--threads": dict(
        type=int,
        help="replicate worker threads (default 1); pays only on large "
        "replicates, see README",
    ),
    "--out": dict(help="output file (default stdout)"),
    "--format": dict(choices=("csv", "json"), help="output format"),
    "--standardization": dict(choices=("exact", "mc", "asymptotic")),
    "--ks-threshold": dict(dest="ks_threshold", type=float),
}
_LAW = ("--kernel", "--dist", "--n", "--p", "--a")
_REPLICATES = ("--R", "--seed", "--threads")


def _add_flags(sub, *flags) -> None:
    for flag in ("--config",) + flags:
        sub.add_argument(flag, **_SHARED_FLAGS[flag])


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diluteu",
        description="diluted pair-statistic simulation and normal-limit diagnostics",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    s = subs.add_parser("simulate", help="emit standardized statistic samples")
    _add_flags(s, *_LAW, *_REPLICATES, "--out", "--format", "--standardization")

    s = subs.add_parser("moments", help="moment set for one (n, p) point")
    _add_flags(s, *_LAW, "--seed", "--out", "--format")
    s.add_argument("--method", choices=("closed", "mc"), default="closed")
    s.add_argument("--m", type=int, help="MC replicates for --method mc")

    s = subs.add_parser("conditions", help="sweep condition estimates over the grid")
    _add_flags(s, *_LAW, "--seed", "--out", "--format")
    s.add_argument(
        "--conditions", type=_name_list, help="subset of " + ",".join(CONDITION_IDS)
    )
    s.add_argument("--eps", type=_flag_type(_float_list), help="eps grid, comma-separated")
    s.add_argument("--m", type=int, help="replicates per grid cell")
    s.add_argument(
        "--expect",
        action="append",
        help="COND=verdict; exit 1 unless every verdict matches (repeatable)",
    )

    s = subs.add_parser("clt-test", help="KS test of standardized samples vs normal")
    _add_flags(
        s, *_LAW, *_REPLICATES, "--out", "--format", "--standardization", "--ks-threshold"
    )

    # the counterexample pins the product kernel, normal rows and p = 1
    s = subs.add_parser(
        "counterexample",
        help="undiluted product statistic vs normal and vs the shifted square law",
    )
    _add_flags(s, "--n", *_REPLICATES, "--out", "--format", "--ks-threshold")

    s = subs.add_parser("oracle", help="exhaustive enumeration of a tiny instance")
    _add_flags(s, *_LAW, "--out")
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
            samples = replicate_standardized(config)
            _emit(config, samples)
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
            n = vs_chi.n
            ks_exact = ks_distance(vs_chi.samples, lambda t: square_law_n_cdf(t, n))
            vs_exact = replace(
                vs_chi,
                target="square_law_n",
                ks_statistic=ks_exact,
                note="exact finite-n law of n*U: Z^2 - chi2(n-1)/(n-1)",
            )
            _emit(config, [vs_normal, vs_chi, vs_exact])
            ok = vs_normal.ks_statistic > 0.15 and vs_exact.decision == "pass"
            if not ok:
                sys.stderr.write(
                    "counterexample expectations not met: ks_normal=%.4f "
                    "(want > 0.15), ks_square_law_n=%.4f (want < %.3g)\n"
                    % (vs_normal.ks_statistic, ks_exact, config.ks_threshold)
                )
            return 0 if ok else 1
        if args.command == "oracle":
            n = config.n_grid[-1]
            p = config.p_at(n)
            kernel = kernel_by_name(config.kernel_name, config.dist)
            res = enumerate_exact(kernel, config.dist, n, p)
            payload = {
                "moment_set": json.loads(res.moment_set.to_json()),
                "e_h2": repr(res.e_h2),
                "e_g2": repr(res.e_g2),
                "e_htilde2": repr(res.e_htilde2),
                "products": {
                    " ".join("%s(%d,%d)" % f for f in key): repr(v)
                    for key, v in sorted(res.products.items())
                },
            }
            text = json.dumps(payload, sort_keys=True, indent=1)
            if config.out_path:
                with open(config.out_path, "w", encoding="utf8") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text + "\n")
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
