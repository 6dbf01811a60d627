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
        return uniform(float(Fraction(parts[0])), float(Fraction(parts[1])))
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
            values.append(float(Fraction(v)))
            probs.append(float(Fraction(q)))
        return table(values, probs)
    raise ConfigurationError(
        "unknown distribution %r (rademacher, normal, uniform:a,b, "
        "table:PATH, table:v=p,...)" % text
    )


def load_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment; later keys win."""
    out = {}
    with open(path, "r", encoding="utf8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    "config line %r is not key=value" % raw.strip()
                )
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _int_list(text: str):
    return tuple(int(v) for v in text.split(",") if v.strip())


def _float_list(text: str):
    return tuple(float(Fraction(v)) for v in text.split(",") if v.strip())


def _fraction(text: str) -> float:
    return float(Fraction(text))


# config-file key -> (dest of its flag, ExperimentConfig field, parser of
# the file's text). Flags arrive parsed and win over the file; dist, from
# either, goes through parse_dist last. A field that neither sets keeps
# ExperimentConfig's default.
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
    "conditions": (
        "conditions",
        "conditions",
        lambda s: tuple(v.strip() for v in s.split(",") if v.strip()),
    ),
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
            expected[key[len("expect."):]] = text
            continue
        if key not in _CONFIG_KEYS:
            raise ConfigurationError("unknown config key %r" % key)
        _, name, parse = _CONFIG_KEYS[key]
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


def _add_common(sub, with_grid=True):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--kernel", help="product | additive | sign | zero")
    sub.add_argument("--dist", help="rademacher | normal | uniform:a,b | table:...")
    if with_grid:
        sub.add_argument("--n", type=_int_list, help="n grid, comma-separated")
    sub.add_argument("--p", type=_fraction, help="fixed dilution p")
    sub.add_argument("--a", type=_fraction, help="dilution exponent: p = n^-a")
    sub.add_argument("--R", type=int, help="replication count")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--threads", type=int, help="worker threads (default 1)")
    sub.add_argument("--out", help="output file (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), help="output format")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diluteu",
        description="diluted pair-statistic simulation and normal-limit diagnostics",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    s = subs.add_parser("simulate", help="emit standardized statistic samples")
    _add_common(s)
    s.add_argument("--standardization", choices=("exact", "mc", "asymptotic"))

    s = subs.add_parser("moments", help="moment set for one (n, p) point")
    _add_common(s)
    s.add_argument("--method", choices=("closed", "mc"), default="closed")
    s.add_argument("--m", type=int, help="MC replicates for --method mc")

    s = subs.add_parser("conditions", help="sweep condition estimates over the grid")
    _add_common(s)
    s.add_argument("--conditions", type=lambda t: tuple(v.strip() for v in t.split(",")),
                   help="subset of " + ",".join(CONDITION_IDS))
    s.add_argument("--eps", type=_float_list, help="eps grid, comma-separated")
    s.add_argument("--m", type=int, help="replicates per grid cell")
    s.add_argument(
        "--expect",
        action="append",
        help="COND=verdict; exit 1 unless every verdict matches (repeatable)",
    )

    s = subs.add_parser("clt-test", help="KS test of standardized samples vs normal")
    _add_common(s)
    s.add_argument("--standardization", choices=("exact", "mc", "asymptotic"))
    s.add_argument("--ks-threshold", dest="ks_threshold", type=float)

    s = subs.add_parser(
        "counterexample",
        help="undiluted product statistic vs normal and vs the shifted square law",
    )
    _add_common(s)
    s.add_argument("--ks-threshold", dest="ks_threshold", type=float)

    s = subs.add_parser("oracle", help="exhaustive enumeration of a tiny instance")
    _add_common(s)
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
                decision="pass" if ks_exact < config.ks_threshold else "fail",
                note="exact finite-n law of n*U: Z^2 - chi2(n-1)/(n-1)",
            )
            _emit(config, [vs_normal, vs_chi, vs_exact])
            ok = vs_normal.ks_statistic > 0.15 and ks_exact < config.ks_threshold
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
