"""Command-line entry point.

Subcommands: sample-eigs | analytic-cdf | exact-sample | verify |
series-check.  Parameters come from an optional JSON config file
(--config) with flag overrides winning; HAARPROD_OUT sets the default
output directory.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from .config import ConfigError
from .pipeline import (
    ExperimentConfig,
    run_analytic_cdf,
    run_exact_sample,
    run_sample_eigs,
    run_series_check,
    write_verify,
)
from .spectra import EigensolverError, RadiusOverflowError

# JSON config keys, which are the ExperimentConfig fields and the flags' dests,
# and the types their values may take; dims is a list of ints
CONFIG_TYPES = {"n": int, "dims": list, "trials": int, "master_seed": int,
                "delta": (int, float), "grid_points": int}

DEFAULT_OUT_NAME = {
    "sample-eigs": "eigs.csv",
    "analytic-cdf": "cdf.csv",
    "exact-sample": "exact_sample.csv",
    "verify": "verify_report.json",
    "series-check": "series_check.csv",
}


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"dims must be comma-separated integers, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a ConfigError (one line, exit 2) instead of usage."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="haarprod",
        description="Limit law and Monte-Carlo spectra of products of "
        "truncated Haar unitary matrices",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in DEFAULT_OUT_NAME:
        p = sub.add_parser(mode)
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--n", type=int, help="ambient dimension")
        p.add_argument("--dims", type=str, help="comma-separated block sizes n1..nk+1")
        p.add_argument("--trials", type=int, help="number of independent trials")
        p.add_argument("--seed", type=int, dest="master_seed", help="master seed")
        p.add_argument("--delta", type=float, help="KS confidence parameter")
        p.add_argument("--grid", type=int, dest="grid_points",
                       help="grid points for analytic-cdf")
        p.add_argument("--out", type=Path, help="output file path")
    return parser


def _has_type(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def _read_config_file(path) -> dict:
    """Keys of a JSON config file, each checked against CONFIG_TYPES."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers malformed JSON
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - set(CONFIG_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        if not _has_type(value, CONFIG_TYPES[key]) or (
            key == "dims" and not all(_has_type(d, int) for d in value)
        ):
            raise ConfigError(f"config key {key!r} has the wrong type: {value!r}")
    return raw


def load_config(args) -> ExperimentConfig:
    fields = _read_config_file(args.config) if args.config is not None else {}
    for key in CONFIG_TYPES:  # flags win over the file
        value = getattr(args, key)
        if value is not None:
            fields[key] = _parse_dims(value) if key == "dims" else value
    if "n" not in fields:
        raise ConfigError("n is required (flag --n or config file)")
    if "dims" not in fields:
        raise ConfigError("dims is required (flag --dims or config file)")
    return ExperimentConfig(**fields)


def resolve_out(args) -> Path:
    if args.out is not None:
        return args.out
    base = Path(os.environ.get("HAARPROD_OUT", "."))
    return base / DEFAULT_OUT_NAME[args.mode]


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args)
        out = resolve_out(args)
        out.parent.mkdir(parents=True, exist_ok=True)
        if out.is_dir():  # fail before the first trial, not after the last
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))
        if args.mode == "sample-eigs":
            run_sample_eigs(cfg, out)
        elif args.mode == "analytic-cdf":
            run_analytic_cdf(cfg, out)
        elif args.mode == "exact-sample":
            run_exact_sample(cfg, out)
        elif args.mode == "verify":
            write_verify(cfg, out)
        elif args.mode == "series-check":
            run_series_check(cfg, out)
    except ConfigError as exc:
        print(f"haarprod: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"haarprod: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (EigensolverError, RadiusOverflowError) as exc:
        print(f"haarprod: numerical failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
