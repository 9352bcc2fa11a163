"""Command-line entry point.

Modes: sample-eigs | analytic-cdf | exact-sample | verify | series-check.
Parameters come from an optional JSON config file (--config) with flag
overrides winning; HAARPROD_OUT sets the default output directory.
Bad input (a ConfigError, an --out that cannot be written, sizes no
allocation can hold) exits 2 and a spectra.NumericalError exits 1, each
with one line on stderr; any other exception is a program bug and keeps
its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
from pathlib import Path

from .config import AspectConfig, ConfigError
from .pipeline import (
    run_analytic_cdf,
    run_exact_sample,
    run_sample_eigs,
    run_series_check,
    write_verify,
    written_paths,
)
from .spectra import NumericalError

# JSON config keys and flag dests: the AspectConfig fields, which check their own types
CONFIG_KEYS = [field.name for field in dataclasses.fields(AspectConfig)]

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
    parser.add_argument("mode", choices=DEFAULT_OUT_NAME)
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--n", type=int, help="ambient dimension")
    parser.add_argument("--dims", type=str, help="comma-separated block sizes n1..nk+1")
    parser.add_argument("--trials", type=int, help="number of independent trials")
    parser.add_argument("--seed", type=int, dest="master_seed", help="master seed")
    parser.add_argument("--delta", type=float, help="KS confidence parameter")
    parser.add_argument("--grid", type=int, dest="grid_points",
                        help="grid points for analytic-cdf")
    parser.add_argument("--out", type=Path, help="output file path")
    return parser


def _read_config_file(path) -> dict:
    """Keys of a JSON config file, each one of CONFIG_KEYS."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers malformed JSON
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return raw


def load_config(args) -> AspectConfig:
    fields = _read_config_file(args.config) if args.config is not None else {}
    for key in CONFIG_KEYS:  # flags win over the file
        value = getattr(args, key)
        if value is not None:
            fields[key] = _parse_dims(value) if key == "dims" else value
    if "n" not in fields:
        raise ConfigError("n is required (flag --n or config file)")
    if "dims" not in fields:
        raise ConfigError("dims is required (flag --dims or config file)")
    return AspectConfig(**fields)


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
        for path in written_paths(out, args.mode == "verify"):
            if os.path.isdir(path):  # fail before the first trial, not after the last
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
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
    except MemoryError as exc:  # sizes the record admits but no allocation can hold
        print(f"haarprod: config error: sizes too large for this machine: {exc}",
              file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"haarprod: numerical failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
