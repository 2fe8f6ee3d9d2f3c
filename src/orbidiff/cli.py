"""Command line entry point: run suites, describe orbifolds, dump fields."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (DEFAULT_FOOTBALL3, at_least, finite_positive, load_config,
                     parse_config)
from .errors import ConfigInvalid, OrbidiffError
from .suites import describe, dump_fields, run_suite


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=False, default=None,
                        help="configuration file (defaults to the built-in "
                             "order-3 football)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbidiff",
        description="Verification suites for finite-quotient orbifold geometry")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run verification suites")
    _add_common(run)
    run.add_argument("--suite", action="append", default=None,
                     help="suite name; repeatable (default: all configured)")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--seed", type=int, default=None,
                     help="override the configured seed")
    run.add_argument("--tol-scale", type=float, default=1.0,
                     help="multiply every tolerance by this factor")
    run.add_argument("--grid", type=int, default=None,
                     help="override strata and verification grid resolutions")

    desc = sub.add_parser("describe", help="summarize the configured orbifold")
    _add_common(desc)

    dump = sub.add_parser("dump", help="write CSV field dumps")
    _add_common(dump)
    dump.add_argument("--which", required=True,
                      choices=["partition", "orbisection", "metric"])
    dump.add_argument("--grid", type=int, default=None)
    dump.add_argument("--out", default=None, help="output directory")
    return parser


def _load(path: str | None):
    if path is None:
        return parse_config(DEFAULT_FOOTBALL3, name_hint="football3")
    return load_config(path)


def _check_numbers(args: argparse.Namespace):
    """The config file's range rules, applied to the command line overrides."""
    if getattr(args, "seed", None) is not None:
        at_least(args.seed, 0, "--seed")
    if getattr(args, "grid", None) is not None:
        at_least(args.grid, 1, "--grid")
    if args.command == "run":
        finite_positive(args.tol_scale, "--tol-scale")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_numbers(args)
        config = _load(args.config)
        if args.command == "describe":
            sys.stdout.write(describe(config))
            return 0
        if args.command == "dump":
            fname, text = dump_fields(config, args.which, grid=args.grid)
            out_dir = Path(args.out or config.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            target = out_dir / fname
            target.write_text(text, encoding="utf-8")
            sys.stdout.write(f"wrote {target}\n")
            return 0
        suites = tuple(args.suite) if args.suite else None
        report = run_suite(config, suites=suites, seed=args.seed,
                           tol_scale=args.tol_scale, grid_override=args.grid)
        text = report.render()
        out_dir = Path(args.out or config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / f"report_{config.name}.txt"
        target.write_text(text, encoding="utf-8")
        for which in ("partition", "orbisection", "metric"):
            # the report's config carries the --grid resolutions, and its
            # atlas is the one the suites ran on
            fname, csv_text = dump_fields(report.config, which, seed=args.seed,
                                          atlas=report.atlas)
            (out_dir / fname).write_text(csv_text, encoding="utf-8")
        sys.stdout.write(text)
        sys.stdout.write(f"\nwrote {target} and CSV grid dumps\n")
        return 0 if report.passed else 1
    except ConfigInvalid as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except OrbidiffError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
