"""Command-line front door: run job files, diff reports, manage the cache.

Exit codes: 0 success, 1 hard error, 2 validation error.  Axiom failures in
a TFT report are data, not errors, and exit 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .cache import Cache, null_cache
from .errors import LGError, ValidationError
from .jobs import (
    _constant, diff_reports, load_job, read_json_object, report_to_text, run_job,
)

EXIT_OK = 0
EXIT_HARD = 1
EXIT_VALIDATION = 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and kept for the process.

    Parsing does not change it: each call fills a fresh namespace, and the
    append action of --normalization copies its default list before adding.
    """
    parser = argparse.ArgumentParser(
        prog="lgtft",
        description=(
            "Exact TFT data for polynomial Landau-Ginzburg pairs: Jacobi "
            "algebras, Koszul cohomology, matrix factorizations, and the "
            "open-closed axiom suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a job file and emit a report")
    run.add_argument("jobfile", help="path to a JSON job file")
    run.add_argument(
        "--degree-bound", type=int, default=None, metavar="N",
        help="override the internal degree bound for cohomology windows",
    )
    run.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk cache"
    )
    run.add_argument(
        "--normalization", action="append", default=[], metavar="NAME=VALUE",
        help="override a normalization constant, e.g. c_d=1/2 or bulk_scale=2",
    )
    run.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report here instead of the job's output/stdout",
    )
    run.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: $LGTFT_CACHE_DIR or ./.lgtft-cache)",
    )

    diff = sub.add_parser("diff", help="field-level diff of two reports")
    diff.add_argument("left")
    diff.add_argument("right")

    clean = sub.add_parser("clean-cache", help="remove all cache entries")
    clean.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: $LGTFT_CACHE_DIR or ./.lgtft-cache)",
    )
    return parser


def _apply_overrides(spec, args):
    if args.degree_bound is not None:
        if args.degree_bound < 0:
            raise ValidationError("--degree-bound must be non-negative")
        spec.degree_bound = args.degree_bound
        spec.koszul_bound = args.degree_bound
    for item in args.normalization:
        name, _, value = item.partition("=")
        if not value:
            raise ValidationError(
                f"--normalization needs NAME=VALUE, got {item!r}"
            )
        if name not in ("c_d", "bulk_scale"):
            raise ValidationError(f"unknown normalization constant {name!r}")
        setattr(spec, name, _constant(name, value))


def _cmd_run(args) -> int:
    spec = load_job(args.jobfile)
    _apply_overrides(spec, args)
    cache = (
        null_cache()
        if args.no_cache
        else Cache(Path(args.cache_dir) if args.cache_dir else None)
    )
    report = run_job(spec, cache)
    text = report_to_text(report)
    target = args.output or spec.output
    if target:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {target}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_diff(args) -> int:
    left = read_json_object(args.left, "report")
    right = read_json_object(args.right, "report")
    outcome = diff_reports(left, right)
    if outcome["schema_mismatch"] is not None:
        print(json.dumps(outcome, sort_keys=True, indent=2))
        return EXIT_VALIDATION
    print(json.dumps(outcome["entries"], sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_clean(args) -> int:
    cache = Cache(Path(args.cache_dir) if args.cache_dir else None)
    removed = cache.clear()
    print(f"removed {removed} cache entries from {cache.directory}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "clean-cache":
            return _cmd_clean(args)
        raise AssertionError("unreachable")
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (LGError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HARD


if __name__ == "__main__":
    sys.exit(main())
