"""The shared ``repro lint`` / ``repro analyze`` front end, and ``repro analyze``.

Both subcommands take ``--format {text,json,sarif}``, ``--select``
(validated against the layer's catalog by its runner) and a catalog
listing flag, and map the one :class:`~repro.analysis.report.Report`
to an exit code the same way.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Callable, List, Optional

from .baseline import DEFAULT_BASELINE_PATH, update_baseline
from .report import Catalog, Report
from .runner import CHECKS, run_analysis

__all__ = [
    "add_analyze_arguments",
    "add_report_arguments",
    "cmd_analyze",
    "run_report_command",
]

DEFAULT_ROOT = "src/repro"


def add_report_arguments(
    parser: argparse.ArgumentParser, *, list_flag: str, noun: str
) -> None:
    """The flags both layers share."""
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (json is the CI-artifact form, sarif the "
        "code-scanning form)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help=f"comma-separated {noun} codes to run (default: all)",
    )
    parser.add_argument(
        list_flag,
        dest="list_catalog",
        action="store_true",
        help=f"print the {noun} catalog and exit",
    )


def parse_select(text: Optional[str]) -> Optional[List[str]]:
    if not text:
        return None
    return [code.strip() for code in text.split(",") if code.strip()]


def run_report_command(
    args: argparse.Namespace,
    catalog: Catalog,
    run: Callable[[Optional[List[str]]], Report],
) -> int:
    """Print the catalog, or run with ``--select`` and print the report.

    Exit codes: 0 clean, 1 findings that fail the run or parse errors.
    """
    if args.list_catalog:
        for code, (name, text) in sorted(catalog.items()):
            print(f"{code} {name}\n    {text}")
        return 0
    report = run(parse_select(args.select))
    print(report.render(args.format))
    return 0 if report.ok else 1


def add_analyze_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "root",
        nargs="?",
        default=DEFAULT_ROOT,
        help="package directory to analyze (default: src/repro)",
    )
    add_report_arguments(parser, list_flag="--list-checks", noun="check")
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE_PATH,
        help=(
            "ratchet file of accepted finding fingerprints "
            f"(default: {DEFAULT_BASELINE_PATH}; pass an empty string "
            "to disable)"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the baseline file; it can only shrink (stale "
            "entries drop out, new findings are never added)"
        ),
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    """Entry point wired into :func:`repro.cli.main`.

    Exit codes: 0 clean (or every error baselined), 1 new errors or
    parse errors, 2 ``--update-baseline`` without a baseline.  RPA004
    warnings never affect the exit code.
    """
    baseline_path = Path(args.baseline) if args.baseline else None

    def run(select: Optional[List[str]]) -> Report:
        return run_analysis(
            args.root, select=select, baseline_path=baseline_path
        )

    if args.update_baseline and not args.list_catalog:
        if baseline_path is None:
            print("--update-baseline requires --baseline")
            return 2
        report = run(parse_select(args.select))
        kept = update_baseline(
            baseline_path, report.findings + report.baselined
        )
        print(f"baseline {baseline_path}: {len(kept)} fingerprint(s) kept")
        return 0
    return run_report_command(args, CHECKS, run)
