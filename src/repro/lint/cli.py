"""The ``repro lint`` subcommand (flags and exit codes shared with
``repro analyze``, see :mod:`repro.analysis.cli`)."""

from __future__ import annotations

import argparse

from ..analysis.cli import add_report_arguments, run_report_command
from .registry import rule_catalog
from .runner import run_lint

__all__ = ["add_lint_arguments", "cmd_lint"]

DEFAULT_PATHS = ("src/repro",)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories to lint (default: src/repro)",
    )
    add_report_arguments(parser, list_flag="--list-rules", noun="rule")


def cmd_lint(args: argparse.Namespace) -> int:
    """Entry point wired into :func:`repro.cli.main`.

    Exit codes: 0 clean, 1 findings or parse errors.
    """
    return run_report_command(
        args, rule_catalog(), lambda select: run_lint(args.paths, select=select)
    )
