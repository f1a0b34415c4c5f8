"""The shipped tree must satisfy its own static analysis.

This is the CI gate in miniature: ``repro lint src/repro`` clean, and
(when mypy is installed) ``mypy`` clean under the pyproject config.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_src_repro_is_lint_clean() -> None:
    report = run_lint([str(SRC)])
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"repro lint found violations at HEAD:\n{rendered}"
    # The three utility/ sentinel comparisons are documented suppressions.
    assert report.n_suppressed >= 3


def test_benchmarks_tree_is_lint_clean() -> None:
    report = run_lint([str(REPO_ROOT / "benchmarks")])
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"repro lint found violations at HEAD:\n{rendered}"


def test_examples_tree_is_lint_clean() -> None:
    report = run_lint([str(REPO_ROOT / "examples")])
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"repro lint found violations at HEAD:\n{rendered}"
    assert report.n_files > 0


def test_py_typed_marker_ships() -> None:
    assert (SRC / "py.typed").is_file()


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_clean() -> None:  # pragma: no cover - needs mypy
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
