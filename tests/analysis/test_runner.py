"""Report rendering, the baseline ratchet, and CLI exit codes."""

import argparse
import json
from pathlib import Path

import pytest

from repro.analysis.baseline import (
    load_baseline,
    split_by_baseline,
    update_baseline,
)
from repro.analysis.cli import add_analyze_arguments, cmd_analyze
from repro.analysis.findings import AnalysisFinding, PathStep
from repro.analysis.runner import CHECKS, run_analysis
from repro.cli import main
from repro.errors import ConfigurationError

FIXPKG = Path(__file__).parent / "fixtures" / "fixpkg"


def make_finding(message, path="pkg/mod.py", code="RPA001"):
    return AnalysisFinding(
        path=path,
        line=3,
        col=0,
        code=code,
        message=message,
        hint="",
        trace=(
            PathStep(path=path, line=3, symbol="pkg.mod.f", note="calls g"),
            PathStep(path=path, line=9, symbol="pkg.mod.g", note="leaf"),
        ),
    )


# ----------------------------------------------------------------------
# baseline ratchet
# ----------------------------------------------------------------------
def test_first_adoption_writes_current_findings(tmp_path):
    path = tmp_path / "baseline.json"
    finding = make_finding("clock reaches surface f")
    kept = update_baseline(path, [finding])
    assert kept == {finding.fingerprint()}
    assert load_baseline(path) == kept


def test_baseline_only_shrinks(tmp_path):
    path = tmp_path / "baseline.json"
    old = make_finding("old finding, since fixed")
    still = make_finding("still present")
    update_baseline(path, [old, still])
    # Next run: `old` fixed, a brand-new finding appeared.  The ratchet
    # drops the fixed entry and refuses to admit the new one.
    new = make_finding("new finding, must fail CI")
    kept = update_baseline(path, [still, new])
    assert kept == {still.fingerprint()}


def test_split_by_baseline_partitions(tmp_path):
    known = make_finding("known")
    fresh = make_finding("fresh")
    new, baselined = split_by_baseline(
        [known, fresh], frozenset({known.fingerprint()})
    )
    assert new == [fresh]
    assert baselined == [known]


def test_fingerprint_is_line_free():
    a = make_finding("same message")
    b = AnalysisFinding(
        path=a.path, line=99, col=7, code=a.code, message=a.message
    )
    assert a.fingerprint() == b.fingerprint()


def test_malformed_baseline_raises(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"fingerprints": "oops"}))
    with pytest.raises(ConfigurationError):
        load_baseline(path)


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fixpkg_report():
    return run_analysis(str(FIXPKG))


def test_render_json_shape(fixpkg_report):
    payload = json.loads(fixpkg_report.render_json())
    assert payload["tool"] == "repro-analyze"
    assert payload["n_modules"] == len(list(FIXPKG.glob("*.py")))
    assert isinstance(payload["findings"], list)


def test_render_sarif_shape(fixpkg_report):
    sarif = json.loads(fixpkg_report.render_sarif())
    assert sarif["version"] == "2.1.0"
    driver = sarif["runs"][0]["tool"]["driver"]
    assert driver["name"] == "repro-analyze"
    assert {rule["id"] for rule in driver["rules"]} == set(CHECKS)
    for result in sarif["runs"][0]["results"]:
        assert result["ruleId"] in CHECKS
        assert "reproAnalyze/v1" in result["partialFingerprints"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser()
    add_analyze_arguments(parser)
    return parser.parse_args(argv)


def test_cli_clean_run_exits_zero(capsys):
    # The fixture package has no surfaces, dist tree, or event
    # registry, so every checker comes back clean.
    code = cmd_analyze(parse_args([str(FIXPKG), "--baseline", ""]))
    assert code == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_list_checks(capsys):
    code = cmd_analyze(parse_args(["--list-checks"]))
    assert code == 0
    out = capsys.readouterr().out
    for check in CHECKS:
        assert check in out


def test_cli_unknown_select_code_fails(capsys):
    code = main(["analyze", str(FIXPKG), "--baseline", "", "--select", "RPA01"])
    assert code != 0
    assert "unknown check code(s) RPA01" in capsys.readouterr().err


def test_cli_update_baseline_requires_baseline_path(capsys):
    code = cmd_analyze(
        parse_args([str(FIXPKG), "--baseline", "", "--update-baseline"])
    )
    assert code == 2
