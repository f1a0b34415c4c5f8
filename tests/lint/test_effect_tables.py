"""RPL001/RPL002 flag exactly the effect tables ``repro analyze`` uses.

Every ``WALL_CLOCK`` and ``UNSEEDED_RNG`` table entry, called under its
module spelling (``import time``; ``time.perf_counter()``) and under a
from-import spelling (``from time import perf_counter``;
``perf_counter()``), must be a finding on the call's line: the per-file
rules and the whole-program analyzer cannot drift apart.
"""

import pytest

from repro.analysis.effects import _CLOCK_CALLS, _UNSEEDED_CALLS
from repro.lint import run_lint

CASES = [("RPL002", entry) for entry in sorted(_CLOCK_CALLS)] + [
    ("RPL001", entry) for entry in sorted(_UNSEEDED_CALLS)
]


def scratch_source(entry: str, spelling: str) -> str:
    """Two lines; the table entry is called on line 2."""
    if spelling == "module":
        return f"import {entry.split('.')[0]}\n{entry}()\n"
    module, _, name = entry.rpartition(".")
    return f"from {module} import {name}\n{name}()\n"


@pytest.mark.parametrize("spelling", ["module", "from-import"])
@pytest.mark.parametrize("code, entry", CASES)
def test_table_entry_is_flagged(tmp_path, code, entry, spelling) -> None:
    path = tmp_path / "scratch.py"
    path.write_text(scratch_source(entry, spelling))
    report = run_lint([str(path)], select=[code])
    assert 2 in [f.line for f in report.findings], report.render_text()
