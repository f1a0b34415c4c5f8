"""Product code must not pay for the static analyzers at import time.

The engine and the utility measures import only the runtime-no-op
markers from :mod:`repro.analysis.annotations`; the lint rules, the
call graph and the effect tables stay unloaded (the package exports
lazily, PEP 562).  Checked in a fresh interpreter so other tests'
imports cannot mask a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_PROBE = """
import json, sys
import repro.sim.engine, repro.utility.measures
print(json.dumps(sorted(
    name for name in sys.modules
    if name.startswith(("repro.lint", "repro.analysis."))
)))
"""


def test_product_imports_load_only_the_annotations() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(loaded) <= {"repro.analysis.annotations"}, loaded
