"""The ratcheting findings baseline for ``repro analyze``.

A baseline is a committed JSON file of finding *fingerprints* —
``code::path::message`` triples, deliberately line-number-free so
unrelated edits to a file do not churn entries.  Semantics:

* findings whose fingerprint is in the baseline are reported as
  *baselined* and do not fail the run;
* findings not in the baseline are *new* and fail CI;
* ``--update-baseline`` can only **shrink** the file: the new content
  is the intersection of the old baseline with the current findings,
  so fixed findings fall out and new ones can never be waved in by
  regenerating.  (The only way to add an entry is to create the file
  fresh — i.e. first adoption — or to write a justified inline
  suppression instead, which is the intended path.)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import FrozenSet, List, Optional, Sequence

from ..durable import atomic_write_text
from ..errors import ConfigurationError
from .findings import Finding

__all__ = [
    "DEFAULT_BASELINE_PATH",
    "load_baseline",
    "split_by_baseline",
    "update_baseline",
]

DEFAULT_BASELINE_PATH = "analysis-baseline.json"

_VERSION = 1


def load_baseline(path: Path) -> Optional[FrozenSet[str]]:
    """The baselined fingerprints, or None when no baseline exists."""
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ConfigurationError(
            f"unreadable analysis baseline {path}: {error}"
        ) from error
    fingerprints = payload.get("fingerprints")
    if not isinstance(fingerprints, list) or not all(
        isinstance(fp, str) for fp in fingerprints
    ):
        raise ConfigurationError(
            f"malformed analysis baseline {path}: 'fingerprints' must "
            "be a list of strings"
        )
    return frozenset(fingerprints)


def split_by_baseline(
    findings: Sequence[Finding],
    baseline: Optional[FrozenSet[str]],
) -> "tuple[List[Finding], List[Finding]]":
    """Partition into ``(new, baselined)``."""
    if not baseline:
        return list(findings), []
    new: List[Finding] = []
    known: List[Finding] = []
    for finding in findings:
        if finding.fingerprint() in baseline:
            known.append(finding)
        else:
            new.append(finding)
    return new, known


def update_baseline(
    path: Path, findings: Sequence[Finding]
) -> FrozenSet[str]:
    """Rewrite the baseline, ratcheting: it can only shrink.

    With no existing file, the current findings become the initial
    baseline.  With one, the new content is ``old ∩ current`` — stale
    entries drop out and nothing new gets in.  Returns the written set.
    """
    current = frozenset(finding.fingerprint() for finding in findings)
    existing = load_baseline(path)
    if existing is None:
        kept = current
    else:
        kept = existing & current
    payload = {
        "version": _VERSION,
        "tool": "repro-analyze",
        "fingerprints": sorted(kept),
    }
    # Committed file: pretty-printed so baseline diffs review cleanly.
    atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return kept
