"""Fixed references for the differential tests.

A differential test pins a rewrite against the code it replaced by
exec'ing that code straight out of git history, so the reference cannot
drift along with the code under test.  Every revision a test reads is
listed in :data:`FROZEN_REVS`; CI checks that each one is present, so a
rewritten history fails the build instead of skipping the differentials.
The inputs many of them run on are the E29 bench logs
(:func:`e29_workloads`).
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Every revision a differential test execs code from.
FROZEN_REVS = (
    "90f9fda",  # pre-v3 lexer: master-regex fingerprint path
    "ff621b5",  # v3 scanner: compiled-alternation scan loop
    "af4d27c",  # literal substitution and Node.walk before the spine plan
    "484718b",  # raw scan opening with a lookbehind, walking finditer
    "df9df8f",  # three-tier parse cache
    "c546b36",  # hand-packed shard codec
    "73fc238",  # post-parse consumers reading the AST and bound predicate
)


def frozen_source(rev: str, path: str, why: str) -> str:
    """The text of ``path`` at ``rev``; skips the calling test when the
    checkout has no such history (a shallow clone).  ``why`` says what
    still pins the live code in that case."""
    if rev not in FROZEN_REVS:
        raise ValueError(f"{rev} is not listed in FROZEN_REVS")
    try:
        return subprocess.run(
            ["git", "show", f"{rev}:{path}"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        pytest.skip(f"git history for {rev} unavailable (shallow clone?); {why}")


def e29_workloads():
    """``e29_ledger/workloads.py``, the one definition of the bench inputs."""
    module = sys.modules.get("e29_workloads")
    if module is None:
        path = REPO_ROOT / "e29_ledger" / "workloads.py"
        if not path.exists():
            pytest.skip("e29_ledger/workloads.py not in this checkout")
        spec = importlib.util.spec_from_file_location("e29_workloads", path)
        module = importlib.util.module_from_spec(spec)
        # Registered before it runs: its dataclasses look their module up.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return module
