"""The package version has one value, wherever it is read from."""

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"


def test_pyproject_version_matches_package_version():
    # A regex, not tomllib: the suite also runs on Python 3.10.
    match = re.search(
        r'^\[project\].*?^version\s*=\s*"([^"]+)"',
        PYPROJECT.read_text(encoding="utf-8"),
        re.MULTILINE | re.DOTALL,
    )
    assert match is not None, "pyproject.toml has no [project] version"
    assert match.group(1) == repro.__version__
