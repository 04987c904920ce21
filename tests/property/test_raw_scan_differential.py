"""Differential tests: the charset-first raw scan vs its frozen original.

:func:`repro.skeleton.cache._raw_scan` is the raw-template tier's
per-record kernel and the columnar store's template codec.  Its pattern
was restated to open with the character class of a literal's first
character (so ``re`` can skip non-candidate offsets in C), and the scan
itself moved from ``finditer`` to a capturing ``split``, which it now
returns in place of the literal spans (a refusal is tried on
non-printable texts only, and a quote-free text takes a join).  All of
that is only safe if the function is *bit-for-bit* the old one: same raw
key, same spans (derived from the split by
:func:`~repro.skeleton.cache._raw_spans`), same constants, same refusal
of control bytes.

The reference is the scan of rev ``484718b``, exec'd straight out of
git history so it cannot drift along with the code under test.  It is
checked against the live scan

* on every text of the E29 bench inputs — the seed-2018-shaped
  SkyServer log and the long-tail log — for two seeds,
* on Hypothesis strings over the literal grammar's edge pieces, and
  over non-printable texts free of control bytes, and
* through the store: a log written with :func:`write_columnar` under
  the frozen scan and under the live one gives identical files.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Optional, Tuple

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.skeleton import cache
from repro.store import columnar, write_columnar
from tests.frozen import e29_workloads, frozen_source

#: The last commit whose ``_raw_scan`` opens its pattern with a
#: lookbehind and walks ``finditer``.
FROZEN_REV = "484718b"

_frozen_cache = {}


def frozen_raw_scan():
    """The frozen ``_raw_scan``, exec'd from git history with its
    pattern; the placeholder bytes and the control-byte refusal are the
    scanner's, unchanged since."""
    if "scan" not in _frozen_cache:
        source = frozen_source(
            FROZEN_REV,
            "src/repro/skeleton/cache.py",
            "the live raw scan is still pinned by test_template_cache.py",
        )
        start = source.index("_RAW_LITERAL = re.compile(")
        end = source.index("#: What the parse loop caches")
        namespace = {
            "re": re,
            "List": List,
            "Optional": Optional,
            "Tuple": Tuple,
            "_FP_NUMBER": cache._FP_NUMBER,
            "_FP_STRING": cache._FP_STRING,
            "_FP_UNSAFE": cache._FP_UNSAFE,
        }
        exec(compile(source[start:end], "frozen_raw_scan.py", "exec"), namespace)
        _frozen_cache["scan"] = namespace["_raw_scan"]
    return _frozen_cache["scan"]


def live_raw_scan(text: str):
    """The live scan as the frozen triple ``(raw key, spans, constants)``;
    its split must be the text itself, cut into parts."""
    raw = cache._raw_scan(text)
    if raw is None:
        return None
    key, parts, constants = raw
    assert "".join(parts) == text
    return (key, cache._raw_spans(parts), constants)


def frozen_as_split(text: str):
    """The frozen scan in the live shape ``(raw key, parts, constants)``,
    its parts cut out of the text at the frozen spans."""
    raw = frozen_raw_scan()(text)
    if raw is None:
        return None
    key, spans, constants = raw
    parts = []
    end = 0
    for start, stop in spans:
        parts.append(text[end:start])
        parts.append(text[start:stop])
        end = stop
    parts.append(text[end:])
    return (key, parts, constants)


def bench_texts(seed: int) -> List[str]:
    """Every statement text of the seed's seed-2018-shaped and long-tail
    logs at the E29 bench size."""
    workloads = e29_workloads()
    sky = workloads.build_log(
        workloads.WORKLOADS["seed2018-batch"],
        seed,
        workloads.WORKLOADS["seed2018-batch"].size("bench"),
    )
    tail = workloads.build_log(
        workloads.WORKLOADS["longtail-batch"],
        seed,
        workloads.WORKLOADS["longtail-batch"].size("bench"),
    )
    return [record.sql for record in sky] + [record.sql for record in tail]


@pytest.mark.parametrize("seed", [2018, 7])
def test_bench_texts_scan_as_before(seed):
    frozen = frozen_raw_scan()
    texts = bench_texts(seed)
    mismatches = [text for text in texts if live_raw_scan(text) != frozen(text)]
    assert mismatches == []
    assert len(texts) > 60_000


#: The literal grammar's edge pieces: quotes and escaped quotes, dots,
#: leading-dot and trailing-dot numbers, exponents with and without
#: digits, numbers glued to words and to ``#``/``$``, a newline (which
#: the lookbehind's ``.`` does not match) and control bytes.
PIECES = [
    "'", "''", ".", "..", ".5", "1.e5", "1e+", "a.5", "abc1", "1abc",
    "#1", "$1", "\n", "\x00", "\x03", "\x04", "\x1f",
    " ", "1", "e", "E7", "-", "x", "_", "é", "١",
]


@settings(max_examples=2000)
@given(st.lists(st.sampled_from(PIECES), max_size=16).map("".join))
@example("SELECT 1.e5, a.5, .5e3 FROM t WHERE b = 'it''s'")
@example("1")
@example(".5")
@example("'")
@example("x'a'''")
@example("\n1\n.5")
@example("a\x00 1")
def test_edge_strings_scan_as_before(text):
    assert live_raw_scan(text) == frozen_raw_scan()(text)


#: Characters that make a text non-printable without being a control
#: byte the scan refuses: the scan must search those texts and accept
#: them.  ``\t`` and ``\n`` also stop the lookbehind's ``.``.
NON_PRINTABLE = ["\t", "\n", "\x7f", "\x85", "\xa0", "\u2028"]
PRINTABLE_PIECES = [piece for piece in PIECES if piece.isprintable()]


@settings(max_examples=1000)
@given(
    st.lists(st.sampled_from(PRINTABLE_PIECES + NON_PRINTABLE), max_size=16),
    st.sampled_from(NON_PRINTABLE),
    st.integers(min_value=0, max_value=16),
)
@example(["1"], "\x85", 0)
@example(["x", "'a", "'"], "\u2028", 2)
@example(["SELECT a FROM t WHERE b = ", "1.e5"], "\xa0", 1)
def test_non_printable_texts_scan_as_before(pieces, odd, at):
    pieces.insert(at, odd)
    text = "".join(pieces)
    assert not text.isprintable()
    live = live_raw_scan(text)
    assert live is not None
    assert live == frozen_raw_scan()(text)


def _store_files(path: Path) -> dict:
    return {child.name: child.read_bytes() for child in sorted(path.iterdir())}


def test_stores_are_byte_identical(tmp_path, monkeypatch):
    workloads = e29_workloads()
    smoke = workloads.WORKLOADS["seed2018-batch"].size("smoke")
    log = workloads.build_log(workloads.WORKLOADS["seed2018-batch"], 2018, smoke)
    write_columnar(log, tmp_path / "live", chunk_records=2048)
    monkeypatch.setattr(columnar, "_raw_scan", frozen_as_split)
    write_columnar(log, tmp_path / "frozen", chunk_records=2048)
    live_files = _store_files(tmp_path / "live")
    frozen_files = _store_files(tmp_path / "frozen")
    assert {"manifest.json", "templates.bin", "chunk-00000.bin"} <= set(live_files)
    assert live_files == frozen_files
