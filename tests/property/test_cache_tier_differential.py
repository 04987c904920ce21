"""Differential tests: the two-memo parse cache vs its three-tier original.

:class:`repro.skeleton.cache.TemplateCache` used to probe three tiers in
``fetch`` — exact text, the raw-template memo, the fingerprint key — and
promoted fingerprint hits into the exact-text tier.  It now keeps two
disjoint memos: the raw memo serves every success it can verify, and a
text memo keeps failures and the prototypes of texts whose raw key is
missing or unsafe.  That is only safe if every record still gets the
same outcome.

The reference is the whole cache module of rev ``df9df8f``, exec'd out
of git history as a module of ``repro.skeleton`` so it cannot drift
along with the code under test.  Both caches are driven through the
pipeline's protocol — ``fetch``, then on a miss
:func:`~repro.pipeline.framework.parse_record` (``build``, or ``store``
of the failure) — over

* every text of the E29 bench inputs: the seed-2018 SkyServer log and
  the long-tail log, whose working set overflows the cache bound, and
* edge statements for the tiers the rewrite deleted: ``UNION``, a digit
  inside a comment, ``[a''b]``, ``- -5``, ``TOP -5`` and control bytes,

and every record's outcome must be equal: ``ParsedQuery ==`` for a
success, the same error type, message and reason for a failure.
"""

from __future__ import annotations

import types
from typing import List

import pytest

from repro.log import LogRecord
from repro.pipeline.framework import parse_record
from repro.skeleton.cache import TemplateCache
from tests.frozen import e29_workloads, frozen_source

#: The last commit whose cache probes the exact-text tier, the raw memo
#: and the fingerprint key in ``fetch``.
FROZEN_REV = "df9df8f"

_loaded = {}


def frozen_cache_class():
    """``TemplateCache`` of :data:`FROZEN_REV`, exec'd from git history."""
    if "cache" not in _loaded:
        source = frozen_source(
            FROZEN_REV,
            "src/repro/skeleton/cache.py",
            "the live cache is still pinned by test_template_cache.py",
        )
        module = types.ModuleType("repro.skeleton._frozen_cache")
        module.__package__ = "repro.skeleton"
        exec(compile(source, "frozen_cache.py", "exec"), module.__dict__)
        _loaded["cache"] = module.TemplateCache
    return _loaded["cache"]


def run(cache, records: List[LogRecord]) -> list:
    """Each record's parse outcome through ``cache``, as the pipeline
    gets it."""
    outcomes = []
    for record in records:
        outcome = cache.fetch(record)
        if outcome is None:
            outcome = parse_record(
                record,
                cache,
                fold_variables=False,
                strict_triple=False,
                interner=None,
            )
        outcomes.append(outcome)
    return outcomes


def assert_same_outcomes(records: List[LogRecord], max_entries: int) -> None:
    live = run(TemplateCache(max_entries), records)
    frozen = run(frozen_cache_class()(max_entries), records)
    for record, new, old in zip(records, live, frozen):
        if type(old) is tuple:
            assert type(new) is tuple, record.sql
            (new_error, new_reason), (old_error, old_reason) = new, old
            assert type(new_error) is type(old_error), record.sql
            assert str(new_error) == str(old_error), record.sql
            assert new_reason == old_reason, record.sql
        else:
            assert type(new) is not tuple, record.sql
            assert new == old, record.sql
            assert new.record is record


def bench_records(workload: str) -> List[LogRecord]:
    workloads = e29_workloads()
    size = workloads.WORKLOADS[workload].size("bench")
    if workload == "longtail-batch":
        return list(workloads.longtail_log(2018, int(size)).records())
    return list(workloads.skyserver_log(2018, size).records())


def test_seed2018_bench_log_parses_as_before():
    records = bench_records("seed2018-batch")
    assert len(records) > 40_000
    assert_same_outcomes(records, 4096)


def test_longtail_bench_log_parses_as_before():
    # ~5k templates over a 4,096-entry bound: evictions in every memo.
    records = bench_records("longtail-batch")
    assert len(records) >= 15_000
    assert_same_outcomes(records, 4096)


#: Statements the deleted tiers used to serve, each with constant,
#: sign and whitespace variants, so repeats, raw-key members and
#: fingerprint-key members all occur.
EDGE_STATEMENTS = [
    "SELECT a FROM t UNION ALL SELECT b FROM u WHERE c = 1",
    "SELECT a FROM t UNION ALL SELECT b FROM u WHERE c = 2",
    "SELECT a FROM t UNION ALL SELECT b FROM u  WHERE c = 3",
    "SELECT a FROM t WHERE b = 1 /* top 5 */",
    "SELECT a FROM t WHERE b = 2 /* top 5 */",
    "SELECT a FROM t WHERE b = 3 /* top 6 */",
    "SELECT a FROM t WHERE b = 4 -- 99",
    "SELECT [a''b] FROM t WHERE x = 1",
    "SELECT [a''b] FROM t WHERE x = 2",
    "SELECT [a''b] FROM t  WHERE x = 3",
    "SELECT - -5 FROM t",
    "SELECT - -7 FROM t",
    "SELECT a FROM t WHERE b = - -5",
    "SELECT a FROM t WHERE b = -5",
    "SELECT a FROM t WHERE b = - 5",
    "SELECT a FROM t WHERE b = 5",
    "SELECT a FROM t  WHERE b = -6",
    "SELECT TOP 5 a FROM u",
    "SELECT TOP -5 a FROM u",
    "SELECT TOP - 7 a FROM u",
    "SELECT TOP 7 a FROM u",
    "SELECT TOP (5) a FROM u WHERE b = -1",
    "SELECT TOP (-5) a FROM u WHERE b = -2",
    "SELECT a FROM (SELECT TOP -3 b FROM u WHERE c = -2) AS d",
    "SELECT a FROM (SELECT TOP 3 b FROM u WHERE c = 2) AS d",
    "SELECT a FROM t WHERE b = 1\x00",
    "SELECT a FROM t WHERE b = 2\x00",
    "SELECT a\x1f FROM t WHERE b = 1",
    "SELECT a FROM t WHERE n = '\x03'",
    "SELECT a FROM t WHERE n = 'x\x04y'",
    "SELECT CAST(x AS varchar(10)) FROM t",
    "SELECT CAST(x AS varchar(20)) FROM t",
    "SELECT a AS 'label' FROM t",
    "SELECT a AS 'other' FROM t",
    "SELECT broken FROM WHERE ((",
    "DROP TABLE t",
    "SELECT a FROM t WHERE b = 'unterminated",
]


@pytest.mark.parametrize("max_entries", [1, 4, 4096])
def test_edge_statements_parse_as_before(max_entries):
    texts = EDGE_STATEMENTS + EDGE_STATEMENTS[::-1] + EDGE_STATEMENTS
    records = [
        LogRecord(seq=seq, sql=sql, timestamp=float(seq), user="u")
        for seq, sql in enumerate(texts)
    ]
    assert_same_outcomes(records, max_entries)
