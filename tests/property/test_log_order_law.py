"""The order law of the logs a stage builds without sorting.

A :class:`~repro.log.QueryLog` keeps its records in (timestamp, seq)
order.  Its constructor sorts; ``QueryLog._in_order`` does not, and is
used only where the records are by construction an in-order subsequence
of a log, texts possibly replaced: validate's kept records, dedup's, the
parse stage's parsed log (when it parsed a log), the solver's output
and ``QueryLog.filter`` / ``map_sql``.  Each such log must hold the very
records, in the very order, that sorting it again gives — over generated
logs, shuffled record lists and records with NaN and infinite
timestamps under the ``lenient`` and ``quarantine`` policies.  A plain
list out of order must still come back sorted wherever a list is
accepted.
"""

from __future__ import annotations

import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import PipelineConfig, clean
from repro.log import LogRecord, QueryLog, delete_duplicates
from repro.log.models import record_order_key
from repro.pipeline import parse_log
from repro.pipeline.framework import validate_stage
from repro.workload.generator import generate_log

POLICIES = ("lenient", "quarantine")


def assert_in_order(log) -> None:
    """``log`` is a QueryLog whose records, by identity, are in the order
    a re-sort of them gives."""
    assert type(log) is QueryLog
    resorted = QueryLog(list(log))
    assert list(map(id, log)) == list(map(id, resorted))
    assert log == resorted


def assert_sites_in_order(log: QueryLog, policy: str):
    """Every unsorted site of a batch run over ``log`` keeps the law;
    returns the run."""
    config = PipelineConfig(error_policy=policy)
    assert_in_order(validate_stage(log, config))
    assert_in_order(log.filter(lambda record: record.seq % 3 != 0))
    assert_in_order(log.map_sql(lambda record: f"{record.sql}"))
    result = clean(log, config)
    assert_in_order(result.dedup.log)
    assert_in_order(result.parse_stage.parsed_log)
    assert_in_order(result.solve_result.log)
    return result


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [1, 7, 2018])
def test_generated_logs_keep_the_law(seed, policy):
    records = generate_log(seed=seed, scale=0.03).records()
    random.Random(seed).shuffle(records)
    # The rewrites replace texts in place, so the solver's site is hit.
    assert assert_sites_in_order(QueryLog(records), policy).solve_result.solved


STATEMENTS = [
    "SELECT a FROM t WHERE id = 1",
    "SELECT a FROM t WHERE id = 2",
    "SELECT b FROM t WHERE id = 1",
    "SELECT a, b FROM t WHERE id = 3",
    "SELECT c FROM u",
    "SELEKT junk",
    "DROP TABLE t",
]

timestamps = st.one_of(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)

#: Records in list order, out of time order, some with a NaN or infinite
#: timestamp or a statement that is not text.
record_lists = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(STATEMENTS), st.none()),
        timestamps,
        st.sampled_from(["u1", "u2", None]),
    ),
    max_size=40,
).map(
    lambda entries: [
        LogRecord(seq=seq, sql=sql, timestamp=timestamp, user=user)
        for seq, (sql, timestamp, user) in enumerate(entries)
    ]
)


def is_sorted(records) -> bool:
    keys = list(map(record_order_key, records))
    return all(a <= b for a, b in zip(keys, keys[1:]))


@given(record_lists, st.sampled_from(POLICIES))
@settings(max_examples=150, deadline=None)
def test_record_lists_keep_the_law(records, policy):
    assert_sites_in_order(QueryLog(records), policy)


@given(record_lists, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_plain_lists_still_come_back_sorted(records, rng):
    rng.shuffle(records)
    assert is_sorted(QueryLog(records))
    texts = [record for record in records if isinstance(record.sql, str)]
    assert is_sorted(delete_duplicates(texts).log)
    assert is_sorted(parse_log(texts).parsed_log)
