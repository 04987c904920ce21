"""Failure injection: hostile and degenerate inputs end to end.

A cleaning framework for public-facing logs must never die on weird
input; Section 5.3 demands misparses be classified and excluded.  These
tests feed the full pipeline degenerate logs and assert graceful,
accounted behaviour.
"""

import math

import pytest

import repro
from repro.antipatterns import DetectionContext
from repro.log import LogRecord, QueryLog
from repro.pipeline import CleaningPipeline, PipelineConfig


def run(records):
    return CleaningPipeline(
        PipelineConfig(detection=DetectionContext(key_columns=frozenset({"id"})))
    ).run(QueryLog(records))


class TestDegenerateLogs:
    def test_empty_statements(self):
        result = run(
            [LogRecord(seq=i, sql="", timestamp=float(i)) for i in range(3)]
        )
        assert len(result.clean_log) == 0
        assert result.overview().syntax_errors <= 3

    def test_whitespace_only_statements(self):
        result = run([LogRecord(seq=0, sql="   \n\t  ", timestamp=0.0)])
        assert result.overview().syntax_errors == 1

    def test_wide_statement_parses(self):
        predicates = " AND ".join(f"c{i} = {i}" for i in range(150))
        sql = f"SELECT a FROM t WHERE {predicates}"
        result = run([LogRecord(seq=0, sql=sql, timestamp=0.0)])
        assert len(result.parse_stage.queries) == 1

    def test_pathologically_deep_statement_is_classified_not_fatal(self):
        predicates = " AND ".join(f"c{i} = {i}" for i in range(3000))
        sql = f"SELECT a FROM t WHERE {predicates}"
        result = run([LogRecord(seq=0, sql=sql, timestamp=0.0)])
        # either the tree walkers cope, or the statement is excluded and
        # counted — both acceptable; a crash is not
        accounted = len(result.parse_stage.queries) + len(
            result.parse_stage.syntax_errors
        )
        assert accounted == 1

    def test_deeply_nested_parentheses(self):
        sql = "SELECT a FROM t WHERE " + "(" * 60 + "x = 1" + ")" * 60
        result = run([LogRecord(seq=0, sql=sql, timestamp=0.0)])
        assert len(result.parse_stage.queries) == 1

    def test_deeply_nested_subqueries(self):
        sql = "SELECT a FROM t WHERE x IN " + "(SELECT x FROM t WHERE x IN " * 20
        sql += "(1)" + ")" * 20
        result = run([LogRecord(seq=0, sql=sql, timestamp=0.0)])
        # either parses or is a counted syntax error — never a crash
        assert (
            len(result.parse_stage.queries)
            + len(result.parse_stage.syntax_errors)
            == 1
        )

    def test_non_ascii_statements(self):
        result = run(
            [
                LogRecord(
                    seq=0,
                    sql="SELECT a FROM t WHERE name = 'δφ—🌌'",
                    timestamp=0.0,
                )
            ]
        )
        assert len(result.parse_stage.queries) == 1

    def test_identical_timestamps_keep_seq_order(self):
        records = [
            LogRecord(seq=i, sql=f"SELECT a FROM t WHERE id = {i}", timestamp=5.0,
                      user="u")
            for i in range(4)
        ]
        result = run(records)
        # all four have the same timestamp; the stifle run must still be
        # found in seq order and solved into one IN-list
        assert "IN (0, 1, 2, 3)" in result.clean_log.statements()[0]

    def test_unsorted_input_records(self):
        records = [
            LogRecord(seq=1, sql="SELECT a FROM t WHERE id = 2", timestamp=2.0, user="u"),
            LogRecord(seq=0, sql="SELECT a FROM t WHERE id = 1", timestamp=1.0, user="u"),
        ]
        result = run(records)  # QueryLog sorts on construction
        assert len(result.clean_log) == 1

    def test_negative_timestamps(self):
        records = [
            LogRecord(seq=i, sql=f"SELECT a FROM t WHERE id = {i}",
                      timestamp=-1000.0 + i, user="u")
            for i in range(3)
        ]
        result = run(records)
        assert len(result.clean_log) == 1

    def test_extreme_future_timestamp_gap(self):
        records = [
            LogRecord(seq=0, sql="SELECT a FROM t WHERE id = 1", timestamp=0.0, user="u"),
            LogRecord(seq=1, sql="SELECT a FROM t WHERE id = 2", timestamp=1e15, user="u"),
        ]
        result = run(records)
        # gap far exceeds block_gap: two blocks, no stifle
        assert len(result.clean_log) == 2

    def test_mixed_garbage_ratio_accounted(self):
        records = []
        for i in range(30):
            if i % 3 == 0:
                sql = "DROP TABLE x"
            elif i % 3 == 1:
                sql = "SELECT ' unterminated"
            else:
                sql = f"SELECT a FROM t WHERE id = {i}"
            records.append(LogRecord(seq=i, sql=sql, timestamp=float(i) * 10,
                                     user=f"u{i % 5}"))
        result = run(records)
        overview = result.overview()
        assert overview.non_select == 10
        assert overview.syntax_errors == 10
        assert len(result.parse_stage.queries) == 10

    def test_streaming_on_garbage(self):
        records = [
            LogRecord(seq=0, sql="SELECT '", timestamp=0.0, user="u"),
            LogRecord(seq=1, sql="SELECT a FROM t WHERE id = 1", timestamp=1.0, user="u"),
        ]
        result = repro.clean(QueryLog(records), execution="streaming")
        assert result.streaming_stats.syntax_errors == 1
        assert len(result.clean_log) == 1

    def test_thousand_users_one_query_each(self):
        records = [
            LogRecord(seq=i, sql=f"SELECT a FROM t WHERE id = {i}",
                      timestamp=float(i) * 0.01, user=f"u{i}")
            for i in range(1000)
        ]
        result = run(records)
        # no same-user adjacency: nothing is a stifle
        assert len(result.clean_log) == 1000
        assert result.antipatterns == []
