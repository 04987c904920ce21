"""Unit tests for Stifle detection (Definitions 11–14)."""

import pytest

from repro.antipatterns import (
    DF_STIFLE,
    DS_STIFLE,
    DW_STIFLE,
    DetectionContext,
    StifleDetector,
    classify_pair,
    has_stifle_shape,
)
from repro.log import LogRecord, QueryLog
from repro.patterns import build_blocks
from repro.pipeline import parse_log

KEYS = frozenset({"empid", "id", "objid"})


def blocks_for(statements, user="u", spacing=0.2):
    log = QueryLog(
        LogRecord(seq=i, sql=sql, timestamp=i * spacing, user=user)
        for i, sql in enumerate(statements)
    )
    return build_blocks(parse_log(log).queries)


def detect(statements, key_columns=KEYS, **kwargs):
    context = DetectionContext(key_columns=key_columns, **kwargs)
    return StifleDetector().detect(blocks_for(statements), context)


class TestStifleShape:
    def _query(self, sql):
        return blocks_for([sql])[0].queries[0]

    def test_equality_on_key_qualifies(self):
        query = self._query("SELECT name FROM e WHERE empId = 8")
        assert has_stifle_shape(query, DetectionContext(key_columns=KEYS))

    def test_non_key_column_fails(self):
        query = self._query("SELECT name FROM e WHERE salary = 8")
        assert not has_stifle_shape(query, DetectionContext(key_columns=KEYS))

    def test_non_key_passes_without_schema(self):
        """Definition 11's third axiom is waived without a schema."""
        query = self._query("SELECT name FROM e WHERE salary = 8")
        assert has_stifle_shape(query, DetectionContext(key_columns=None))

    def test_two_predicates_fail(self):
        query = self._query("SELECT name FROM e WHERE empId = 8 AND x = 1")
        assert not has_stifle_shape(query, DetectionContext(key_columns=KEYS))

    def test_range_fails(self):
        query = self._query("SELECT name FROM e WHERE empId > 8")
        assert not has_stifle_shape(query, DetectionContext(key_columns=KEYS))

    def test_key_columns_match_case_insensitively(self):
        query = self._query("SELECT name FROM e WHERE EMPID = 8")
        keys = frozenset(key.upper() for key in KEYS)
        assert has_stifle_shape(query, DetectionContext(key_columns=keys))


class TestClassifyPair:
    def _pair(self, sql1, sql2):
        block = blocks_for([sql1, sql2])[0]
        return block.queries[0], block.queries[1]

    def test_dw_pair(self):
        pair = self._pair(
            "SELECT name FROM Employee WHERE empId = 8",
            "SELECT name FROM Employee WHERE empId = 1",
        )
        assert classify_pair(*pair) == DW_STIFLE

    def test_ds_pair_example_11(self):
        pair = self._pair(
            "SELECT name FROM Employee WHERE empId = 8",
            "SELECT address, phone FROM Employee WHERE empId = 8",
        )
        assert classify_pair(*pair) == DS_STIFLE

    def test_df_pair_example_13(self):
        pair = self._pair(
            "SELECT name FROM Employee WHERE empId = 8",
            "SELECT address FROM EmployeeInfo WHERE empId = 8",
        )
        assert classify_pair(*pair) == DF_STIFLE

    def test_identical_queries_are_no_pair(self):
        pair = self._pair(
            "SELECT name FROM Employee WHERE empId = 8",
            "SELECT name FROM Employee WHERE empId = 8",
        )
        assert classify_pair(*pair) is None

    def test_everything_different_is_no_pair(self):
        pair = self._pair(
            "SELECT name FROM Employee WHERE empId = 8",
            "SELECT address FROM EmployeeInfo WHERE empId = 9",
        )
        assert classify_pair(*pair) is None


class TestDetection:
    def test_dw_run_detected(self):
        instances = detect(
            [f"SELECT name FROM e WHERE id = {i}" for i in range(4)]
        )
        assert len(instances) == 1
        assert instances[0].label == DW_STIFLE
        assert len(instances[0].queries) == 4
        assert instances[0].solvable

    def test_ds_run_detected(self):
        instances = detect(
            [
                "SELECT name FROM e WHERE id = 8",
                "SELECT address FROM e WHERE id = 8",
                "SELECT phone FROM e WHERE id = 8",
            ]
        )
        assert [i.label for i in instances] == [DS_STIFLE]
        assert len(instances[0].queries) == 3

    def test_df_run_detected(self):
        instances = detect(
            [
                "SELECT name FROM e WHERE id = 8",
                "SELECT address FROM einfo WHERE id = 8",
            ]
        )
        assert [i.label for i in instances] == [DF_STIFLE]

    def test_single_query_is_no_stifle(self):
        assert detect(["SELECT name FROM e WHERE id = 8"]) == []

    def test_runs_do_not_mix_classes(self):
        instances = detect(
            [
                "SELECT name FROM e WHERE id = 1",
                "SELECT name FROM e WHERE id = 2",
                "SELECT address FROM e WHERE id = 2",
            ]
        )
        assert [i.label for i in instances] == [DW_STIFLE]
        assert len(instances[0].queries) == 2

    def test_consecutive_runs_of_different_classes(self):
        instances = detect(
            [
                "SELECT name FROM e WHERE id = 1",
                "SELECT name FROM e WHERE id = 2",
                "SELECT name FROM e WHERE id = 3",
                "SELECT a FROM x WHERE objid = 7",
                "SELECT b FROM x WHERE objid = 7",
            ]
        )
        assert [i.label for i in instances] == [DW_STIFLE, DS_STIFLE]

    def test_min_run_length_config(self):
        instances = detect(
            [f"SELECT name FROM e WHERE id = {i}" for i in range(2)],
            min_run_length=3,
        )
        assert instances == []

    def test_non_key_filter_breaks_run(self):
        instances = detect(
            [
                "SELECT name FROM e WHERE salary = 1",
                "SELECT name FROM e WHERE salary = 2",
            ]
        )
        assert instances == []

    def test_users_do_not_mix(self):
        log = QueryLog(
            [
                LogRecord(0, "SELECT name FROM e WHERE id = 1", 0.0, "u1"),
                LogRecord(1, "SELECT name FROM e WHERE id = 2", 0.1, "u2"),
            ]
        )
        blocks = build_blocks(parse_log(log).queries)
        instances = StifleDetector().detect(
            blocks, DetectionContext(key_columns=KEYS)
        )
        assert instances == []

    def test_details_carry_filter_column(self):
        instances = detect(
            [f"SELECT name FROM e WHERE id = {i}" for i in range(2)]
        )
        assert instances[0].details["filter_column"].lower() == "id"
        assert instances[0].details["run_length"] == 2

    def test_unit_is_minimal_period(self):
        dw = detect([f"SELECT name FROM e WHERE id = {i}" for i in range(4)])[0]
        assert len(dw.unit) == 1
        ds_pairs = detect(
            [
                "SELECT a FROM e WHERE id = 1",
                "SELECT b FROM e WHERE id = 1",
                "SELECT a FROM e WHERE id = 2",
                "SELECT b FROM e WHERE id = 2",
            ]
        )
        # two DS runs (one per object id); each unit is the (A, B) pair
        assert all(i.label == DS_STIFLE for i in ds_pairs)
