"""Unit tests for the streaming cleaner."""

from dataclasses import fields, replace

import pytest

import repro
from repro.antipatterns import DetectionContext
from repro.log import LogRecord, QueryLog
from repro.obs import Recorder
from repro.obs.metrics import SHARED_STAGES
from repro.pipeline import CleaningPipeline, ExecutionConfig, PipelineConfig
from repro.pipeline.framework import (
    STATS_COUNTERS,
    StreamingStats,
    book_stats,
    stats_from_ledger,
)
from repro.pipeline.streaming import StreamingCleaner

KEYS = frozenset({"empid", "id", "objid"})


def make_log(entries):
    return QueryLog(
        LogRecord(seq=i, sql=sql, timestamp=ts, user=user)
        for i, (sql, ts, user) in enumerate(entries)
    )


def config(**execution):
    return PipelineConfig(
        detection=DetectionContext(key_columns=KEYS),
        execution=ExecutionConfig(mode="streaming", **execution),
    )


def stream(log, pipeline_config=None):
    pipeline_config = pipeline_config or config()
    execution = replace(pipeline_config.execution, mode="streaming")
    result = repro.clean(log, pipeline_config, execution=execution)
    return result.clean_log, result.streaming_stats


class TestStreamingBasics:
    def test_stifle_solved_in_stream(self):
        log = make_log(
            [(f"SELECT name FROM e WHERE id = {i}", i * 0.1, "u") for i in range(4)]
        )
        cleaned, stats = stream(log)
        assert len(cleaned) == 1
        assert "IN (0, 1, 2, 3)" in cleaned[0].sql
        assert stats.instances_solved == 1

    def test_duplicates_removed(self):
        log = make_log([("SELECT a FROM t", 0.0, "u"), ("SELECT a FROM t", 0.5, "u")])
        cleaned, stats = stream(log)
        assert stats.duplicates_removed == 1
        assert len(cleaned) == 1

    def test_parse_failures_counted(self):
        log = make_log(
            [("DROP TABLE x", 0.0, "u"), ("SELECT FROM", 1.0, "u"),
             ("SELECT a FROM t", 2.0, "u")]
        )
        cleaned, stats = stream(log)
        assert stats.non_select == 1
        assert stats.syntax_errors == 1
        assert len(cleaned) == 1

    def test_blocks_split_across_users(self):
        log = make_log(
            [("SELECT name FROM e WHERE id = 1", 0.0, "u1"),
             ("SELECT name FROM e WHERE id = 2", 0.1, "u2")]
        )
        cleaned, stats = stream(log)
        assert len(cleaned) == 2  # no cross-user stifle
        assert stats.blocks_closed == 2

    def test_idle_user_block_flushes_mid_stream(self):
        log = make_log(
            [("SELECT name FROM e WHERE id = 1", 0.0, "u1"),
             ("SELECT name FROM e WHERE id = 2", 0.2, "u1"),
             # another user keeps the stream alive far past u1's gap
             ("SELECT x FROM t WHERE k > 0", 10_000.0, "u2")]
        )
        cleaner = StreamingCleaner(config())
        emitted = list(cleaner.feed(log))
        # u1's stifle was already solved when u2's record arrived,
        # before the stream ended
        assert any("IN (1, 2)" in record.sql for record in emitted)

    def test_records_out_counted_when_process_consumed_directly(self):
        log = make_log(
            [(f"SELECT name FROM e WHERE id = {i}", i * 0.1, "u") for i in range(4)]
        )
        cleaner = StreamingCleaner(config())
        emitted = list(cleaner.feed(log)) + list(cleaner.finish())
        # the counter moves at emission
        assert cleaner.stats.records_out == len(emitted) == 1

    def test_force_close_bound_from_execution_config(self):
        log = make_log(
            [(f"SELECT name FROM e WHERE id = {i}", i * 0.1, "u") for i in range(10)]
        )
        cleaned, stats = stream(log, config(max_block_queries=4))
        assert stats.blocks_force_closed >= 2
        assert stats.max_open_queries <= 4
        # still cleans: several partial IN-merges instead of one big one
        assert len(cleaned) < 10

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            config(max_block_queries=1)


class TestBatchEquivalence:
    def test_matches_batch_pipeline_on_synthetic_log(self, small_workload, sky_keys):
        pipeline_config = PipelineConfig(
            detection=DetectionContext(key_columns=sky_keys)
        )
        batch = CleaningPipeline(pipeline_config).run(small_workload.log)
        streamed, stats = stream(small_workload.log, pipeline_config)
        assert stats.blocks_force_closed == 0
        assert streamed.statements() == batch.clean_log.statements()

    def test_stats_account_for_everything(self, small_workload, sky_keys):
        pipeline_config = PipelineConfig(
            detection=DetectionContext(key_columns=sky_keys)
        )
        cleaned, stats = stream(small_workload.log, pipeline_config)
        assert stats.records_in == len(small_workload.log)
        assert stats.records_out == len(cleaned)
        assert stats.max_open_queries < len(small_workload.log)


class TestStatsCounterMapping:
    """``STATS_COUNTERS`` is the one stats ↔ ledger correspondence:
    booking stats and reading them back must be inverse operations."""

    def test_book_then_read_round_trips(self):
        stats = StreamingStats(
            **{f.name: 10 * (i + 1) for i, f in enumerate(fields(StreamingStats))}
        )
        since = StreamingStats(
            **{f.name: i for i, f in enumerate(fields(StreamingStats))}
        )
        recorder = Recorder()
        book_stats(recorder, stats, since=since, stages=SHARED_STAGES)
        back = stats_from_ledger(recorder.metrics)
        for name, _, _ in STATS_COUNTERS:
            assert getattr(back, name) == getattr(stats, name) - getattr(since, name)
