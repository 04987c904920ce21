"""Fault-tolerance suite: malformed records, crashed workers, timeouts.

The acceptance contract: under the ``quarantine`` error policy a run
over a poisoned log — malformed records of several classes plus a
worker killed mid-run — must produce exactly the clean log that a
strict batch run produces over the valid subset, quarantine exactly the
poisoned records (with reasons), and keep the ``comparable()`` metrics
ledger identical across batch / streaming / parallel(1, 2, 4).

Set ``FAULT_ARTIFACT_DIR`` to make the acceptance test dump each run's
quarantine report as JSON (the CI job uploads these on failure).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

import repro
from repro.antipatterns import default_detectors
from repro.errors import (
    INVALID_STATEMENT,
    INVALID_TIMESTAMP,
    NESTING_DEPTH,
    PARSE_ERROR,
    SHARD_FAILURE,
    RecordFailure,
    ShardFailure,
)
from repro.log import LogRecord, QueryLog
from repro.pipeline import (
    ExecutionConfig,
    PipelineConfig,
    parallel,
    shard_records,
    shard_store,
)
from repro.store import ColumnarSource, columnar, write_columnar
from repro.store.columnar import _store_chunk as store_chunk
from repro.store.columnar import encode_shard
from tests.reference import cacheless_run

from .faultlib import (
    AlwaysFailDetector,
    FailOnceDetector,
    FailUserDetector,
    KillOnceDetector,
    SleepOnceDetector,
)

#: The executor matrix of the differential suite, reused here.
EXECUTIONS = [
    pytest.param(ExecutionConfig(mode="batch"), id="batch"),
    pytest.param(ExecutionConfig(mode="streaming"), id="streaming"),
    pytest.param(ExecutionConfig(mode="parallel", workers=1), id="parallel-1"),
    pytest.param(ExecutionConfig(mode="parallel", workers=2), id="parallel-2"),
    pytest.param(ExecutionConfig(mode="parallel", workers=4), id="parallel-4"),
]

DEEP_SQL = (
    "SELECT a FROM T WHERE "
    + " AND ".join(f"c{i} = {i}" for i in range(3000))
)


def valid_records():
    """~160 well-formed records over 8 users, with duplicates to remove."""
    records = []
    seq = 0
    for step in range(20):
        for user in range(8):
            records.append(
                LogRecord(
                    seq=seq,
                    sql=(
                        "SELECT name FROM Employee "
                        f"WHERE empId = {step % 5 + user}"
                    ),
                    timestamp=float(step * 10 + user),
                    user=f"user{user}",
                )
            )
            seq += 1
    # a burst of sub-threshold reloads for user0 (dedup fodder)
    for extra in range(5):
        records.append(
            LogRecord(
                seq=seq,
                sql="SELECT name FROM Employee WHERE empId = 0",
                timestamp=200.0 + extra * 0.2,
                user="user0",
            )
        )
        seq += 1
    return records


def poison_records():
    """Four classes of malformed records (seqs 900+)."""
    return [
        LogRecord(seq=900, sql="SELECT 1 FROM T", timestamp=float("nan"),
                  user="user1"),
        LogRecord(seq=901, sql="SELECT 2 FROM T", timestamp=math.inf,
                  user="user2"),
        LogRecord(seq=902, sql=None, timestamp=42.0, user="user3"),
        LogRecord(seq=903, sql=12345, timestamp=43.0, user="user4"),
        LogRecord(seq=904, sql="SELEKT definitely not sql !!",
                  timestamp=44.0, user="user5"),
        LogRecord(seq=905, sql=DEEP_SQL, timestamp=45.0, user="user6"),
    ]


@pytest.fixture(scope="module")
def valid_log():
    return QueryLog(valid_records())


@pytest.fixture(scope="module")
def poisoned_log():
    return QueryLog(valid_records() + poison_records())


@pytest.fixture(scope="module")
def reference(valid_log):
    """Strict batch run over the valid subset — the ground truth."""
    return repro.clean(valid_log, PipelineConfig())


def _dump_artifact(name, result):
    directory = os.environ.get("FAULT_ARTIFACT_DIR")
    if not directory:
        return
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    payload = {"error_policy": result.config.error_policy}
    payload.update(result.quarantine.as_dict())
    (base / f"{name}.quarantine.json").write_text(
        json.dumps(payload, indent=2, default=repr) + "\n", encoding="utf-8"
    )


# ----------------------------------------------------------------------
# Malformed records × executors × policies


class TestQuarantinePolicy:
    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_poisoned_run_equals_strict_run_on_valid_subset(
        self, execution, poisoned_log, reference
    ):
        config = PipelineConfig(error_policy="quarantine")
        result = repro.clean(poisoned_log, config, execution=execution)
        _dump_artifact(f"poisoned-{execution.mode}-{execution.workers}", result)

        assert result.clean_log == reference.clean_log
        assert len(result.quarantine) == len(poison_records())
        assert result.quarantine.seqs() == [
            record.seq for record in poison_records()
        ]
        assert result.metrics.conservation_violations() == []

    def test_comparable_ledgers_identical_across_executors(self, poisoned_log):
        config = PipelineConfig(error_policy="quarantine")
        views = {}
        for param in EXECUTIONS:
            execution = param.values[0]
            result = repro.clean(poisoned_log, config, execution=execution)
            views[param.id] = result.metrics.comparable()
            assert result.metrics.conservation_violations() == []
        baseline = views["batch"]
        for name, view in views.items():
            assert view == baseline, f"{name} ledger diverges from batch"

    @pytest.mark.parametrize("mode", ["batch", "streaming", "cacheless"])
    def test_quarantine_reasons_cover_all_classes(self, mode, poisoned_log):
        """Every failure class gets the same ``(reason, record)``
        verdict from every executor and from the cacheless reference.
        The parse failures — plus an unsupported statement, counted as
        non-SELECT — repeat once, so the cache also answers a stored
        failure."""
        repeats = [
            LogRecord(seq=910, sql="DROP TABLE T", timestamp=46.0, user="user7"),
            LogRecord(seq=911, sql="SELEKT definitely not sql !!",
                      timestamp=47.0, user="user5"),
            LogRecord(seq=912, sql="DROP TABLE T", timestamp=48.0, user="user7"),
            LogRecord(seq=913, sql=DEEP_SQL, timestamp=49.0, user="user6"),
        ]
        config = PipelineConfig(error_policy="quarantine")
        log = QueryLog(poisoned_log.records() + repeats)
        if mode == "cacheless":
            result = cacheless_run(log, config)
        else:
            result = repro.clean(log, config, execution=mode)
        assert result.quarantine.by_reason() == {
            INVALID_TIMESTAMP: 2,
            INVALID_STATEMENT: 2,
            PARSE_ERROR: 2,
            NESTING_DEPTH: 2,
        }
        stages = {entry.stage for entry in result.quarantine}
        assert stages == {"validate", "parse"}
        assert [
            (entry.reason, entry.record.seq)
            for entry in result.quarantine
            if entry.stage == "parse"
        ] == [
            (PARSE_ERROR, 904),
            (NESTING_DEPTH, 905),
            (PARSE_ERROR, 911),
            (NESTING_DEPTH, 913),
        ]
        assert result.metrics.stages["parse"].counters["non_select"] == 2
        assert result.metrics.conservation_violations() == []

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_validate_and_parse_counters(self, execution, poisoned_log):
        config = PipelineConfig(error_policy="quarantine")
        result = repro.clean(poisoned_log, config, execution=execution)
        validate = result.metrics.stages["validate"].counters
        parse = result.metrics.stages["parse"].counters
        assert validate["records_in"] == len(poisoned_log)
        assert validate["records_quarantined"] == 4
        assert parse["records_quarantined"] == 2
        assert parse["syntax_errors"] == 0


class TestStrictPolicy:
    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_invalid_record_raises_record_failure(
        self, execution, poisoned_log
    ):
        with pytest.raises(RecordFailure) as excinfo:
            repro.clean(poisoned_log, PipelineConfig(), execution=execution)
        assert excinfo.value.stage == "validate"
        assert excinfo.value.reason in (INVALID_TIMESTAMP, INVALID_STATEMENT)

    def test_parse_failures_stay_counted_not_raised(self, valid_log):
        # blank / unparsable SQL is Section 5.3 accounting, not a fault
        records = valid_log.records() + [
            LogRecord(seq=950, sql="not sql at all", timestamp=500.0,
                      user="user0")
        ]
        result = repro.clean(QueryLog(records), PipelineConfig())
        assert result.metrics.stages["parse"].counters["syntax_errors"] == 1
        assert not result.quarantine


class TestLenientPolicy:
    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_drops_and_counts_without_capture(
        self, execution, poisoned_log, reference
    ):
        config = PipelineConfig(error_policy="lenient")
        result = repro.clean(poisoned_log, config, execution=execution)
        assert result.clean_log == reference.clean_log
        assert not result.quarantine
        validate = result.metrics.stages["validate"].counters
        assert validate["records_quarantined"] == 4
        assert result.metrics.conservation_violations() == []

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_comparable_ledger_equals_batch(
        self, execution, poisoned_log, lenient_batch
    ):
        config = PipelineConfig(error_policy="lenient")
        result = repro.clean(poisoned_log, config, execution=execution)
        assert result.metrics.comparable() == lenient_batch.metrics.comparable()


@pytest.fixture(scope="module")
def lenient_batch(poisoned_log):
    """Lenient batch run over the poisoned log — the ledger reference."""
    return repro.clean(poisoned_log, PipelineConfig(error_policy="lenient"))


# ----------------------------------------------------------------------
# Worker crash / timeout / exception recovery


def _parallel(workers, **knobs):
    return ExecutionConfig(mode="parallel", workers=workers, **knobs)


def _retry_policy(monkeypatch, retries, backoff):
    """Set the parallel executor's shard retry budget and backoff."""
    monkeypatch.setattr(parallel, "MAX_SHARD_RETRIES", retries)
    monkeypatch.setattr(parallel, "RETRY_BACKOFF_S", backoff)


class TestWorkerRecovery:
    def test_killed_worker_is_requeued_and_run_completes(
        self, poisoned_log, reference, tmp_path, monkeypatch
    ):
        _retry_policy(monkeypatch, 2, 0.01)
        detectors = [
            KillOnceDetector(str(tmp_path / "kill"), os.getpid())
        ] + default_detectors()
        config = PipelineConfig(
            error_policy="quarantine", detectors=detectors
        )
        result = repro.clean(
            poisoned_log, config, execution=_parallel(2)
        )
        _dump_artifact("worker-kill", result)
        assert (tmp_path / "kill").exists(), "the kill fault never fired"
        pstats = result.parallel_stats
        # innocents share the crashed pool: the run must really fan out
        assert pstats.shard_count >= 2
        assert pstats.shards_retried >= 1
        assert pstats.shards_failed == 0
        # every shard is encoded once; retries re-ship the same buffer
        assert pstats.bytes_shipped == sum(
            len(encode_shard(shard)) for shard in shard_records(poisoned_log, 2)
        )
        assert result.clean_log == reference.clean_log
        assert result.quarantine.seqs() == [
            record.seq for record in poison_records()
        ]
        assert result.metrics.conservation_violations() == []

    def test_transient_worker_exception_is_retried(
        self, valid_log, reference, tmp_path, monkeypatch
    ):
        _retry_policy(monkeypatch, 2, 0.01)
        detectors = [
            FailOnceDetector(str(tmp_path / "fail"), os.getpid())
        ] + default_detectors()
        config = PipelineConfig(detectors=detectors)  # strict is fine:
        # a detector exception is a fault, not a record verdict
        result = repro.clean(
            valid_log, config, execution=_parallel(2)
        )
        assert (tmp_path / "fail").exists()
        assert result.parallel_stats.shard_count >= 2
        assert result.parallel_stats.shards_retried >= 1
        assert result.clean_log == reference.clean_log

    def test_hung_worker_hits_task_timeout_and_requeues(
        self, valid_log, reference, tmp_path, monkeypatch
    ):
        _retry_policy(monkeypatch, 2, 0.01)
        detectors = [
            SleepOnceDetector(
                str(tmp_path / "sleep"), os.getpid(), seconds=8.0
            )
        ] + default_detectors()
        config = PipelineConfig(detectors=detectors)
        result = repro.clean(
            valid_log,
            config,
            execution=_parallel(2, task_timeout=1.0),
        )
        assert (tmp_path / "sleep").exists()
        assert result.parallel_stats.shard_count >= 2
        assert result.parallel_stats.shards_retried >= 1
        assert result.clean_log == reference.clean_log

    def test_inline_path_retries_too(
        self, valid_log, reference, tmp_path, monkeypatch
    ):
        # workers=1 never forks; the retry loop must still apply
        _retry_policy(monkeypatch, 2, 0.01)
        detectors = [
            FailOnceDetector(str(tmp_path / "inline-fail"))
        ] + default_detectors()
        config = PipelineConfig(detectors=detectors)
        result = repro.clean(
            valid_log, config, execution=_parallel(1)
        )
        assert result.parallel_stats.shards_retried >= 1
        assert result.clean_log == reference.clean_log


class TestTerminalShardFailure:
    def test_strict_raises_shard_failure(self, valid_log, monkeypatch):
        _retry_policy(monkeypatch, 1, 0.01)
        config = PipelineConfig(
            detectors=[AlwaysFailDetector()] + default_detectors()
        )
        with pytest.raises(ShardFailure) as excinfo:
            repro.clean(
                valid_log,
                config,
                execution=_parallel(2),
            )
        assert excinfo.value.attempts == 2

    def test_quarantine_sets_whole_shards_aside(self, valid_log, monkeypatch):
        _retry_policy(monkeypatch, 0, 0.05)
        config = PipelineConfig(
            error_policy="quarantine",
            detectors=[AlwaysFailDetector()] + default_detectors(),
        )
        result = repro.clean(
            valid_log,
            config,
            execution=_parallel(1),
        )
        assert len(result.clean_log) == 0
        assert result.parallel_stats.shards_failed >= 1
        assert result.quarantine.by_reason() == {
            SHARD_FAILURE: len(valid_log)
        }
        assert sorted(result.quarantine.seqs()) == [
            record.seq for record in valid_log
        ]

    def test_lenient_drops_failed_shards(self, valid_log, monkeypatch):
        _retry_policy(monkeypatch, 0, 0.05)
        config = PipelineConfig(
            error_policy="lenient",
            detectors=[AlwaysFailDetector()] + default_detectors(),
        )
        result = repro.clean(
            valid_log,
            config,
            execution=_parallel(1),
        )
        assert len(result.clean_log) == 0
        assert not result.quarantine
        assert result.parallel_stats.shards_failed >= 1
        merge = result.metrics.stages["merge"].counters
        assert merge["shards_failed"] == result.parallel_stats.shards_failed

    def test_inline_strict_failure_reports_every_attempt(
        self, valid_log, monkeypatch
    ):
        _retry_policy(monkeypatch, 2, 0.0)
        config = PipelineConfig(
            detectors=[AlwaysFailDetector()] + default_detectors()
        )
        with pytest.raises(ShardFailure) as excinfo:
            repro.clean(
                valid_log,
                config,
                execution=_parallel(1),
            )
        assert excinfo.value.shard == 0
        assert excinfo.value.attempts == 3

    @pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pool"])
    def test_retry_accounting_is_exact(self, valid_log, workers, monkeypatch):
        """Every shard is tried ``MAX_SHARD_RETRIES + 1`` times, no more:
        retries are booked per re-submission, failures per shard."""
        _retry_policy(monkeypatch, 2, 0.0)
        config = PipelineConfig(
            error_policy="lenient",
            detectors=[AlwaysFailDetector()] + default_detectors(),
        )
        result = repro.clean(
            valid_log,
            config,
            execution=_parallel(workers),
        )
        pstats = result.parallel_stats
        assert pstats.shard_count == len(shard_records(valid_log, workers))
        assert (pstats.shard_count >= 2) == (workers > 1)
        assert pstats.shards_failed == pstats.shard_count
        assert pstats.shards_retried == 2 * pstats.shard_count
        merge = result.metrics.stages["merge"].counters
        assert merge["shards_retried"] == pstats.shards_retried
        assert merge["shards_failed"] == pstats.shards_failed


# ----------------------------------------------------------------------
# The same faults read from a columnar store


@pytest.fixture(scope="module")
def poisoned_store(tmp_path_factory, poisoned_log):
    """The poisoned log as a several-chunk columnar store."""
    store = tmp_path_factory.mktemp("poisoned") / "log.columnar"
    write_columnar(poisoned_log, store, chunk_records=40)
    return store


@pytest.fixture(scope="module")
def valid_store(tmp_path_factory, valid_log):
    store = tmp_path_factory.mktemp("valid") / "log.columnar"
    write_columnar(valid_log, store, chunk_records=40)
    return store


class TestPoisonedStore:
    """A store holds the poison exactly, so every executor cleans it as
    it cleans the in-RAM log — the parallel one from store rows the
    parent never turns into records."""

    @pytest.mark.parametrize("policy", ["quarantine", "lenient"])
    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_store_run_equals_in_ram_run(
        self, execution, policy, poisoned_log, poisoned_store
    ):
        config = PipelineConfig(error_policy=policy)
        in_ram = repro.clean(poisoned_log, config, execution=execution)
        stored = repro.clean(
            ColumnarSource(poisoned_store), config, execution=execution
        )
        assert stored.clean_log == in_ram.clean_log
        assert stored.quarantine.as_dict() == in_ram.quarantine.as_dict()
        assert stored.metrics.comparable() == in_ram.metrics.comparable()
        assert stored.metrics.conservation_violations() == []
        assert in_ram.metrics.conservation_violations() == []

    def test_killed_worker_retries_from_the_same_buffer(
        self, poisoned_store, reference, tmp_path, monkeypatch
    ):
        _retry_policy(monkeypatch, 2, 0.01)
        detectors = [
            KillOnceDetector(str(tmp_path / "kill"), os.getpid())
        ] + default_detectors()
        config = PipelineConfig(
            error_policy="quarantine", detectors=detectors
        )
        source = ColumnarSource(poisoned_store)
        result = repro.clean(
            source, config, execution=_parallel(2)
        )
        assert (tmp_path / "kill").exists(), "the kill fault never fired"
        pstats = result.parallel_stats
        assert pstats.shard_count >= 2
        assert pstats.shards_retried >= 1
        assert pstats.shards_failed == 0
        # every shard is cut from the store once; retries re-ship it
        assert pstats.bytes_shipped == sum(
            len(encode_shard(shard)) for shard in shard_store(source, 2)
        )
        assert result.clean_log == reference.clean_log
        assert result.quarantine.seqs() == [
            record.seq for record in poison_records()
        ]
        assert result.metrics.conservation_violations() == []

    def test_terminal_failure_quarantines_exactly_its_shard(
        self, valid_store, monkeypatch
    ):
        _retry_policy(monkeypatch, 0, 0.05)
        source = ColumnarSource(valid_store)
        plan = shard_store(source, 2)
        (failing,) = [shard for shard in plan if "user3" in shard.columns["user"]]
        expected = {record.seq: record for record in failing.chunk()}

        def never(*args, **kwargs):
            raise AssertionError("the parent read records from the store")

        built = []

        def counted(columns, templates):
            chunk = store_chunk(columns, templates)
            built.append(len(chunk))
            return chunk

        # The parent cuts shards from chunk columns; only the failed
        # shard's buffer is ever decoded back into records.
        monkeypatch.setattr(columnar, "read_chunk", never)
        monkeypatch.setattr(columnar, "_store_chunk", counted)
        config = PipelineConfig(
            error_policy="quarantine",
            detectors=[FailUserDetector("user3")] + default_detectors(),
        )
        result = repro.clean(
            source, config, execution=_parallel(2)
        )
        assert built == [len(failing)]
        pstats = result.parallel_stats
        assert pstats.shard_count == len(plan) >= 2
        assert pstats.shards_failed == 1
        assert result.quarantine.by_reason() == {SHARD_FAILURE: len(failing)}
        assert result.quarantine.seqs() == sorted(expected)
        for entry in result.quarantine:
            assert entry.record == expected[entry.record.seq]
        assert len(result.clean_log) > 0
        assert not {record.seq for record in result.clean_log} & set(expected)


# ----------------------------------------------------------------------
# Degenerate fan-outs (the Pool(processes=0) regression)


class TestDegenerateFanout:
    def test_empty_log_parallel(self):
        for workers in (0, 1, 2, 4):
            result = repro.clean(
                QueryLog(), PipelineConfig(), execution=_parallel(workers)
            )
            assert len(result.clean_log) == 0
            assert result.parallel_stats.shard_count == 0
            assert result.metrics.conservation_violations() == []

    def test_fewer_shards_than_workers(self, reference):
        # one user → one indivisible shard, far fewer than the workers
        records = [
            LogRecord(seq=i, sql=f"SELECT name FROM Employee WHERE empId = {i}",
                      timestamp=float(i * 5), user="solo")
            for i in range(3)
        ]
        log = QueryLog(records)
        batch = repro.clean(log, PipelineConfig())
        result = repro.clean(log, PipelineConfig(), execution=_parallel(4))
        assert result.clean_log == batch.clean_log
        assert result.parallel_stats.shard_count == 1
        assert result.metrics.comparable() == batch.metrics.comparable()
