"""The template dictionary: preload, store witnesses, checkpoint carry.

A run can warm its parse caches from the templates of an earlier run.
The dictionary travels as witness statements in three carriers: a
columnar store's ``templates.bin`` (one first-seen statement per stored
template), the witness list a streaming checkpoint carries, and the
store's witnesses a parallel run ships in every shard payload.  The
safety contract is that a dictionary can only ever change *speed*:
every witness re-parses through the run's own cold path on load, and a
malformed witness list falls back to a cold start — never an exception,
never a different clean log.  A store file that no longer decompresses,
or a ``templates.bin`` without its list of texts, is another matter:
``templates.bin`` also holds the template texts the chunks refer to,
so reading the store raises a ``ValueError`` that names the damaged
file.
"""

import json
import zlib

import pytest

import repro
from repro.log import LogRecord
from repro.obs import Recorder
from repro.pipeline import parallel
from repro.pipeline.config import ExecutionConfig, PipelineConfig
from repro.pipeline.framework import parse_log
from repro.skeleton.cache import _UNSAFE, TemplateCache
from repro.store.columnar import write_columnar
from repro.store.sources import ColumnarSource
from repro.workload.generator import generate_log

STATEMENTS = [
    "SELECT a FROM t WHERE b = 1",
    "SELECT name FROM employee WHERE empid = 8",
    "SELECT x FROM t WHERE name = 'abc' AND k IN (1, 2, 3)",
    "SELECT TOP 10 a FROM t WHERE b BETWEEN 1 AND 2 ORDER BY a DESC",
]

#: Every executor a store run can take.
EXECUTIONS = [
    ExecutionConfig(mode="batch"),
    ExecutionConfig(mode="streaming"),
    ExecutionConfig(mode="parallel", workers=1),
    ExecutionConfig(mode="parallel", workers=2),
]
EXECUTION_IDS = ["batch", "streaming", "parallel-inline", "parallel-pool"]
#: The executors a damaged store file must fail loudly on.
DAMAGE_EXECUTIONS = [EXECUTIONS[0], EXECUTIONS[1], EXECUTIONS[3]]


def record(sql, seq=0):
    return LogRecord(seq=seq, sql=sql, timestamp=float(seq), user="u")


def warmed_cache():
    cache = TemplateCache()
    for i, sql in enumerate(STATEMENTS):
        cache.build(record(sql, seq=i))
    return cache


def write_store(tmp_path, name="log.columnar"):
    log = generate_log(seed=11, scale=0.03)
    store = tmp_path / name
    write_columnar(log, store)
    return log, store


def parse_counters(result):
    return result.metrics.as_dict()["stages"]["parse"]["counters"]


def raw_verdicts(cache):
    """The raw memo in LRU order: each key's fold indexes once verified,
    or ``"unsafe"``."""
    return [
        (key, "unsafe" if memo is _UNSAFE else memo[1])
        for key, memo in cache._by_raw.items()
    ]


class TestPreload:
    def test_preload_is_counter_neutral_and_hits_afterwards(self):
        witnesses = warmed_cache().dict_witnesses()
        assert len(witnesses) == len(STATEMENTS)
        fresh = TemplateCache()
        loaded = fresh.preload(witnesses)
        assert loaded == len(STATEMENTS)
        # Warming must not pollute the run's cache-traffic ledger.
        assert fresh.hits == 0 and fresh.misses == 0
        # Re-fetching a witness's sibling is now a hit, not a cold parse.
        sibling = record("SELECT a FROM t WHERE b = 999", seq=50)
        assert fresh.fetch(sibling) is not None
        assert fresh.hits == 1 and fresh.misses == 0

    def test_unparseable_witnesses_are_skipped(self):
        cache = TemplateCache()
        loaded = cache.preload(["SELECT '", "SELECT a FROM t WHERE b = 1"])
        assert loaded == 1

    def test_witnesses_preload_the_same_raw_keys(self):
        cache = TemplateCache()
        parse_log(generate_log(seed=11, scale=0.03), cache=cache, recorder=Recorder())
        witnesses = cache.dict_witnesses()
        assert len(witnesses) == cache.raw_entries > 0
        fresh = TemplateCache()
        assert fresh.preload(witnesses) == len(witnesses)
        assert fresh.raw_entries == cache.raw_entries
        verified = [item for item in raw_verdicts(cache) if item[1] != "unsafe"]
        assert sorted(raw_verdicts(fresh)) == sorted(verified)


class TestStoreAutoWarm:
    def test_columnar_store_witnesses_warm_the_run(self, tmp_path):
        log, store = write_store(tmp_path)
        assert ColumnarSource(store).template_witnesses()
        reference = repro.clean(log)
        result = repro.clean(str(store), execution="streaming")
        assert parse_counters(result)["parse_dict_preloaded"] > 0
        assert result.clean_log.records() == reference.clean_log.records()

    @pytest.mark.parametrize("execution", EXECUTIONS, ids=EXECUTION_IDS)
    def test_every_executor_warms_identically(self, tmp_path, execution):
        log, store = write_store(tmp_path)
        reference = repro.clean(log)
        result = repro.clean(str(store), execution=execution)
        assert parse_counters(result)["parse_dict_preloaded"] > 0
        assert result.clean_log.records() == reference.clean_log.records()
        assert result.metrics.comparable() == reference.metrics.comparable()
        assert not result.metrics.conservation_violations()

    def test_damaged_store_dictionary_degrades_cold(self, tmp_path):
        _, store = write_store(tmp_path)
        (store / "templates.bin").write_bytes(b"damaged")
        assert ColumnarSource(store).template_witnesses() == []
        for execution in DAMAGE_EXECUTIONS:
            with pytest.raises(ValueError, match=r"templates\.bin.*convert"):
                repro.clean(str(store), execution=execution)

    def test_damaged_store_chunk_names_the_file(self, tmp_path):
        _, store = write_store(tmp_path)
        (store / "chunk-00000.bin").write_bytes(b"damaged")
        for execution in DAMAGE_EXECUTIONS:
            with pytest.raises(ValueError, match=r"chunk-00000\.bin.*convert"):
                repro.clean(str(store), execution=execution)

    @pytest.mark.parametrize(
        "payload",
        [{"witnesses": []}, {"texts": 3}, {"texts": ["SELECT a", 7]}, []],
        ids=["no-texts", "non-list", "non-text", "non-object"],
    )
    def test_store_dictionary_without_texts_names_the_file(
        self, tmp_path, payload
    ):
        """``templates.bin`` decompresses, but holds no list of texts."""
        _, store = write_store(tmp_path)
        (store / "templates.bin").write_bytes(
            zlib.compress(json.dumps(payload).encode("utf-8"))
        )
        assert ColumnarSource(store).template_witnesses() == []
        for execution in DAMAGE_EXECUTIONS:
            with pytest.raises(ValueError, match=r"templates\.bin.*convert"):
                repro.clean(str(store), execution=execution)


def rewrite_witnesses(store, witnesses):
    """Hand-edit ``templates.bin`` to carry ``witnesses`` instead."""
    path = store / "templates.bin"
    payload = json.loads(zlib.decompress(path.read_bytes()))
    payload["witnesses"] = witnesses
    path.write_bytes(zlib.compress(json.dumps(payload).encode("utf-8")))


class TestShippedWitnesses:
    def test_worker_cache_matches_the_parents_preload(self, tmp_path, monkeypatch):
        """A pool run ships the store's witness texts; a worker preloading
        them holds the same memos as the parent's preloaded cache."""
        _, store = write_store(tmp_path)
        parent_caches, shipped = [], []

        def recording_open(config, witnesses=None, cache=None):
            opened = open_parse_cache(config, witnesses, cache)
            parent_caches.append(opened[0])
            return opened

        def recording_pool(self, shards, workers, quarantine, witnesses):
            shipped.append(witnesses)
            return run_pool(self, shards, workers, quarantine, witnesses)

        open_parse_cache = parallel.open_parse_cache
        run_pool = parallel.ParallelCleaner._run_pool
        monkeypatch.setattr(parallel, "open_parse_cache", recording_open)
        monkeypatch.setattr(parallel.ParallelCleaner, "_run_pool", recording_pool)
        config = PipelineConfig()
        repro.clean(str(store), config, execution=EXECUTIONS[3])
        monkeypatch.undo()
        (parent,) = parent_caches
        (witnesses,) = shipped
        assert type(witnesses) is tuple
        assert witnesses == tuple(ColumnarSource(store).template_witnesses())

        monkeypatch.setattr(parallel, "_WORKER_CACHE", None)
        monkeypatch.setattr(parallel, "_WORKER_CACHE_KEY", None)
        worker = parallel._process_parse_cache(config, witnesses)
        assert worker is not parent
        assert parent.raw_entries > 0
        assert list(worker._text) == list(parent._text)
        assert raw_verdicts(worker) == raw_verdicts(parent)
        assert (worker.hits, worker.misses, worker.evictions) == (0, 0, 0)


class TestMalformedStoreWitnesses:
    """``templates.bin`` is the one persisted dictionary, so it checks
    what any dictionary must: its witnesses are a list of texts, and
    anything else only costs a cold start."""

    @pytest.mark.parametrize(
        "witnesses",
        [[123, None], ["SELECT a FROM t", 7], "oops", {"a": 1}, None],
        ids=["non-text", "mixed", "string", "object", "null"],
    )
    def test_loader_returns_no_witnesses(self, tmp_path, witnesses):
        from repro.store.columnar import load_templates

        _, store = write_store(tmp_path)
        texts, _ = load_templates(store)
        rewrite_witnesses(store, witnesses)
        assert load_templates(store) == (texts, [])
        assert ColumnarSource(store).template_witnesses() == []

    @pytest.mark.parametrize("execution", EXECUTIONS, ids=EXECUTION_IDS)
    def test_every_executor_starts_cold(self, tmp_path, execution):
        _, store = write_store(tmp_path)
        _, damaged = write_store(tmp_path, "damaged.columnar")
        rewrite_witnesses(damaged, [123, None])
        undamaged = repro.clean(str(store), execution=execution)
        result = repro.clean(str(damaged), execution=execution)
        assert parse_counters(undamaged)["parse_dict_preloaded"] > 0
        assert parse_counters(result)["parse_dict_preloaded"] == 0
        assert result.clean_log.records() == undamaged.clean_log.records()
        assert result.metrics.comparable() == undamaged.metrics.comparable()
        assert not result.metrics.conservation_violations()


class TestCheckpointWitnessCarry:
    def test_resumed_run_restarts_warm(self, tmp_path):
        log = generate_log(seed=11, scale=0.03)
        reference = repro.clean(log, execution="streaming")

        from repro.pipeline.streaming import StreamingCleaner

        config = repro.PipelineConfig(
            execution=ExecutionConfig(mode="streaming")
        )
        records = log.records()
        half = len(records) // 2
        first = StreamingCleaner(config)
        head = list(first.feed(records[:half]))
        state = first.export_state()
        assert state["template_dict_witnesses"]

        second = StreamingCleaner(config)
        second.restore_state(state)
        tail = list(second.feed(records[half:])) + list(second.finish())
        assert head + tail == reference.clean_log.records()
        # The carried witnesses warmed the revived cache (the stat is
        # mirrored into the ledger at the next counter flush).
        assert second.stats.parse_dict_preloaded > 0

    def test_old_checkpoint_without_witnesses_still_restores(self, tmp_path):
        log = generate_log(seed=11, scale=0.03)
        from repro.pipeline.streaming import StreamingCleaner

        config = repro.PipelineConfig(
            execution=ExecutionConfig(mode="streaming")
        )
        records = log.records()
        first = StreamingCleaner(config)
        list(first.feed(records[: len(records) // 2]))
        state = first.export_state()
        state.pop("template_dict_witnesses")
        second = StreamingCleaner(config)
        second.restore_state(state)  # must not raise
        assert second.stats.parse_dict_preloaded == 0
