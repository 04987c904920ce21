"""Differential tests: the store-native shard plane.

A parallel run over a columnar store cuts its shards straight from the
chunk columns (:func:`~repro.pipeline.parallel.shard_store`), and each
worker binds its records by the splits the shard buffer ships
(:class:`~repro.store.columnar.StoredSplits`, under the store's shape
rule) instead of raw-scanning every statement.  Neither may change a
verdict:

* parallel-2 and parallel-4 over a store, over the same log in RAM, and
  batch clean every E29 input (``e29_ledger/workloads.py``, smoke size)
  and the poisoned fault-suite store to equal clean logs, equal
  ``comparable()`` ledgers and equal quarantines;
* a worker shard cut from the bench-shaped store makes no raw scan on
  its hit path: once its cache is warm, a re-run scans nothing.
"""

from __future__ import annotations

import pytest

import repro
from repro.pipeline import ExecutionConfig, PipelineConfig, parallel
from repro.pipeline.framework import open_parse_cache
from repro.pipeline.parallel import shard_store
from repro.skeleton import cache as cache_module
from repro.store import ColumnarSource, encode_shard, write_columnar
from tests.faults.test_fault_injection import poison_records, valid_records
from tests.frozen import e29_workloads

PARALLEL = [
    ExecutionConfig(mode="parallel", workers=2),
    ExecutionConfig(mode="parallel", workers=4),
]

#: One workload per distinct E29 input: ``store-parallel2`` reads the
#: same log as ``store-streaming``.
E29_INPUTS = ["seed2018-batch", "longtail-batch", "store-streaming"]


def quarantine_view(result):
    """The quarantine as a multiset, independent of shard order."""
    return sorted(
        (entry.record.seq, entry.reason, entry.stage)
        for entry in result.quarantine
    )


def assert_same_runs(log, store, config):
    """Batch in RAM is the reference for parallel-2/4 from RAM and from
    the store."""
    reference = repro.clean(log, config)
    for execution in PARALLEL:
        for input_name, source in (
            ("ram", log),
            ("store", ColumnarSource(store)),
        ):
            run = f"{input_name}-parallel-{execution.workers}"
            result = repro.clean(source, config, execution=execution)
            assert result.parallel_stats.shard_count >= 2, run
            assert (
                result.clean_log.records() == reference.clean_log.records()
            ), run
            assert (
                result.metrics.comparable() == reference.metrics.comparable()
            ), run
            assert quarantine_view(result) == quarantine_view(reference), run
            assert result.metrics.conservation_violations() == [], run


@pytest.mark.parametrize("name", E29_INPUTS)
def test_e29_input_cleans_alike_from_store_ram_and_batch(name, tmp_path):
    workloads = e29_workloads()
    workload = workloads.WORKLOADS[name]
    log = workloads.build_log(workload, 2018, workload.size("smoke"))
    store = tmp_path / "log.columnar"
    write_columnar(log, store, chunk_records=8192)
    assert_same_runs(log, store, workloads.pipeline_config())


@pytest.mark.parametrize("policy", ["quarantine", "lenient"])
def test_poisoned_store_cleans_alike_from_store_ram_and_batch(policy, tmp_path):
    log = repro.QueryLog(valid_records() + poison_records())
    store = tmp_path / "log.columnar"
    write_columnar(log, store, chunk_records=40)
    assert_same_runs(log, store, PipelineConfig(error_policy=policy))


@pytest.fixture(scope="module")
def bench_shaped_shards(tmp_path_factory):
    """The smoke ``store-parallel2`` store cut for two workers, encoded,
    with the witnesses and config its shard payloads carry."""
    workloads = e29_workloads()
    workload = workloads.WORKLOADS["store-parallel2"]
    log = workloads.build_log(workload, 2018, workload.size("smoke"))
    store = tmp_path_factory.mktemp("plane") / "log.columnar"
    write_columnar(log, store, chunk_records=8192)
    source = ColumnarSource(store)
    config = workloads.pipeline_config()
    witnesses = tuple(source.template_witnesses())
    _, preloaded = open_parse_cache(config, witnesses)
    assert preloaded > 0
    buffers = [encode_shard(shard) for shard in shard_store(source, 2)]
    return buffers, witnesses, config, len(log)


def test_a_worker_shard_binds_by_its_shipped_splits(
    bench_shaped_shards, monkeypatch
):
    buffers, witnesses, config, rows = bench_shaped_shards
    assert len(buffers) >= 2
    scans = []

    def counted(text):
        scans.append(text)
        return raw_scan(text)

    monkeypatch.setattr(parallel, "_WORKER_CACHE", None)
    monkeypatch.setattr(parallel, "_WORKER_CACHE_KEY", None)
    # The worker's cache is preloaded from the shipped witnesses once,
    # before its first shard; only the shards' own scans are counted.
    parallel._process_parse_cache(config, witnesses)
    raw_scan = cache_module._raw_scan
    monkeypatch.setattr(cache_module, "_raw_scan", counted)
    # A cold worker scans what its warm cache cannot bind: cold builds,
    # and rows whose split the shape rule did not vouch for.
    cold = [
        parallel._clean_shard_encoded((index, buffer, config, witnesses))
        for index, buffer in enumerate(buffers)
    ]
    misses = sum(
        report.metrics.stages["parse"].counters["parse_cache_misses"]
        for report in cold
    )
    assert len(scans) <= misses + rows // 100
    # Its hit path scans nothing: a warm worker re-runs every shard
    # without one raw scan, every record a hit.
    del scans[:]
    warm = [
        parallel._clean_shard_encoded((index, buffer, config, witnesses))
        for index, buffer in enumerate(buffers)
    ]
    assert scans == []
    for report in warm:
        counters = report.metrics.stages["parse"].counters
        assert counters["parse_cache_misses"] == 0
        assert counters["parse_cache_hits"] == counters["records_in"] > 0
    assert [r.clean_records for r in warm] == [r.clean_records for r in cold]
