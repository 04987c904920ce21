"""E22 — parse fast path: fingerprint-keyed template cache.

Measures the parse stage alone (the repeated-template premise of the
paper's Section 3 is exactly what the cache exploits) on the seed-2018
synthetic workload, in three configurations:

* **uncached** — the full parser for every distinct statement text;
* **cold** — a fresh :class:`~repro.skeleton.cache.TemplateCache`, so
  every fingerprint class pays one full parse and subsequent members
  take the one-lexer-pass fast path;
* **warm** — a second pass with the already-populated cache (the
  steady-state cost: near-100% hit rate).

It then re-cleans the log end to end on every executor with the cache
enabled against an uncached batch reference, asserting byte-identical
clean logs, equal comparable ledgers and zero conservation violations —
the fast path must be invisible in every output.  Results land in
``BENCH_parse_fastpath.json`` next to this file.

Acceptance bars asserted here: warm-cache parse throughput ≥3× the
uncached parse, cold hit rate above 50% on the seed-2018 workload, and
streaming's parse-stage seconds within 1.5× of batch's (the hot-loop
overhead fix).  This file deliberately avoids the pytest-benchmark
fixture so the CI benchmark-smoke step can run it with plain pytest.
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

from conftest import print_table

import repro
from repro.obs import Recorder
from repro.pipeline import ExecutionConfig
from repro.pipeline.framework import parse_log
from repro.skeleton.cache import TemplateCache
from repro.workload import WorkloadConfig, generate
from tests.reference import cacheless_run

#: ~17.2k queries per unit of scale with the default mixture.
BENCH_SCALE = float(os.environ.get("REPRO_FASTPATH_BENCH_SCALE", "2.0"))
BENCH_SEED = int(os.environ.get("REPRO_FASTPATH_BENCH_SEED", "2018"))
OUTPUT_PATH = Path(__file__).parent / "BENCH_parse_fastpath.json"

#: The executor matrix for the cached-vs-uncached differential.
EXECUTIONS = (
    ("batch", "batch"),
    ("streaming", "streaming"),
    ("parallel-1", ExecutionConfig(mode="parallel", workers=1)),
    ("parallel-2", ExecutionConfig(mode="parallel", workers=2)),
    ("parallel-4", ExecutionConfig(mode="parallel", workers=4)),
)


def _timed_parse(records, cache):
    started = time.perf_counter()
    result = parse_log(records, cache=cache)
    return result, time.perf_counter() - started


def test_parse_fastpath(bench_config):
    workload = generate(WorkloadConfig(seed=BENCH_SEED, scale=BENCH_SCALE))
    log = workload.log
    records = log.records()
    shared_config = replace(bench_config, sws=None)

    # ------------------------------------------------------------------
    # Parse-stage microbenchmark: uncached vs cold vs warm cache.
    parse_log(records[:200])  # warm imports/JIT-ish caches before timing

    uncached, uncached_seconds = _timed_parse(records, None)

    cache = TemplateCache()
    cold, cold_seconds = _timed_parse(records, cache)
    cold_hits, cold_misses = cache.hits, cache.misses

    warm, warm_seconds = _timed_parse(records, cache)
    warm_hits = cache.hits - cold_hits
    warm_misses = cache.misses - cold_misses

    # The fast path must be invisible in the parse artifacts themselves.
    assert cold.queries == uncached.queries
    assert warm.queries == uncached.queries
    assert cold.non_select == uncached.non_select
    assert [r for r, _ in cold.syntax_errors] == [
        r for r, _ in uncached.syntax_errors
    ]

    report = {
        "queries": len(records),
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "parse_stage": {
            "uncached_seconds": uncached_seconds,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "uncached_throughput": len(records) / uncached_seconds,
            "cold_throughput": len(records) / cold_seconds,
            "warm_throughput": len(records) / warm_seconds,
            "cold_speedup": uncached_seconds / cold_seconds,
            "warm_speedup": uncached_seconds / warm_seconds,
            "cold_hit_rate": cold_hits / (cold_hits + cold_misses),
            "warm_hit_rate": warm_hits / (warm_hits + warm_misses),
            "interned_keys": cache.key_entries,
        },
    }

    # ------------------------------------------------------------------
    # End-to-end differential: cached executors vs an uncached batch
    # reference — identical clean logs, equal comparable ledgers.
    reference = cacheless_run(log, shared_config)
    assert reference.metrics.conservation_violations() == []
    reference_records = reference.clean_log.records()
    reference_view = reference.metrics.comparable()

    runs = []
    for name, execution in EXECUTIONS:
        recorder = Recorder()
        started = time.perf_counter()
        result = repro.clean(
            log, shared_config, execution=execution, recorder=recorder
        )
        seconds = time.perf_counter() - started
        raw = result.metrics.stages["parse"].counters
        runs.append(
            {
                "mode": name,
                "seconds": seconds,
                "parse_seconds": result.metrics.stages["parse"].wall_seconds,
                "cache_hits": raw["parse_cache_hits"],
                "cache_misses": raw["parse_cache_misses"],
                "identical_to_reference": result.clean_log.records()
                == reference_records,
                "metrics_match_reference": result.metrics.comparable()
                == reference_view,
                "conservation_violations": result.metrics.conservation_violations(),
            }
        )
    report["clean_runs"] = runs
    batch_run = next(run for run in runs if run["mode"] == "batch")
    streaming_run = next(run for run in runs if run["mode"] == "streaming")
    report["streaming_vs_batch_parse_ratio"] = (
        streaming_run["parse_seconds"] / batch_run["parse_seconds"]
    )

    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    stage = report["parse_stage"]
    print_table(
        f"Parse fast path — {report['queries']:,} queries "
        f"(cold hit rate {stage['cold_hit_rate']:.1%}, "
        f"{stage['interned_keys']} interned keys)",
        ["configuration", "seconds", "stmts/s", "speedup"],
        [
            (
                label,
                f"{stage[f'{key}_seconds']:.2f}",
                f"{stage[f'{key}_throughput']:,.0f}",
                f"{stage.get(f'{key}_speedup', 1.0):.2f}x",
            )
            for label, key in (
                ("uncached", "uncached"),
                ("cold cache", "cold"),
                ("warm cache", "warm"),
            )
        ],
    )
    print_table(
        "End-to-end, cache on vs uncached batch reference "
        f"(streaming/batch parse ratio "
        f"{report['streaming_vs_batch_parse_ratio']:.2f})",
        ["mode", "seconds", "hits", "misses", "identical", "metrics"],
        [
            (
                run["mode"],
                f"{run['seconds']:.2f}",
                f"{run['cache_hits']:,}",
                f"{run['cache_misses']:,}",
                "yes" if run["identical_to_reference"] else "NO",
                "match" if run["metrics_match_reference"] else "DIVERGED",
            )
            for run in runs
        ],
    )

    # ------------------------------------------------------------------
    # Acceptance bars.
    assert stage["cold_hit_rate"] > 0.5, stage
    assert stage["warm_hit_rate"] > 0.95, stage
    assert stage["warm_speedup"] >= 3.0, (
        f"warm-cache parse only {stage['warm_speedup']:.2f}x "
        f"over uncached (uncached {uncached_seconds:.2f}s, "
        f"warm {warm_seconds:.2f}s)"
    )
    assert all(run["identical_to_reference"] for run in runs)
    assert all(run["metrics_match_reference"] for run in runs)
    assert all(run["conservation_violations"] == [] for run in runs)
    assert all(
        run["cache_hits"] + run["cache_misses"] > 0 for run in runs
    )
    # The hot-loop fix's bar: streaming parse within 1.5x of batch
    # (generous on shared hardware; the JSON records the exact ratio).
    assert report["streaming_vs_batch_parse_ratio"] <= 1.5, report[
        "streaming_vs_batch_parse_ratio"
    ]
