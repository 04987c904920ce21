"""E20 — scaling: pipeline cost vs log size.

The paper processes 42M queries; whatever we reproduce must scale
sanely.  This bench runs the full pipeline (batch) and the streaming
cleaner on logs of increasing scale and checks

* batch and streaming produce identical clean logs,
* runtime grows roughly linearly with log size (no quadratic blow-up:
  the miner, detectors and solver are all block-local),
* streaming memory (peak open queries) stays far below the log size.
"""

import time
from dataclasses import replace

from conftest import print_table

import repro
from repro.pipeline import CleaningPipeline
from repro.workload import WorkloadConfig, generate

SCALES = (0.1, 0.2, 0.4)


def test_scaling(benchmark, bench_config):
    def run_all():
        rows = []
        for scale in SCALES:
            workload = generate(WorkloadConfig(seed=606, scale=scale))
            started = time.perf_counter()
            batch = CleaningPipeline(bench_config).run(workload.log)
            batch_seconds = time.perf_counter() - started
            started = time.perf_counter()
            streaming = repro.clean(
                workload.log,
                bench_config,
                execution=replace(bench_config.execution, mode="streaming"),
            )
            streamed = streaming.clean_log
            stats = streaming.streaming_stats
            stream_seconds = time.perf_counter() - started
            rows.append(
                {
                    "scale": scale,
                    "queries": len(workload.log),
                    "batch_seconds": batch_seconds,
                    "stream_seconds": stream_seconds,
                    "peak_open": stats.max_open_queries,
                    "identical": streamed.statements()
                    == batch.clean_log.statements(),
                }
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print_table(
        "Scaling — batch vs streaming",
        ["scale", "queries", "batch (s)", "stream (s)", "peak open", "identical"],
        [
            (
                row["scale"],
                f"{row['queries']:,}",
                f"{row['batch_seconds']:.2f}",
                f"{row['stream_seconds']:.2f}",
                row["peak_open"],
                "yes" if row["identical"] else "NO",
            )
            for row in rows
        ],
    )

    assert all(row["identical"] for row in rows)
    # size grows ~linearly with scale
    assert rows[-1]["queries"] > rows[0]["queries"] * 2.5
    # runtime stays sub-quadratic: 4x the data < ~8x the time
    size_ratio = rows[-1]["queries"] / rows[0]["queries"]
    time_ratio = rows[-1]["batch_seconds"] / max(rows[0]["batch_seconds"], 1e-9)
    assert time_ratio < size_ratio * 2.5
    # streaming memory is bounded well below the log size
    assert all(row["peak_open"] < row["queries"] * 0.5 for row in rows)
