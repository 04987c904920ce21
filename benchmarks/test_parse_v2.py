"""E26 — Parse engine v2: lazy-bound templates.

Cleans the seed-2018 synthetic workload end to end on every executor
with the parse cache on — fingerprint and raw-memo hits emit lazy
skeleton binds — against a batch reference with the cache off, which
parses every statement eagerly.  It asserts byte-identical clean logs,
equal comparable ledgers, zero conservation violations and the
``parse_lazy_hits + parse_eager == records_out`` split per run: the
lazy path must be invisible in every output.  A single cached parse
pass must additionally materialise *nothing* — the parse stage only
ever touches skeleton facts.  Results land in ``BENCH_parse_v2.json``
next to this file.

``REPRO_PARSEV2_BENCH_SCALE`` sets the size (5.8 ≈ 100k queries).  This
file deliberately avoids the pytest-benchmark fixture so the CI
benchmark-smoke step can run it with plain pytest.
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

#: ~17.2k queries per unit of scale; 5.8 ≈ the 100k-query full scale.
BENCH_SCALE = float(os.environ.get("REPRO_PARSEV2_BENCH_SCALE", "5.8"))
BENCH_SEED = int(os.environ.get("REPRO_PARSEV2_BENCH_SEED", "2018"))
OUTPUT_PATH = Path(__file__).parent / "BENCH_parse_v2.json"

#: The executor matrix compared against the cacheless reference.
EXECUTIONS = (
    ("batch", "batch"),
    ("streaming", "streaming"),
    ("parallel-1", ExecutionConfig(mode="parallel", workers=1)),
    ("parallel-2", ExecutionConfig(mode="parallel", workers=2)),
    ("parallel-4", ExecutionConfig(mode="parallel", workers=4)),
)


def test_parse_v2(bench_config):
    workload = generate(WorkloadConfig(seed=BENCH_SEED, scale=BENCH_SCALE))
    log = workload.log
    records = log.records()
    shared_config = replace(bench_config, sws=None)

    # ------------------------------------------------------------------
    # One cached parse pass: the parse stage itself must never force a
    # materialisation.
    cache = TemplateCache()
    parse_log(records, cache=cache)
    parse_pass_materialised = cache.materialised
    assert parse_pass_materialised == 0, parse_pass_materialised

    report = {
        "queries": len(records),
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "materialised_during_parse": parse_pass_materialised,
    }

    # ------------------------------------------------------------------
    # End-to-end differential: lazy executors vs a cacheless (eager)
    # batch reference — identical clean logs, equal comparable ledgers.
    reference = cacheless_run(log, shared_config)
    assert reference.metrics.conservation_violations() == []
    reference_records = reference.clean_log.records()
    reference_view = reference.metrics.comparable()
    assert (
        reference.metrics.stages["parse"].counters["parse_lazy_hits"] == 0
    )

    runs = []
    for name, execution in EXECUTIONS:
        recorder = Recorder()
        started = time.perf_counter()
        result = repro.clean(
            log, shared_config, execution=execution, recorder=recorder
        )
        seconds = time.perf_counter() - started
        counters = result.metrics.stages["parse"].counters
        runs.append(
            {
                "mode": name,
                "seconds": seconds,
                "parse_seconds": result.metrics.stages["parse"].wall_seconds,
                "lazy_hits": counters["parse_lazy_hits"],
                "eager": counters["parse_eager"],
                "materialised": counters["parse_materialised"],
                "records_out": counters["records_out"],
                "identical_to_reference": result.clean_log.records()
                == reference_records,
                "metrics_match_reference": result.metrics.comparable()
                == reference_view,
                "conservation_violations": result.metrics.conservation_violations(),
            }
        )
    report["clean_runs"] = runs

    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print_table(
        f"End-to-end, parse cache on vs cacheless batch reference — "
        f"{report['queries']:,} queries (scale {BENCH_SCALE})",
        ["mode", "seconds", "lazy", "materialised", "identical", "metrics"],
        [
            (
                run["mode"],
                f"{run['seconds']:.2f}",
                f"{run['lazy_hits']:,}",
                f"{run['materialised']:,}",
                "yes" if run["identical_to_reference"] else "NO",
                "match" if run["metrics_match_reference"] else "DIVERGED",
            )
            for run in runs
        ],
    )

    # ------------------------------------------------------------------
    # Acceptance bars.
    assert all(run["identical_to_reference"] for run in runs)
    assert all(run["metrics_match_reference"] for run in runs)
    assert all(run["conservation_violations"] == [] for run in runs)
    for run in runs:
        assert run["lazy_hits"] + run["eager"] == run["records_out"], run
        assert run["lazy_hits"] > 0, run
        assert run["materialised"] <= run["lazy_hits"], run
