"""Self-checks of the E29 benchmark harness.

    PYTHONPATH=src python -m pytest e29_ledger/test_harness.py -q

Runs the ledger at ``--smoke`` scale (about a minute on two cores) and
one short ``run.py`` invocation per trace mode, plus unit checks of the output verification and
the gate.
"""

import json
import multiprocessing
import re
import signal
import subprocess
import sys
import time

import pytest

import gate
import ledger
import speed
from harness import (
    BENCHMARK_JSON,
    HERE,
    ROOT,
    Reference,
    Sample,
    load_benchmark,
    measure,
    reference,
    verify,
    workspace,
)
from speed import REFERENCE_S
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def work():
    with workspace() as path:
        yield path


@pytest.fixture(scope="module")
def smoke_report(work):
    out = work / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "ledger.py"), "--smoke", "--runs", "1", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text())


def test_benchmark_json_names_and_limits():
    benchmark = load_benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert len(benchmark["end_to_end"]) <= 16
    assert len(benchmark["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in benchmark[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    for entry in benchmark["per_layer"]:
        assert ledger.unit_of(entry["name"]) == entry["unit"], entry
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert all(0 < bound <= 0.20 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(BENCHMARK_JSON.read_bytes()) <= 64 * 1024


def _outcome(digest="a" * 64):
    return {"log_sha256": digest, "ledger_sha256": "b" * 64, "violations": []}


def test_verify_flags_corrupted_digests_and_violations():
    expected = Reference(records=10, log_sha256="a" * 64, ledger_sha256="b" * 64, mode="batch")
    report = {"records": 10, **_outcome(), "warm": _outcome()}
    assert verify(report, expected) == []
    assert verify({**report, "log_sha256": "c" * 64}, expected)
    assert verify({**report, "ledger_sha256": "c" * 64}, expected)
    assert verify({**report, "warm": _outcome("c" * 64)}, expected)
    assert verify({**report, "violations": ["dedup: 1 != 2"]}, expected)
    assert verify({**report, "records": 9}, expected)
    assert verify({**report, "reconciliation": ["misses == parse_cache_misses: 1 != 2"]}, expected)


def test_timings_scale_to_the_reference_speed():
    report = {"records": 1000, "wall_s": 2.0, "cpu_s": 3.0, "peak_rss_mb": 80.0}
    at_reference = Sample("plain", {**report, "speed": {"setup": 1.0, "call": 1.0}}, 0.5, 3.0)
    assert at_reference.at_reference_speed() == {
        "wall_s": 2.0, "queries_per_s": 500.0, "cpu_s": 3.0, "peak_rss_mb": 80.0, "setup_s": 0.5
    }
    slow_host = Sample("plain", {**report, "speed": {"setup": 0.25, "call": 0.5}}, 0.5, 3.0)
    assert slow_host.at_reference_speed() == {
        "wall_s": 1.0, "queries_per_s": 1000.0, "cpu_s": 1.5, "peak_rss_mb": 80.0, "setup_s": 0.125
    }
    # Half the time at the reference speed, half at half of it.
    assert speed.factor([REFERENCE_S, REFERENCE_S * 2]) == 0.75


def _busy(seconds):
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass


def test_sampler_probes_the_process_and_its_forked_workers(work):
    spool = work / "spool"
    spool.mkdir()
    with speed.Sampler(spool) as sampler:
        worker = multiprocessing.get_context("fork").Process(target=_busy, args=(0.5,))
        worker.start()
        _busy(0.5)
        worker.join()
        own = sampler.take()
    assert len(own) >= 5 and len(sampler.forked()) >= 5
    assert all(0 < p < 1 for p in own + sampler.forked())
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.take()) == 1  # nothing since the last take: one probe now


def test_corrupted_reference_fails_a_real_run(work):
    workload = WORKLOADS["seed2018-batch"]
    size = workload.size("smoke")
    expected = reference(workload, 7, size, work, 120)
    assert measure(workload, 7, size, work, expected, 120).ok
    corrupted = Reference(**{**expected.as_dict(), "log_sha256": "0" * 64})
    assert not measure(workload, 7, size, work, corrupted, 120).ok


BOUNDS = gate.bounds_of(load_benchmark())


def _report(worse=0.0, spread=0.02, failed=0.0):
    """A one-workload ledger report whose every end-to-end median is worse
    than a baseline of 10.0 by ``worse`` times that metric's bound."""
    stats = {}
    for metric, (better, bound) in BOUNDS.items():
        change = worse * bound if better == "lower" else -worse * bound
        median = 10.0 * (1 + change)
        stats[metric] = {
            "median": median,
            "q1": median * (1 - spread / 2),
            "q3": median * (1 + spread / 2),
            "n": 5,
        }
    stats["failed_share"] = {"median": failed, "q1": failed, "q3": failed, "n": 6}
    return {
        "seed": 2018,
        "tier": "full",
        "revision": "0" * 40,
        "references": {"w": {"log_sha256": "a", "ledger_sha256": "b"}},
        "workloads": {
            "w": {
                "attempted": 6,
                "end_to_end": stats,
                "samples": [],
                "reconciliation_broken": [],
            }
        },
    }


def _statuses(fresh, baseline):
    return {(v.metric, v.status) for v in gate.compare(fresh, baseline, BOUNDS)}


def test_gate_flags_a_slowdown_past_the_bound_and_passes_one_within():
    slower = _statuses(_report(worse=1.2), _report())
    assert {(metric, "FAIL") for metric in BOUNDS} <= slower
    within = _statuses(_report(worse=0.2), _report())
    assert not any(status == "FAIL" for _, status in within)
    faster = _statuses(_report(worse=-1.5), _report())
    assert not any(status == "FAIL" for _, status in faster)


def test_gate_reports_a_wide_spread_as_unresolved():
    statuses = _statuses(_report(worse=0.2, spread=0.6), _report())
    assert {(metric, "unresolved") for metric in BOUNDS} <= statuses


def test_gate_fails_failed_runs_and_changed_output():
    assert ("failed_share", "FAIL") in _statuses(_report(failed=0.2), _report())
    drifted = _report()
    drifted["references"]["w"]["log_sha256"] = "c"
    assert ("log_sha256", "FAIL") in _statuses(drifted, _report())
    other = _report()
    other["seed"] = 1
    assert ("*", "FAIL") in _statuses(other, _report())


def test_smoke_ledger_passes_and_reconciles(smoke_report):
    benchmark = load_benchmark()
    layer_names = [entry["name"] for entry in benchmark["per_layer"]]
    assert set(smoke_report["workloads"]) == set(WORKLOADS)
    for name, entry in smoke_report["workloads"].items():
        assert entry["end_to_end"]["failed_share"]["median"] == 0, entry["failures"]
        assert entry["reconciliation_broken"] == []
        layers = entry["per_layer"]
        assert len(layers) <= 128
        assert all(NAME.fullmatch(layer) for layer in layers)
        assert set(layer_names) <= set(layers)
        ledger = entry["parse_counters"]
        hits = sum(
            layers[f"parse.{tier}"]["value"]
            for tier in ("memo_hits", "l1_hits", "raw_hits", "fp_hits")
        )
        assert layers["parse.memo_hits"]["value"] >= 0
        assert hits == ledger["parse_cache_hits"]
        assert layers["parse.misses"]["value"] == ledger["parse_cache_misses"]
        assert layers["parse.cold_builds"]["value"] == ledger["parse_cold"]
        assert layers["parse.materialised"]["value"] == ledger["parse_materialised"]
    refs = smoke_report["references"]
    assert refs["store-streaming"] == refs["store-parallel2"]
    assert smoke_report["anomalies"]["failures"] == []


def test_bench_tier_holds_every_claim(smoke_report):
    bench = smoke_report["bench_tier"]
    assert set(bench) == set(WORKLOADS)
    for name, entry in bench.items():
        assert entry["failures"] == [], (name, entry["failures"])
        assert entry["claims"] and all(entry["claims"].values()), (name, entry["claims"])


def test_run_py_output():
    benchmark = load_benchmark()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", "seed2018-batch",
                "--seed", "3", "--seconds", "1", "--trace", str(trace),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            entry["name"]: entry["unit"] for entry in benchmark[section]
        }
