"""E29 cleaning ledger: what cleaning the seed-2018 log costs, and where
the time goes, for every workload in one report.

    PYTHONPATH=src python e29_ledger/ledger.py [--seed 2018] [--runs 5] [--smoke]
        [--out e29_ledger/BENCH_e29.json]

The sweep, all at the ``full`` size tier (``--smoke``: 5% of it):

1. One reference run per input (``harness.reference``): the batch
   workloads cleaned by the streaming executor, the shared store input
   by the batch executor.  Every sample must reproduce its digests.
   The store reference also writes the columnar store, once, which
   every store sample reads.
2. ``--runs`` rounds, interleaved: round *i* of every workload finishes
   before round *i+1* of any, so a slow period on the machine spreads
   over all workloads.
3. One traced sample and one ``repro.obs.NULL``-recorder sample per
   workload for the per-layer section, and the :data:`CLAIMS` each
   workload's ``why`` makes, checked on the traced sample.
4. The same traced check at the ``bench`` tier that ``run.py`` runs, so
   the report shows each ``why`` still holds on the reduced inputs.
5. The anomalies section: E21's streaming-versus-batch parse ratio and
   E25's warm-versus-cold pool ratio, re-measured on the
   ``seed2018-batch`` input with 2 workers.

It prints every metric by name with its unit, end-to-end timings at the
reference host speed of ``speed.py``, and writes the report; it exits 1
when any run failed or a claim does not hold.  ``gate.py``
compares a report against the committed one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median
from pathlib import Path
from typing import Dict, List

from harness import (
    HERE,
    ROOT,
    ProgramMissing,
    Reference,
    Sample,
    load_benchmark,
    measure,
    reference,
    require_program,
    run_child,
    summarise,
    traced_layers,
    verify,
    workspace,
)
import speed
from workloads import WORKLOADS

#: A run killed past this many seconds counts as failed.
CHILD_TIMEOUT_S = 300.0
#: Repetitions of each anomaly measurement.
ANOMALY_REPS = 3
#: An anomaly "still holds" when its slow side is at least this much
#: slower than the other (E21 reported 1.45x, E25 2.13x).
ANOMALY_BAR = 1.2


def _wall(m: Dict[str, float]) -> float:
    return m["pipeline.unattributed_s"] + sum(
        value for name, value in m.items()
        if name.startswith("pipeline.") and name != "pipeline.unattributed_s"
    )


#: What each workload's ``why`` in ``BENCHMARK.json`` says it exercises,
#: as checks on one traced call's per-layer metrics.  Checked at the
#: ``full`` tier and at the ``bench`` tier that ``run.py`` measures; the
#: ``smoke`` inputs are too small to hold them.
CLAIMS = {
    "seed2018-batch": (
        ("the parse cache serves >= 95% of parsed records",
         lambda m: m["parse.hit_ratio"] >= 0.95),
        ("registry, detect and solve take over half the wall",
         lambda m: m["pipeline.registry_s"] + m["pipeline.detect_s"]
         + m["pipeline.solve_s"] > 0.5 * _wall(m)),
    ),
    "longtail-batch": (
        ("the working set overflows the parse cache: it evicts",
         lambda m: m["parse.evictions"] > 0),
        ("cold builds are over a quarter of the fetches",
         lambda m: m["parse.cold_builds"]
         > 0.25 * (m["parse.l1_hits"] + m["parse.raw_hits"] + m["parse.fp_hits"]
                   + m["parse.misses"])),
        ("parse takes over half the wall",
         lambda m: m["pipeline.parse_s"] > 0.5 * _wall(m)),
    ),
    "store-streaming": (
        ("reads the store in >= 5 chunks", lambda m: m["store.chunks_read"] >= 5),
        ("closes streaming blocks", lambda m: m["streaming.blocks_closed"] >= 1),
    ),
    "store-parallel2": (
        ("ships >= 2 encoded shards to the pool",
         lambda m: m["parallel.shards"] >= 2 and m["parallel.bytes_shipped"] > 0),
        ("the parent encodes and waits on the workers",
         lambda m: m["parallel.encode_s"] > 0 and m["parallel.wait_s"] > 0),
    ),
}


def check_claims(name: str, layers: Dict[str, float]) -> Dict[str, bool]:
    return {claim: bool(holds(layers)) for claim, holds in CLAIMS[name]}


RATIOS = {
    "parse.hit_ratio",
    "parallel.shard_skew",
    "parallel.worker_busy_share",
    "run.warm_over_cold",
    "obs.tracing_overhead",
    "obs.recorder_overhead",
}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "ratio" if name in RATIOS else "count"


def revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(plain: List[Sample], attempted: List[Sample]) -> Dict[str, dict]:
    """Medians and quartiles over the passing untraced samples, timings at
    the reference host speed, plus the failed share of every sample the
    workload attempted."""
    good = [s.at_reference_speed() for s in plain if s.ok]
    section = {}
    for metric in load_benchmark()["end_to_end"]:
        name = metric["name"]
        stats = summarise([row[name] for row in good]) if good else {}
        section[name] = {**stats, "unit": metric["unit"], "better": metric["better"]}
    share = sum(not s.ok for s in attempted) / len(attempted)
    section["failed_share"] = {
        "median": share, "q1": share, "q3": share, "n": len(attempted),
        "unit": "ratio", "better": "lower",
    }
    return section


def per_layer(
    workload, traced: Sample, plain: List[Sample], null: Sample, expected: Reference
) -> Dict[str, dict]:
    good = [s for s in plain if s.ok]
    if not (traced.ok and null.ok and good):
        return {}
    values = traced_layers([traced], good, [null], expected.store)
    section = {}
    for name, value in values.items():
        entry = {"value": value, "unit": unit_of(name)}
        if workload.mode == "streaming" and name.startswith("pipeline."):
            # Streaming books validate/dedup/parse as per-record sums
            # credited in bulk, not as measured spans.
            entry["estimated"] = True
        section[name] = entry
    return section


def anomalies(seed: int, size: float, work: Path, expected) -> dict:
    """E21 and E25 re-measured on the ``seed2018-batch`` input."""
    base = {"role": "clean", "workload": "seed2018-batch", "seed": seed, "size": size}
    parse_s: Dict[str, List[float]] = {"batch": [], "streaming": []}
    cold: List[float] = []
    warm: List[float] = []
    failures: List[str] = []
    for _ in range(ANOMALY_REPS):
        for mode in ("batch", "streaming"):
            run = run_child({**base, "mode": mode}, work, CHILD_TIMEOUT_S)
            if run.report is None:
                failures.append(f"{mode}: {run.error}")
                continue
            failures.extend(f"{mode}: {f}" for f in verify(run.report, expected))
            parse_s[mode].append(run.report["stage_s"]["parse"])
        run = run_child(
            {**base, "mode": "parallel", "workers": 2, "warm": True},
            work,
            CHILD_TIMEOUT_S,
        )
        if run.report is None:
            failures.append(f"parallel: {run.error}")
            continue
        failures.extend(f"parallel: {f}" for f in verify(run.report, expected))
        cold.append(run.report["wall_s"])
        warm.append(run.report["warm_wall_s"])
    if failures or not (cold and all(parse_s.values())):
        return {"failures": failures}
    parse_ratio = median(parse_s["streaming"]) / median(parse_s["batch"])
    pool_ratio = median(warm) / median(cold)
    return {
        "e21_streaming_vs_batch_parse": {
            "batch_parse_s": summarise(parse_s["batch"]),
            "streaming_parse_s": {**summarise(parse_s["streaming"]), "estimated": True},
            "ratio": parse_ratio,
            "reported": {"ratio": 1.45, "batch_parse_s": 33.6, "streaming_parse_s": 48.8},
            "holds": parse_ratio >= ANOMALY_BAR,
        },
        "e25_warm_vs_cold_pool": {
            "workers": 2,
            "cold_wall_s": summarise(cold),
            "warm_wall_s": summarise(warm),
            "ratio": pool_ratio,
            "reported": {"ratio": 2.13, "cold_wall_s": 9.0, "warm_wall_s": 19.2},
            "holds": pool_ratio >= ANOMALY_BAR,
        },
        "bar": f"an anomaly holds when its slow side is >= {ANOMALY_BAR}x the other",
        "failures": [],
    }


def references(seed: int, tier: str, work: Path) -> Dict[str, Reference]:
    expected: Dict[str, Reference] = {}
    for name, workload in WORKLOADS.items():
        twin = next((other for other in expected if WORKLOADS[other].store), None)
        if workload.store and twin:
            expected[name] = expected[twin]  # the store workloads share one input
        else:
            expected[name] = reference(
                workload, seed, workload.size(tier), work, CHILD_TIMEOUT_S
            )
    return expected


def bench_tier(seed: int, work: Path) -> Dict[str, dict]:
    """One traced call per workload on the ``bench`` inputs ``run.py``
    measures, with the :data:`CLAIMS` its ``why`` makes checked on it."""
    whys = {w["name"]: w["why"] for w in load_benchmark()["workloads"]}
    expected = references(seed, "bench", work)
    section = {}
    for name, workload in WORKLOADS.items():
        traced = measure(
            workload, seed, workload.size("bench"), work, expected[name],
            CHILD_TIMEOUT_S, kind="traced",
        )
        entry = {
            "why": whys[name],
            "size": workload.size("bench"),
            "records": expected[name].records,
            "failures": traced.failures,
        }
        if traced.report is not None:
            layers = dict(traced.report["layers"])
            store = expected[name].store
            if store is not None:
                layers["store.bytes_written"] = store.bytes_written
            entry.update(
                wall_s=traced.report["wall_s"],
                peak_rss_mb=traced.report["peak_rss_mb"],
                per_layer={k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()},
                claims=check_claims(name, layers),
            )
        section[name] = entry
    return section


def sweep(seed: int, runs: int, tier: str) -> dict:
    started = time.monotonic()
    names = list(WORKLOADS)
    samples: Dict[str, List[Sample]] = {name: [] for name in names}
    with workspace() as work:
        expected = references(seed, tier, work)
        for round_index in range(runs):
            for name in names:
                workload = WORKLOADS[name]
                sample = measure(
                    workload, seed, workload.size(tier), work, expected[name], CHILD_TIMEOUT_S
                )
                samples[name].append(sample)
                print(
                    f"round {round_index + 1}/{runs} {name}: "
                    + (f"wall {sample.report['wall_s']:.3f} s" if sample.report else "no report")
                    + ("" if sample.ok else f"  FAILED {sample.failures}"),
                    flush=True,
                )

        report_workloads = {}
        for name in names:
            workload = WORKLOADS[name]
            traced, null = (
                measure(
                    workload, seed, workload.size(tier), work, expected[name],
                    CHILD_TIMEOUT_S, kind=kind,
                )
                for kind in ("traced", "null")
            )
            plain = samples[name]
            attempted = plain + [traced, null]
            layers = per_layer(workload, traced, plain, null, expected[name])
            claims = {}
            if tier == "full" and layers:
                claims = check_claims(name, {k: v["value"] for k, v in layers.items()})
            report_workloads[name] = {
                "mode": workload.mode,
                "workers": workload.workers,
                "size": workload.size(tier),
                "records": expected[name].records,
                "attempted": len(attempted),
                "failed": sum(not s.ok for s in attempted),
                "failures": [f for s in attempted for f in s.failures],
                "end_to_end": end_to_end(plain, attempted),
                "samples": [
                    {
                        **s.at_reference_speed(),
                        "unscaled": s.end_to_end(),
                        "host_speed": s.report["speed"],
                        "round": i + 1,
                    }
                    if s.report
                    else {"round": i + 1}
                    for i, s in enumerate(plain)
                ],
                "per_layer": layers,
                "claims": claims,
                "reconciliation_broken": (
                    traced.report["reconciliation"] if traced.report else ["no traced run"]
                ),
                "parse_counters": traced.report["parse_counters"] if traced.report else {},
            }
        bench = bench_tier(seed, work)
        anomaly_size = WORKLOADS["seed2018-batch"].size(tier)
        anomaly = anomalies(seed, anomaly_size, work, expected["seed2018-batch"])

    return {
        "experiment": "E29 cleaning ledger",
        "revision": revision(),
        "seed": seed,
        "tier": tier,
        "runs": runs,
        "machine": {
            "cpu": cpu_model(),
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "sweep_seconds": time.monotonic() - started,
        "percentiles": (
            f"median and quartiles over {runs} runs; {runs} samples cannot "
            "support a tail percentile, so none is reported"
        ),
        "timings": (
            "end-to-end seconds at the reference host speed of speed.py (a probe "
            f"of {speed.REFERENCE_S * 1e3:g} ms CPU); each sample also carries its "
            "unscaled values and the host speed sampled over its set-up and call; "
            "per-layer seconds are unscaled"
        ),
        "references": {name: ref.as_dict() for name, ref in expected.items()},
        "workloads": report_workloads,
        "bench_tier": bench,
        "anomalies": anomaly,
    }


def print_report(report: dict) -> None:
    print(
        f"\nE29 ledger  rev {report['revision'][:12]}  seed {report['seed']}  "
        f"tier {report['tier']}  runs {report['runs']}  "
        f"sweep {report['sweep_seconds']:.0f} s"
    )
    for name, entry in report["workloads"].items():
        print(f"\n{name} ({entry['records']} records, {entry['mode']})")
        for metric, stats in entry["end_to_end"].items():
            if "median" not in stats:
                continue
            print(
                f"  {metric:16s} {stats['median']:12.6g} {stats['unit']:6s} "
                f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']}]"
            )
        for metric, layer in entry["per_layer"].items():
            flag = "  (estimated)" if layer.get("estimated") else ""
            print(f"  {metric:28s} {layer['value']:12.6g} {layer['unit']}{flag}")
        for claim, holds in entry["claims"].items():
            print(f"  claim {'holds' if holds else 'FAILS'}: {claim}")
        for failure in entry["failures"]:
            print(f"  FAILED: {failure}")
    for name, entry in report["bench_tier"].items():
        print(f"\nbench tier {name} ({entry['records']} records, traced)")
        for claim, holds in entry.get("claims", {}).items():
            print(f"  claim {'holds' if holds else 'FAILS'}: {claim}")
        for failure in entry["failures"]:
            print(f"  FAILED: {failure}")
    anomaly = report["anomalies"]
    for key in ("e21_streaming_vs_batch_parse", "e25_warm_vs_cold_pool"):
        if key in anomaly:
            print(f"\n{key}: ratio {anomaly[key]['ratio']:.3f}  holds={anomaly[key]['holds']}")
    for failure in anomaly.get("failures", []):
        print(f"anomalies FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--smoke", action="store_true", help="every input at 5%% scale")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    tier = "smoke" if args.smoke else "full"
    out = args.out or HERE / ("BENCH_e29.smoke.json" if args.smoke else "BENCH_e29.json")
    try:
        require_program()
        report = sweep(args.seed, args.runs, tier)
    except (ProgramMissing, RuntimeError) as exc:
        print(f"e29: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    failed = any(entry["failed"] for entry in report["workloads"].values())
    bench = report["bench_tier"].values()
    claims = [
        holds
        for entry in [*report["workloads"].values(), *bench]
        for holds in entry.get("claims", {}).values()
    ]
    failed = failed or any(entry["failures"] or "claims" not in entry for entry in bench)
    return 1 if failed or not all(claims) or report["anomalies"]["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
