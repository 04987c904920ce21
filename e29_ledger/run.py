"""E29 benchmark: one workload, one seed, a fixed measuring window.

    python3 e29_ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from the ``src`` next to this
directory.  The run first cleans the seed's input once with the
reference executor (writing the columnar store, for a store workload),
then draws samples (each a fresh child process, see ``harness.py``)
until the next one would end past ``--seconds``, and checks every
sample against the reference.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: the
median over the untraced samples, timings at the reference host speed
of ``speed.py``.  ``--trace 1`` cycles untraced, traced
and ``repro.obs.NULL``-recorder samples and prints the per-layer
metrics: medians over the traced samples plus the tracing and recorder
overheads.  Every metric is printed by name with its unit; the last
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Inputs use the ``bench`` size tier of ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from statistics import median
from typing import Dict, List

from harness import (
    ProgramMissing,
    Sample,
    load_benchmark,
    measure,
    reference,
    require_program,
    summarise,
    traced_layers,
    workspace,
)
from workloads import WORKLOADS

#: Every run draws at least this many samples, however short ``--seconds``
#: (one of each kind under ``--trace 1``).
MIN_SAMPLES = 3
#: One invocation never runs longer than this; children are killed past it.
RUN_LIMIT_S = 170.0
TIER = "bench"


def collect(workload, seed, size, work, expected, kinds, seconds, deadline) -> List[Sample]:
    """Draw samples, cycling ``kinds``, until the next one would end past
    the ``seconds`` window (or the run's hard deadline)."""
    samples: List[Sample] = []
    window = time.monotonic()
    while True:
        kind = kinds[len(samples) % len(kinds)]
        samples.append(
            measure(
                workload, seed, size, work, expected, deadline - time.monotonic(), kind=kind
            )
        )
        if len(samples) < MIN_SAMPLES:
            continue
        following = kinds[len(samples) % len(kinds)]
        durations = [s.seconds for s in samples if s.kind == following]
        upcoming = median(durations)
        now = time.monotonic()
        if now - window + upcoming > seconds or now + upcoming > deadline:
            return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    try:
        require_program()
        benchmark = load_benchmark()
    except (ProgramMissing, OSError) as exc:
        print(f"e29: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    size = workload.size(TIER)
    kinds = ("plain", "traced", "null") if args.trace else ("plain",)
    with workspace() as work:
        try:
            expected = reference(workload, args.seed, size, work, deadline - started)
        except RuntimeError as exc:
            print(f"e29: {exc}", file=sys.stderr)
            return 1
        samples = collect(
            workload, args.seed, size, work, expected, kinds, args.seconds, deadline
        )

    failed = [s for s in samples if not s.ok]
    for sample in failed:
        print(f"e29: failed {sample.kind} sample: {sample.failures}", file=sys.stderr)
    good = {kind: [s for s in samples if s.ok and s.kind == kind] for kind in kinds}
    if not all(good.values()):
        print("e29: no passing sample of some kind; no metrics", file=sys.stderr)
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    plain = good["plain"]
    if args.trace:
        values = traced_layers(good["traced"], plain, good["null"], expected.store)
        spread: Dict[str, dict] = {}
    else:
        per_sample = [s.at_reference_speed() for s in plain]
        spread = {
            m["name"]: summarise([row[m["name"]] for row in per_sample])
            for m in benchmark["end_to_end"]
        }
        values = {name: stats["median"] for name, stats in spread.items()}

    metrics = {}
    print(
        f"e29 {workload.name} seed={args.seed} size={size} "
        f"samples={len(samples)} failed={len(failed)} "
        f"reference={expected.mode}:{expected.log_sha256[:12]}"
    )
    print(
        f"  host speed {median([s.report['speed']['call'] for s in plain]):.4g} x reference; "
        f"unscaled wall {median([s.report['wall_s'] for s in plain]):.6g} s, "
        f"setup {median([s.setup_s for s in plain]):.6g} s"
    )
    for entry in benchmark[section]:
        name, unit = entry["name"], entry["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        detail = spread.get(name)
        band = (
            f"  (median; q1 {detail['q1']:.6g}, q3 {detail['q3']:.6g}, n={detail['n']})"
            if detail
            else ""
        )
        print(f"  {name} = {values[name]:.6g} {unit}{band}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(samples),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
