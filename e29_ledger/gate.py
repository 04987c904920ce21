"""E29 gate: compare a fresh ledger report against the committed one.

    python3 e29_ledger/gate.py FRESH [--baseline e29_ledger/BENCH_e29.json]

For every workload of the baseline and every end-to-end metric of
``BENCHMARK.json``, with that metric's ``bound`` and direction, it
compares the medians over the reports' rounds:

* ``FAIL`` when the fresh median is worse than the baseline's by more
  than the bound;
* ``unresolved`` otherwise, when either report's quartile spread, as a
  share of its median, is wider than the bound — unless every fresh
  round beats every baseline round.  Printed, but not a failure;
* ``ok`` otherwise.

It also fails any run failure (``failed_share`` above 0), any broken
per-layer reconciliation, and reference digests that differ from the
baseline's — the clean log or its ``comparable()`` ledger changed.  The
two reports must share seed and size tier.  Exit 0 when nothing failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from harness import HERE, load_benchmark


@dataclass
class Verdict:
    workload: str
    metric: str
    status: str  # "ok" | "unresolved" | "FAIL"
    detail: str

    def __str__(self) -> str:
        return f"{self.status:10s} {self.workload:16s} {self.metric:14s} {self.detail}"


def bounds_of(benchmark: dict) -> Dict[str, Tuple[str, float]]:
    """``metric -> (better, bound)`` for the end-to-end metrics."""
    return {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}


def spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"]


def _every_run_better(entry: dict, base: dict, metric: str, better: str) -> bool:
    fresh = [row[metric] for row in entry["samples"] if metric in row]
    old = [row[metric] for row in base["samples"] if metric in row]
    if not (fresh and old):
        return False
    if better == "lower":
        return max(fresh) < min(old)
    return min(fresh) > max(old)


def compare(fresh: dict, baseline: dict, bounds: Dict[str, Tuple[str, float]]) -> List[Verdict]:
    if (fresh["seed"], fresh["tier"]) != (baseline["seed"], baseline["tier"]):
        return [
            Verdict(
                "*", "*", "FAIL",
                f"incomparable: seed/tier {fresh['seed']}/{fresh['tier']} vs "
                f"{baseline['seed']}/{baseline['tier']}",
            )
        ]
    verdicts: List[Verdict] = []
    for name, base in baseline["workloads"].items():
        entry = fresh["workloads"].get(name)
        if entry is None:
            verdicts.append(Verdict(name, "*", "FAIL", "workload missing from the fresh report"))
            continue
        share = entry["end_to_end"]["failed_share"]["median"]
        verdicts.append(
            Verdict(
                name, "failed_share", "FAIL" if share > 0 else "ok",
                f"{share:.3f} of {entry['attempted']} runs failed",
            )
        )
        for law in entry["reconciliation_broken"]:
            verdicts.append(Verdict(name, "reconcile", "FAIL", law))
        old_ref, new_ref = baseline["references"][name], fresh["references"][name]
        for digest in ("log_sha256", "ledger_sha256"):
            if old_ref[digest] != new_ref[digest]:
                verdicts.append(
                    Verdict(name, digest, "FAIL", "output differs from the committed reference")
                )
        for metric, (better, bound) in bounds.items():
            new, old = entry["end_to_end"][metric], base["end_to_end"][metric]
            if "median" not in new or "median" not in old:
                verdicts.append(Verdict(name, metric, "FAIL", "no passing runs to compare"))
                continue
            was, now = old["median"], new["median"]
            change = (now - was) / was
            worse = change if better == "lower" else -change
            wide = max(spread(new), spread(old))
            detail = (
                f"{was:.6g} -> {now:.6g} ({change:+.1%}, "
                f"bound {bound:.0%}, spread {wide:.1%})"
            )
            if worse > bound:
                status = "FAIL"
            elif wide > bound and not _every_run_better(entry, base, metric, better):
                status = "unresolved"
            else:
                status = "ok"
            verdicts.append(Verdict(name, metric, status, detail))
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("fresh", type=Path)
    parser.add_argument("--baseline", type=Path, default=HERE / "BENCH_e29.json")
    args = parser.parse_args(argv)
    fresh, baseline = (
        json.loads(path.read_text(encoding="utf-8")) for path in (args.fresh, args.baseline)
    )
    verdicts = compare(fresh, baseline, bounds_of(load_benchmark()))
    for verdict in verdicts:
        print(verdict)
    failed = [v for v in verdicts if v.status == "FAIL"]
    unresolved = [v for v in verdicts if v.status == "unresolved"]
    print(
        f"E29 gate: {len(verdicts)} checks, {len(failed)} failed, "
        f"{len(unresolved)} unresolved (baseline rev {baseline['revision'][:12]})"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
