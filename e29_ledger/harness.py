"""Parent side of the E29 benchmark: child processes, samples, checks.

Every measurement is a fresh ``child.py`` process with
``PYTHONHASHSEED=0`` and ``PYTHONPATH`` pointing at the checkout's
``src``, so each sample pays its own imports and starts with cold
caches, like a user's run.  A store workload's columnar store is written
once per input, by the reference child, and every sample's ``clean``
child only reads it, so the clean child's peak RSS is the out-of-core
path's own.

Everything the children write (stores, temporary files) lives in a
workspace directory inside the checkout, removed on exit.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, Iterator, List, Optional

from workloads import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")


@contextmanager
def workspace() -> Iterator[Path]:
    """A private scratch directory inside the checkout."""
    path = ROOT / ".e29_work" / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass  # another run still owns a sibling workspace


@dataclass
class ChildRun:
    """One finished child process."""

    report: Optional[dict]
    error: Optional[str]
    spawned: float
    ended: float

    @property
    def seconds(self) -> float:
        return self.ended - self.spawned


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(spec: dict, work: Path, timeout: float) -> ChildRun:
    """Run ``child.py`` on ``spec``; kill its whole process group if it
    outlives ``timeout`` seconds."""
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(SRC),
        TMPDIR=str(work),
    )
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=str(ROOT),
        start_new_session=True,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        return ChildRun(None, f"timed out after {timeout:.0f} s", spawned, time.monotonic())
    ended = time.monotonic()
    if proc.returncode != 0:
        # A child that died before reaping its pool leaves workers behind.
        _kill_group(proc.pid)
        tail = stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return ChildRun(None, tail[0], spawned, ended)
    try:
        return ChildRun(json.loads(stdout.strip().splitlines()[-1]), None, spawned, ended)
    except (IndexError, json.JSONDecodeError):
        return ChildRun(None, "child printed no report", spawned, ended)


@dataclass
class Store:
    """The columnar store the reference child wrote for a store workload."""

    path: Path
    write_s: float
    bytes_written: int


@dataclass
class Reference:
    """The digests every sample of one input must reproduce, and the
    store that input was written to (store workloads only)."""

    records: int
    log_sha256: str
    ledger_sha256: str
    mode: str
    store: Optional[Store] = None

    def as_dict(self) -> dict:
        return {
            "records": self.records,
            "log_sha256": self.log_sha256,
            "ledger_sha256": self.ledger_sha256,
            "mode": self.mode,
        }


def reference(workload: Workload, seed: int, size: float, work: Path, timeout: float) -> Reference:
    """Clean the workload's input with the reference executor; for a
    store workload, first write the input's columnar store under ``work``.

    Raises ``RuntimeError`` when the reference itself fails — without a
    reference no sample can be checked.
    """
    spec = {"role": "reference", "workload": workload.name, "seed": seed, "size": size}
    if workload.store:
        spec["store"] = str(work / f"store-{workload.name}-{time.monotonic_ns()}")
    run = run_child(spec, work, timeout)
    if run.report is None:
        raise RuntimeError(f"{workload.name}: reference run failed: {run.error}")
    report = run.report
    if report["violations"]:
        raise RuntimeError(
            f"{workload.name}: reference run broke conservation laws: {report['violations']}"
        )
    store = None
    if workload.store:
        store = Store(Path(spec["store"]), report["write_s"], report["bytes_written"])
    return Reference(
        records=report["records"],
        log_sha256=report["log_sha256"],
        ledger_sha256=report["ledger_sha256"],
        mode=report["mode"],
        store=store,
    )


@dataclass
class Sample:
    """One measured ``repro.clean`` call and its checks."""

    kind: str  # "plain" | "traced" | "null"
    report: Optional[dict]
    setup_s: float
    seconds: float
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def end_to_end(self) -> Dict[str, float]:
        report = self.report
        return {
            "wall_s": report["wall_s"],
            "queries_per_s": report["records"] / report["wall_s"],
            "cpu_s": report["cpu_s"],
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": self.setup_s,
        }

    def at_reference_speed(self) -> Dict[str, float]:
        """:meth:`end_to_end` with its timings at the reference host speed
        (``speed.py``): the call's seconds times the host speed sampled
        over the call, ``setup_s`` times the speed sampled over the set-up."""
        speed = self.report["speed"]
        row = self.end_to_end()
        row["wall_s"] *= speed["call"]
        row["cpu_s"] *= speed["call"]
        row["queries_per_s"] /= speed["call"]
        row["setup_s"] *= speed["setup"]
        return row


def measure(
    workload: Workload,
    seed: int,
    size: float,
    work: Path,
    expected: Reference,
    timeout: float,
    *,
    kind: str = "plain",
) -> Sample:
    """One sample: a clean child, checked against ``expected``.  A store
    workload reads the store ``expected`` was written to.

    ``setup_s`` runs from the clean child's spawn to the timed call:
    interpreter start, imports, and building the log or opening the store.
    """
    spec = {
        "role": "clean",
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "store": str(expected.store.path) if workload.store else None,
        "trace": kind == "traced",
        "warm": kind == "traced",
        "null_recorder": kind == "null",
    }
    run = run_child(spec, work, timeout)
    if run.report is None:
        return Sample(kind, None, 0.0, run.seconds, [run.error or "failed"])
    sample = Sample(
        kind,
        run.report,
        setup_s=run.report["setup_done"] - run.spawned,
        seconds=run.seconds,
    )
    sample.failures = verify(run.report, expected)
    return sample


def verify(report: dict, expected: Reference) -> List[str]:
    """Why ``report`` is not a correct run of ``expected``'s input."""
    failures = []
    if report["records"] != expected.records:
        failures.append(f"read {report['records']} records, expected {expected.records}")
    outcomes = [("call", report)]
    if "warm" in report:
        outcomes.append(("warm call", report["warm"]))
    for label, outcome in outcomes:
        if outcome["violations"]:
            failures.append(f"{label}: conservation violations {outcome['violations']}")
        if outcome["log_sha256"] != expected.log_sha256:
            failures.append(f"{label}: clean log differs from the {expected.mode} reference")
        ledger = outcome["ledger_sha256"]
        if ledger is not None and ledger != expected.ledger_sha256:
            failures.append(f"{label}: comparable() ledger differs from the reference")
    failures.extend(f"reconciliation: {law}" for law in report.get("reconciliation", ()))
    return failures


def quartiles(values: List[float]) -> List[float]:
    """First quartile, median, third quartile (``statistics.quantiles``)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarise(values: List[float]) -> dict:
    """Median, quartiles and count."""
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def traced_layers(
    traced: List[Sample], plain: List[Sample], null: List[Sample], store: Optional[Store]
) -> Dict[str, float]:
    """Per-layer medians over the traced samples, plus the overheads.

    ``obs.tracing_overhead`` is the median traced wall over the median
    untraced wall; ``obs.recorder_overhead`` the median wall with the
    default recorder over the median with ``repro.obs.NULL``; both walls
    at the reference host speed (a traced sample's host speed also
    covers its warm repeat).  ``store`` is the input's columnar store,
    whose write the reference child timed.
    """
    layers: Dict[str, float] = {}
    names = traced[0].report["layers"]
    for name in names:
        layers[name] = median([s.report["layers"][name] for s in traced])
    layers["setup.input_s"] = median([s.report["input_s"] for s in traced])
    layers["store.write_s"] = store.write_s if store else 0.0
    layers["store.bytes_written"] = store.bytes_written if store else 0
    layers["run.warm_wall_s"] = median([s.report["warm_wall_s"] for s in traced])
    layers["run.warm_over_cold"] = median(
        [s.report["warm_wall_s"] / s.report["wall_s"] for s in traced]
    )
    def wall(samples: List[Sample]) -> float:
        return median([s.at_reference_speed()["wall_s"] for s in samples])

    plain_wall = wall(plain)
    layers["obs.tracing_overhead"] = wall(traced) / plain_wall
    layers["obs.recorder_overhead"] = plain_wall / wall(null)
    return layers


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
