"""Warm-pool lifecycle hygiene: no orphaned worker processes.

Reusable pools deliberately outlive ``repro.clean()`` calls, which
makes three exits load-bearing:

* a **raising run** discards its warm pool (queued shards must not keep
  running behind the caller's back);
* an explicit :func:`repro.pipeline.shutdown_worker_pools` reaps every
  parked worker;
* **interpreter exit** reaps them too (the atexit hook), proven here
  with a subprocess whose worker pids must all be dead once it exits.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.antipatterns import default_detectors
from repro.errors import ShardFailure
from repro.log import QueryLog
from repro.pipeline import (
    ExecutionConfig,
    PipelineConfig,
    get_worker_pool,
    parallel,
    shard_index,
    shutdown_worker_pools,
)

from .faultlib import AlwaysFailDetector
from .test_fault_injection import valid_records


def _drain_children(timeout=15.0):
    """Wait for every multiprocessing child to exit; return stragglers."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        children = multiprocessing.active_children()  # also reaps
        if not children:
            return []
        time.sleep(0.05)
    return multiprocessing.active_children()


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid reused by another user
        return True
    return True


def _wait_dead(pids, timeout=15.0):
    """Wait for all pids to disappear; return the survivors."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(_alive(pid) for pid in pids):
            return []
        time.sleep(0.05)
    return [pid for pid in pids if _alive(pid)]


@pytest.fixture
def clean_slate():
    """Start and end the test with no pools and no worker children."""
    shutdown_worker_pools()
    assert _drain_children() == []
    yield
    shutdown_worker_pools()
    assert _drain_children() == []


def _parallel(workers):
    return ExecutionConfig(mode="parallel", workers=workers)


class TestPoolHygiene:
    def test_successful_run_parks_a_reusable_warm_pool(self, clean_slate):
        log = QueryLog(valid_records())
        repro.clean(log, PipelineConfig(), execution=_parallel(2))
        pool = get_worker_pool(2)
        assert pool.alive, "warm pool should stay provisioned after the run"
        generation = pool.generation
        repro.clean(log, PipelineConfig(), execution=_parallel(2))
        assert get_worker_pool(2) is pool
        assert pool.generation == generation, "reuse must not re-provision"
        shutdown_worker_pools()
        assert not pool.alive
        assert _drain_children() == []

    def test_narrow_fan_out_runs_on_the_registry_pool(self, clean_slate):
        # two users in different buckets: two shards for four workers —
        # the run still borrows the warm four-worker pool, it does not
        # fork a private pool sized to the shard count
        # (the planner hashes users into 64 buckets at four workers)
        other = next(
            f"user{n}"
            for n in range(1, 8)
            if shard_index(f"user{n}", 64) != shard_index("user0", 64)
        )
        log = QueryLog(
            record for record in valid_records() if record.user in ("user0", other)
        )
        result = repro.clean(log, PipelineConfig(), execution=_parallel(4))
        assert result.parallel_stats.shard_count == 2
        assert result.clean_log == repro.clean(log, PipelineConfig()).clean_log
        pool = get_worker_pool(4)
        assert pool.alive and pool.generation == 1
        shutdown_worker_pools(wait=True)
        assert _drain_children() == []

    def test_raising_run_leaves_no_workers_behind(self, clean_slate, monkeypatch):
        monkeypatch.setattr(parallel, "MAX_SHARD_RETRIES", 0)
        monkeypatch.setattr(parallel, "RETRY_BACKOFF_S", 0.0)
        config = PipelineConfig(
            detectors=[AlwaysFailDetector(main_pid=os.getpid())]
            + default_detectors()
        )
        with pytest.raises(ShardFailure):
            repro.clean(
                QueryLog(valid_records()),
                config,
                execution=_parallel(2),
            )
        # the raising run discarded its pool — workers drain on their own,
        # with no shutdown_worker_pools() call from the caller
        assert _drain_children() == [], (
            "raising repro.clean() left worker processes running"
        )
        # and the registry recovers: the next run provisions fresh workers
        result = repro.clean(
            QueryLog(valid_records()), PipelineConfig(), execution=_parallel(2)
        )
        assert result.metrics.conservation_violations() == []


#: Run a parallel clean in a fresh interpreter, print the warm pool's
#: worker pids, and exit *without* shutting anything down — the atexit
#: hook has to do it.  The parent asserts every pid is gone afterwards.
_ORPHAN_SCRIPT = """\
import multiprocessing

import repro
from repro.log import LogRecord, QueryLog
from repro.pipeline import ExecutionConfig, PipelineConfig

records = [
    LogRecord(
        seq=i,
        sql=f"SELECT name FROM Employee WHERE empId = {i % 7}",
        timestamp=float(i),
        user=f"user{i % 6}",
    )
    for i in range(160)
]
result = repro.clean(
    QueryLog(records),
    PipelineConfig(),
    execution=ExecutionConfig(mode="parallel", workers=2),
)
assert len(result.clean_log) > 0
assert result.parallel_stats.shard_count >= 2, "expected a pool fan-out"
pids = sorted(p.pid for p in multiprocessing.active_children())
assert pids, "expected parked warm-pool workers"
print("WORKER_PIDS:" + ",".join(map(str, pids)))
"""


class TestInterpreterExit:
    def test_atexit_reaps_warm_pool_workers(self, tmp_path):
        script = tmp_path / "warm_pool_exit.py"
        script.write_text(_ORPHAN_SCRIPT, encoding="utf-8")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        line = next(
            line
            for line in proc.stdout.splitlines()
            if line.startswith("WORKER_PIDS:")
        )
        pids = [int(part) for part in line.split(":", 1)[1].split(",") if part]
        assert pids
        survivors = _wait_dead(pids)
        assert survivors == [], (
            f"warm-pool workers outlived their interpreter: {survivors}"
        )
