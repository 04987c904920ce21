"""The cyclic-collector pause around bounded bulk work.

The batch stage chain (:func:`repro.pipeline.framework.run_stages`), a
parallel run's parent (:meth:`ParallelCleaner.run`) and its shards, and
:meth:`TemplateCache.preload` run under
:func:`repro.skeleton.cache.collector_paused`.  These tests pin its
contract: the caller's collector state comes back on exit, exceptions
included; the paused heap is handed to the oldest generation, so no
young pass re-scans it, unless the caller froze objects of its own; a
paused run leaves no cyclic garbage behind, so pausing cannot grow
memory; pool workers forked inside the pause collect again; and every
switch of the collector keeps one home in the package.
"""

import gc
import re
from pathlib import Path

import pytest

import repro
from repro.antipatterns import DetectionContext
from repro.errors import ShardFailure
from repro.pipeline import ExecutionConfig, PipelineConfig, framework, parallel
from repro.skeleton.cache import TemplateCache, collector_paused
from repro.workload import WorkloadConfig, generate, skyserver_catalog
from tests.reference import cacheless_run

PARALLEL_2 = ExecutionConfig(mode="parallel", workers=2)

#: The executors whose run goes under the pause.
PAUSED = (
    ("batch", "batch"),
    ("parallel-1", ExecutionConfig(mode="parallel", workers=1)),
    ("parallel-2", PARALLEL_2),
)

#: Where each paused run is watched: the stage chain, which a one-shard
#: plan runs in the parent, or, when the chain runs in pool workers,
#: the parent's shard plan.
SPIED = {
    "batch": (framework, "mine_stage"),
    "parallel-1": (framework, "mine_stage"),
    "parallel-2": (parallel, "shard_records"),
}

#: Every executor, and the batch chain down the full parse path
#: (:func:`tests.reference.cacheless_run`).
RUNS = PAUSED + (
    ("batch-no-cache", "batch"),
    ("streaming", "streaming"),
)


@pytest.fixture(scope="module")
def seed2018_log():
    return generate(WorkloadConfig(seed=2018, scale=0.05)).log


def config():
    keys = frozenset(skyserver_catalog().key_column_names())
    return PipelineConfig(detection=DetectionContext(key_columns=keys))


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """Start the test with the collector in the given state."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def spy(monkeypatch, name, raises):
    """Patch the step that watches run ``name`` to record the collector
    state it ran under."""
    module, attr = SPIED[name]
    seen = []
    real = getattr(module, attr)

    def watched(*args, **kwargs):
        seen.append(gc.isenabled())
        if raises:
            raise RuntimeError(f"{attr} failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, watched)
    return seen


@pytest.mark.parametrize("name,execution", PAUSED, ids=[n for n, _ in PAUSED])
def test_run_stages_restores_collector(
    monkeypatch, seed2018_log, collector, name, execution
):
    seen = spy(monkeypatch, name, raises=False)
    result = repro.clean(seed2018_log, config(), execution=execution)
    assert result.metrics.conservation_violations() == []
    assert seen and not any(seen)
    assert gc.isenabled() is collector


@pytest.mark.parametrize("name,execution", PAUSED, ids=[n for n, _ in PAUSED])
def test_run_stages_restores_collector_when_a_stage_raises(
    monkeypatch, seed2018_log, collector, name, execution
):
    seen = spy(monkeypatch, name, raises=True)
    with pytest.raises((RuntimeError, ShardFailure)):
        repro.clean(seed2018_log, config(), execution=execution)
    assert seen and not any(seen)
    assert gc.isenabled() is collector


@pytest.mark.parametrize("raises", [False, True], ids=["ok", "raises"])
def test_preload_restores_collector(monkeypatch, collector, raises):
    cache = TemplateCache()
    seen = []
    real = cache.build

    def build(record, **kwargs):
        seen.append(gc.isenabled())
        if raises:
            raise RuntimeError("build failed")
        return real(record, **kwargs)

    monkeypatch.setattr(cache, "build", build)
    witnesses = ["SELECT a FROM t WHERE b = 1", "SELECT c FROM u"]
    if raises:
        with pytest.raises(RuntimeError):
            cache.preload(witnesses)
    else:
        assert cache.preload(witnesses) == 2
    assert seen and not any(seen)
    assert gc.isenabled() is collector
    assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)


@pytest.mark.parametrize("name,execution", RUNS, ids=[n for n, _ in RUNS])
def test_paused_run_leaves_no_cyclic_garbage(seed2018_log, name, execution):
    """A run with the collector off throughout must leave nothing for it
    to free: what the pause skips, reference counting already freed."""
    gc.collect()
    with collector_paused():
        if name == "batch-no-cache":
            result = cacheless_run(seed2018_log, config())
        else:
            result = repro.clean(seed2018_log, config(), execution=execution)
    parse = result.metrics.stages["parse"].counters
    assert parse["syntax_errors"] > 0 and parse["non_select"] > 0
    assert gc.collect() == 0


def test_pause_hands_its_heap_to_the_oldest_generation():
    """What a paused body allocated is not left in the young generation,
    so the allocations after the pause trigger no young pass over it."""
    assert gc.isenabled() and gc.get_freeze_count() == 0
    passes = []

    def record_pass(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    try:
        with collector_paused():
            heap = [[] for _ in range(100_000)]
            gc.callbacks.append(record_pass)
        assert gc.get_count()[0] < gc.get_threshold()[0]
        for _ in range(1_000):
            [[]]
    finally:
        gc.callbacks.remove(record_pass)
    assert passes == []
    assert gc.get_freeze_count() == 0
    del heap


def test_a_callers_frozen_objects_stay_frozen(seed2018_log):
    """A caller that froze its heap on purpose (a pre-fork server) gets
    it back frozen: the hand-off would thaw it, so it is skipped."""
    assert gc.isenabled()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        repro.clean(seed2018_log, config())
        assert gc.get_freeze_count() == frozen
        assert gc.isenabled()
    finally:
        gc.unfreeze()


def test_pool_forked_inside_the_pause_collects(seed2018_log):
    """A pool forked inside the parent's pause inherits a disabled
    collector; its initializer switches it back on in every worker."""
    parallel.discard_worker_pool(2)
    result = repro.clean(seed2018_log, config(), execution=PARALLEL_2)
    assert result.parallel_stats.shard_count > 1
    pool = parallel.get_worker_pool(2)
    assert pool.alive
    assert all(
        future.result(timeout=60) is True
        for future in [pool.submit(gc.isenabled) for _ in range(4)]
    )


#: Every call that changes the collector's state, a bare ``gc.enable``
#: handed over as a callback (a pool initializer, say) included.
COLLECTOR_SWITCH = re.compile(r"\bgc\.(?:disable|enable|freeze|unfreeze)\b")


def test_collector_is_disabled_in_one_module():
    src = Path(repro.__file__).parent
    homes = sorted(
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if COLLECTOR_SWITCH.search(path.read_text(encoding="utf-8"))
    )
    assert homes == ["skeleton/cache.py"]
