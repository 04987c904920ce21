"""The cyclic-collector pause around bounded bulk work.

The batch stage chain (:func:`repro.pipeline.framework.run_stages`) and
:meth:`TemplateCache.preload` run under
:func:`repro.skeleton.cache.collector_paused`.  These tests pin its
contract: the caller's collector state comes back on exit, exceptions
included; a paused run leaves no cyclic garbage behind, so pausing
cannot grow memory; and the pause keeps one home in the package.
"""

import gc
from pathlib import Path

import pytest

import repro
from repro.antipatterns import DetectionContext
from repro.errors import ShardFailure
from repro.pipeline import ExecutionConfig, PipelineConfig, framework
from repro.skeleton.cache import TemplateCache, collector_paused
from repro.workload import WorkloadConfig, generate, skyserver_catalog

#: The executors whose stage chain runs under the pause.
PAUSED = (
    ("batch", "batch"),
    ("parallel-1", ExecutionConfig(mode="parallel", workers=1)),
)

#: Every executor, and batch down the full parse path.
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


def spy_mine_stage(monkeypatch, raises):
    """Patch the mine stage to record the collector state it ran under."""
    seen = []
    real = framework.mine_stage

    def mine_stage(*args, **kwargs):
        seen.append(gc.isenabled())
        if raises:
            raise RuntimeError("mine failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(framework, "mine_stage", mine_stage)
    return seen


@pytest.mark.parametrize("name,execution", PAUSED, ids=[n for n, _ in PAUSED])
def test_run_stages_restores_collector(
    monkeypatch, seed2018_log, collector, name, execution
):
    seen = spy_mine_stage(monkeypatch, raises=False)
    result = repro.clean(seed2018_log, config(), execution=execution)
    assert result.metrics.conservation_violations() == []
    assert seen and not any(seen)
    assert gc.isenabled() is collector


@pytest.mark.parametrize("name,execution", PAUSED, ids=[n for n, _ in PAUSED])
def test_run_stages_restores_collector_when_a_stage_raises(
    monkeypatch, seed2018_log, collector, name, execution
):
    seen = spy_mine_stage(monkeypatch, raises=True)
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
    parse_cache = False if name == "batch-no-cache" else None
    gc.collect()
    with collector_paused():
        result = repro.clean(
            seed2018_log, config(), execution=execution, parse_cache=parse_cache
        )
    parse = result.metrics.stages["parse"].counters
    assert parse["syntax_errors"] > 0 and parse["non_select"] > 0
    assert gc.collect() == 0


def test_collector_is_disabled_in_one_module():
    src = Path(repro.__file__).parent
    homes = sorted(
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if "gc.disable(" in path.read_text(encoding="utf-8")
    )
    assert homes == ["skeleton/cache.py"]
