"""Differential: post-parse facts from the interned entry vs the AST.

The SWS shape check, the Stifle and CTH detectors and the DW rewrite
read skeleton-level facts — a query's WHERE constants, its equality
filter's column and constant, whether two queries agree on their
clause texts — through :class:`~repro.patterns.models.ParsedQuery`
methods that a lazy query answers from its parse-cache entry, with no
AST and no bound predicate.  The references are the modules that read
those facts off the AST and the bound ``Predicate``: ``sws.py``,
``stifle.py``, ``cth.py`` and ``stifle_rewrites.py`` of rev ``73fc238``,
exec'd out of git history as modules of their live packages (so they
run on the live data model) and so unable to drift with the code under
test.

On every E29 bench input (``e29_ledger/workloads.py``), and on small
generated logs under a Hypothesis property over generator seeds, both
sides must give

* equal detector instances: label, queries and details (Stifle's
  ``filter_column`` among them, in the column's own case);
* equal SWS verdicts and coverage, under the pipeline's SWS config and
  under one that makes every pattern a candidate, with equal constant
  tuples for every mined instance (so equal fresh shares);
* equal DW/DS/DF rewrites: the same statement, or the same refusal;

and the live detectors and SWS check must not materialise any lazy
query, and the live detectors must not bind any equality filter.
"""

from __future__ import annotations

import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.antipatterns import DetectionContext, run_detectors
from repro.antipatterns.snc import SncDetector
from repro.antipatterns.types import DF_STIFLE, DS_STIFLE, DW_STIFLE
from repro.patterns import SwsConfig, detect_sws
from repro.patterns.registry import PatternRegistry
from repro.patterns.sws import _instance_constants
from repro.pipeline import PipelineConfig
from repro.pipeline.framework import dedup_stage, mine_stage, parse_stage
from repro.rewrite import stifle_rewrites
from repro.skeleton.cache import LazyParsedQuery, TemplateCache
from repro.workload import WorkloadConfig, generate, skyserver_catalog
from tests.frozen import e29_workloads, frozen_source

#: The last revision whose post-parse consumers read the AST and the
#: bound predicate (unchanged there since the parse cache went lazy).
FROZEN_REV = "73fc238"

_FROZEN_PATHS = {
    "sws": "src/repro/patterns/sws.py",
    "stifle": "src/repro/antipatterns/stifle.py",
    "cth": "src/repro/antipatterns/cth.py",
    "stifle_rewrites": "src/repro/rewrite/stifle_rewrites.py",
}

_loaded = {}


def frozen(name: str) -> types.ModuleType:
    """The frozen module ``name``, bound to the live package it lived in."""
    if name not in _loaded:
        path = _FROZEN_PATHS[name]
        source = frozen_source(
            FROZEN_REV,
            path,
            "the live facts are still pinned by test_lazy_parse.py",
        )
        package = "repro." + path.split("/")[2]
        module = types.ModuleType(f"{package}._frozen_{name}")
        module.__package__ = package
        # dataclasses resolves string annotations through sys.modules.
        sys.modules[module.__name__] = module
        try:
            exec(compile(source, f"frozen_{name}.py", "exec"), module.__dict__)
        finally:
            del sys.modules[module.__name__]
        _loaded[name] = module
    return _loaded[name]


KEYS = frozenset(skyserver_catalog().key_column_names())

#: Every mined pattern is an SWS candidate, so every instance's
#: constant tuple enters a fresh share.
EVERY_PATTERN = SwsConfig(
    min_frequency_share=0.0, max_popularity=1 << 30, skip_antipatterns=False
)

REWRITES = {
    DW_STIFLE: "rewrite_dw_stifle",
    DS_STIFLE: "rewrite_ds_stifle",
    DF_STIFLE: "rewrite_df_stifle",
}


def instance_view(instance):
    return (
        instance.label,
        tuple(query.record.seq for query in instance.queries),
        instance.solvable,
        sorted(instance.details.items()),
    )


def sws_view(report):
    return (
        [stats.unit for stats in report.patterns],
        report.covered_queries,
        report.total_queries,
    )


def rewrite_outcome(rewrite, queries):
    try:
        return ("rewrite", repr(rewrite(queries)))
    except Exception as error:  # the frozen module has its own class
        assert type(error).__name__ == "RewriteNotApplicable", error
        return ("refused", str(error))


def assert_same_facts(log, config: PipelineConfig) -> int:
    """Run both sides over ``log``; return the number of instances."""
    cache = TemplateCache()
    dedup = dedup_stage(log, config)
    parsed = parse_stage(dedup.log, config, cache=cache)
    mining = mine_stage(parsed.queries, config)
    context = config.detection

    before = cache.materialised
    binds = []
    bind = LazyParsedQuery._bind_equality_filter

    def counted_bind(query):
        binds.append(query)
        return bind(query)

    LazyParsedQuery._bind_equality_filter = counted_bind
    try:
        live = run_detectors(mining.blocks, context)
    finally:
        LazyParsedQuery._bind_equality_filter = bind
    assert binds == [], "live detection bound an equality filter"
    registry = PatternRegistry.from_runs(mining.runs)
    for instance in live:
        registry.mark_antipattern(instance.unit_ids or instance.unit, instance.label)
    instances = mining.instances
    live_sws = [
        sws_view(detect_sws(registry, instances, sws, mark=False))
        for sws in (config.sws, EVERY_PATTERN)
    ]
    live_constants = [_instance_constants(instance) for instance in instances]
    assert cache.materialised == before, "live detect/SWS built an AST"

    old_sws = frozen("sws")
    frozen_detectors = [
        frozen("stifle").StifleDetector(),
        frozen("cth").CthDetector(),
        SncDetector(),
    ]
    old = run_detectors(mining.blocks, context, frozen_detectors)
    assert [instance_view(i) for i in live] == [instance_view(i) for i in old]
    assert [i.details for i in live] == [i.details for i in old]
    assert live_sws == [
        sws_view(old_sws.detect_sws(registry, instances, sws, mark=False))
        for sws in (config.sws, EVERY_PATTERN)
    ]
    assert live_constants == [
        old_sws._instance_constants(instance) for instance in instances
    ]

    old_rewrites = frozen("stifle_rewrites")
    for instance in live:
        name = REWRITES.get(instance.label)
        if name is None:
            continue
        assert rewrite_outcome(
            getattr(stifle_rewrites, name), instance.queries
        ) == rewrite_outcome(getattr(old_rewrites, name), instance.queries)
    return len(live)


#: One workload per distinct E29 bench input: ``store-parallel2`` reads
#: the same log as ``store-streaming``.
E29_INPUTS = ["seed2018-batch", "longtail-batch", "store-streaming"]


def test_e29_inputs_cover_the_matrix():
    workloads = e29_workloads()

    def log_key(name):
        workload = workloads.WORKLOADS[name]
        return (name == "longtail-batch", workload.size("bench"))

    tested = {log_key(name) for name in E29_INPUTS}
    assert {log_key(name) for name in workloads.WORKLOADS} == tested


@pytest.mark.parametrize("name", E29_INPUTS)
def test_e29_bench_input_gives_the_frozen_facts(name):
    workloads = e29_workloads()
    workload = workloads.WORKLOADS[name]
    log = workloads.build_log(workload, 2018, workload.size("bench"))
    found = assert_same_facts(log, workloads.pipeline_config())
    assert found > 0 or name == "longtail-batch"


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generated_logs_give_the_frozen_facts(seed):
    log = generate(WorkloadConfig(seed=seed, scale=0.03)).log
    config = PipelineConfig(
        detection=DetectionContext(key_columns=KEYS), sws=SwsConfig()
    )
    assert_same_facts(log, config)
