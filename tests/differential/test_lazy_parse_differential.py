"""Differential suite: the lazy parse fast path tells the same story.

Lazy emission changes *when* SQL text and ASTs materialise, and
nothing else.  For a generated workload this suite pins every executor
configuration's cached (lazy) run to the one cacheless reference run
(:func:`tests.reference.cacheless_run`), which parses every statement
eagerly: identical clean records, an equal
``comparable()`` ledger counter for counter, and zero conservation
violations — plus the lazy-specific accounting laws (``parse_lazy_hits
+ parse_eager == parse.records_out``, eager runs booking zero lazy
hits).
"""

from __future__ import annotations

import pytest

import repro
from repro.antipatterns import DetectionContext
from repro.pipeline import ExecutionConfig, PipelineConfig
from repro.workload import WorkloadConfig, generate, skyserver_catalog
from tests.reference import cacheless_run

KEYS = frozenset(skyserver_catalog().key_column_names())

EXECUTIONS = {
    "batch": ExecutionConfig(mode="batch"),
    "streaming": ExecutionConfig(mode="streaming"),
    "parallel-1": ExecutionConfig(mode="parallel", workers=1),
    "parallel-2": ExecutionConfig(mode="parallel", workers=2),
}


@pytest.fixture(scope="module")
def workload_log():
    return generate(WorkloadConfig(seed=2018, scale=0.05)).log


def _config():
    return PipelineConfig(detection=DetectionContext(key_columns=KEYS))


@pytest.fixture(scope="module")
def eager(workload_log):
    return cacheless_run(workload_log, _config())


class TestLazyParseMatrix:
    @pytest.mark.parametrize("name", sorted(EXECUTIONS))
    def test_lazy_matches_eager(self, name, workload_log, eager):
        execution = EXECUTIONS[name]
        lazy = repro.clean(workload_log, _config(), execution=execution)
        assert lazy.clean_log.records() == eager.clean_log.records()
        assert lazy.metrics.comparable() == eager.metrics.comparable()
        assert lazy.metrics.conservation_violations() == []
        assert eager.metrics.conservation_violations() == []

        lazy_counters = lazy.metrics.stages["parse"].counters
        eager_counters = eager.metrics.stages["parse"].counters
        # The ledger law, by hand (the conservation check above already
        # enforces it, but pin the counters exist and carry traffic).
        assert (
            lazy_counters["parse_lazy_hits"] + lazy_counters["parse_eager"]
            == lazy_counters["records_out"]
        )
        assert lazy_counters["parse_lazy_hits"] > 0, (
            "a repetitive workload must take the lazy path"
        )
        assert eager_counters["parse_lazy_hits"] == 0
        assert eager_counters["parse_materialised"] == 0
        # Materialisation is bounded by emission.
        assert (
            lazy_counters["parse_materialised"] <= lazy_counters["parse_lazy_hits"]
        )
