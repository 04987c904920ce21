"""The cacheless reference run the cached executors are tested against.

Every executor parses through a
:class:`~repro.skeleton.cache.TemplateCache`, and the cache must be
invisible in every output.  :func:`cacheless_run` is the other side of
that differential: the batch stage chain with no cache at all, so every
statement takes the full parser (memoised per exact text only).
"""

from __future__ import annotations

from typing import Iterable

from repro.log.models import LogRecord, QueryLog
from repro.obs import Recorder
from repro.pipeline.config import PipelineConfig
from repro.pipeline.framework import PipelineResult, run_stages


def cacheless_run(log: Iterable[LogRecord], config: PipelineConfig) -> PipelineResult:
    """Clean ``log`` through the batch stage chain without a parse
    cache; ``result.metrics`` carries the run's ledger."""
    recorder = Recorder()
    recorder.ensure_counters()
    result = run_stages(QueryLog(log), config, recorder, None, registry=True)
    result.metrics = recorder.metrics
    return result
