"""The unified cleaning entry point: :func:`clean`.

One function, three execution paths.  *What* to compute is the
:class:`~repro.pipeline.config.PipelineConfig`; *how* to run it is its
:class:`~repro.pipeline.config.ExecutionConfig` (or the ``execution``
override).  Every path returns a
:class:`~repro.pipeline.framework.PipelineResult`:

==========  ==========================  =================================
mode        fills                       leaves ``None``
==========  ==========================  =================================
batch       every artifact              —
streaming   ``cleaned``,                dedup/parse/mining/registry/
            ``streaming_stats``         antipatterns/solve/SWS artifacts
parallel    ``cleaned``,                dedup/parse/mining/registry/
            ``parallel_stats``          antipatterns/solve/SWS artifacts
==========  ==========================  =================================

The clean log itself is always ``result.clean_log``, and every path
fills ``result.metrics`` — the per-stage observability ledger
(:class:`repro.obs.PipelineMetrics`) whose shared-stage counters are
identical across execution modes by contract.

The ``log`` argument accepts any log input — a :class:`QueryLog`, a
path (CSV / JSONL / columnar store, sniffed by
:func:`repro.store.sources.sniff_format`), or any
:class:`~repro.store.sources.LogSource`.  Path and source inputs are
consumed *out of core*: streaming feeds them chunk by chunk through the
:class:`~repro.pipeline.streaming.StreamingCleaner` (never holding the
whole log), parallel drains them straight into the sharder, and batch —
which needs the whole log for its global artifacts — materialises them
first.  ``checkpoint_dir`` / ``resume`` add kill-resilience to
streaming runs; see :mod:`repro.store.checkpoint`.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence, Union

from ..errors import QuarantineChannel
from ..log.models import LogRecord, QueryLog
from ..obs import Recorder
from .config import EXECUTION_MODES, ExecutionConfig, PipelineConfig
from .framework import CleaningPipeline, PipelineResult

LogInput = Union[QueryLog, Sequence[LogRecord], str, Path, "LogSource"]  # noqa: F821


def clean(
    log: LogInput,
    config: Optional[PipelineConfig] = None,
    *,
    execution: Optional[Union[ExecutionConfig, str]] = None,
    recorder: Optional[Recorder] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> PipelineResult:
    """Clean ``log`` and return the run's :class:`PipelineResult`.

    :param log: the query log to clean — a :class:`QueryLog`, a path to
        an on-disk log (``.csv`` / ``.jsonl`` file or columnar store
        directory), or any :class:`~repro.store.sources.LogSource`.
        Paths and sources stream through the non-batch executors in
        bounded memory.  A columnar store's template witnesses warm the
        run's parse caches; a stale dictionary can only cost speed,
        never output.
    :param config: pipeline parameters; defaults to
        :class:`PipelineConfig()`.
    :param execution: overrides ``config.execution`` for this call.  An
        :class:`ExecutionConfig`, or just a mode string (``"batch"``,
        ``"streaming"``, ``"parallel"``) to switch modes with default
        knobs.
    :param recorder: observability recorder
        (:class:`repro.obs.Recorder`).  By default a fresh one is
        created, so ``result.metrics`` always carries the run's
        per-stage ledger; pass your own to attach trace sinks, or
        :data:`repro.obs.NULL` to disable collection.  ``clean`` never
        closes a caller-supplied recorder — call ``recorder.close()``
        yourself when its sinks need flushing.
    :param checkpoint_dir: persist per-chunk progress into this
        directory so a killed run can be resumed (streaming mode only —
        batch and parallel have no serialisable mid-run state and
        reject it).
    :param resume: continue a run from ``checkpoint_dir`` instead of
        starting over.  The checkpoint must match the source (its
        chunk size included) and configuration it was written under.

    Example::

        import repro

        result = repro.clean(log)                          # batch
        result = repro.clean(log, execution="parallel")    # all cores
        result = repro.clean("queries.csv")                # from disk
        result = repro.clean(                              # out of core
            "skyserver.columnar",
            execution="streaming",
            checkpoint_dir="run-ckpt",
        )
        result = repro.clean(                              # after a kill
            "skyserver.columnar",
            execution="streaming",
            checkpoint_dir="run-ckpt",
            resume=True,
        )
        clean_log = result.clean_log
        result.metrics.as_dict()          # per-stage counters + timings
    """
    from ..store.sources import ColumnarSource, LogSource, as_source

    effective = config or PipelineConfig()
    if execution is not None:
        if isinstance(execution, str):
            execution = ExecutionConfig(mode=execution)
        effective = replace(effective, execution=execution)
    active = Recorder() if recorder is None else recorder
    metrics = active.metrics if active.enabled else None
    mode = effective.execution.mode

    if checkpoint_dir is not None and mode != "streaming":
        raise ValueError(
            "checkpoint_dir requires execution mode 'streaming' "
            f"(got {mode!r}): batch and parallel runs have no "
            "serialisable mid-run state"
        )
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")

    # Resolve the input.  Batch and parallel take a plain QueryLog as
    # it is, and streaming serves it in chunks; a path or LogSource goes
    # out of core.
    is_memory_log = isinstance(log, QueryLog)
    io_channel: Optional[QuarantineChannel] = None
    source: Optional[LogSource] = None
    owned = False
    if not is_memory_log:
        io_channel = QuarantineChannel()
        source, owned = as_source(
            log, errors=effective.error_policy, channel=io_channel
        )

    # Store-auto-warm: a columnar store carries one witness statement
    # per template it has interned, and those warm this run's parse
    # caches (witnesses re-parse through the cold path, so this can
    # only ever change speed, not output).
    template_witnesses: Optional[Sequence[str]] = None
    if isinstance(source, ColumnarSource):
        template_witnesses = source.template_witnesses()
    # Store I/O is booked as this run's share of the source's lifetime
    # counters (a caller may clean one source several times).
    store_io = (
        (source.chunks_read, source.bytes_read, source.read_seconds)
        if isinstance(source, ColumnarSource)
        else None
    )

    try:
        if mode == "batch":
            if source is not None:
                log = source.read()
            result = CleaningPipeline(effective).run(
                log, recorder=active, template_witnesses=template_witnesses
            )
            if io_channel is not None and io_channel:
                # Raw-input rejects (rows that never became records)
                # surface on the result next to the pipeline's own.
                merged = QuarantineChannel()
                merged.merge(io_channel)
                merged.merge(result.quarantine)
                result.quarantine = merged
            return result
        if mode == "streaming":
            from ..store.checkpoint import clean_streaming_source
            from ..store.sources import InMemorySource

            if source is None:
                source = InMemorySource(log)
                owned = True
            cleaned, cleaner = clean_streaming_source(
                source,
                effective,
                active,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
                template_witnesses=template_witnesses,
            )
            quarantine = QuarantineChannel()
            if io_channel is not None:
                quarantine.merge(io_channel)
            quarantine.merge(cleaner.quarantine)
            return PipelineResult(
                config=effective,
                original=log if is_memory_log else None,
                cleaned=cleaned,
                streaming_stats=cleaner.stats,
                execution_mode="streaming",
                metrics=metrics,
                quarantine=quarantine,
            )
        if mode == "parallel":
            from .parallel import ParallelCleaner

            parallel_cleaner = ParallelCleaner(
                effective,
                recorder=active,
                template_witnesses=template_witnesses,
            )
            if source is None:
                cleaned = parallel_cleaner.run(log)
            else:
                cleaned = parallel_cleaner.run_source(source)
            quarantine = QuarantineChannel()
            if io_channel is not None:
                quarantine.merge(io_channel)
            quarantine.merge(parallel_cleaner.quarantine)
            return PipelineResult(
                config=effective,
                original=log if is_memory_log else None,
                cleaned=cleaned,
                parallel_stats=parallel_cleaner.stats,
                execution_mode="parallel",
                metrics=metrics,
                quarantine=quarantine,
            )
        raise ValueError(  # pragma: no cover - ExecutionConfig validates mode
            f"unknown execution mode {mode!r}; "
            f"expected one of {EXECUTION_MODES}"
        )
    finally:
        if store_io is not None:
            # The result's ledger is the recorder's, so booking after
            # the executor returned still lands in it.
            chunks, nbytes, seconds = store_io
            chunks = source.chunks_read - chunks
            active.count("store", "chunks_read", chunks)
            active.count("store", "bytes_read", source.bytes_read - nbytes)
            active.add_seconds("store", source.read_seconds - seconds, chunks)
        if owned and source is not None:
            source.close()
