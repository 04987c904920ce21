"""Configuration of the cleaning pipeline (the framework's parameters,
Section 5: duplicate threshold, pattern-mining knobs, detector set) and
of its execution (batch / streaming / parallel)."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..antipatterns.base import DetectionContext, Detector
from ..errors import validate_error_policy
from ..patterns.miner import MinerConfig
from ..patterns.sws import SwsConfig

#: Execution modes understood by :func:`repro.clean`.
EXECUTION_MODES = ("batch", "streaming", "parallel")


@dataclass(frozen=True)
class ExecutionConfig:
    """*How* the pipeline runs — orthogonal to *what* it computes.

    Every execution knob lives here, so the same :class:`PipelineConfig`
    can be handed to any execution path unchanged.  Every executor
    parses through a :class:`~repro.skeleton.cache.TemplateCache`; what
    is not a knob is a constant with one home: the parse-cache bound
    (``skeleton.cache.DEFAULT_PARSE_CACHE_SIZE``), the shard retry
    budget and backoff (``parallel.MAX_SHARD_RETRIES`` and
    ``RETRY_BACKOFF_S``), and the chunk size of a source that
    :func:`repro.clean` builds from a path or an in-memory log
    (``store.sources.DEFAULT_CHUNK_RECORDS``; an explicit
    :class:`~repro.store.sources.LogSource` carries its own
    ``chunk_records``).

    :param mode: ``"batch"`` (whole log in memory, full
        :class:`~repro.pipeline.framework.PipelineResult` artifacts),
        ``"streaming"`` (bounded memory, one pass, statistics only) or
        ``"parallel"`` (hash-sharded by user across worker processes).
    :param workers: worker-process count for parallel mode; ``0`` means
        one per available CPU.  A parallel run shards the log into about
        ``2 × workers`` tasks (never splitting a user) and fans them out
        over the warm process-wide pool for that worker count (see
        :func:`repro.pipeline.parallel.get_worker_pool`).
    :param max_block_queries: force-close bound per open block in
        streaming mode — the memory ceiling is roughly ``open users ×
        max_block_queries``.  Ignored by batch and parallel modes (they
        hold whole blocks by construction).
    :param task_timeout: per-shard wall-clock budget in seconds for
        parallel mode; ``None`` (the default) waits indefinitely.  A
        shard exceeding it is treated like a crashed worker: the pool is
        recycled and the shard re-queued.
    """

    mode: str = "batch"
    workers: int = 0
    max_block_queries: int = 10_000
    task_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in EXECUTION_MODES:
            raise ValueError(
                f"mode must be one of {EXECUTION_MODES}, got {self.mode!r}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.max_block_queries < 2:
            raise ValueError(
                f"max_block_queries must be >= 2, got {self.max_block_queries}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be positive or None, got {self.task_timeout}"
            )

    def resolved_workers(self) -> int:
        """The effective worker count (``workers`` or the CPU count)."""
        if self.workers:
            return self.workers
        try:
            return len(os.sched_getaffinity(0)) or 1
        except AttributeError:  # pragma: no cover - non-Linux
            return os.cpu_count() or 1


@dataclass
class PipelineConfig:
    """All knobs of one pipeline run.

    :param dedup_threshold: seconds for duplicate deletion (Section 5.2);
        Table 4 motivates the 1-second default.
    :param miner: blocking / segmentation parameters.
    :param detection: schema knowledge and detector tuning.
    :param detectors: detector set; ``None`` selects the paper's default
        (Stifle, CTH, SNC).
    :param sws: SWS thresholds; ``None`` disables the SWS scan.
    :param fold_variables: skeletonize ``@variables`` too.
    :param strict_triple: use the paper-verbatim template identity
        (SFC, SWC, SSC only — no GROUP/ORDER/TOP component).
    :param error_policy: what to do with records the pipeline cannot
        process (see :mod:`repro.errors`): ``"strict"`` raises,
        ``"lenient"`` drops and counts, ``"quarantine"`` drops, counts
        and captures them in the result's quarantine channel.
    :param execution: execution-mode parameters (see
        :class:`ExecutionConfig`); configuration of *what* to compute is
        everything above, *how* to run it is this one object.
    """

    dedup_threshold: float = 1.0
    miner: MinerConfig = field(default_factory=MinerConfig)
    detection: DetectionContext = field(default_factory=DetectionContext)
    detectors: Optional[Sequence[Detector]] = None
    sws: Optional[SwsConfig] = None
    fold_variables: bool = False
    strict_triple: bool = False
    error_policy: str = "strict"
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def __post_init__(self) -> None:
        validate_error_policy(self.error_policy)
