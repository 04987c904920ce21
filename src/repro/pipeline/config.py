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
    can be handed to any execution path unchanged.

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
    :param max_shard_retries: how many times a failed parallel shard is
        re-submitted (worker crash, timeout, transient stage exception)
        before it is declared terminally failed and handed to the error
        policy.  ``0`` disables retries.
    :param retry_backoff: base sleep (seconds) between retry rounds;
        doubles each round.
    :param task_timeout: per-shard wall-clock budget in seconds for
        parallel mode; ``None`` (the default) waits indefinitely.  A
        shard exceeding it is treated like a crashed worker: the pool is
        recycled and the shard re-queued.
    :param parse_cache: enable the parse-stage fast path — a
        fingerprint-keyed :class:`~repro.skeleton.cache.TemplateCache`
        that instantiates repeated statement templates from interned
        skeletons instead of re-parsing them.  Outputs are byte-identical
        with the cache on or off (the cache falls back to the full
        parser whenever a fingerprint is ambiguous).  A run over a
        columnar store preloads the cache from the store's template
        witnesses (its ``templates.bin``), and a resumed streaming run
        from its checkpoint's; there is no other template dictionary —
        to warm a re-run of a CSV or JSONL log, convert it to a store
        first (``sqlog-clean convert``).
    :param parse_cache_size: maximum number of cached templates per
        cache instance (batch keeps one cache per run; streaming one per
        pipeline instance; parallel one per worker process).
    :param source_chunk_records: records per chunk when a
        :class:`~repro.store.sources.LogSource` is built from a path or
        in-memory log (sources constructed explicitly carry their own
        chunking; the columnar store streams its stored chunks).  Chunk
        size bounds streaming-mode working memory and sets the
        checkpoint granularity.
    """

    mode: str = "batch"
    workers: int = 0
    max_block_queries: int = 10_000
    max_shard_retries: int = 2
    retry_backoff: float = 0.05
    task_timeout: Optional[float] = None
    parse_cache: bool = True
    parse_cache_size: int = 4096
    source_chunk_records: int = 8192

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
        if self.max_shard_retries < 0:
            raise ValueError(
                f"max_shard_retries must be >= 0, got {self.max_shard_retries}"
            )
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be positive or None, got {self.task_timeout}"
            )
        if self.parse_cache_size < 1:
            raise ValueError(
                f"parse_cache_size must be >= 1, got {self.parse_cache_size}"
            )
        if self.source_chunk_records < 1:
            raise ValueError(
                "source_chunk_records must be >= 1, "
                f"got {self.source_chunk_records}"
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
