"""The cleaning pipeline (Fig. 1): configuration, framework, statistics.

:func:`clean` is the one entry point; batch / streaming / parallel are
execution modes of the same pipeline, selected by
:class:`ExecutionConfig`.
"""

from ..errors import (
    ERROR_POLICIES,
    QuarantineChannel,
    QuarantinedRecord,
    RecordFailure,
    ShardFailure,
)
from ..obs import (
    InMemorySink,
    JsonlSink,
    NullRecorder,
    PipelineMetrics,
    Recorder,
    StageMetrics,
)
from .api import clean
from .config import EXECUTION_MODES, ExecutionConfig, PipelineConfig
from .framework import (
    BlockCleanResult,
    CleaningPipeline,
    ParseStageResult,
    PipelineResult,
    clean_block,
    dedup_stage,
    detect_stage,
    mine_stage,
    parse_log,
    parse_stage,
    registry_stage,
    solve_stage,
    validate_stage,
)
from .parallel import (
    ParallelCleaner,
    ParallelStats,
    ShardReport,
    StageTimings,
    WorkerPool,
    get_worker_pool,
    shard_index,
    shard_records,
    shard_store,
    shutdown_worker_pools,
)
from .report import export_report
from .statistics import AntipatternCensus, Overview, census_by_label
from .streaming import StreamingCleaner, StreamingStats

__all__ = [
    # unified API
    "clean",
    "EXECUTION_MODES",
    "ExecutionConfig",
    # batch framework
    "PipelineConfig",
    "CleaningPipeline",
    "ParseStageResult",
    "PipelineResult",
    "parse_log",
    # error policies / quarantine (re-exported from repro.errors)
    "ERROR_POLICIES",
    "QuarantineChannel",
    "QuarantinedRecord",
    "RecordFailure",
    "ShardFailure",
    # stage functions (shared by all execution paths)
    "validate_stage",
    "dedup_stage",
    "parse_stage",
    "mine_stage",
    "detect_stage",
    "registry_stage",
    "solve_stage",
    "clean_block",
    "BlockCleanResult",
    # streaming
    "StreamingCleaner",
    "StreamingStats",
    # parallel
    "ParallelCleaner",
    "ParallelStats",
    "ShardReport",
    "StageTimings",
    "WorkerPool",
    "get_worker_pool",
    "shard_index",
    "shard_records",
    "shard_store",
    "shutdown_worker_pools",
    # statistics / report
    "export_report",
    "AntipatternCensus",
    "Overview",
    "census_by_label",
    # observability (re-exported from repro.obs)
    "Recorder",
    "NullRecorder",
    "PipelineMetrics",
    "StageMetrics",
    "InMemorySink",
    "JsonlSink",
]
