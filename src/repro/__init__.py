"""repro — a reproduction of *Cleaning Antipatterns in an SQL Query Log*
(Arzamasova, Schäler, Böhm; ICDE/TKDE 2018).

The package implements the paper's full stack:

* :mod:`repro.sqlparser` — SQL front end (scanner, parser, AST, formatter);
* :mod:`repro.skeleton` — skeleton queries and templates (Section 4.1.2);
* :mod:`repro.log` — query-log model, IO, duplicate removal (Section 5.2);
* :mod:`repro.patterns` — pattern mining, frequency/userPopularity, SWS;
* :mod:`repro.antipatterns` — Stifle / CTH / SNC detection (Section 4.2);
* :mod:`repro.rewrite` — solving rules + engine-backed validation;
* :mod:`repro.pipeline` — the Fig. 1 cleaning framework, end to end;
* :mod:`repro.store` — out-of-core log input: the :class:`LogSource`
  protocol, the columnar store, run checkpoints;
* :mod:`repro.obs` — pipeline observability (metrics, traces, recorders);
* :mod:`repro.engine` — in-memory relational engine + cost model;
* :mod:`repro.workload` — synthetic SkyServer log generator + ground truth;
* :mod:`repro.analysis` — downstream overlap clustering (Section 6.9).

Quick start::

    import repro

    log = repro.open_log("queries.csv").read()       # any on-disk format
    result = repro.clean(log)                        # batch, full artifacts
    print(result.clean_log.statements())

    result = repro.clean("queries.csv", execution="parallel")  # all cores
    result = repro.clean(                            # out of core + resumable
        "skyserver.columnar",
        execution="streaming",
        checkpoint_dir="run-ckpt",
    )
"""

from .errors import (
    ERROR_POLICIES,
    QuarantineChannel,
    QuarantinedRecord,
    RecordFailure,
    ShardFailure,
)
from .log.models import LogRecord, QueryLog
from .obs import (
    InMemorySink,
    JsonlSink,
    NullRecorder,
    PipelineMetrics,
    Recorder,
    StageMetrics,
)
from .pipeline.api import clean
from .pipeline.config import ExecutionConfig, PipelineConfig
from .pipeline.framework import CleaningPipeline, PipelineResult
from .pipeline.parallel import ParallelCleaner, ParallelStats
from .pipeline.streaming import StreamingCleaner, StreamingStats
from .store import (
    CheckpointError,
    ColumnarSource,
    CsvSource,
    InMemorySource,
    JsonlSource,
    LogSource,
    RunCheckpoint,
    open_log,
    write_columnar,
)

__version__ = "9.0.0"

__all__ = [
    "LogRecord",
    "QueryLog",
    "clean",
    "ExecutionConfig",
    "PipelineConfig",
    "ERROR_POLICIES",
    "QuarantineChannel",
    "QuarantinedRecord",
    "RecordFailure",
    "ShardFailure",
    "CleaningPipeline",
    "PipelineResult",
    "ParallelCleaner",
    "ParallelStats",
    "StreamingCleaner",
    "StreamingStats",
    "Recorder",
    "NullRecorder",
    "PipelineMetrics",
    "StageMetrics",
    "InMemorySink",
    "JsonlSink",
    "open_log",
    "LogSource",
    "InMemorySource",
    "CsvSource",
    "JsonlSource",
    "ColumnarSource",
    "write_columnar",
    "RunCheckpoint",
    "CheckpointError",
    "__version__",
]
