"""Unit tests for the unified ``repro.clean()`` entry point."""

import pytest

import repro
from repro.antipatterns import DetectionContext
from repro.log import LogRecord, QueryLog
from repro.pipeline import ExecutionConfig, PipelineConfig

KEYS = frozenset({"empid", "id", "objid"})


def stifle_log(n=4):
    return QueryLog(
        LogRecord(
            seq=i,
            sql=f"SELECT name FROM e WHERE id = {i}",
            timestamp=i * 0.1,
            user="u",
        )
        for i in range(n)
    )


def config(**kwargs):
    return PipelineConfig(
        detection=DetectionContext(key_columns=KEYS), **kwargs
    )


class TestCleanDispatch:
    def test_default_is_batch_with_full_artifacts(self):
        result = repro.clean(stifle_log(), config())
        assert result.execution_mode == "batch"
        assert len(result.clean_log) == 1
        assert result.registry is not None
        assert result.overview().original_size == 4

    def test_streaming_mode(self):
        result = repro.clean(stifle_log(), config(), execution="streaming")
        assert result.execution_mode == "streaming"
        assert len(result.clean_log) == 1
        assert result.streaming_stats.records_in == 4
        assert result.streaming_stats.records_out == 1
        assert result.parallel_stats is None

    def test_parallel_mode(self):
        result = repro.clean(
            stifle_log(),
            config(),
            execution=ExecutionConfig(mode="parallel", workers=2),
        )
        assert result.execution_mode == "parallel"
        assert len(result.clean_log) == 1
        assert result.parallel_stats.records_in == 4
        assert result.streaming_stats is None

    def test_mode_can_come_from_the_config_itself(self):
        cfg = config(execution=ExecutionConfig(mode="streaming"))
        result = repro.clean(stifle_log(), cfg)
        assert result.execution_mode == "streaming"

    def test_execution_override_does_not_mutate_config(self):
        cfg = config()
        repro.clean(stifle_log(), cfg, execution="streaming")
        assert cfg.execution.mode == "batch"

    def test_invalid_mode_string(self):
        with pytest.raises(ValueError):
            repro.clean(stifle_log(), execution="distributed")

    def test_all_modes_agree(self):
        log = stifle_log(6)
        results = {
            mode: repro.clean(log, config(), execution=mode)
            for mode in ("batch", "streaming", "parallel")
        }
        statements = {
            mode: result.clean_log.statements()
            for mode, result in results.items()
        }
        assert statements["batch"] == statements["streaming"]
        assert statements["batch"] == statements["parallel"]


class TestLeanResultGuards:
    """Streaming/parallel results say *why* an artifact is missing."""

    def test_overview_raises_with_mode_in_message(self):
        result = repro.clean(stifle_log(), config(), execution="streaming")
        with pytest.raises(ValueError, match="streaming"):
            result.overview()

    def test_removal_log_raises(self):
        result = repro.clean(stifle_log(), config(), execution="parallel")
        with pytest.raises(ValueError, match="parallel"):
            result.removal_log

    def test_clean_log_always_available(self):
        for mode in ("batch", "streaming", "parallel"):
            result = repro.clean(stifle_log(), config(), execution=mode)
            assert isinstance(result.clean_log, QueryLog)


class TestRemovedDataPlaneKnobs:
    """The parallel executor has one data plane; its retired knobs
    (pickle|shm transfer, private pools, fixed chunk packing) raise
    rather than being silently accepted and ignored."""

    @pytest.mark.parametrize(
        "knob",
        [{"transfer": "shm"}, {"pool_reuse": False}, {"chunk_size": 40}],
        ids=lambda knob: next(iter(knob)),
    )
    def test_execution_config_rejects_knob(self, knob):
        with pytest.raises(TypeError):
            ExecutionConfig(mode="parallel", workers=2, **knob)

    @pytest.mark.parametrize("transfer", ["shm", "pickle"])
    def test_clean_rejects_transfer_override(self, transfer):
        with pytest.raises(TypeError):
            repro.clean(stifle_log(), config(), transfer=transfer)

    def test_clean_rejects_parse_cache_override(self):
        with pytest.raises(TypeError):
            repro.clean(stifle_log(), config(), parse_cache=False)

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.pipeline", "clean_log_parallel"),
            ("repro.pipeline.config", "TRANSFER_MODES"),
        ],
    )
    def test_removed_name_no_longer_imports(self, module, name):
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})


class TestExports:
    def test_exports(self):
        assert callable(repro.clean)
        assert repro.ExecutionConfig is ExecutionConfig
        assert "clean" in repro.__all__
