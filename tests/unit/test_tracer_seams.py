"""Tier-1 guard for the E29 tracer's seams.

``e29_ledger/tracing.py`` times the program's layers by replacing named
module and class attributes with wrappers of fixed positional arity.  A
renamed seam, or a wrapped function whose call signature drifts, used to
show only in the two-minute E29 CI step, or silently as a column of
zeros.  This module pins the seams in seconds:

* :data:`SEAMS` names every attribute the tracer patches, and the
  positional parameters its wrapper passes on (``None`` where the
  wrapper forwards ``*args``); it is checked against ``tracing.py``
  itself, so neither side can drift alone;
* every seam exists in the program and takes exactly those positional
  parameters;
* a traced streaming and parallel clean of a small store fills the
  store, block and parse-tier columns and keeps the reconciliation laws.
"""

import ast
import inspect
import sys
from concurrent import futures
from pathlib import Path

import pytest

import repro
from repro.pipeline import ExecutionConfig, parallel, streaming
from repro.skeleton import cache
from repro.store import columnar, write_columnar
from repro.workload import WorkloadConfig, generate

LEDGER = Path(__file__).resolve().parents[2] / "e29_ledger"

#: The owners ``Tracer.installed`` patches, by the name it spells them.
OWNERS = {
    "cache.TemplateCache": cache.TemplateCache,
    "cache.LazyParsedQuery": cache.LazyParsedQuery,
    "cache": cache,
    "columnar": columnar,
    "streaming": streaming,
    "parallel": parallel,
    "futures": futures,
}

#: ``(owner, attribute)`` -> the positional parameters the tracer's
#: wrapper passes to the original, or ``None`` for a ``*args`` wrapper.
SEAMS = {
    ("cache.TemplateCache", "fetch"): ("self", "record"),
    ("cache.TemplateCache", "build"): ("self", "record"),
    ("cache.TemplateCache", "preload"): ("self", "witnesses"),
    ("cache", "scan"): None,
    ("cache", "_raw_scan"): None,
    ("cache.LazyParsedQuery", "_materialise"): None,
    ("columnar", "read_chunk"): ("path", "index", "templates"),
    ("streaming", "clean_block"): None,
    ("parallel", "shard_records"): None,
    ("parallel", "encode_shard"): ("records",),
    ("futures", "wait"): None,
    ("parallel", "_clean_shard_encoded"): ("payload",),
}

#: The wrapper ``tracing.py`` installs for a seam, when it is not a
#: nested function named after the seam.
WRAPPER_NAMES = {"_clean_shard_encoded": "_traced_shard"}


def tracing_tree():
    return ast.parse((LEDGER / "tracing.py").read_text(encoding="utf-8"))


def patched_seams(tree):
    """``(owner, attribute)`` of every ``patch(owner, "name", ...)`` call."""
    return {
        (ast.unparse(node.args[0]), node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "patch"
        and isinstance(node.args[1], ast.Constant)
    }


def wrapper_arities(tree):
    """Positional parameter count of every function ``tracing.py``
    defines without ``*args``, by name."""
    return {
        node.name: len(node.args.args)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.args.vararg is None
    }


def positional_parameters(function):
    return [
        parameter
        for parameter in inspect.signature(function).parameters.values()
        if parameter.kind
        in (parameter.POSITIONAL_ONLY, parameter.POSITIONAL_OR_KEYWORD)
    ]


class TestSeamTable:
    def test_the_table_names_every_patched_seam(self):
        assert patched_seams(tracing_tree()) == set(SEAMS)

    def test_the_table_matches_the_wrappers_arities(self):
        arities = wrapper_arities(tracing_tree())
        for (_, name), expected in SEAMS.items():
            wrapper = WRAPPER_NAMES.get(name, name)
            if expected is None:
                assert wrapper not in arities, name
            else:
                assert arities[wrapper] == len(expected), name


class TestSeamsExist:
    @pytest.mark.parametrize("owner, name", sorted(SEAMS))
    def test_seam_takes_the_wrappers_positional_arguments(self, owner, name):
        function = getattr(OWNERS[owner], name)
        assert callable(function)
        expected = SEAMS[owner, name]
        if expected is None:
            return
        parameters = positional_parameters(function)
        assert len(parameters) == len(expected), (name, parameters)
        # Nothing beyond them may be required: the wrapper passes only
        # these (and, for build/preload, keywords).
        required = [
            parameter
            for parameter in inspect.signature(function).parameters.values()
            if parameter.default is parameter.empty
            and parameter.kind
            not in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD)
        ]
        assert len(required) == len(expected), (name, required)


@pytest.fixture(scope="module")
def tracing_module():
    sys.path.insert(0, str(LEDGER))
    try:
        import tracing

        yield tracing
    finally:
        sys.path.remove(str(LEDGER))
        sys.modules.pop("tracing", None)


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    store = tmp_path_factory.mktemp("seams") / "log.columnar"
    log = generate(WorkloadConfig(seed=2018, scale=0.02)).log
    write_columnar(log, store, chunk_records=97)
    return store


class TestTracedStoreRun:
    @pytest.mark.parametrize(
        "execution",
        ["streaming", ExecutionConfig(mode="parallel", workers=2)],
        ids=["streaming", "parallel-2"],
    )
    def test_traced_columns_fill_and_reconcile(
        self, execution, tracing_module, small_store
    ):
        tracer = tracing_module.Tracer()
        with tracer.installed():
            result = repro.clean(repro.ColumnarSource(small_store), execution=execution)
        metrics = tracing_module.layer_metrics(tracer, result, 1.0)
        assert tracing_module.reconciliation(metrics, result) == []
        parse_hits = sum(
            metrics[f"parse.{tier}_hits"] for tier in ("memo", "l1", "raw", "fp")
        )
        assert parse_hits > 0 and metrics["parse.cold_builds"] > 0
        if execution == "streaming":
            assert metrics["store.chunks_read"] == (
                result.metrics.stages["store"].counters["chunks_read"]
            )
            assert metrics["store.bytes_read"] > 0
            assert metrics["streaming.blocks_closed"] > 0
        else:
            assert metrics["parallel.encode_s"] > 0
            assert metrics["parallel.bytes_shipped"] > 0
