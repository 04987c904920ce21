"""E27 — Parse engine v3: cold-path scanner + store template witnesses.

Two axes, matching the two halves of the v3 engine:

**Cold parse.**  A workload of *distinct-template* statements (every
statement is the first sight of its fingerprint key, so every record
takes the full cold path) is cleaned through the v3 one-shot
``TemplateCache.build`` flow and through the v2 baseline flow — the
per-character lexer, the master-regex fingerprint and the
parse-then-re-derive entry build, all exec'd **frozen out of git
history** (rev ``90f9fda``, the last pre-v3 commit) so the baseline
cannot drift along with the code under test.  Both flows must produce
equal ``ParsedQuery`` streams.

**Warm start.**  The seed-2018 workload is cleaned in RAM, then written
as a columnar store and cleaned from the store, whose ``templates.bin``
carries one first-seen witness statement per store template and warms
the run's parse cache.  Every parseable witness must be admitted (some
witnesses are non-SELECT statements or lexer errors), and the store
run's cold builds must be the in-RAM run's minus the raw keys the
preload verified.  The five executor configurations then clean the
store against a cacheless in-RAM batch reference, asserting
byte-identical clean logs, equal comparable ledgers and zero
conservation violations — the witnesses may only ever change speed.

Acceptance bars asserted here: cold parse ≥2× the v2 baseline at full
scale (``REPRO_PARSEV3_BENCH_SCALE`` ≥ 5.8 ≈ 100k queries; the bar
relaxes to ≥1.5× below), zero cold-parse mismatches, every parseable
store witness preloaded, the cold-build law above, and the executor
matrix contracts above.  Results land in ``BENCH_parse_v3.json`` next to this file.
This file deliberately avoids the pytest-benchmark fixture so the CI
benchmark-smoke step can run it with plain pytest.
"""

import gc
import json
import os
import subprocess
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import print_table

import repro
from repro.log import LogRecord
from repro.obs import Recorder
from repro.patterns.models import ParsedQuery
from repro.pipeline import ExecutionConfig
from repro.skeleton.cache import TemplateCache
from repro.sqlparser import SqlError, parse
from repro.sqlparser.parser import Parser
from repro.store import ColumnarSource, write_columnar
from repro.workload import WorkloadConfig, generate
from tests.reference import cacheless_run

#: ~17.2k queries per unit of scale; 5.8 ≈ the 100k-query full scale.
BENCH_SCALE = float(os.environ.get("REPRO_PARSEV3_BENCH_SCALE", "5.8"))
BENCH_SEED = int(os.environ.get("REPRO_PARSEV3_BENCH_SEED", "2018"))
FULL_SCALE = 5.8
OUTPUT_PATH = Path(__file__).parent / "BENCH_parse_v3.json"
REPO_ROOT = Path(__file__).resolve().parents[1]

#: The last commit whose lexer.py/cache.py still carry the pre-v3 flow.
LEGACY_REV = "90f9fda"

#: Distinct-template statement families: the ``{i}`` identifiers make
#: every statement a fresh fingerprint key, so none can ride the
#: raw-template fast path — each one pays the whole cold path.
SHAPES = (
    "SELECT objid, ra_{i}, dec FROM photoprimary_{i} "
    "WHERE ra BETWEEN {a} AND {b} AND dec > {c}",
    "SELECT TOP 10 p.objid_{i}, s.z FROM photoobj AS p "
    "JOIN specobj_{i} AS s ON p.objid = s.bestobjid "
    "WHERE s.z < {a} AND p.r < {b} ORDER BY s.z DESC",
    "SELECT count(*) FROM star_{i} WHERE htmid_{i} = {a} AND name = '{n}'",
    "SELECT u, g, r_{i}, i FROM galaxy_{i} "
    "WHERE dbo.fgetnearbyobjeq({a}, {b}, {c}) > 0 AND flags = {d} "
    "GROUP BY u, g, r_{i}, i HAVING count(*) > {e}",
)

#: The executor matrix for the store-warmed differential.
EXECUTIONS = ("batch", "streaming", "parallel-1", "parallel-2", "parallel-4")


def _git_show(path):
    return subprocess.run(
        ["git", "show", f"{LEGACY_REV}:{path}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def _load_legacy():
    """The frozen pre-v3 lexer + cache modules, exec'd from git history.

    Returns ``(Lexer, TemplateCache)`` of rev ``90f9fda``; relative
    imports are rewritten onto the installed package (whose shared
    helpers — parser, template, features — are unchanged by v3, so the
    frozen flow measures exactly the legacy-only work).
    """
    try:
        lexer_source = _git_show("src/repro/sqlparser/lexer.py")
        cache_source = _git_show("src/repro/skeleton/cache.py")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip(
            f"git history for {LEGACY_REV} unavailable (shallow clone?); "
            "cannot build the frozen v2 baseline"
        )
    lexer_source = lexer_source.replace(
        "from .errors import", "from repro.sqlparser.errors import"
    ).replace("from .tokens import", "from repro.sqlparser.tokens import")
    lexer_module = types.ModuleType("legacy_sqlparser_lexer")
    exec(
        compile(lexer_source, "legacy_lexer.py", "exec"), lexer_module.__dict__
    )
    sys.modules["legacy_sqlparser_lexer"] = lexer_module

    cache_source = (
        cache_source.replace(
            "from ..log.models import", "from repro.log.models import"
        )
        .replace(
            "from ..patterns.models import", "from repro.patterns.models import"
        )
        .replace(
            "from ..sqlparser import ast_nodes as ast",
            "from repro.sqlparser import ast_nodes as ast",
        )
        .replace(
            "from ..sqlparser.errors import", "from repro.sqlparser.errors import"
        )
        .replace(
            "from ..sqlparser.lexer import", "from legacy_sqlparser_lexer import"
        )
        .replace("from .features import", "from repro.skeleton.features import")
        .replace(
            "from .fingerprint import", "from repro.skeleton.fingerprint import"
        )
        .replace("from .template import", "from repro.skeleton.template import")
    )
    namespace = {"__name__": "legacy_cache"}
    exec(compile(cache_source, "legacy_cache.py", "exec"), namespace)
    return lexer_module.Lexer, namespace["TemplateCache"]


def _cold_records(count):
    records = []
    for i in range(count):
        sql = SHAPES[i % len(SHAPES)].format(
            i=i, a=i, b=i + 1, c=i % 90, d=i * 7, n=f"n{i}", e=i % 5
        )
        records.append(LogRecord(seq=i, sql=sql, timestamp=float(i)))
    return records


def _run_legacy(records, LegacyLexer, LegacyCache):
    """The v2 cold flow: fetch miss → lex → parse → derive → store.

    Timed with the cyclic GC off (everything built here is an acyclic
    tree): generational collections scale with how many objects the
    *process* holds alive, so whichever flow runs later in the session
    would otherwise pay collection passes over the earlier flow's
    outputs — noise, not parse cost.
    """
    cache = LegacyCache(max_entries=1 << 20)
    out = []
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for record in records:
            got = cache.fetch(record)
            if got is None:
                tokens = LegacyLexer(record.sql).tokenize()
                statement = Parser(tokens).parse_statement()
                got = ParsedQuery.from_statement(record, statement)
                cache.store(record.sql, got)
            out.append(got)
        return time.perf_counter() - started, out
    finally:
        gc.enable()


def _run_v3(records):
    """The v3 cold flow: fetch miss → one-shot build."""
    cache = TemplateCache(max_entries=1 << 20)
    out = []
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for record in records:
            got = cache.fetch(record)
            if got is None:
                got = cache.build(record)
            out.append(got)
        return time.perf_counter() - started, out
    finally:
        gc.enable()


def _execution(name):
    mode, _, workers = name.partition("-")
    if workers:
        return ExecutionConfig(mode=mode, workers=int(workers))
    return ExecutionConfig(mode=mode)


def _parses(sql):
    try:
        parse(sql)
    except (SqlError, RecursionError):
        return False
    return True


def test_parse_v3(bench_config, tmp_path):
    shared_config = replace(bench_config, sws=None)

    # ------------------------------------------------------------------
    # Cold-parse microbenchmark: frozen v2 flow vs the one-shot build.
    LegacyLexer, LegacyCache = _load_legacy()
    records = _cold_records(max(500, int(17200 * BENCH_SCALE)))
    # Best-of-two interleaved rounds: allocator and interpreter state
    # drift over a long process, and round one doubles as the warm-up.
    legacy_seconds, legacy_out = _run_legacy(records, LegacyLexer, LegacyCache)
    v3_seconds, v3_out = _run_v3(records)
    del legacy_out, v3_out
    retry_legacy, legacy_out = _run_legacy(records, LegacyLexer, LegacyCache)
    retry_v3, v3_out = _run_v3(records)
    legacy_seconds = min(legacy_seconds, retry_legacy)
    v3_seconds = min(v3_seconds, retry_v3)
    mismatches = sum(1 for a, b in zip(legacy_out, v3_out) if a != b)

    report = {
        "scale": BENCH_SCALE,
        "full_scale": FULL_SCALE,
        "seed": BENCH_SEED,
        "legacy_rev": LEGACY_REV,
        "cold_parse": {
            "distinct_templates": len(records),
            "legacy_seconds": legacy_seconds,
            "v3_seconds": v3_seconds,
            "legacy_throughput": len(records) / legacy_seconds,
            "v3_throughput": len(records) / v3_seconds,
            "speedup": legacy_seconds / v3_seconds,
            "mismatches": mismatches,
        },
    }

    # ------------------------------------------------------------------
    # Warm start: clean in RAM, then clean the log's columnar store,
    # whose template witnesses preload the run's parse cache.
    workload = generate(WorkloadConfig(seed=BENCH_SEED, scale=BENCH_SCALE))
    log = workload.log
    store = tmp_path / "log.columnar"
    write_columnar(log, store)
    witnesses = ColumnarSource(store).template_witnesses()
    assert witnesses, "the store carries no template witnesses"
    # The raw keys a preload of these witnesses verifies, in a cache
    # like the run's own.
    probe = TemplateCache()
    probe.preload(
        witnesses,
        fold_variables=shared_config.fold_variables,
        strict_triple=shared_config.strict_triple,
    )

    first = repro.clean(log, shared_config)
    cold_first = first.metrics.stages["parse"].counters["parse_cold"]
    second = repro.clean(str(store), shared_config)
    warm = second.metrics.stages["parse"].counters

    report["store_witnesses"] = {
        "witnesses": len(witnesses),
        "parseable": sum(1 for sql in witnesses if _parses(sql)),
        "preloaded": warm["parse_dict_preloaded"],
        "raw_verified": probe.raw_entries,
        "cold_in_ram": cold_first,
        "cold_store": warm["parse_cold"],
        "identical_to_in_ram": second.clean_log.records()
        == first.clean_log.records(),
    }

    # ------------------------------------------------------------------
    # Executor matrix over the store vs a cacheless in-RAM batch
    # reference — the witnesses must be invisible in every output.
    reference = cacheless_run(log, shared_config)
    assert reference.metrics.conservation_violations() == []
    reference_records = reference.clean_log.records()
    reference_view = reference.metrics.comparable()

    runs = []
    for name in EXECUTIONS:
        recorder = Recorder()
        started = time.perf_counter()
        result = repro.clean(
            str(store),
            shared_config,
            execution=_execution(name),
            recorder=recorder,
        )
        seconds = time.perf_counter() - started
        counters = result.metrics.stages["parse"].counters
        runs.append(
            {
                "mode": name,
                "seconds": seconds,
                "parse_seconds": result.metrics.stages["parse"].wall_seconds,
                "dict_preloaded": counters["parse_dict_preloaded"],
                "cold": counters["parse_cold"],
                "identical_to_reference": result.clean_log.records()
                == reference_records,
                "metrics_match_reference": result.metrics.comparable()
                == reference_view,
                "conservation_violations": result.metrics.conservation_violations(),
            }
        )
    report["clean_runs"] = runs

    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    cold = report["cold_parse"]
    print_table(
        f"Parse engine v3, cold parse — {cold['distinct_templates']:,} "
        f"distinct templates (scale {BENCH_SCALE})",
        ["configuration", "seconds", "stmts/s", "speedup"],
        [
            (
                "v2 baseline (frozen 90f9fda)",
                f"{cold['legacy_seconds']:.2f}",
                f"{cold['legacy_throughput']:,.0f}",
                "1.00x",
            ),
            (
                "v3 one-shot build",
                f"{cold['v3_seconds']:.2f}",
                f"{cold['v3_throughput']:,.0f}",
                f"{cold['speedup']:.2f}x",
            ),
        ],
    )
    print_table(
        "End-to-end, store-warmed executors vs cacheless batch reference",
        ["mode", "seconds", "preloaded", "cold", "identical", "metrics"],
        [
            (
                run["mode"],
                f"{run['seconds']:.2f}",
                f"{run['dict_preloaded']:,}",
                f"{run['cold']:,}",
                "yes" if run["identical_to_reference"] else "NO",
                "match" if run["metrics_match_reference"] else "DIVERGED",
            )
            for run in runs
        ],
    )

    # ------------------------------------------------------------------
    # Acceptance bars.
    assert mismatches == 0, f"{mismatches} cold-parse output mismatches"
    bar = 2.0 if BENCH_SCALE >= FULL_SCALE else 1.5
    assert cold["speedup"] >= bar, (
        f"cold parse only {cold['speedup']:.2f}x over the v2 baseline at "
        f"scale {BENCH_SCALE} (bar {bar}x; legacy {legacy_seconds:.2f}s, "
        f"v3 {v3_seconds:.2f}s)"
    )
    warm = report["store_witnesses"]
    assert warm["preloaded"] == warm["parseable"], (
        f"{warm['preloaded']} of {warm['parseable']} parseable store "
        "witnesses preloaded (bar: every one)"
    )
    # Every raw key the preload verified avoids exactly one cold build
    # (sign and whitespace variants of one fingerprint key each have a
    # raw key of their own), and the warmed run's output is unchanged.
    assert warm["cold_store"] == warm["cold_in_ram"] - warm["raw_verified"]
    assert warm["identical_to_in_ram"]
    assert all(run["identical_to_reference"] for run in runs)
    assert all(run["metrics_match_reference"] for run in runs)
    assert all(run["conservation_violations"] == [] for run in runs)
    assert all(run["dict_preloaded"] > 0 for run in runs)
