"""E28 — Parse engine v4: dispatch scanner, single-lex parse, batched preloads.

Two axes, matching the two halves of the v4 engine:

**Cold parse.**  A workload of *distinct-template* statements (every
statement is the first sight of its fingerprint key, so every record
takes the full cold path) runs through the v4 flow — first-character
dispatch scanner, ``NamedTuple`` tokens, cur-token parser — and through
the complete v3 parse stack exec'd **frozen out of git history** (rev
``ff621b5``, the v3 commit), so the baseline cannot drift along with
the code under test.  Unlike E27, which could share the parser and AST
with its baseline, v4 rewrote the token and node classes themselves, so
the *entire* stack is frozen: tokens, AST, scanner, lexer, parser,
formatter, normalizer, template, fingerprint, features and cache, with
relative imports resolved through stub package modules in
``sys.modules``.  Output equality is asserted on the cross-class
projection of each ``ParsedQuery`` — template id, rendered clause
texts, predicate count, equality filter, output columns and record
identity — because dataclass ``==`` is class-identical by design and
cannot compare a frozen node to a live one.

**Batched preload.**  The same distinct-template texts act as a
template dictionary's witness list; the frozen v3 per-witness
``preload`` (fetch probe ladder, then build, per witness) races the v4
batched preload (straight into the single-lex build with the probe
ladder skipped and the cyclic GC suspended for the batch).  Timed with
the collector *enabled* on both sides — a warm-start open happens in a
live process, and the GC suspension is part of what v4 ships — and
timed *before* the cold axis, because a dictionary preload happens at
process open, on a heap no prior parsing has inflated.  After
both preloads, a member workload must see identical fetch outcomes and
identical hit/miss counters: the batch may only ever change speed.

Acceptance bars asserted here: cold parse ≥1.5× the frozen v3 flow at
full scale (``REPRO_PARSEV4_BENCH_SCALE`` ≥ 5.8 ≈ 100k distinct
templates; the bar relaxes to ≥1.2× below), zero cold-parse
mismatches, preload ≥2× at full scale (≥1.5× below) over ≥10k
witnesses at full scale, and byte-identical post-preload hit behavior.
Results land in ``BENCH_parse_v4.json`` next to this file.  This file
deliberately avoids the pytest-benchmark fixture so the CI
benchmark-smoke step can run it with plain pytest.
"""

import gc
import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from conftest import print_table

from repro.log import LogRecord
from repro.skeleton.cache import TemplateCache

#: ~17.2k queries per unit of scale; 5.8 ≈ the 100k-query full scale.
BENCH_SCALE = float(os.environ.get("REPRO_PARSEV4_BENCH_SCALE", "5.8"))
BENCH_SEED = int(os.environ.get("REPRO_PARSEV4_BENCH_SEED", "2018"))
FULL_SCALE = 5.8
OUTPUT_PATH = Path(__file__).parent / "BENCH_parse_v4.json"
REPO_ROOT = Path(__file__).resolve().parents[1]

#: The v3 commit — the last whose scanner/parser/tokens carry the v3 flow.
V3_REV = "ff621b5"

#: Every module of the v3 parse stack, in dependency order.  All of it
#: is frozen (not just the files v4 edited) because the files v4 left
#: alone — formatter, features, template — dispatch on AST classes and
#: must bind against the *frozen* AST to form a coherent baseline.
V3_MODULES = (
    "sqlparser/tokens",
    "sqlparser/ast_nodes",
    "sqlparser/visitor",
    "sqlparser/scanner",
    "sqlparser/lexer",
    "sqlparser/parser",
    "sqlparser/formatter",
    "skeleton/normalizer",
    "skeleton/template",
    "skeleton/fingerprint",
    "skeleton/features",
    "skeleton/cache",
)

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


def _git_show(path):
    return subprocess.run(
        ["git", "show", f"{V3_REV}:{path}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def _load_v3_cache():
    """The frozen v3 parse stack, exec'd from git history as ``reprov3``.

    Stub package modules registered in ``sys.modules`` let each frozen
    module's *relative* imports resolve natively — no source rewriting.
    The three leaf modules v4 did not touch and no frozen module
    subclasses (errors, log records, the ``ParsedQuery`` container)
    alias the live package.  Returns the frozen ``TemplateCache``.
    """
    if "reprov3.skeleton.cache" in sys.modules:
        return sys.modules["reprov3.skeleton.cache"].TemplateCache
    try:
        sources = [_git_show(f"src/repro/{rel}.py") for rel in V3_MODULES]
    except (OSError, subprocess.CalledProcessError):
        pytest.skip(
            f"git history for {V3_REV} unavailable (shallow clone?); "
            "cannot build the frozen v3 baseline"
        )
    import repro.log.models
    import repro.patterns.models
    import repro.sqlparser.errors

    packages = {}
    for name in (
        "reprov3",
        "reprov3.sqlparser",
        "reprov3.skeleton",
        "reprov3.log",
        "reprov3.patterns",
    ):
        pkg = types.ModuleType(name)
        pkg.__path__ = []
        sys.modules[name] = pkg
        packages[name] = pkg
        parent, _, leaf = name.rpartition(".")
        if parent:
            setattr(packages[parent], leaf, pkg)
    for alias, live in (
        ("reprov3.sqlparser.errors", repro.sqlparser.errors),
        ("reprov3.log.models", repro.log.models),
        ("reprov3.patterns.models", repro.patterns.models),
    ):
        sys.modules[alias] = live
        parent, _, leaf = alias.rpartition(".")
        setattr(packages[parent], leaf, live)
    for rel, source in zip(V3_MODULES, sources):
        name = "reprov3." + rel.replace("/", ".")
        mod = types.ModuleType(name)
        mod.__package__ = name.rpartition(".")[0]
        mod.__file__ = f"<{V3_REV}:src/repro/{rel}.py>"
        sys.modules[name] = mod
        parent, _, leaf = name.rpartition(".")
        setattr(packages[parent], leaf, mod)
        exec(compile(source, mod.__file__, "exec"), mod.__dict__)
    return sys.modules["reprov3.skeleton.cache"].TemplateCache


def _cold_records(count):
    records = []
    for i in range(count):
        sql = SHAPES[i % len(SHAPES)].format(
            i=i, a=i, b=i + 1, c=i % 90, d=i * 7, n=f"n{i}", e=i % 5
        )
        records.append(LogRecord(seq=i, sql=sql, timestamp=float(i)))
    return records


def _run_cold(records, cache_cls):
    """One cold pass: fetch miss → single-shot build, GC off.

    Everything built here is an acyclic tree; generational collections
    scale with how many objects the *process* holds alive, so whichever
    flow runs later in the session would otherwise pay collection
    passes over the earlier flow's outputs — noise, not parse cost.
    """
    cache = cache_cls(max_entries=1 << 20)
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


def _view(query):
    """Cross-class projection of a ``ParsedQuery`` for equality checks.

    Frozen v3 AST nodes and live v4 nodes are distinct classes, and
    dataclass/namedtuple ``==`` is class-identical — so equality is
    asserted on everything the pipeline consumes downstream: template
    identity, rendered clause texts, derived features and the record.
    """
    return (
        query.template_id,
        _template_view(query.template),
        query.clauses.sc,
        query.clauses.fc,
        query.clauses.wc,
        query.predicate_count,
        query.equality_filter,
        query.outputs,
        query.record.seq,
        query.record.sql,
    )


def _template_view(template):
    return (
        template.ssc,
        template.sfc,
        template.swc,
        template.rest_prefix,
        template.rest_suffix,
    )


def _run_preload(witnesses, cache_cls):
    """One preload pass on a fresh cache, collector *enabled*.

    The v4 batch suspends the GC itself; the frozen v3 per-witness loop
    does not.  Measuring with the collector on is the honest contract —
    a warm-start open happens in a live process.
    """
    cache = cache_cls(max_entries=1 << 20)
    gc.collect()
    started = time.perf_counter()
    loaded = cache.preload(witnesses)
    return time.perf_counter() - started, loaded, cache


def _probe(cache, member_records):
    """Post-preload hit behavior: fetch outcomes + counters."""
    outcomes = []
    for record in member_records:
        got = cache.fetch(record)
        outcomes.append(
            (got is not None, None if got is None else got.template_id)
        )
    return outcomes, cache.hits, cache.misses, cache.evictions


def test_parse_v4():
    V3Cache = _load_v3_cache()
    records = _cold_records(max(500, int(17200 * BENCH_SCALE)))

    # ------------------------------------------------------------------
    # Batched preload vs the frozen per-witness loop, best of two.
    # ≥10k witnesses required at full scale; 20k is where the per-witness
    # flow's GC burden (full collector passes over the growing cache
    # heap) is representative of a real SkyServer-sized dictionary.
    # This axis runs FIRST, on a small heap: a dictionary preload
    # happens at process open, before any parsing has populated the
    # old generation.  Run after the cold axis, its ~100k retained
    # outputs trip CPython's gen-2 25%-growth throttle, collections
    # get *rarer*, and the per-witness baseline's dominant cost —
    # collector passes between witnesses — quietly evaporates.
    witness_count = min(
        len(records), max(2000, int(20000 * BENCH_SCALE / FULL_SCALE))
    )
    witnesses = [record.sql for record in records[:witness_count]]
    member_records = [
        LogRecord(seq=10_000_000 + i, sql=witnesses[(i * 7) % witness_count], timestamp=0.0)
        for i in range(min(2000, witness_count))
    ]
    v3_pre_seconds, v3_loaded, v3_warm = _run_preload(witnesses, V3Cache)
    v4_pre_seconds, v4_loaded, v4_warm = _run_preload(witnesses, TemplateCache)
    v3_probe = _probe(v3_warm, member_records)
    v4_probe = _probe(v4_warm, member_records)
    del v3_warm, v4_warm
    retry_v3_pre, _, v3_warm = _run_preload(witnesses, V3Cache)
    retry_v4_pre, _, v4_warm = _run_preload(witnesses, TemplateCache)
    del v3_warm, v4_warm
    v3_pre_seconds = min(v3_pre_seconds, retry_v3_pre)
    v4_pre_seconds = min(v4_pre_seconds, retry_v4_pre)

    # ------------------------------------------------------------------
    # Cold-parse microbenchmark: frozen v3 stack vs the v4 engine.
    # Best-of-two interleaved rounds: allocator and interpreter state
    # drift over a long process, and round one doubles as the warm-up.
    # (Both passes run GC-disabled, so heap ordering effects that would
    # distort the preload axis do not apply here.)
    v3_seconds, v3_out = _run_cold(records, V3Cache)
    v4_seconds, v4_out = _run_cold(records, TemplateCache)
    mismatches = sum(1 for a, b in zip(v3_out, v4_out) if _view(a) != _view(b))
    del v3_out, v4_out
    retry_v3, v3_out = _run_cold(records, V3Cache)
    retry_v4, v4_out = _run_cold(records, TemplateCache)
    del v3_out, v4_out
    v3_seconds = min(v3_seconds, retry_v3)
    v4_seconds = min(v4_seconds, retry_v4)

    report = {
        "scale": BENCH_SCALE,
        "full_scale": FULL_SCALE,
        "seed": BENCH_SEED,
        "v3_rev": V3_REV,
        "cold_parse": {
            "distinct_templates": len(records),
            "v3_seconds": v3_seconds,
            "v4_seconds": v4_seconds,
            "v3_throughput": len(records) / v3_seconds,
            "v4_throughput": len(records) / v4_seconds,
            "speedup": v3_seconds / v4_seconds,
            "mismatches": mismatches,
        },
        "preload": {
            "witnesses": witness_count,
            "v3_seconds": v3_pre_seconds,
            "v4_seconds": v4_pre_seconds,
            "v3_throughput": witness_count / v3_pre_seconds,
            "v4_throughput": witness_count / v4_pre_seconds,
            "speedup": v3_pre_seconds / v4_pre_seconds,
            "loaded_v3": v3_loaded,
            "loaded_v4": v4_loaded,
            "identical_hit_behavior": v3_probe == v4_probe,
        },
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    cold = report["cold_parse"]
    pre = report["preload"]
    print_table(
        f"Parse engine v4, cold parse — {cold['distinct_templates']:,} "
        f"distinct templates (scale {BENCH_SCALE})",
        ["configuration", "seconds", "stmts/s", "speedup"],
        [
            (
                f"v3 engine (frozen {V3_REV})",
                f"{cold['v3_seconds']:.2f}",
                f"{cold['v3_throughput']:,.0f}",
                "1.00x",
            ),
            (
                "v4 dispatch + single-lex",
                f"{cold['v4_seconds']:.2f}",
                f"{cold['v4_throughput']:,.0f}",
                f"{cold['speedup']:.2f}x",
            ),
        ],
    )
    print_table(
        f"Dictionary preload — {pre['witnesses']:,} witnesses",
        ["configuration", "seconds", "witnesses/s", "speedup"],
        [
            (
                f"v3 per-witness (frozen {V3_REV})",
                f"{pre['v3_seconds']:.2f}",
                f"{pre['v3_throughput']:,.0f}",
                "1.00x",
            ),
            (
                "v4 batched",
                f"{pre['v4_seconds']:.2f}",
                f"{pre['v4_throughput']:,.0f}",
                f"{pre['speedup']:.2f}x",
            ),
        ],
    )

    # ------------------------------------------------------------------
    # Acceptance bars.
    assert mismatches == 0, f"{mismatches} cold-parse output mismatches"
    cold_bar = 1.5 if BENCH_SCALE >= FULL_SCALE else 1.2
    assert cold["speedup"] >= cold_bar, (
        f"cold parse only {cold['speedup']:.2f}x over the frozen v3 flow "
        f"at scale {BENCH_SCALE} (bar {cold_bar}x; v3 {v3_seconds:.2f}s, "
        f"v4 {v4_seconds:.2f}s)"
    )
    assert v3_loaded == v4_loaded == witness_count, (
        f"preload admitted {v4_loaded}/{witness_count} witnesses "
        f"(frozen v3 admitted {v3_loaded})"
    )
    assert pre["identical_hit_behavior"], (
        "post-preload fetch behavior diverged between the batched and "
        "per-witness flows"
    )
    preload_bar = 2.0 if BENCH_SCALE >= FULL_SCALE else 1.5
    assert pre["speedup"] >= preload_bar, (
        f"preload only {pre['speedup']:.2f}x over the frozen per-witness "
        f"flow at scale {BENCH_SCALE} (bar {preload_bar}x; "
        f"v3 {v3_pre_seconds:.2f}s, v4 {v4_pre_seconds:.2f}s)"
    )
