"""The four E29 workloads: which input each feeds ``repro.clean`` and why.

The shapes follow the SkyServer Traffic Report: a few bot templates make
up most of the traffic (``seed2018-batch`` and the ``store-*`` pair, all
drawn from the calibrated generator) and a long tail of ad-hoc queries
makes up the rest (``longtail-batch``).  Every input is a pure function
of the seed and the size, so two processes that build the same
``(workload, seed, size)`` hold the same records.

This module imports nothing from ``repro`` at import time: the parent
harness uses the workload table without loading the program.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Dict

#: First timestamp of the long-tail log (2003-01-01, like the generator).
LONGTAIL_START = 1041379200.0

#: E28's distinct-template statement families.  ``{i}`` is the template
#: id; the other fields are constants, drawn fresh for every statement.
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

#: Zipf(s=1.0) support of the long-tail template ids.  It stays fixed
#: when the statement count shrinks, so even a reduced run keeps its
#: working set above the 4,096-entry parse cache.
LONGTAIL_IDS = 40_000
LONGTAIL_USERS = 200


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (why each exists: ``BENCHMARK.json``).

    :param mode: execution mode of the timed ``repro.clean`` call.
    :param workers: pool workers for parallel mode (0 otherwise).
    :param store: the input is a columnar store, written once per input
        before any sample (otherwise the log is built in RAM by the
        measured process).
    :param sizes: input size per tier — generator scale, or the
        long-tail statement count.
    """

    name: str
    mode: str
    workers: int
    store: bool
    sizes: Dict[str, float]

    def size(self, tier: str) -> float:
        return self.sizes[tier]


def _sizes(full: float, bench: float) -> Dict[str, float]:
    """Input size per tier.  ``full`` is the ledger's committed scale;
    ``bench`` is sized so one ``run.py --seconds 25`` holds four or more
    samples of every workload on two cores, large enough that the input
    one seed draws costs about what another seed's does, and still
    exercises what the workload's ``why`` claims (``ledger.CLAIMS``,
    checked in the ledger's ``bench_tier`` section); ``smoke`` is 5% of
    ``full``."""
    return {"full": full, "bench": bench, "smoke": full * 0.05}


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "seed2018-batch",
            mode="batch",
            workers=0,
            store=False,
            sizes=_sizes(5.8, 3.0),
        ),
        Workload(
            "longtail-batch",
            mode="batch",
            workers=0,
            store=False,
            sizes=_sizes(80_000, 15_000),
        ),
        Workload(
            "store-streaming",
            mode="streaming",
            workers=0,
            store=True,
            sizes=_sizes(29.0, 2.5),
        ),
        Workload(
            "store-parallel2",
            mode="parallel",
            workers=2,
            store=True,
            sizes=_sizes(29.0, 2.5),
        ),
    )
}


def skyserver_log(seed: int, scale: float):
    """The calibrated synthetic SkyServer log (bot templates dominate)."""
    from repro.workload import WorkloadConfig, generate

    return generate(WorkloadConfig(seed=seed, scale=scale)).log


def longtail_log(seed: int, statements: int):
    """``statements`` ad-hoc queries over a Zipf(1.0) template tail.

    Template ids are drawn Zipf(s=1.0) over :data:`LONGTAIL_IDS`; every
    statement gets fresh constants, a user out of
    :data:`LONGTAIL_USERS`, and an Exp(1 s) gap after its predecessor.
    """
    from repro.log import LogRecord, QueryLog

    rng = random.Random(seed)
    weights = list(
        itertools.accumulate(1.0 / rank for rank in range(1, LONGTAIL_IDS + 1))
    )
    total = weights[-1]
    clock = LONGTAIL_START
    records = []
    for seq in range(int(statements)):
        i = bisect.bisect_left(weights, rng.random() * total)
        sql = SHAPES[i % len(SHAPES)].format(
            i=i,
            a=rng.randrange(100_000),
            b=rng.randrange(100_000),
            c=rng.randrange(90),
            d=rng.randrange(1 << 16),
            e=rng.randrange(10),
            n=f"n{rng.randrange(100_000)}",
        )
        clock += rng.expovariate(1.0)
        user = f"adhoc-{rng.randrange(LONGTAIL_USERS)}"
        records.append(LogRecord(seq=seq, sql=sql, timestamp=clock, user=user))
    return QueryLog(records)


def build_log(workload: Workload, seed: int, size: float):
    """The workload's input log, in RAM."""
    if workload.name == "longtail-batch":
        return longtail_log(seed, int(size))
    return skyserver_log(seed, size)


def pipeline_config():
    """The one cleaning configuration every workload runs: SkyServer key
    columns for the detectors and the default SWS scan, as in the
    ``bench_config`` fixture of ``benchmarks/conftest.py``."""
    from repro.antipatterns import DetectionContext
    from repro.patterns import SwsConfig
    from repro.pipeline import PipelineConfig
    from repro.workload import skyserver_catalog

    return PipelineConfig(
        detection=DetectionContext(
            key_columns=frozenset(skyserver_catalog().key_column_names())
        ),
        sws=SwsConfig(),
    )


def execution_config(mode: str, workers: int):
    """The ``ExecutionConfig`` of a timed call: only mode and workers."""
    from repro import ExecutionConfig

    if mode == "parallel":
        return ExecutionConfig(mode=mode, workers=workers)
    return ExecutionConfig(mode=mode)
