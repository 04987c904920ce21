"""One E29 measurement, run by the harness as a fresh process.

Usage: ``PYTHONPATH=src PYTHONHASHSEED=0 python e29_ledger/child.py SPEC``
where ``SPEC`` is a JSON object (see :func:`main`).  The last line of
standard output is the JSON report.

Roles:

* ``reference`` — build the workload log in RAM, clean it with another
  executor (streaming for the batch workloads, batch for the store
  workloads) and report only the digests every sample must reproduce.
  For a store workload it first writes the same log as the columnar
  store at ``spec["store"]``, which every clean child then reads.
* ``clean`` — build or open the input, make one timed ``repro.clean``
  call, and report its wall, CPU, peak RSS and output digests, plus the
  host's speed (``speed.py``) sampled over the set-up and over the call.
  ``trace`` wraps the layer entry points and adds the per-layer metrics
  plus a second, warm call in the same process; ``null_recorder``
  passes ``repro.obs.NULL``.
"""

import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


def log_digest(log) -> str:
    """SHA-256 of the clean log as JSONL (one canonical record a line)."""
    from repro.log.io import record_as_dict

    sha = hashlib.sha256()
    for record in log:
        sha.update(json.dumps(record_as_dict(record), ensure_ascii=False).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def ledger_digest(metrics) -> str:
    """SHA-256 of the executor-independent ``comparable()`` ledger."""
    view = json.dumps(metrics.comparable(), sort_keys=True)
    return hashlib.sha256(view.encode()).hexdigest()


def _outcome(result) -> dict:
    metrics = result.metrics
    return {
        "log_sha256": log_digest(result.clean_log),
        "ledger_sha256": None if metrics is None else ledger_digest(metrics),
        "violations": [] if metrics is None else metrics.conservation_violations(),
    }


def reference(spec: dict) -> dict:
    import repro

    import workloads

    workload = workloads.WORKLOADS[spec["workload"]]
    log = workloads.build_log(workload, spec["seed"], spec["size"])
    store = {}
    if workload.store:
        from repro.store import store_size_bytes, write_columnar

        started = time.perf_counter()
        write_columnar(log, spec["store"], chunk_records=8192)
        store = {
            "write_s": time.perf_counter() - started,
            "bytes_written": store_size_bytes(spec["store"]),
        }
    mode = "batch" if workload.store else "streaming"
    result = repro.clean(
        log,
        workloads.pipeline_config(),
        execution=workloads.execution_config(mode, 0),
    )
    return {"records": len(log), "mode": mode, **store, **_outcome(result)}


def clean(spec: dict) -> dict:
    import tempfile

    import speed

    with speed.Sampler(tempfile.mkdtemp(prefix="speed-")) as sampler:
        return _clean(spec, sampler)


def _clean(spec: dict, sampler) -> dict:
    import repro
    from repro.obs import NULL
    from repro.pipeline.parallel import shutdown_worker_pools

    import speed
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]]
    mode = spec.get("mode", workload.mode)
    execution = workloads.execution_config(mode, spec.get("workers", workload.workers))
    config = workloads.pipeline_config()
    started = time.perf_counter()
    if workload.store:
        source = repro.ColumnarSource(spec["store"])
        records = source.count_hint()
    else:
        source = workloads.build_log(workload, spec["seed"], spec["size"])
        records = len(source)
    input_s = time.perf_counter() - started
    recorder = NULL if spec.get("null_recorder") else None
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer, layer_metrics, reconciliation

        tracer = Tracer()

    def timed_call():
        started = time.perf_counter()
        result = repro.clean(source, config, execution=execution, recorder=recorder)
        return result, time.perf_counter() - started

    setup_done = time.monotonic()
    setup_speed = speed.factor(sampler.take())
    cpu_before = _cpu_seconds()
    with tracer.installed() if tracer else nullcontext():
        result, wall = timed_call()
        layers = layer_metrics(tracer, result, wall) if tracer else None
        warm = timed_call() if spec.get("warm") else None
    # Reap the pool so its workers' CPU and RSS count towards this call.
    shutdown_worker_pools(wait=True)
    cpu_s = _cpu_seconds() - cpu_before
    call_probes = sampler.take() + sampler.forked()
    report = {
        "records": records,
        "input_s": input_s,
        "setup_done": setup_done,
        "wall_s": wall,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "speed": {
            "setup": setup_speed,
            "call": speed.factor(call_probes),
            "call_probes": len(call_probes),
        },
        "stage_s": {
            name: stage.wall_seconds
            for name, stage in (result.metrics.stages.items() if result.metrics else ())
        },
        **_outcome(result),
    }
    if warm is not None:
        warm_result, warm_wall = warm
        report["warm_wall_s"] = warm_wall
        report["warm"] = _outcome(warm_result)
    if layers is not None:
        report["layers"] = layers
        report["parse_counters"] = result.metrics.stages["parse"].counters
        report["reconciliation"] = reconciliation(layers, result)
    return report


ROLES = {"reference": reference, "clean": clean}


def main(argv) -> int:
    spec = json.loads(argv[1])
    report = ROLES[spec["role"]](spec)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
