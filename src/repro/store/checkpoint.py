"""Checkpointable streaming runs: :class:`RunCheckpoint` and the
chunk-at-a-time driver behind ``repro.clean(source, checkpoint_dir=...)``.

A checkpointed run processes the source chunk by chunk.  After every
chunk it writes two things into the checkpoint directory:

``chunk-XXXXX.jsonl``
    the clean records that chunk emitted (the *spill*), one JSON object
    per line;
``state.json``
    everything needed to continue: chunk progress, the streaming
    cleaner's full mutable state (counters, dedup map, open blocks as
    source records, interner fingerprints, quarantine entries, parse
    cache baselines — see ``StreamingCleaner.export_state``), the
    recorder's metrics ledger, and the source/config identity the
    state belongs to.

**Atomicity rules.**  Every file is written via a temp file +
``os.replace``, so a kill can never leave a torn file.  The spill is
written *before* the state that references it; a kill between the two
leaves a state that still points at the previous chunk, so resume
re-processes exactly one chunk — deterministically, overwriting the
orphaned spill with identical bytes.  ``state.json`` is therefore always
internally consistent, and the invariant "spills ``0..chunks_done-1``
match the state" holds at every instant.

**Resume semantics.**  ``--resume`` loads the state, refuses to continue
when the source fingerprint or config digest changed, restores the
cleaner and recorder, re-reads the spilled clean records of the finished
chunks, and continues from chunk ``chunks_done``.  The resumed run's
clean log is byte-identical to the uninterrupted run's and its
``comparable()`` ledger is equal; only the executor-dependent parse
cache counters may differ (the resumed run restarts with a cold cache —
the cache conservation law still holds, additively across the restore).

Checkpointing is **streaming-only**: batch needs the whole log resident
for its global artifacts and parallel holds per-shard state inside
worker processes, so neither has a bounded, serialisable mid-run state.
``repro.clean`` rejects ``checkpoint_dir`` for those modes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..log.io import record_as_dict, record_from_dict
from ..log.models import LogRecord, QueryLog
from ..obs import PipelineMetrics, Recorder
from ..pipeline.config import PipelineConfig
from ..pipeline.streaming import StreamingCleaner
from .sources import LogSource

PathLike = Union[str, Path]

#: Bumped whenever the state layout changes incompatibly.
STATE_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint cannot be used: missing, torn by a version change,
    or belonging to a different source / configuration."""


def config_digest(config: PipelineConfig) -> str:
    """Deterministic digest of a pipeline configuration.

    A resumed run must use the configuration the checkpoint was written
    under — silently continuing with, say, a different dedup threshold
    would corrupt the run's invariants.  The digest walks the config
    dataclasses into JSON-able data; sets are rendered as *sorted*
    member lists (``repr(frozenset)`` iterates in hash order, which is
    randomised per process) and non-data values (detector instances)
    contribute their type name.
    """
    payload = json.dumps(
        _digest_value(config), sort_keys=True, default=str
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def _digest_value(value: object) -> object:
    if isinstance(value, (frozenset, set)):
        return sorted(repr(member) for member in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _digest_value(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _digest_value(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_digest_value(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return type(value).__name__


def _write_text_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise


class RunCheckpoint:
    """One run's checkpoint directory: atomic state + per-chunk spills."""

    STATE_FILE = "state.json"

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)

    @property
    def state_path(self) -> Path:
        return self.directory / self.STATE_FILE

    def has_state(self) -> bool:
        return self.state_path.is_file()

    def load_state(self) -> Dict[str, object]:
        if not self.has_state():
            raise CheckpointError(
                f"nothing to resume: {self.state_path} does not exist"
            )
        state = json.loads(self.state_path.read_text(encoding="utf-8"))
        if state.get("version") != STATE_VERSION:
            raise CheckpointError(
                f"checkpoint {self.state_path} has state version "
                f"{state.get('version')!r}; this build reads {STATE_VERSION}"
            )
        return state

    def save_state(self, state: Dict[str, object]) -> None:
        _write_text_atomic(
            self.state_path, json.dumps(state, sort_keys=True) + "\n"
        )

    # ------------------------------------------------------------------
    # Spills

    def spill_path(self, index: int) -> Path:
        return self.directory / f"chunk-{index:05d}.jsonl"

    def spill_chunk(self, index: int, records: List[LogRecord]) -> None:
        lines = [
            json.dumps(record_as_dict(record), ensure_ascii=False)
            for record in records
        ]
        _write_text_atomic(
            self.spill_path(index), "".join(line + "\n" for line in lines)
        )

    def load_spill(self, index: int) -> List[LogRecord]:
        path = self.spill_path(index)
        if not path.is_file():
            raise CheckpointError(
                f"checkpoint is missing spill file {path}"
            )
        records = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(record_from_dict(json.loads(line)))
        return records


def clean_streaming_source(
    source: LogSource,
    config: PipelineConfig,
    recorder: Recorder,
    *,
    checkpoint_dir: Optional[PathLike] = None,
    resume: bool = False,
    template_witnesses: Optional[Sequence[str]] = None,
) -> Tuple[QueryLog, StreamingCleaner]:
    """Stream-clean ``source`` chunk by chunk, optionally checkpointed.

    The one streaming driver: it feeds each chunk to a
    :class:`~repro.pipeline.streaming.StreamingCleaner` and ends the
    stream with ``finish``, holding one chunk plus the open blocks,
    never the whole log.  With ``checkpoint_dir``,
    per-chunk progress is persisted as described in the module docs;
    with ``resume=True`` the run continues from the last completed
    chunk.  Returns the clean log and the driving cleaner (for its
    ``stats`` and ``quarantine``).

    ``template_witnesses`` pre-warms the cleaner's parse cache (see
    :class:`~repro.pipeline.streaming.StreamingCleaner`); a resumed run
    additionally preloads the witness list its checkpoint carried, so
    the restored cache is as warm as the dead run's was.
    """
    cleaner = StreamingCleaner(
        config, recorder=recorder, template_witnesses=template_witnesses
    )
    checkpoint = (
        RunCheckpoint(checkpoint_dir) if checkpoint_dir is not None else None
    )
    digest = config_digest(config)
    fingerprint = source.fingerprint()
    clean_records: List[LogRecord] = []
    start_chunk = 0

    if resume:
        if checkpoint is None:
            raise CheckpointError("resume=True requires a checkpoint_dir")
        state = checkpoint.load_state()
        if state["source_fingerprint"] != fingerprint:
            raise CheckpointError(
                "checkpoint belongs to a different source "
                f"(expected {state['source_fingerprint']!r}, "
                f"got {fingerprint!r})"
            )
        if state["config_digest"] != digest:
            raise CheckpointError(
                "checkpoint was written under a different configuration"
            )
        cleaner.restore_state(state["cleaner"])  # type: ignore[arg-type]
        if recorder.enabled and state["metrics"] is not None:
            recorder.absorb(
                PipelineMetrics.from_dict(state["metrics"])  # type: ignore[arg-type]
            )
        start_chunk = int(state["chunks_done"])  # type: ignore[arg-type]
        for index in range(start_chunk):
            clean_records.extend(checkpoint.load_spill(index))
        if state.get("complete"):
            # The interrupted run had actually finished: the tail spill
            # (end-of-stream block closes) sits at index ``chunks_done``.
            clean_records.extend(checkpoint.load_spill(start_chunk))
            return QueryLog(clean_records), cleaner

    def save(chunks_done: int, complete: bool) -> None:
        assert checkpoint is not None
        cleaner_state = cleaner.export_state()  # flushes counters first
        metrics_state = (
            recorder.metrics.as_dict() if recorder.enabled else None
        )
        checkpoint.save_state(
            {
                "version": STATE_VERSION,
                "source_fingerprint": fingerprint,
                "config_digest": digest,
                "chunks_done": chunks_done,
                "complete": complete,
                "cleaner": cleaner_state,
                "metrics": metrics_state,
            }
        )

    index = start_chunk
    for chunk in source.open_chunks(start_chunk=start_chunk):
        emitted = list(cleaner.feed(chunk))
        clean_records.extend(emitted)
        if checkpoint is not None:
            checkpoint.spill_chunk(index, emitted)
            save(chunks_done=index + 1, complete=False)
        index += 1

    tail = list(cleaner.finish())
    clean_records.extend(tail)
    if checkpoint is not None:
        checkpoint.spill_chunk(index, tail)
        save(chunks_done=index, complete=True)
    return QueryLog(clean_records), cleaner
