"""Deterministic fault injectors for the fault-tolerance suite.

Each injector is a :class:`~repro.antipatterns.base.Detector` that never
detects anything — it exists purely to misbehave at a controlled moment
inside the ``detect`` stage, which runs both in the parent process
(batch / streaming / inline parallel) and inside pool workers.

Two mechanisms keep the chaos deterministic:

* **sentinel files** — "fire once" detectors claim a sentinel with
  ``O_CREAT | O_EXCL`` before misbehaving, so exactly one process fires
  no matter how many workers race;
* **main-pid guard** — detectors constructed with the test process's
  pid only fire in *other* processes (pool workers), so the batch and
  streaming reference runs in the test process stay untouched.

Everything here is module-level and plain-data so the instances pickle
into ``ProcessPoolExecutor`` workers under any start method.
"""

from __future__ import annotations

import os
import signal
import time
from typing import List, Optional, Sequence


def _claim(sentinel: str) -> bool:
    """Atomically claim ``sentinel``; True for exactly one caller."""
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


class _FaultDetector:
    """Base: a detector that detects nothing but may misbehave once.

    :param sentinel: path claimed before firing; ``None`` fires always.
    :param main_pid: when set, only fire in processes *other* than this
        pid (i.e. only inside pool workers).
    """

    label = "fault"

    def __init__(
        self, sentinel: Optional[str] = None, main_pid: Optional[int] = None
    ) -> None:
        self.sentinel = sentinel
        self.main_pid = main_pid

    def _should_fire(self) -> bool:
        if self.main_pid is not None and os.getpid() == self.main_pid:
            return False
        if self.sentinel is not None:
            return _claim(self.sentinel)
        return True

    def _fire(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def detect(self, blocks: Sequence, context) -> List:
        if self._should_fire():
            self._fire()
        return []


class KillOnceDetector(_FaultDetector):
    """SIGKILLs its own process the first time it runs in a worker —
    the parent sees ``BrokenProcessPool``, exactly like an OOM kill."""

    label = "faultKill"

    def _fire(self) -> None:
        os.kill(os.getpid(), signal.SIGKILL)


class ExitOnceDetector(_FaultDetector):
    """Dies via ``os._exit`` the first time it runs in a worker — an
    abnormal exit *without* a signal (no atexit hooks, no cleanup), the
    way a worker hitting a C-level abort or a container limit dies."""

    label = "faultExit"

    def _fire(self) -> None:
        os._exit(17)


class SleepOnceDetector(_FaultDetector):
    """Sleeps long enough to blow a ``task_timeout`` budget, once."""

    label = "faultSleep"

    def __init__(
        self,
        sentinel: Optional[str] = None,
        main_pid: Optional[int] = None,
        seconds: float = 3.0,
    ) -> None:
        super().__init__(sentinel, main_pid)
        self.seconds = seconds

    def _fire(self) -> None:
        time.sleep(self.seconds)


class FailOnceDetector(_FaultDetector):
    """Raises a transient ``RuntimeError`` the first time it runs."""

    label = "faultFail"

    def _fire(self) -> None:
        raise RuntimeError("injected transient detector failure")


class AlwaysFailDetector(_FaultDetector):
    """Raises every single time — the unrecoverable shard."""

    label = "faultAlways"

    def detect(self, blocks: Sequence, context) -> List:
        if self.main_pid is None or os.getpid() != self.main_pid:
            raise RuntimeError("injected permanent detector failure")
        return []


class FailUserDetector(_FaultDetector):
    """Raises every time it sees one user's blocks — an unrecoverable
    shard that fails alone, while its neighbours succeed."""

    label = "faultUser"

    def __init__(self, user: str) -> None:
        super().__init__()
        self.user = user

    def detect(self, blocks: Sequence, context) -> List:
        if any(block.user == self.user for block in blocks):
            raise RuntimeError(f"injected failure for user {self.user}")
        return []
