"""Host speed sampling: end-to-end timings at a fixed reference speed.

The benchmark host is a 2-vCPU guest shared with other tenants, and its
speed changes under the benchmark: the CPU time of a fixed job moves by
up to 2x from one second to the next, with no steal time reported, and
a whole run can fall into a slow period.  No statistic over a run's
samples removes that.

A :class:`Sampler` measures the host's speed during the seconds it
times.  Every :data:`TICK_S` of wall time a ``SIGALRM`` runs
:func:`probe`, a fixed pure-Python job of about 0.5 ms that touches
nothing of the program (it allocates small tuples, lists and strings
and reaches them in shuffled order through a dict, like the program's
hot work), and keeps its CPU time.  While a sampler is installed, every
process forked from its process (the program's pool workers) probes its
own CPU the same way and appends to a file in the sampler's spool
directory, so a parallel call is sampled on every vCPU it runs on.

:func:`factor` is the host's mean speed over the probes of an interval,
relative to a host where the probe takes :data:`REFERENCE_S`.  Seconds
measured over the interval times that factor are seconds at the
reference speed: a faster program moves them as it moves the raw
seconds, a slower host moves them much less.  The probes run inside the
timed call and cost about 1% of it, on every commit alike.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import time
from pathlib import Path
from typing import List, Optional, Sequence

#: Wall time between two probes of one process.
TICK_S = 0.05

#: Objects one probe allocates.
PROBE_OBJECTS = 400

#: Probe CPU time that defines the reference speed: about the probe's
#: median over 7,041 probes inside timed calls on the 2-vCPU Intel Xeon
#: KVM guest the benchmark was defined on (Python 3.11).
REFERENCE_S = 0.0005


def _job(n: int) -> int:
    rng = random.Random(1)
    objects = [(f"k{i}", i, [i]) for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    table = {}
    for j in order:
        key, _, box = objects[j]
        table[key] = box
    total = 0
    for j in order:
        total += table[objects[j][0]][0]
    return total


def probe() -> float:
    """CPU seconds one run of the fixed job takes on this host now.  The
    cyclic collector is paused, so the size of the caller's heap does not
    count; CPU time, so a process that waits for the CPU does not count
    the wait."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        _job(PROBE_OBJECTS)
        return time.thread_time() - started
    finally:
        if was_enabled:
            gc.enable()


def factor(probes: Sequence[float]) -> float:
    """Seconds measured while ``probes`` were taken, times this, are
    seconds at the reference speed: the mean of the host's speed relative
    to the reference over those evenly spaced probes."""
    return sum(REFERENCE_S / p for p in probes) / len(probes)


#: The sampler installed in this process, if any; read by the fork hook.
_installed: Optional["Sampler"] = None


def _probe_in_forked_process() -> None:
    sampler = _installed
    if sampler is None:
        return
    # An unbuffered descriptor: a buffered file object refuses a write
    # from a handler that interrupted another write to it.
    fd = os.open(
        sampler.spool / f"forked-{os.getpid()}.txt", os.O_WRONLY | os.O_CREAT | os.O_APPEND
    )

    def tick(signum, frame):
        os.write(fd, f"{probe()!r}\n".encode())

    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)


os.register_at_fork(after_in_child=_probe_in_forked_process)


class Sampler:
    """Probes this process every :data:`TICK_S` while installed (``with``),
    and every process forked from it in that time until that process
    ends.  ``spool`` is an empty directory for the forked processes'
    probes."""

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self._own: List[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self._own.append(probe())

    def __enter__(self) -> "Sampler":
        global _installed
        _installed = self
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        global _installed
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        _installed = None

    def take(self) -> List[float]:
        """This process's probes since the last ``take``; one taken now if
        the interval was shorter than a tick."""
        taken, self._own = self._own, []
        return taken or [probe()]

    def forked(self) -> List[float]:
        """Every probe the forked processes wrote so far."""
        return [
            float(line)
            for path in sorted(self.spool.glob("forked-*.txt"))
            for line in path.read_text().split()
        ]
