"""Host-speed reference: a fixed piece of pure-Python work, timed.

The shared 2-core host the bounds were tuned on runs single-threaded
Python up to 2x slower in phases that last from under a second to
minutes (NOTES.md, "Noise and bounds").  The probe slows down with the
program: its work is the program's kind of work (format, split, dict
counting).  Timed operations are bracketed by probes taken in the same
process, and while one runs a timer signal takes a tenth of a probe
every ``TICK_S``.  Its time is reported scaled by ``REFERENCE_S`` / the
mean probe time, that is, in seconds at the reference speed.  The raw
wall times are kept beside the scaled ones in the run's result file.
"""

from __future__ import annotations

import signal
import time

# Probe time on the reference host (2-core shared Linux VM, CPython 3.11)
# in its fast phase.  A fixed constant, so that scaled times compare
# across runs and commits; it only sets the unit.
REFERENCE_S = 0.015
_ROUNDS = 12000
TICK_S = 0.1  # sampling interval while an operation runs
_TICK_SHARE = 10  # a sample does 1/_TICK_SHARE of a probe's work

_spent = 0.0  # seconds the samples have taken so far
_samples: list[float] = []


def _work(rounds: int) -> int:
    counts: dict[str, int] = {}
    years = 0
    for i in range(rounds):
        line = f"AUTHOR{i % 613} A, {1850 + i % 160}, J STUD {i % 37}, V{i % 90}, P{i}"
        author, year, *_ = line.split(", ")
        counts[author] = counts.get(author, 0) + 1
        years += int(year)
    return years + len(counts)


def probe() -> float:
    """Seconds the reference work takes now, in this process."""
    start = time.perf_counter()
    _work(_ROUNDS)
    return time.perf_counter() - start


def _tick(signum, frame) -> None:
    global _spent
    start = time.perf_counter()
    _work(_ROUNDS // _TICK_SHARE)
    took = time.perf_counter() - start
    _samples.append(took * _TICK_SHARE)
    _spent += took


def sampling(on: bool) -> None:
    """Start or stop taking samples every TICK_S of wall time."""
    if on:
        signal.signal(signal.SIGALRM, _tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    else:
        signal.setitimer(signal.ITIMER_REAL, 0)


def take_samples() -> list[float]:
    """The samples taken since the last call, as whole-probe times."""
    taken = _samples[:]
    _samples.clear()
    return taken


def spent() -> float:
    return _spent


def now() -> float:
    """A perf_counter clock that stands still while a sample is taken."""
    return time.perf_counter() - _spent


def scale(probes: list[float]) -> float:
    """Factor from wall seconds to reference seconds for work the probes span."""
    return REFERENCE_S * len(probes) / sum(probes)
