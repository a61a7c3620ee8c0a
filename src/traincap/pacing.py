"""Deadline waiting and paced per-packet send loops.

Deadlines are absolute readings of the monotonic clock
(``time.monotonic_ns``). Only same-host differences are ever computed, so
monotonicity is all that matters; wall-clock adjustments cannot skew a
paced train.

Two modes:

* ``pure-spin`` busy-polls the clock until the deadline, giving the
  tightest wake precision at the cost of a fully occupied core.
* ``hybrid`` sleeps once, to a fixed 250 us spin window before the
  deadline, then spins, trading a bounded amount of precision for a
  mostly idle core (and, in-process, for letting peer threads run). The
  window is longer than the sender's warm-up lead, so a hybrid wait
  never sleeps between the warm-up send and a train's packet 0.

Both waits share the private ``_wait``, which returns the wake-up clock
reading as an int. :func:`wait_until` wraps that reading in a
:class:`SlackReport`. :func:`pace_send` builds no report: per packet it
reads the clock once, emits at once when the deadline is reached, and
otherwise calls ``_wait``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

PURE_SPIN = "pure-spin"
HYBRID = "hybrid"

_SPIN_WINDOW_NS = 250_000  # final busy-wait of a hybrid wait, timer slack included


@dataclass(frozen=True)
class PacerConfig:
    """How to wait: spin all the way, or sleep once then spin."""

    mode: str = HYBRID

    def __post_init__(self) -> None:
        if self.mode not in (PURE_SPIN, HYBRID):
            raise ValueError(f"unknown pacer mode: {self.mode!r}")


@dataclass(frozen=True)
class SlackReport:
    """Wake-up bookkeeping for one deadline.

    ``slack_ns`` is how far past the deadline the wake-up clock reading
    landed (0 for the degenerate already-passed case). ``late`` flags a
    deadline that was already in the past when the wait started.
    """

    wake_ns: int
    slack_ns: int
    late: bool


def wait_until(deadline: int, cfg: PacerConfig = PacerConfig()) -> SlackReport:
    """Block until the monotonic clock reads at least ``deadline`` ns.

    Returns at the first clock reading >= deadline; never wakes early.
    A deadline already in the past returns immediately with ``late`` set
    and the (meaningless) overshoot reported as 0.
    """
    now = time.monotonic_ns()
    if now >= deadline:
        return SlackReport(wake_ns=now, slack_ns=0, late=now > deadline)
    wake = _wait(deadline, cfg)
    return SlackReport(wake_ns=wake, slack_ns=wake - deadline, late=False)


def _wait(deadline: int, cfg: PacerConfig) -> int:
    """Wait for a deadline not yet reached; return the first reading >= it.

    A hybrid wait sleeps once, to the spin window before the deadline
    (``time.sleep`` never returns early, PEP 475), and spins the rest.
    """
    if cfg.mode == HYBRID:
        remaining = deadline - _SPIN_WINDOW_NS - time.monotonic_ns()
        if remaining > 0:
            time.sleep(remaining / 1e9)

    t = time.monotonic_ns()
    while t < deadline:
        t = time.monotonic_ns()
    return t


def pace_send(
    schedule: Sequence[int],
    emit: Callable[[int], int],
    cfg: PacerConfig = PacerConfig(),
) -> list[int]:
    """Emit one packet per scheduled instant; return the emit timestamps.

    ``emit(i)`` performs the send of packet ``i`` and returns its send
    timestamp (monotonic ns). Packet ``i`` is never emitted before
    ``schedule[i]``. A late start moves the whole schedule by its
    lateness, so the train keeps its spacing; a later deadline already
    passed (a slow emit or a host pause) is emitted without waiting, so
    the timestamps reflect the slower reality. An exception raised by
    ``emit`` aborts the train and propagates to the caller, which is
    responsible for marking the train invalid.
    """
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule instants must be strictly increasing")
    if not schedule:
        return []
    clock = time.monotonic_ns
    late = max(0, clock() - schedule[0])
    timestamps: list[int] = []
    for i, instant in enumerate(schedule):
        if clock() < instant + late:
            _wait(instant + late, cfg)
        timestamps.append(emit(i))
    return timestamps
