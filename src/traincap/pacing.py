"""Deadline waiting and the paced per-probe send loop.

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
:class:`SlackReport`.

:func:`pace_send` is the whole per-probe send path, of the sender's paced
trains and of the reflector's bursts. Per probe it reads the clock once,
for its deadline check, and only waits (``_wait``) when that deadline is
still ahead. The deadline check's reading, or the wake reading, is the
probe's send stamp: the loop writes it into the probe's ``send_ts``
field in place, with :mod:`.wire`'s layout and arithmetic, and then
calls the endpoint's ``send(payload, ts)`` hook, its one Python-level
call per probe. No report or timestamp object is built.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from . import wire

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
    payloads: Sequence[bytearray],
    send: Callable[[bytearray, int], object],
    cfg: PacerConfig = PacerConfig(),
) -> list[int]:
    """Stamp and send one probe per scheduled instant; return the stamps.

    ``payloads[i]`` is packet ``i``, an encoded probe that is patched in
    place: its ``send_ts`` field gets the packet's send stamp (monotonic
    ns), the same reading returned for it, and ``send(payloads[i],
    stamp)`` then sends it. Packet ``i`` is never stamped before
    ``schedule[i]``, and the stamps are strictly increasing: a reading
    that does not pass the previous stamp is bumped to 1 ns after it.

    Packet 0's stamp sets the pace of the rest: packet ``i`` waits for
    ``schedule[i]`` moved by packet 0's lateness, so a train that starts
    late, even from a stall just before packet 0, keeps its spacing. A
    later deadline already passed (a slow ``send`` or a host pause) is
    sent without waiting, so the stamps reflect the slower reality. So
    the reflector's schedule, 1 ns apart, is a back-to-back burst:
    packet ``i``'s deadline is at most 1 ns after packet ``i - 1``'s
    stamp, which a clock read taken after that packet's send has
    passed, and no packet waits. A stamp outside the 32.32 range raises
    ``ValueError`` before its send, and an exception raised by ``send``
    aborts the train; both propagate to the caller, which is
    responsible for marking the train invalid.
    """
    if not all(map(operator.lt, schedule, schedule[1:])):
        raise ValueError("schedule instants must be strictly increasing")
    if len(payloads) != len(schedule):
        raise ValueError("one payload per scheduled instant")
    if not schedule:
        return []
    clock = time.monotonic_ns
    pack_into = wire._SEND_TS.pack_into
    max_ns, ns_per_s = wire._MAX_NS, wire._NS_PER_S
    half_s = ns_per_s // 2
    first = schedule[0]
    stamps: list[int] = []
    last = first - 1  # packet 0 is stamped at or after first: never bumped
    shift = 0
    for instant, payload in zip(schedule, payloads):
        t = clock()
        if t < instant + shift:
            t = _wait(instant + shift, cfg)
        if t <= last:
            t = last + 1
        if not 0 <= t < max_ns:
            wire.ns_to_ntp(t)  # raises the ValueError that names the bound
        last = t
        # wire.ns_to_ntp's arithmetic inline: a call here would cost as much as the work.
        seconds, rem = divmod(t, ns_per_s)
        pack_into(payload, 4, seconds, (rem * (1 << 32) + half_s) // ns_per_s)
        send(payload, t)
        stamps.append(t)
        shift = stamps[0] - first  # fixed from packet 0 on
    return stamps
