"""Train schedules and rate estimation from first/last timestamps.

A train is N uniformly spaced probe packets. The send rate of a train is
the Ethernet-layer bits of the first N-1 packets divided by the time
between the first and last send timestamps; the receive rate applies the
same arithmetic to the receive timestamps. Only the first and last
timestamps enter the estimate, but full per-packet vectors are retained
for diagnostics and simulator validation.

Timestamps may be ints (real clocks) or floats (simulator traces).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

from .wire import FrameGeometry

_NS_PER_S = 1_000_000_000


class DegenerateDurationError(ValueError):
    """First and last timestamps coincide; no rate can be formed."""


class InvalidTrainError(ValueError):
    """Train is lossy/reordered/failed and cannot be rated."""


class TrainStatus(str, enum.Enum):
    """A train's verdict, set once by whatever makes its record."""

    COMPLETE = "complete"
    LOSSY = "lossy"
    REORDERED = "reordered"
    ZERO_DURATION = "zero-duration"
    FAILED = "failed"


@dataclass(frozen=True)
class TrainSpec:
    """Parameters of one probe train."""

    n_packets: int
    geometry: FrameGeometry
    desired_rate: float  # bits/s at the Ethernet layer
    train_id: int = 0

    def __post_init__(self) -> None:
        if self.n_packets < 2:
            raise ValueError("a train needs at least 2 packets")
        if isinstance(self.desired_rate, float) and math.isnan(self.desired_rate):
            raise ValueError("desired_rate must be a number, not NaN")
        if self.desired_rate <= 0:
            raise ValueError("desired_rate must be positive")


@dataclass(frozen=True)
class TrainSchedule:
    """Intended send instant of each packet (monotonic ns, uniform gap)."""

    spec: TrainSpec
    start: int
    gap: int

    @property
    def send_instants(self) -> list[int]:
        return [self.start + i * self.gap for i in range(self.spec.n_packets)]


@dataclass
class TrainRecord:
    """Observed timestamps for one train, on either or both sides."""

    train_id: int
    spec: TrainSpec
    send_ts: list[float] | None = None
    recv_ts: list[float] | None = None
    received_seqs: list[int] = field(default_factory=list)
    status: TrainStatus = TrainStatus.COMPLETE


def build_schedule(spec: TrainSpec, start: int) -> TrainSchedule:
    """Uniform schedule whose gap realizes the desired Ethernet-layer rate.

    gap = counted_bits / desired_rate, rounded half-up to whole ns. The
    sub-ns rounding residual is at most 0.5 ns per gap, negligible at any
    schedulable rate; a gap that rounds to zero is unschedulable.
    """
    bits = spec.geometry.counted_bits
    rate = spec.desired_rate
    if isinstance(rate, float) and rate.is_integer():
        rate = int(rate)
    if isinstance(rate, int):
        gap = (bits * _NS_PER_S + rate // 2) // rate
    else:
        gap = int(bits * _NS_PER_S / rate + 0.5)
    if gap == 0:
        raise ValueError("rate exceeds schedulable resolution")
    return TrainSchedule(spec=spec, start=start, gap=gap)


def _first_last_rate(ts: Sequence[float], counted_bits: int) -> float:
    span = ts[-1] - ts[0]
    if span == 0:
        raise DegenerateDurationError("degenerate duration")
    return (len(ts) - 1) * counted_bits * _NS_PER_S / span


def estimate_send_rate(rec: TrainRecord) -> float:
    """Send rate in bits/s from the first and last send timestamps."""
    if rec.send_ts is None or len(rec.send_ts) < 2:
        raise InvalidTrainError("invalid train")
    return _first_last_rate(rec.send_ts, rec.spec.geometry.counted_bits)


def estimate_receive_rate(rec: TrainRecord) -> float:
    """Receive rate in bits/s from the first and last receive timestamps.

    Only complete trains are rated: a missing or reordered packet would
    silently bias the bit count behind the formula. A zero-duration train
    has every packet but no span, so it raises DegenerateDurationError.
    """
    in_order = rec.status is TrainStatus.COMPLETE or rec.status is TrainStatus.ZERO_DURATION
    if not in_order or rec.recv_ts is None or len(rec.recv_ts) < 2:
        raise InvalidTrainError("invalid train")
    return _first_last_rate(rec.recv_ts, rec.spec.geometry.counted_bits)


def validate_train(
    arrivals: Sequence[tuple[int, float]], spec: TrainSpec
) -> TrainRecord:
    """Classify received (seq, recv_ts) pairs against the expected spec.

    complete:      every seq 0..N-1 seen exactly once, in order
    zero-duration: complete, but the first and last stamps are equal
    lossy:         at least one seq missing
    reordered:     all present but duplicated or out of order
    """
    seqs = [seq for seq, _ in arrivals]
    ts = [t for _, t in arrivals]
    expected = spec.n_packets
    seen = set(seqs)
    missing = set(range(expected)) - seen
    if missing:
        status = TrainStatus.LOSSY
    elif seqs == list(range(expected)):
        status = TrainStatus.COMPLETE if ts[-1] != ts[0] else TrainStatus.ZERO_DURATION
    else:
        status = TrainStatus.REORDERED
    return TrainRecord(
        train_id=spec.train_id,
        spec=spec,
        recv_ts=ts,
        received_seqs=seqs,
        status=status,
    )
