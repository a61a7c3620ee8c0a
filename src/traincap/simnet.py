"""Deterministic discrete-event model of sender stack, link, and receiver.

The model is a chain of recurrences over one train (times in float ns,
``ser`` = wire_bits / link_capacity, the serialization time of one frame):

    submit[i] = max(s[i], egress[i-1])        send loop reaches packet i
    egress[i] = submit[i] + d_proc_send       stack hands frame to the wire queue
    w[i]      = max(egress[i], w[i-1] + ser)  frame starts occupying the medium
    a[i]      = w[i] + ser + prop_delay       frame fully arrives

Recorded sender timestamps are the submit instants (the clock is read just
before each send), except the last packet, whose stamp lags its submission
by ``d_ts_last``. On the receive side, packets are delivered in
consecutive batches of ``batch_size``; a batch becomes visible when its
last packet has arrived (or when the receiver finishes the previous
batch, whichever is later), and the packets in it are then stamped one
``d_proc_recv`` apart, with ``d_ts_first_recv`` delaying the first
batch's stamps once. ``batch_size = 1`` with zero delays recovers
undistorted timestamps.

All events are deterministic. Optional uniform jitter on the four delay
parameters (a fraction of each nominal value, drawn per use) sits behind
an explicitly supplied RNG. The draws are written inline in the
per-packet loops, in one fixed order and only for positive nominals:
every packet's send processing, then the last send stamp's lag, the
first receive batch's lag, and every packet's receive processing. That
order is part of what a seed reproduces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Sequence

from .train import (
    TrainRecord,
    TrainSchedule,
    TrainSpec,
    TrainStatus,
    build_schedule,
    estimate_receive_rate,
    estimate_send_rate,
)
from .wire import FrameGeometry

_NS_PER_S = 1_000_000_000


@dataclass(frozen=True)
class SimConfig:
    """Path model parameters; all delays in ns, capacity in bits/s."""

    link_capacity: float = 10_000_000_000
    geometry: FrameGeometry = field(default_factory=FrameGeometry)
    d_proc_send: float = 0.0  # sender stack processing per packet
    d_proc_recv: float = 0.0  # receiver processing per packet within a batch
    batch_size: int = 1  # packets coalesced before receiver timestamping
    d_ts_last: float = 0.0  # lag of the last packet's sender timestamp
    d_ts_first_recv: float = 0.0  # extra latency on the first batch's stamps
    prop_delay: float = 0.0
    jitter: float = 0.0  # uniform +/- fraction applied to each delay draw

    def __post_init__(self) -> None:
        if self.link_capacity <= 0:
            raise ValueError("link_capacity must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        for name in ("d_proc_send", "d_proc_recv", "d_ts_last", "d_ts_first_recv", "prop_delay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")

    @property
    def serialization_ns(self) -> float:
        return self.geometry.wire_bits * _NS_PER_S / self.link_capacity


@dataclass
class SimTrace:
    """Per-packet event instants of one simulated train."""

    intended: list[float]  # scheduled send instants s[i]
    submit: list[float]  # instants the send loop reaches each packet
    stack_egress: list[float]
    wire_departure: list[float]
    arrival: list[float]
    sender_ts: list[float]  # recorded sender timestamps
    recv_ts: list[float]  # recorded receiver timestamps


# Calibrated analogues of the four probing architectures the model covers.
# The 4700 ns stack processing time is the only externally given figure;
# the remaining values are calibrated so the simulated comparison tables
# land in the observed qualitative order: the plain stack tops out near
# 2.55 Gbps, the raw-capture path near 6.5 Gbps, the memory-mapped
# batching path inflates receive estimates heavily, and the kernel-bypass
# path stays within 2% of the desired rate at 10 Gbps.
_PRESETS: dict[str, dict[str, float | int]] = {
    "stack": dict(d_proc_send=4700, d_proc_recv=1500, batch_size=2, d_ts_last=200, d_ts_first_recv=200),
    "rawcap": dict(d_proc_send=1880, d_proc_recv=2200, batch_size=1, d_ts_last=300, d_ts_first_recv=300),
    "mapped-batch": dict(d_proc_send=50, d_proc_recv=0, batch_size=25, d_ts_last=300, d_ts_first_recv=0),
    "bypass": dict(d_proc_send=20, d_proc_recv=0, batch_size=1, d_ts_last=50, d_ts_first_recv=50),
}

PRESET_NAMES = tuple(_PRESETS)


def ethernet_max_rate(cfg: SimConfig) -> float:
    """Highest counted-bits rate the link can carry, in bits/s.

    The preamble and inter-frame gap occupy the medium but are not
    counted, so the ceiling is capacity * counted_bits / wire_bits
    (9.87 Gbps for 1514-byte frames on a 10 Gbps link). Scheduling a
    train at this rate sends its frames back to back.
    """
    g = cfg.geometry
    return cfg.link_capacity * g.counted_bits / g.wire_bits


def preset(name: str, frame_size: int = 1514) -> SimConfig:
    """Calibrated SimConfig for one of the modeled probing architectures."""
    try:
        params = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset: {name!r} (choose from {', '.join(_PRESETS)})") from None
    return SimConfig(geometry=FrameGeometry(frame_size), **params)


def sweep_study_config(frame_size: int = 1514) -> SimConfig:
    """Config for train-length/rate sweeps isolating timestamp latencies.

    A near-ideal I/O path (no per-packet processing, no batching) whose
    only distortions are 500 ns first/last timestamp latencies. The
    12 Gbit/s link leaves headroom above the swept rates so that estimates
    reflect the timestamping artifacts alone, not the link ceiling.
    """
    return SimConfig(
        link_capacity=12_000_000_000,
        geometry=FrameGeometry(frame_size),
        d_ts_last=500.0,
        d_ts_first_recv=500.0,
    )


def combine(sender: SimConfig, receiver: SimConfig) -> SimConfig:
    """One path with the sender side of one config and receiver side of another."""
    if sender.geometry != receiver.geometry:
        raise ValueError("sender and receiver configs disagree on frame geometry")
    return replace(
        sender,
        d_proc_recv=receiver.d_proc_recv,
        batch_size=receiver.batch_size,
        d_ts_first_recv=receiver.d_ts_first_recv,
    )


def simulate_train(
    schedule: TrainSchedule,
    cfg: SimConfig,
    rng: random.Random | None = None,
) -> tuple[SimTrace, TrainRecord]:
    """Run one train through the path model.

    Returns the full event trace and a TrainRecord carrying the recorded
    sender/receiver timestamps (floats): complete, or zero-duration when
    one batch stamps the whole train alike (the send span, on a rising
    schedule, is always positive). With
    ``cfg.jitter`` nonzero an explicit ``rng`` must be supplied; without
    jitter the simulation is a pure function of its arguments.
    """
    if schedule.spec.geometry != cfg.geometry:
        raise ValueError("schedule and sim config disagree on frame geometry")
    if cfg.jitter > 0 and rng is None:
        raise ValueError("jitter requires an explicit rng")

    # Each draw is nominal * uniform(1 - jit, 1 + jit), written out as
    # random.uniform computes it (a + (b - a) * random()), and each max is
    # a conditional that keeps the first operand on ties, as max does: the
    # per-packet loops call only list.append and, with jitter, rng.random.
    jit = cfg.jitter
    if jit > 0:
        rnd = rng.random
        lo, width = 1 - jit, (1 + jit) - (1 - jit)

    def draw(nominal: float) -> float:
        if jit > 0 and nominal > 0:
            return nominal * (lo + width * rnd())
        return nominal

    ser = cfg.serialization_ns
    prop = cfg.prop_delay
    d_send = cfg.d_proc_send
    d_recv = cfg.d_proc_recv
    jit_send = jit > 0 and d_send > 0
    jit_recv = jit > 0 and d_recv > 0
    intended = list(map(float, schedule.send_instants))
    n = len(intended)

    submit: list[float] = []
    egress: list[float] = []
    departure: list[float] = []
    arrival: list[float] = []
    submit_append, egress_append = submit.append, egress.append
    departure_append, arrival_append = departure.append, arrival.append
    eg = dep = float("-inf")
    for s in intended:
        sub = s if s >= eg else eg
        eg = sub + (d_send * (lo + width * rnd()) if jit_send else d_send)
        free = dep + ser
        dep = eg if eg >= free else free
        submit_append(sub)
        egress_append(eg)
        departure_append(dep)
        arrival_append(dep + ser + prop)

    sender_ts = list(submit)
    sender_ts[n - 1] = submit[n - 1] + draw(cfg.d_ts_last)

    # Batches of batch_size packets; a batch starts once its last packet
    # has arrived and the previous batch is done.
    batch = cfg.batch_size
    recv_ts: list[float] = []
    recv_append = recv_ts.append
    start = arrival[min(batch, n) - 1] + draw(cfg.d_ts_first_recv)
    offset = 0.0
    next_batch = batch
    for p in range(n):
        if p == next_batch:
            busy = start + offset
            last = arrival[p + batch - 1] if p + batch <= n else arrival[n - 1]
            start = last if last >= busy else busy
            offset = 0.0
            next_batch += batch
        recv_append(start + offset)
        offset += d_recv * (lo + width * rnd()) if jit_recv else d_recv

    trace = SimTrace(
        intended=intended,
        submit=submit,
        stack_egress=egress,
        wire_departure=departure,
        arrival=arrival,
        sender_ts=sender_ts,
        recv_ts=recv_ts,
    )
    record = TrainRecord(
        train_id=schedule.spec.train_id,
        spec=schedule.spec,
        send_ts=sender_ts,
        recv_ts=recv_ts,
        received_seqs=list(range(n)),
        status=TrainStatus.COMPLETE if recv_ts[-1] != recv_ts[0] else TrainStatus.ZERO_DURATION,
    )
    return trace, record


@dataclass(frozen=True)
class SweepCell:
    n_packets: int
    desired_rate: float
    est_send: float
    est_recv: float


def sweep(
    train_lengths: Sequence[int],
    rates: Sequence[float],
    cfg: SimConfig,
    rng: random.Random | None = None,
) -> list[SweepCell]:
    """Simulate one train per (train length, desired rate) grid cell, from time 0."""
    if not train_lengths or not rates:
        raise ValueError("sweep grid must be non-empty")
    cells = []
    for n in train_lengths:
        for rate in rates:
            spec = TrainSpec(n_packets=n, geometry=cfg.geometry, desired_rate=rate)
            _, rec = simulate_train(build_schedule(spec, 0), cfg, rng=rng)
            cells.append(
                SweepCell(
                    n_packets=n,
                    desired_rate=rate,
                    est_send=estimate_send_rate(rec),
                    est_recv=estimate_receive_rate(rec),
                )
            )
    return cells
