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

Two public views run these recurrences, each through its own private
core. ``simulate_train`` returns the full trace and a TrainRecord, from
a core that keeps every per-packet list. ``simulate_rates`` returns the
rate pairs of ``count`` trains of one schedule, from one call of a core
that reads the config once and keeps just each train's end stamps. Both
cores do the same float operations and draws in the order above, so a
seed gives the same stamps and rates through either view;
``tests/oracles.py::simulate_oracle`` pins both cores float for float.

The rates core keeps at most one per-packet list, the arrivals that the
receive batches read, and with ``d_proc_recv = 0`` not even that. Each
departure is at least the previous one plus ``ser``, and rounding never
reverses an order, so arrivals never fall. With no receive cost a
batch's stamps all equal its start, so each batch starts at the later
of its last arrival and the previous batch's start, which comes to the
later of its last arrival and the first batch's start. A max returns
one of its operands, so this shortcut is exact: the core reads only the
first batch's last arrival and the train's last.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Sequence

from .train import (
    TrainRecord,
    TrainSchedule,
    TrainSpec,
    TrainStatus,
    _first_last_rate,
    build_schedule,
    estimate_receive_rate,  # unused here: bench/tracing.py wraps both names in this module
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
        # Written so that NaN fails every bound: a NaN or infinite delay
        # would give NaN stamps, and rates no estimator rejects.
        if not 0 < self.link_capacity < math.inf:
            raise ValueError("link_capacity must be positive and finite")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ValueError("batch_size must be an integer of at least 1")
        for name in ("d_proc_send", "d_proc_recv", "d_ts_last", "d_ts_first_recv", "prop_delay"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
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


def _check(schedule: TrainSchedule, cfg: SimConfig, rng: random.Random | None) -> None:
    if schedule.spec.geometry != cfg.geometry:
        raise ValueError("schedule and sim config disagree on frame geometry")
    if cfg.jitter > 0 and rng is None:
        raise ValueError("jitter requires an explicit rng")


def _simulate(
    intended: list[float], cfg: SimConfig, rng: random.Random | None
) -> tuple[list[float], list[float], list[float], list[float], list[float], list[float]]:
    """The recurrences over one train, from its float send instants.

    Returns the submit, egress, departure, arrival, sender-stamp and
    receive-stamp lists. Each draw is nominal * uniform(1 - jit, 1 + jit),
    written out as random.uniform computes it (a + (b - a) * random()),
    and each max is a conditional that keeps the first operand on ties, as
    max does: the per-packet loops call only list.append and, with jitter,
    rng.random, and read only plain locals.
    """
    jit = cfg.jitter
    lo, width = 1 - jit, (1 + jit) - (1 - jit)
    rnd = rng.random if jit > 0 else None
    ser = cfg.serialization_ns
    prop = cfg.prop_delay
    d_send = cfg.d_proc_send
    d_recv = cfg.d_proc_recv
    jit_send = jit > 0 and d_send > 0
    jit_recv = jit > 0 and d_recv > 0
    n = len(intended)

    submit: list[float] = []
    egress: list[float] = []
    departure: list[float] = []
    arrival: list[float] = []
    eg = dep = float("-inf")
    for s in intended:
        sub = s if s >= eg else eg
        eg = sub + (d_send * (lo + width * rnd()) if jit_send else d_send)
        free = dep + ser
        dep = eg if eg >= free else free
        submit.append(sub)
        egress.append(eg)
        departure.append(dep)
        arrival.append(dep + ser + prop)

    d_last = cfg.d_ts_last
    if jit > 0 and d_last > 0:
        d_last = d_last * (lo + width * rnd())
    sender_ts = list(submit)
    sender_ts[n - 1] = submit[n - 1] + d_last

    # Batches of batch_size packets; a batch starts once its last packet
    # has arrived and the previous batch is done.
    d_first = cfg.d_ts_first_recv
    if jit > 0 and d_first > 0:
        d_first = d_first * (lo + width * rnd())
    batch = cfg.batch_size
    recv_ts: list[float] = []
    start = arrival[min(batch, n) - 1] + d_first
    offset = 0.0
    next_batch = batch
    for p in range(n):
        if p == next_batch:
            busy = start + offset
            last = arrival[p + batch - 1] if p + batch <= n else arrival[n - 1]
            start = last if last >= busy else busy
            offset = 0.0
            next_batch += batch
        recv_ts.append(start + offset)
        offset += d_recv * (lo + width * rnd()) if jit_recv else d_recv
    return submit, egress, departure, arrival, sender_ts, recv_ts


def _simulate_ends(
    intended: list[float], cfg: SimConfig, rng: random.Random | None, count: int, counted_bits: int
) -> list[tuple[float, float]]:
    """The rates of ``count`` trains, from ``_simulate``'s end stamps only.

    Each train does ``_simulate``'s float operations, tie-keeping
    conditionals and draws, in its order; ``free`` (the instant the medium
    frees after a frame) is the next frame's earliest departure and, plus
    prop_delay, this one's arrival. Only the arrivals the batches read are
    kept (see the module docstring). A zero span raises before the next
    train runs.
    """
    jit = cfg.jitter
    lo, width = 1 - jit, (1 + jit) - (1 - jit)
    rnd = rng.random if jit > 0 else None
    ser, prop = cfg.serialization_ns, cfg.prop_delay
    d_send, d_recv = cfg.d_proc_send, cfg.d_proc_recv
    d_last, d_first = cfg.d_ts_last, cfg.d_ts_first_recv
    jit_send, jit_recv = jit > 0 and d_send > 0, jit > 0 and d_recv > 0
    jit_last, jit_first = jit > 0 and d_last > 0, jit > 0 and d_first > 0
    n = len(intended)
    batch = cfg.batch_size
    keep = d_recv > 0
    parts = (intended,) if keep else (intended[:batch], intended[batch:])
    first_batch = min(batch, n) - 1 if keep else 0
    send_first = intended[0]
    neg_inf = float("-inf")
    rate = _first_last_rate
    rates = []
    for _ in range(count):
        arrival: list[float] = []
        eg = free = neg_inf
        for part in parts:
            for s in part:
                sub = s if s >= eg else eg
                eg = sub + (d_send * (lo + width * rnd()) if jit_send else d_send)
                dep = eg if eg >= free else free
                free = dep + ser
                if keep:
                    arrival.append(free + prop)
            if not keep:
                arrival.append(free + prop)

        send_last = sub + (d_last * (lo + width * rnd()) if jit_last else d_last)
        first = arrival[first_batch] + (d_first * (lo + width * rnd()) if jit_first else d_first)
        if keep:
            start = first
            offset = 0.0
            next_batch = batch
            for p in range(1, n):
                offset += d_recv * (lo + width * rnd()) if jit_recv else d_recv
                if p == next_batch:
                    busy = start + offset
                    last = arrival[p + batch - 1] if p + batch <= n else arrival[n - 1]
                    start = last if last >= busy else busy
                    offset = 0.0
                    next_batch += batch
            if jit_recv:
                rnd()  # the last packet's receive draw, which no kept stamp reads
            recv_last = start + offset
        else:
            # One batch leaves arrival[1] == arrival[0], which first never trails.
            last = arrival[1]
            recv_last = last if last >= first else first
        rates.append((rate(send_first, send_last, n, counted_bits),
                      rate(first, recv_last, n, counted_bits)))
    return rates


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
    _check(schedule, cfg, rng)
    intended = list(map(float, schedule.send_instants))
    submit, egress, departure, arrival, sender_ts, recv_ts = _simulate(intended, cfg, rng)
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
        received_seqs=list(range(len(intended))),
        status=TrainStatus.COMPLETE if recv_ts[-1] != recv_ts[0] else TrainStatus.ZERO_DURATION,
    )
    return trace, record


def simulate_rates(
    schedule: TrainSchedule,
    cfg: SimConfig,
    rng: random.Random | None = None,
    count: int = 1,
) -> list[tuple[float, float]]:
    """Estimated (send, receive) rates of ``count`` trains on one schedule.

    One call of the rates core runs the trains in turn, with
    ``simulate_train``'s draws in its order; each pair is bit-identical to
    ``estimate_send_rate`` and ``estimate_receive_rate`` on the record
    ``simulate_train`` would give that train. No trace or record is built.
    A train whose receive stamps coincide raises DegenerateDurationError,
    as the estimator does; the trains after it are not simulated.
    """
    _check(schedule, cfg, rng)
    if not isinstance(count, int) or count < 1:
        raise ValueError("count must be an integer of at least 1")
    intended = list(map(float, schedule.send_instants))
    return _simulate_ends(intended, cfg, rng, count, schedule.spec.geometry.counted_bits)


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
            [(send, recv)] = simulate_rates(build_schedule(spec, 0), cfg, rng)
            cells.append(SweepCell(n_packets=n, desired_rate=rate, est_send=send, est_recv=recv))
    return cells
