"""Sender, receiver, and reflector roles; statistics; experiment harness.

The sender paces pre-built probe trains through a transport endpoint,
writing each packet's timestamp immediately before its send. The
receiver stores every packet of a train before computing the train's
receive rate. The reflector buffers a whole train and only then bursts
it back, so reflection cannot disturb the inbound timestamping.

On an otherwise empty path the per-train receive rates directly estimate
the available path capacity; the reported APC is their median, which
shrugs off the occasional coalescing-inflated outlier.
"""

from __future__ import annotations

import math
import random
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar, Sequence

from . import wire
from .pacing import PacerConfig, pace_send
from .simnet import (
    PRESET_NAMES,
    SimConfig,
    combine,
    ethernet_max_rate,
    preset,
    simulate_train,
    sweep,
    sweep_study_config,
)
from .train import (
    DegenerateDurationError,
    TrainRecord,
    TrainSpec,
    TrainStatus,
    build_schedule,
    estimate_receive_rate,
    estimate_send_rate,
    validate_train,
)
from .transport import Endpoint, TransportError, loopback_pair
from .wire import FrameGeometry, NtpTimestamp, ProbePacket

_NS_PER_S = 1_000_000_000

DEFAULT_IDLE_TIMEOUT_NS = 10_000_000  # flush a stalled train after 10 ms
DEFAULT_INTER_TRAIN_GAP_NS = 10_000_000
_WARM_UP_LEAD_NS = 200_000  # from scheduling a train, warm-up send included, to its first deadline
MAX_TRAIN_PACKETS = (1 << 16) - 1  # train_len is a 16-bit wire field


@dataclass(frozen=True)
class SessionParams:
    """Shared knobs of the sender/receiver/reflector roles."""

    n_trains: int = 10
    n_packets: int = 50
    desired_rate: float = 100_000_000
    geometry: FrameGeometry = field(default_factory=FrameGeometry)
    inter_train_gap_ns: int = DEFAULT_INTER_TRAIN_GAP_NS
    idle_timeout_ns: ClassVar[int] = DEFAULT_IDLE_TIMEOUT_NS  # fixed, not a field
    pacer: PacerConfig = field(default_factory=PacerConfig)

    def __post_init__(self) -> None:
        if self.n_trains < 1:
            raise ValueError("n_trains must be at least 1")
        if self.n_packets > MAX_TRAIN_PACKETS:
            raise ValueError(f"n_packets must be at most {MAX_TRAIN_PACKETS} (16-bit train_len)")
        if self.inter_train_gap_ns <= 0:
            raise ValueError("inter_train_gap_ns must be positive")

    def train_spec(self, train_id: int) -> TrainSpec:
        return TrainSpec(
            n_packets=self.n_packets,
            geometry=self.geometry,
            desired_rate=self.desired_rate,
            train_id=train_id,
        )

    def expected_duration_ns(self) -> int:
        """Planned sender time: per train, the warm-up lead, the send span
        and the inter-train gap."""
        gap = build_schedule(self.train_spec(0), 0).gap
        per_train = _WARM_UP_LEAD_NS + (self.n_packets - 1) * gap + self.inter_train_gap_ns
        return self.n_trains * per_train


@dataclass(frozen=True)
class RateStats:
    """Min/max/mean/sample-std aggregation over repeated rates."""

    min: float
    max: float
    mean: float
    std: float
    rel_std_pct: float | None  # None when the mean is not positive


@dataclass(frozen=True)
class ApcReport:
    """Available-path-capacity estimate from valid trains' receive rates:
    their median, or None when no train is valid."""

    rates: list[float]
    apc_estimate: float | None


@dataclass(frozen=True)
class ReflectionRecord:
    """Bookkeeping for one buffered-and-reflected train."""

    train_id: int
    n_expected: int
    ingress_ts: list[int]
    egress_ts: list[int]
    partial: bool


def aggregate_stats(rates: Sequence[float]) -> RateStats:
    """Sample statistics (n-1 denominator) over per-repetition rates."""
    if not rates:
        raise ValueError("empty rate list")
    n = len(rates)
    mean = sum(rates) / n
    if n > 1:
        std = math.sqrt(sum((x - mean) ** 2 for x in rates) / (n - 1))
    else:
        std = 0.0
    rel = 100.0 * std / mean if mean > 0 else None
    return RateStats(min=min(rates), max=max(rates), mean=mean, std=std, rel_std_pct=rel)


def apc_report(records: Sequence[TrainRecord]) -> ApcReport:
    """Median of the complete trains' receive rates on an empty path."""
    rates = [
        estimate_receive_rate(rec)
        for rec in records
        if rec.status is TrainStatus.COMPLETE and rec.recv_ts
    ]
    return ApcReport(rates=rates, apc_estimate=statistics.median(rates) if rates else None)


# ---------------------------------------------------------------------------
# Roles


def run_sender(params: SessionParams, endpoint: Endpoint) -> list[TrainRecord]:
    """Pace and send the configured trains; return sender-side records.

    Packets are fully pre-built per train except the timestamp field,
    which ``pace_send`` patches with the same clock reading it returns as
    the packet's send stamp, before handing the packet to the endpoint's
    ``send_stamped`` hook. A train whose first and last stamps are
    equal (a clock too coarse for its span) is zero-duration. A transport
    failure marks the current and all remaining trains failed.

    Once a train's buffers are built, its first deadline is set a fixed
    lead (200 us) ahead and the sender calls ``endpoint.warm_up()``, so a
    cold first ``sendto`` (about 50 us on a localhost UDP socket, where
    this was measured) is paid outside the train's span, not between its
    first two stamps. The lead is some four times that cost, so packet 0
    still leaves on time. A failed warm-up is ignored: the train's own
    sends report a real socket fault. ``params.pacer`` waits out the rest
    of the lead and paces the train, and the inter-train gap is slept
    after every train but the last.
    """
    payload_size = params.geometry.payload_size
    records: list[TrainRecord] = []
    failed = False
    for train_id in range(params.n_trains):
        spec = params.train_spec(train_id)
        if failed:
            records.append(TrainRecord(train_id, spec, status=TrainStatus.FAILED))
            continue
        bufs = [
            bytearray(
                wire.encode_probe(
                    ProbePacket(
                        seq=i,
                        send_ts=NtpTimestamp(0, 0),
                        train_id=train_id,
                        train_len=params.n_packets,
                    ),
                    payload_size,
                )
            )
            for i in range(params.n_packets)
        ]
        schedule = build_schedule(spec, time.monotonic_ns() + _WARM_UP_LEAD_NS)
        try:
            endpoint.warm_up()
        except OSError:
            pass  # a real socket fault shows in the probe sends below
        try:
            send_ts = pace_send(schedule.send_instants, bufs, endpoint.send_stamped, params.pacer)
        except (TransportError, OSError):
            records.append(TrainRecord(train_id, spec, status=TrainStatus.FAILED))
            failed = True
            continue
        records.append(
            TrainRecord(
                train_id,
                spec,
                send_ts=send_ts,
                status=TrainStatus.COMPLETE if send_ts[-1] != send_ts[0] else TrainStatus.ZERO_DURATION,
            )
        )
        if train_id + 1 < params.n_trains:
            time.sleep(params.inter_train_gap_ns / 1e9)
    return records


def _trains(params: SessionParams, endpoint: Endpoint, overall_timeout_ns: int | None):
    """Group arriving probes into trains by in-band train_id.

    Yields ``(train_id, train_len, arrivals, datagrams, whole)`` per
    train: ``arrivals`` holds ``(seq, ts)`` and ``datagrams`` the
    ``(payload, ts, source)`` tuples ``recv_from`` returned, in arrival
    order. A train is whole, and ends, once it holds ``train_len``
    distinct seqs; they are counted only from its ``train_len``-th
    datagram on, so a train without duplicates counts them once.
    Otherwise a train ends, not whole, with the first datagram of another
    train from the same source, an idle timeout after its last datagram,
    or the overall deadline.

    A datagram that cannot be one of this session's probes is dropped:
    one whose length is not the session's payload size, or whose seq is
    not below its train_len. So is one from another source than its open
    train's first datagram, which therefore neither joins nor ends that
    train: every datagram of a train has one source, the one the
    reflector sends it back to. ``run_sender`` numbers its trains
    0..n-1, so a datagram that would open a train is dropped if its id
    is not below ``params.n_trains``, or if it is a late datagram of a
    train already yielded (ids are unique within one receive or reflect
    call). Only a datagram that would open a train pays for these two
    checks.

    The clock is read only when ``recv_from`` returns None; a datagram's
    own receive stamp stands for now otherwise, so a flood of datagrams
    cannot outlast the overall deadline. The overall timeout defaults to
    three times the sender's planned duration plus 1 s.
    """
    if overall_timeout_ns is None:
        overall_timeout_ns = 3 * params.expected_duration_ns() + _NS_PER_S
    recv_from = endpoint.recv_from
    peek = wire.peek_train_fields
    payload_size = params.geometry.payload_size
    idle_timeout = params.idle_timeout_ns
    n_trains = params.n_trains
    now = time.monotonic_ns()
    overall_deadline = deadline = now + overall_timeout_ns
    train_id = train_len = 0
    source = None
    opened: set[int] = set()
    arrivals: list[tuple[int, int]] = []
    datagrams: list[tuple] = []
    while now < overall_deadline:
        got = recv_from(deadline)
        if got is None:
            if arrivals:
                yield train_id, train_len, arrivals, datagrams, False
                arrivals, datagrams = [], []
                deadline = overall_deadline
            now = time.monotonic_ns()
            continue
        now = got[1]
        if len(got[0]) != payload_size:
            continue
        seq, got_id, got_len = peek(got[0])
        if seq >= got_len:
            continue
        if not arrivals or got_id != train_id or got[2] != source:
            if (arrivals and got[2] != source) or got_id in opened or got_id >= n_trains:
                continue
            opened.add(got_id)
            if arrivals:
                yield train_id, train_len, arrivals, datagrams, False
                arrivals, datagrams = [], []
            train_id, train_len, source = got_id, got_len, got[2]
        arrivals.append((seq, now))
        datagrams.append(got)
        if len(arrivals) >= train_len and len({s for s, _ in arrivals}) >= train_len:
            yield train_id, train_len, arrivals, datagrams, True
            arrivals, datagrams = [], []
            deadline = overall_deadline
        else:
            deadline = min(overall_deadline, now + idle_timeout)
    if arrivals:
        yield train_id, train_len, arrivals, datagrams, False


def run_receiver(
    params: SessionParams,
    endpoint: Endpoint,
    overall_timeout_ns: int | None = None,
) -> tuple[list[TrainRecord], ApcReport]:
    """Collect trains, validate them, and report receive rates and APC.

    Each train is stored in full (all ``train_len`` sequence numbers, or
    an idle timeout, or the next train's first packet) before any rate is
    computed. Datagrams that cannot be this session's probes are dropped
    (see ``_trains``), and so are trains that announce fewer than 2
    packets.
    """
    records: list[TrainRecord] = []
    trains = _trains(params, endpoint, overall_timeout_ns)
    for train_id, train_len, arrivals, _, _ in trains:
        if train_len < 2:
            continue
        spec = TrainSpec(
            n_packets=train_len,
            geometry=params.geometry,
            desired_rate=params.desired_rate,
            train_id=train_id,
        )
        records.append(validate_train(arrivals, spec))
        if len(records) >= params.n_trains:
            break
    return records, apc_report(records)


def run_reflector(
    params: SessionParams,
    endpoint: Endpoint,
    overall_timeout_ns: int | None = None,
) -> list[ReflectionRecord]:
    """Buffer each train fully, then burst it back; return the reflection log.

    The first reflected packet of a train leaves strictly after its last
    buffered packet arrived, so reflection work never perturbs inbound
    timestamps. A train that does not hold all its seqs when it stalls
    for ``idle_timeout_ns`` (or is interrupted by a new train_id from its
    source) is reflected as-is and flagged partial, and its later
    datagrams are dropped.

    The burst is one ``pace_send`` over a schedule 1 ns apart, so packet
    0's stamp sets the shift and no packet waits. Its hook is the
    endpoint's ``stamped_sender`` toward the train's one source (see
    ``_trains``). Each packet goes back in the buffer it arrived in, with
    its egress stamp written into its ``send_ts``.
    """
    stamped_sender = endpoint.stamped_sender
    log: list[ReflectionRecord] = []
    trains = _trains(params, endpoint, overall_timeout_ns)
    for train_id, train_len, arrivals, datagrams, whole in trains:
        payloads = [payload for payload, _, _ in datagrams]
        egress = pace_send(range(len(payloads)), payloads, stamped_sender(datagrams[0][2]))
        log.append(
            ReflectionRecord(
                train_id=train_id,
                n_expected=train_len,
                ingress_ts=[ts for _, ts in arrivals],
                egress_ts=egress,
                partial=not whole,
            )
        )
        if len(log) >= params.n_trains:
            break
    return log


def run_paired(
    params: SessionParams,
    sender_endpoint: Endpoint,
    receiver_endpoint: Endpoint,
) -> tuple[list[TrainRecord], list[TrainRecord], ApcReport]:
    """Run sender and receiver threads over two endpoints of one path.

    The receiver thread starts first; the sender does not wait for it to
    block, so train 0's first packets may wait in the queue, and a UDP
    endpoint then stamps them late, as they are read. Neither
    thread changes interpreter-wide state. The sender's exception, else
    the receiver's, reaches the caller.
    """
    result: dict[str, object] = {}

    def receive() -> None:
        try:
            result["recv"] = run_receiver(params, receiver_endpoint)
        except BaseException as exc:  # re-raised in the caller's thread
            result["error"] = exc

    rx = threading.Thread(target=receive, name="traincap-receiver")
    rx.start()
    try:
        sender_records = run_sender(params, sender_endpoint)
    finally:
        rx.join()  # receiver bounds itself with its overall timeout
    if "error" in result:
        raise result["error"]
    receiver_records, report = result["recv"]
    return sender_records, receiver_records, report


def run_loopback_session(
    params: SessionParams,
) -> tuple[list[TrainRecord], list[TrainRecord], ApcReport]:
    """Sender and receiver threads over an in-memory loopback pair."""
    a, b = loopback_pair(params.geometry.payload_size)
    try:
        return run_paired(params, a, b)
    finally:
        a.close()
        b.close()


# ---------------------------------------------------------------------------
# Simulation experiment sets


EXPERIMENT_KINDS = ("same-method", "sweep", "sender-vs-reference", "receiver-vs-reference")
TABLE_DESIRED_RATE = 10_000_000_000  # the *-vs-reference tables' desired rate
SWEEP_TRAIN_LENGTHS = (10, 20, 50, 100)
SWEEP_RATES = (1e9, 2.5e9, 5e9, 10e9)


def _stats_row(stats: RateStats) -> dict:
    return {
        "min_bps": stats.min,
        "max_bps": stats.max,
        "mean_bps": stats.mean,
        "std_bps": stats.std,
        "rel_std_pct": stats.rel_std_pct,
    }


def _simulated_rep_means(
    cfg: SimConfig,
    desired_rate: float,
    n_packets: int,
    n_trains: int,
    repeats: int,
    rng: random.Random | None,
) -> tuple[list[float], list[float]]:
    """Per-repetition mean estimated send/receive rates.

    One configuration gets one train spec and one schedule, shared by
    every train it simulates: only the trains' rates are read, so their
    train_id does not matter.

    Without an rng the model is a pure function of its config, so one
    train stands for all of them. Its rates are still summed n_trains
    times and divided, as a mean over distinct trains is, so every mean
    keeps the last bits that the std cells depend on.
    """
    schedule = build_schedule(TrainSpec(n_packets, cfg.geometry, desired_rate), 0)

    def train_rates() -> tuple[float, float]:
        _, rec = simulate_train(schedule, cfg, rng=rng)
        return estimate_send_rate(rec), estimate_receive_rate(rec)

    if rng is None:
        send, recv = train_rates()
        send_mean = sum([send] * n_trains) / n_trains
        recv_mean = sum([recv] * n_trains) / n_trains
        return [send_mean] * repeats, [recv_mean] * repeats
    send_means, recv_means = [], []
    for _ in range(repeats):
        send_rates, recv_rates = zip(*(train_rates() for _ in range(n_trains)))
        send_means.append(sum(send_rates) / n_trains)
        recv_means.append(sum(recv_rates) / n_trains)
    return send_means, recv_means


def run_experiment(
    kind: str,
    presets: Sequence[str] = PRESET_NAMES,
    n_packets: int = 50,
    n_trains: int = 10,
    repeats: int = 10,
    frame_size: int = 1514,
    jitter: float = 0.0,
    seed: int | None = None,
) -> list[dict]:
    """Run one of the four simulated experiment sets; return its table rows.

    same-method:           each preset at both ends, sending flat out.
    sweep:                 SWEEP_TRAIN_LENGTHS x SWEEP_RATES grid on the
                           timestamp-latency study config.
    sender-vs-reference:   each preset sending to the bypass receiver at
                           TABLE_DESIRED_RATE; the reference receiver's
                           estimate stands in for the actual send rate.
    receiver-vs-reference: bypass sender into each preset's receiver.

    Identical arguments (including the seed) reproduce identical tables,
    so jitter needs a seed. A preset whose train has a zero-duration
    span raises DegenerateDurationError naming that preset.
    """
    if kind not in EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment kind: {kind!r}")
    if n_trains < 1 or repeats < 1:
        raise ValueError("n_trains and repeats must be at least 1")
    if jitter > 0 and seed is None:
        raise ValueError("jitter requires a seed")
    rng = random.Random(seed) if jitter > 0 else None
    rows: list[dict] = []

    if kind == "sweep":
        cfg = replace(sweep_study_config(frame_size), jitter=jitter)
        for cell in sweep(SWEEP_TRAIN_LENGTHS, SWEEP_RATES, cfg, rng=rng):
            rows.append(
                {
                    "n_packets": cell.n_packets,
                    "desired_rate_bps": cell.desired_rate,
                    "est_send_rate_bps": cell.est_send,
                    "est_recv_rate_bps": cell.est_recv,
                }
            )
        return rows

    bypass = preset("bypass", frame_size)
    reference: list[float] | None = None  # receiver-vs-reference's actual receive means
    for name in presets:
        base = preset(name, frame_size)
        if kind == "same-method":
            cfg = replace(base, jitter=jitter)
            rate = ethernet_max_rate(cfg)
            label_est, label_act = "est_send", "est_recv"
        elif kind == "sender-vs-reference":
            cfg = replace(combine(base, bypass), jitter=jitter)
            rate = TABLE_DESIRED_RATE
            label_est, label_act = "est_send", "actual_send"
        else:  # receiver-vs-reference
            cfg = replace(combine(bypass, base), jitter=jitter)
            rate = TABLE_DESIRED_RATE
            label_est, label_act = "est_recv", "actual_recv"
        try:
            send_means, recv_means = _simulated_rep_means(
                cfg, rate, n_packets, n_trains, repeats, rng
            )
        except DegenerateDurationError:
            raise DegenerateDurationError(
                f"{kind}: preset {name!r} gives a train of {n_packets} packets"
                " whose first and last timestamps coincide"
            ) from None
        if kind == "receiver-vs-reference":
            # Without jitter the reference path gives the same means for
            # every preset; with it, each preset draws its own, in turn.
            if reference is None or rng is not None:
                ref_cfg = replace(combine(bypass, bypass), jitter=jitter)
                _, reference = _simulated_rep_means(
                    ref_cfg, rate, n_packets, n_trains, repeats, rng
                )
            est_means, actual_means = recv_means, reference
        else:
            est_means, actual_means = send_means, recv_means
        rows.append({"preset": name, "metric": label_est, **_stats_row(aggregate_stats(est_means))})
        rows.append({"preset": name, "metric": label_act, **_stats_row(aggregate_stats(actual_means))})
    return rows
