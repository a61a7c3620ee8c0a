"""Correctness checks of the benchmark, each computed apart from the program.

Every check raises :class:`CheckError` on the first violation and returns
nothing otherwise. The checks are closed forms of the path model,
conservation of packets, causality on the one monotonic clock, and
determinism per seed; none of them compares against a stored copy of an
earlier output.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from typing import Iterable, Sequence

NS_PER_S = 10**9
REL_TOL = 1e-12  # the CSV cells round-trip floats exactly; this only absorbs summation order


class CheckError(AssertionError):
    """A program output disagrees with the figure computed apart from it."""


def counted_bits(frame_size: int) -> int:
    """Ethernet-layer bits rate arithmetic counts: the frame plus its FCS."""
    return (frame_size + 4) * 8


def wire_bits(frame_size: int) -> int:
    """Bits the medium carries: frame, FCS, preamble and inter-frame gap."""
    return (frame_size + 4 + 8 + 12) * 8


def half_up_gap(frame_size: int, rate: float) -> int:
    """Schedule gap in whole ns for a desired rate, rounded half up exactly."""
    q = Fraction(counted_bits(frame_size) * NS_PER_S) / Fraction(rate)
    return int(q + Fraction(1, 2))


def first_last_rate(n_packets: int, frame_size: int, span_ns: float) -> float:
    """The paper's estimator: bits of the first N-1 frames over the stamp span."""
    return (n_packets - 1) * counted_bits(frame_size) * NS_PER_S / span_ns


def _close(got: float, want: float, what: str, rel: float = REL_TOL) -> None:
    if abs(got - want) > rel * abs(want):
        raise CheckError(f"{what}: got {got!r}, want {want!r}")


def parse_table(text: str) -> list[dict]:
    """Rows of a CSV table the CLI printed, with numeric cells as float."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = {}
        for key, value in raw.items():
            try:
                row[key] = float(value) if value else None
            except ValueError:
                row[key] = value
        rows.append(row)
    if not rows:
        raise CheckError("empty table")
    return rows


# ---------------------------------------------------------------------------
# Simulated tables


def check_sweep(
    rows: Sequence[dict],
    train_lengths: Sequence[int],
    rates: Sequence[float],
    frame_size: int,
    ts_latency_ns: int,
) -> None:
    """Every sweep cell equals the closed forms of the timestamp-latency model.

    With no processing delay and a link fast enough never to queue, the
    send span is (N-1)*gap + d and the receive span (N-1)*gap - d.
    """
    want_cells = [(n, r) for n in train_lengths for r in rates]
    got_cells = [(int(row["n_packets"]), row["desired_rate_bps"]) for row in rows]
    if got_cells != want_cells:
        raise CheckError(f"sweep grid {got_cells} != {want_cells}")
    for row, (n, rate) in zip(rows, want_cells):
        gap = half_up_gap(frame_size, rate)
        span = (n - 1) * gap
        where = f"sweep N={n} rate={rate:g}"
        _close(row["est_send_rate_bps"], first_last_rate(n, frame_size, span + ts_latency_ns), where + " send")
        _close(row["est_recv_rate_bps"], first_last_rate(n, frame_size, span - ts_latency_ns), where + " recv")


def send_span_ns(n_packets: int, gap: int, d_proc_send: float, d_ts_last: float) -> float:
    """Sender stamp span of one train: the send loop waits for the stack.

    Packet i is submitted at max(i*gap, submit[i-1] + d_proc_send) and the
    last stamp lags its submission by d_ts_last.
    """
    return (n_packets - 1) * max(gap, d_proc_send) + d_ts_last


def send_rows(rows: Sequence[dict]) -> dict[str, dict]:
    """The est_send rows of a preset table, keyed by preset."""
    return {row["preset"]: row for row in rows if row["metric"] == "est_send"}


def check_send_rows(
    rows: Sequence[dict],
    presets: dict[str, tuple[float, float]],
    rate: float,
    n_packets: int,
    frame_size: int,
    jitter: float,
) -> None:
    """Send rows of a preset table lie on (or, jittered, between) closed forms.

    ``presets`` maps each preset to its (d_proc_send, d_ts_last). At zero
    jitter min, max and mean equal the closed form. With jitter j every
    delay draw lies in [(1-j)d, (1+j)d] and the span grows with each
    draw, so every train's rate lies between the closed forms at those
    two ends.
    """
    got = send_rows(rows)
    if sorted(got) != sorted(presets):
        raise CheckError(f"send rows for {sorted(got)}, want {sorted(presets)}")
    gap = half_up_gap(frame_size, rate)
    for name, (d_send, d_last) in presets.items():
        row = got[name]
        hi = first_last_rate(n_packets, frame_size, send_span_ns(n_packets, gap, d_send * (1 - jitter), d_last * (1 - jitter)))
        lo = first_last_rate(n_packets, frame_size, send_span_ns(n_packets, gap, d_send * (1 + jitter), d_last * (1 + jitter)))
        for key in ("min_bps", "max_bps", "mean_bps"):
            value = row[key]
            if jitter == 0:
                _close(value, hi, f"{name} send {key}")
            elif not lo * (1 - REL_TOL) <= value <= hi * (1 + REL_TOL):
                raise CheckError(f"{name} send {key} {value!r} outside [{lo!r}, {hi!r}]")


def check_reference_receivers(rows: Sequence[dict], desired_rate: float, eth_max_rate: float) -> None:
    """Receiver-vs-reference at zero jitter: bypass is near the desired rate,
    memory-mapped batching inflates the receive estimate above the link."""
    recv = {row["preset"]: row for row in rows if row["metric"] == "est_recv"}
    bypass = recv["bypass"]["mean_bps"]
    if abs(bypass - desired_rate) > 0.02 * desired_rate:
        raise CheckError(f"bypass receive {bypass!r} not within 2% of {desired_rate!r}")
    mapped = recv["mapped-batch"]["mean_bps"]
    if not mapped > eth_max_rate:
        raise CheckError(f"mapped-batch receive {mapped!r} not above the Ethernet maximum {eth_max_rate!r}")


def check_seeds_differ(outputs: dict[int, str]) -> None:
    """Distinct seeds must give distinct jittered output."""
    seen: dict[str, int] = {}
    for seed, text in outputs.items():
        if text in seen:
            raise CheckError(f"seeds {seen[text]} and {seed} gave the same output")
        seen[text] = seed


def check_same_output(seed: int, first: str, again: str) -> None:
    """The same seed twice must give byte-identical output."""
    if first != again:
        raise CheckError(f"seed {seed} gave two different outputs")


def check_simulate_records(
    text: str,
    n_trains: int,
    n_packets: int,
    frame_size: int,
    serialization_ns: float,
) -> tuple[list[float], list[float]]:
    """Check the rows of ``traincap simulate --timestamps``; return the estimates.

    Each estimate is recomputed from the first and last emitted stamps, and
    no packet but the last (whose send stamp lags) reaches the receiver in
    less than one serialization time.
    """
    sends, recvs = [], []
    rows = list(csv.DictReader(io.StringIO(text)))
    if [int(r["train_id"]) for r in rows] != list(range(n_trains)):
        raise CheckError("simulate emitted the wrong trains")
    for row in rows:
        send_ts = [float(v) for v in row["send_ts"].split(";")]
        recv_ts = [float(v) for v in row["recv_ts"].split(";")]
        if len(send_ts) != n_packets or len(recv_ts) != n_packets:
            raise CheckError(f"train {row['train_id']}: {len(send_ts)}/{len(recv_ts)} stamps")
        send = float(row["est_send_rate_bps"])
        recv = float(row["est_recv_rate_bps"])
        _close(send, first_last_rate(n_packets, frame_size, send_ts[-1] - send_ts[0]), "simulated send estimate")
        _close(recv, first_last_rate(n_packets, frame_size, recv_ts[-1] - recv_ts[0]), "simulated receive estimate")
        for i in range(n_packets - 1):
            if recv_ts[i] - send_ts[i] < serialization_ns - 1e-6:
                raise CheckError(f"train {row['train_id']} packet {i} arrived faster than serialization")
        sends.append(send)
        recvs.append(recv)
    return sends, recvs


def check_summary(summary_text: str, columns: dict[str, list[float]]) -> None:
    """``report --in`` counts and means equal the benchmark's own."""
    rows = {row["metric"]: row for row in parse_table(summary_text)}
    for column, values in columns.items():
        row = rows[column]
        if int(row["count"]) != len(values):
            raise CheckError(f"{column}: report counted {row['count']}, wrote {len(values)}")
        _close(row["mean_bps"], sum(values) / len(values), f"{column} mean")


# ---------------------------------------------------------------------------
# UDP roles


def train_complete(rec, n_packets: int) -> bool:
    """All seqs 0..N-1 arrived once, in order, with one stamp each."""
    return (
        rec.status.value == "complete"
        and list(rec.received_seqs) == list(range(n_packets))
        and rec.recv_ts is not None
        and len(rec.recv_ts) == n_packets
    )


def reflection_whole(entry, n_packets: int) -> bool:
    """The reflector buffered and burst back the whole train."""
    return not entry.partial and len(entry.ingress_ts) == n_packets == len(entry.egress_ts)


def check_causal(train_id: int, stamp_lists: Iterable[Sequence[float]]) -> None:
    """Each packet's stamps rise along its path, on the one monotonic clock."""
    lists = list(stamp_lists)
    for i, stamps in enumerate(zip(*lists)):
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise CheckError(f"train {train_id} packet {i}: stamps {stamps} do not rise along the path")
    for stamps in lists:
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise CheckError(f"train {train_id}: stamps not increasing within one role")


def check_reflect_order(entry) -> None:
    """A reflected train leaves only after its last packet arrived."""
    if not entry.egress_ts[0] > entry.ingress_ts[-1]:
        raise CheckError(
            f"train {entry.train_id}: egress starts at {entry.egress_ts[0]} before last ingress {entry.ingress_ts[-1]}"
        )


def check_estimate(value: float, stamps: Sequence[float], frame_size: int, what: str) -> float:
    """An estimate equals the first/last rate recomputed from its stamps."""
    want = first_last_rate(len(stamps), frame_size, stamps[-1] - stamps[0])
    _close(value, want, what)
    return want
