"""Span tracing of traincap's public functions, for the traced run.

The benchmark wraps each function where its caller looks it up (a module
attribute, or an endpoint instance's method) only while a traced round
runs, and puts the originals back afterwards, so untraced rounds run the
program unchanged. Spans are kept in memory and written out at the end.

A span holds its id, name, start and end (monotonic ns), its parent
span's id and the train id current on its thread. A span's self time is
its duration minus the durations of its direct children, which nest
inside it and never overlap one another.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable

MAX_SPANS = 100_000  # raw spans kept for the trace file; aggregates count every call
SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent_id", "train_id")

# Aggregate slots per (phase, span name).
CALLS, TOTAL, SELF, ITEMS, EXTRA = range(5)


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[list[int]] = []  # [span id, child ns]
        self.train_id: int | None = None
        self.agg: dict[tuple[str, str], list[int]] = {}


class Tracer:
    """Collects spans and per-name aggregates from every thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.phase = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._states.append(st)
        return st

    def wrap(self, name: str, fn: Callable, on_exit: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``on_exit(st, agg, args, result, t0, t1)``
        adds items and extra time, or sets the thread's train id."""

        def traced(*args, **kwargs):
            st = self._state()
            sid = next(self._ids)
            parent = st.stack[-1][0] if st.stack else None
            frame = [sid, 0]
            st.stack.append(frame)
            result = None
            t0 = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.monotonic_ns()
                st.stack.pop()
                dur = t1 - t0
                if st.stack:
                    st.stack[-1][1] += dur
                key = (self.phase, name)
                agg = st.agg.get(key)
                if agg is None:
                    agg = st.agg[key] = [0, 0, 0, 0, 0]
                agg[CALLS] += 1
                agg[TOTAL] += dur
                agg[SELF] += dur - frame[1]
                if on_exit is not None:
                    on_exit(st, agg, args, result, t0, t1)
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((sid, name, t0, t1, parent, st.train_id))
                else:
                    self.dropped += 1

        return traced

    def aggregates(self) -> dict[tuple[str, str], list[int]]:
        merged: dict[tuple[str, str], list[int]] = {}
        for st in self._states:
            for key, agg in st.agg.items():
                into = merged.setdefault(key, [0, 0, 0, 0, 0])
                for i, v in enumerate(agg):
                    into[i] += v
        return merged

    def write(self, path, summary: dict) -> None:
        """One JSON summary line, then one JSON list per span."""
        with open(path, "w") as f:
            f.write(json.dumps({**summary, "span_fields": SPAN_FIELDS, "spans": len(self.spans),
                                "spans_dropped": self.dropped}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# What is wrapped, and what each wrapper adds to its aggregate


def _set_train_from_probe(st, agg, args, result, t0, t1):
    st.train_id = args[0].train_id


def _set_train_from_peek(st, agg, args, result, t0, t1):
    if result is not None:
        st.train_id = result[1]


def _wait_past_deadline(st, agg, args, result, t0, t1):
    agg[EXTRA] += t1 - max(t0, args[0])


def _schedule_packets(st, agg, args, result, t0, t1):
    agg[ITEMS] += len(args[0])


def _simulated_packets(st, agg, args, result, t0, t1):
    spec = args[0].spec
    st.train_id = spec.train_id
    agg[ITEMS] += spec.n_packets


def _datagram(st, agg, args, result, t0, t1):
    if result is not None:
        agg[ITEMS] += 1
        agg[EXTRA] += t1 - t0


def _received_packets(st, agg, args, result, t0, t1):
    if result is not None:
        agg[ITEMS] += sum(len(rec.recv_ts or ()) for rec in result[0])


def _reflected_packets(st, agg, args, result, t0, t1):
    if result is not None:
        agg[ITEMS] += sum(len(entry.ingress_ts) for entry in result)


def module_targets() -> list[tuple[object, str, str, Callable | None]]:
    """(owner, attribute, span name, on_exit) for each module-level lookup."""
    from traincap import cli, pacing, session, simnet, wire

    return [
        (wire, "ns_to_ntp", "wire.ns_to_ntp", None),
        (wire, "patch_send_ts", "wire.patch_send_ts", None),
        (wire, "peek_train_fields", "wire.peek_train_fields", _set_train_from_peek),
        (wire, "encode_probe", "wire.encode_probe", _set_train_from_probe),
        (pacing, "wait_until", "pacing.wait_until", _wait_past_deadline),
        (session, "pace_send", "pacing.pace_send", _schedule_packets),
        (session, "validate_train", "train.validate_train", None),
        (session, "estimate_send_rate", "train.estimate_send_rate", None),
        (session, "estimate_receive_rate", "train.estimate_receive_rate", None),
        (simnet, "estimate_send_rate", "train.estimate_send_rate", None),
        (simnet, "estimate_receive_rate", "train.estimate_receive_rate", None),
        (session, "simulate_train", "simnet.simulate_train", _simulated_packets),
        (simnet, "simulate_train", "simnet.simulate_train", _simulated_packets),
        (cli, "simulate_train", "simnet.simulate_train", _simulated_packets),
        (session, "aggregate_stats", "session.aggregate_stats", None),
        (cli, "aggregate_stats", "session.aggregate_stats", None),
        (session, "run_sender", "session.run_sender", None),
        (session, "run_receiver", "session.run_receiver", _received_packets),
        (session, "run_reflector", "session.run_reflector", _reflected_packets),
        (session, "run_paired", "session.run_paired", None),
        (cli, "run_experiment", "session.run_experiment", None),
        (cli, "record_row", "cli.record_row", None),
        (cli, "write_rows", "cli.write_rows", None),
        (cli, "read_rows", "cli.read_rows", None),
        (cli, "main", "cli.main", None),
    ]


def endpoint_targets(endpoint) -> list[tuple[object, str, str, Callable | None]]:
    return [
        (endpoint, "send", "transport.send", None),
        (endpoint, "recv", "transport.recv", None),
        (endpoint, "recv_from", "transport.recv_from", _datagram),
    ]


@contextmanager
def installed(tracer: Tracer, targets):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, name, on_exit in targets:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            saved.append((owner, attr, own, original))
            setattr(owner, attr, tracer.wrap(name, original, on_exit))
        yield
    finally:
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # a bound method wrapped on its instance


# ---------------------------------------------------------------------------
# Per-layer metrics from the aggregates


def per_layer(aggs: dict[tuple[str, str], list[int]], table_passes: int) -> dict[str, float]:
    """Per-layer figures; a layer the workload never calls reads 0."""

    def total(name: str, phase: str | None = None) -> list[int]:
        out = [0, 0, 0, 0, 0]
        for (ph, nm), agg in aggs.items():
            if nm == name and (phase is None or ph == phase):
                out = [a + b for a, b in zip(out, agg)]
        return out

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den / scale if den else 0.0

    def per_call(name: str, scale: float = 1.0) -> float:
        a = total(name)
        return ratio(a[TOTAL], a[CALLS], scale)

    est = [a + b for a, b in zip(total("train.estimate_send_rate"), total("train.estimate_receive_rate"))]
    sim = total("simnet.simulate_train")
    recv_from = total("transport.recv_from")
    receiver = total("session.run_receiver")
    reflector = total("session.run_reflector")
    wait = total("pacing.wait_until")
    pace = total("pacing.pace_send")
    return {
        "wire.ns_to_ntp_ns": per_call("wire.ns_to_ntp"),
        "wire.patch_send_ts_ns": per_call("wire.patch_send_ts"),
        "wire.peek_train_fields_ns": per_call("wire.peek_train_fields"),
        "wire.encode_probe_ns": per_call("wire.encode_probe"),
        "pacing.wait_until_ns": ratio(wait[EXTRA], wait[CALLS]),
        "pacing.pace_send_ns_per_pkt": ratio(pace[TOTAL], pace[ITEMS]),
        "transport.send_ns": per_call("transport.send"),
        "transport.recv_ns": ratio(recv_from[EXTRA], recv_from[ITEMS]),
        "train.validate_train_ns": per_call("train.validate_train"),
        "train.estimate_ns": ratio(est[TOTAL], est[CALLS]),
        "simnet.simulate_train_ns_per_pkt": ratio(sim[TOTAL], sim[ITEMS]),
        "simnet.simulate_train_calls": ratio(total("simnet.simulate_train", "tables")[CALLS], table_passes),
        "session.run_experiment_s": ratio(total("session.run_experiment", "tables")[TOTAL], table_passes, 1e9),
        "session.aggregate_stats_ns": per_call("session.aggregate_stats"),
        "session.run_receiver_self_ns_per_pkt": ratio(receiver[SELF], receiver[ITEMS]),
        "session.run_reflector_self_ns_per_pkt": ratio(reflector[SELF], reflector[ITEMS]),
        "cli.record_row_ns": per_call("cli.record_row"),
        "cli.write_rows_s": per_call("cli.write_rows", 1e9),
        "cli.read_rows_s": per_call("cli.read_rows", 1e9),
    }
