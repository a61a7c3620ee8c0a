"""Deadline-wait semantics and paced-send timing."""

from __future__ import annotations

import functools
import itertools
import sys
import time
import types

import pytest
from oracles import patch_send_ns

import traincap.pacing as pacing
from traincap import wire
from traincap.pacing import HYBRID, PURE_SPIN, PacerConfig, pace_send, wait_until
from traincap.wire import HEADER_SIZE

SPIN = PacerConfig(mode=PURE_SPIN)


class TestWaitUntil:
    def test_past_deadline_returns_late(self):
        report = wait_until(time.monotonic_ns() - 1_000_000, SPIN)
        assert report.late
        assert report.slack_ns == 0

    def test_exact_deadline_not_late(self, monkeypatch):
        # Freeze the clock to hit the now == deadline boundary exactly.
        monkeypatch.setattr(pacing.time, "monotonic_ns", lambda: 12345)
        report = wait_until(12345, SPIN)
        assert not report.late
        assert report.slack_ns == 0

    def test_future_deadline_no_early_wake(self, monkeypatch):
        # A host pause of over 10 us between the deadline's clock read and
        # wait_until's entry read puts the deadline in the past, and
        # wait_until then rightly reports it late. A pass-through recorder
        # on the clock gives the entry reading, so each iteration checks
        # the contract of the branch that ran.
        clock = time.monotonic_ns
        readings = []

        def recorded():
            t = clock()
            readings.append(t)
            return t

        monkeypatch.setattr(pacing.time, "monotonic_ns", recorded)
        future = 0
        for _ in range(50):
            deadline = clock() + 10_000
            readings.clear()
            report = wait_until(deadline, SPIN)
            entry = readings[0]
            if entry < deadline:
                future += 1
                assert not report.late
                assert report.wake_ns >= deadline
                assert report.slack_ns == report.wake_ns - deadline
            else:
                assert report.late == (entry > deadline)
                assert report.slack_ns == 0
        # A stalling host must not empty the check of a future deadline.
        assert future >= 45

    def test_hybrid_no_early_wake(self):
        cfg = PacerConfig(mode=HYBRID)
        for _ in range(10):
            deadline = time.monotonic_ns() + 2_000_000
            report = wait_until(deadline, cfg)
            assert report.wake_ns >= deadline
            assert not report.late

    def test_hybrid_wait_sleeps_at_most_once(self, monkeypatch):
        # Even a sleep that returns at once is not retried: the wait
        # spins the rest of the way.
        sleeps = []
        monkeypatch.setattr(pacing.time, "sleep", sleeps.append)
        deadline = time.monotonic_ns() + 5_000_000
        report = wait_until(deadline, PacerConfig(mode=HYBRID))
        assert report.wake_ns >= deadline
        assert len(sleeps) <= 1

    def test_spin_overshoot_is_small(self):
        # Soft sanity bound; the strict p99 <= 1 us benchmark lives in
        # the acceptance suite.
        slacks = []
        start = time.monotonic_ns() + 50_000
        for i in range(200):
            slacks.append(wait_until(start + i * 10_000, SPIN).slack_ns)
        slacks.sort()
        assert slacks[int(0.9 * len(slacks))] < 50_000

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PacerConfig(mode="nap")


def _payloads(n):
    return [bytearray(HEADER_SIZE) for _ in range(n)]


def _ignore(payload, ts):
    pass


def _stub_clock(monkeypatch, clock):
    """Make ``pacing`` read ``clock()`` for its monotonic clock."""
    monkeypatch.setattr(pacing, "time", types.SimpleNamespace(monotonic_ns=clock, sleep=time.sleep))


class TestPaceSend:
    def test_single_packet(self):
        start = time.monotonic_ns() + 100_000
        ts = pace_send([start], _payloads(1), _ignore, SPIN)
        assert len(ts) == 1
        assert ts[0] >= start

    def test_empty_schedule_emits_nothing(self):
        def send(payload, ts):
            raise AssertionError("an empty schedule has no packet to send")

        assert pace_send([], [], send, SPIN) == []
        assert pace_send([], [], send) == []

    def test_timestamps_honor_schedule(self):
        start = time.monotonic_ns() + 100_000
        schedule = [start + i * 50_000 for i in range(20)]
        ts = pace_send(schedule, _payloads(20), _ignore, SPIN)
        assert all(t >= d for t, d in zip(ts, schedule))
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_send_gets_each_probe_with_its_stamp_in_place(self):
        start = time.monotonic_ns() + 100_000
        payloads = _payloads(5)
        sent = []
        ts = pace_send([start + i * 10_000 for i in range(5)], payloads,
                       lambda payload, t: sent.append((payload, t, bytes(payload))), SPIN)
        assert [t for _, t, _ in sent] == ts
        for (payload, t, at_send), built in zip(sent, payloads):
            assert payload is built
            want = bytearray(HEADER_SIZE)
            patch_send_ns(want, t)
            assert at_send == want

    def test_total_elapsed_1ms_gaps(self):
        # 10 packets, 1 ms apart: the last stamp lands 9 gaps after the
        # scheduled start, plus pacing slop only.
        start = time.monotonic_ns() + 200_000
        schedule = [start + i * 1_000_000 for i in range(10)]
        ts = pace_send(schedule, _payloads(10), _ignore, SPIN)
        elapsed = ts[-1] - schedule[0]
        assert 9_000_000 <= elapsed <= 11_000_000

    def test_slow_emit_reflects_actual_rate(self):
        # Schedule at 10 us gaps but each send burns ~200 us: the
        # timestamps must reflect the slower reality.
        def slow_send(payload, ts):
            t = time.monotonic_ns()
            while time.monotonic_ns() - t < 200_000:
                pass

        start = time.monotonic_ns() + 50_000
        schedule = [start + i * 10_000 for i in range(5)]
        ts = pace_send(schedule, _payloads(5), slow_send, SPIN)
        gaps = [b - a for a, b in zip(ts, ts[1:])]
        assert all(g >= 200_000 for g in gaps)
        assert all(t >= d for t, d in zip(ts, schedule))

    def test_late_start_keeps_the_spacing(self):
        # A first instant 1 ms past moves the whole train by packet 0's own
        # lateness: packet i leaves no sooner than i gaps after packet 0,
        # not back to back with it. A host pause only makes stamps later.
        start = time.monotonic_ns() - 1_000_000
        schedule = [start + i * 100_000 for i in range(5)]
        before = time.monotonic_ns()
        ts = pace_send(schedule, _payloads(5), _ignore, SPIN)
        assert ts[0] >= before
        assert all(t >= ts[0] + i * 100_000 for i, t in enumerate(ts))

    def test_stall_before_packet_0_moves_the_schedule(self, monkeypatch):
        # The wait for packet 0 wakes 500 ns past its instant (a stall
        # inside the spin): the later packets wait for their instants
        # moved by that lateness, not for the planned ones.
        readings = iter([900, 1_500, 1_550, 1_650, 1_700, 1_800, 1_850])
        _stub_clock(monkeypatch, lambda: next(readings))
        ts = pace_send([1_000, 1_100, 1_200], _payloads(3), _ignore, SPIN)
        assert ts == [1_500, 1_650, 1_700]

    def test_emit_failure_propagates(self):
        sent = []

        def bad_send(payload, ts):
            if len(sent) == 2:
                raise OSError("backend rejected datagram")
            sent.append(ts)

        start = time.monotonic_ns() + 10_000
        with pytest.raises(OSError):
            pace_send([start + i * 1_000 for i in range(5)], _payloads(5), bad_send, SPIN)
        assert len(sent) == 2

    def test_rejects_non_increasing_schedule(self):
        with pytest.raises(ValueError):
            pace_send([100, 100], _payloads(2), _ignore, SPIN)
        with pytest.raises(ValueError):
            pace_send([200, 100], _payloads(2), _ignore, SPIN)

    def test_rejects_a_payload_count_unlike_the_schedule(self):
        with pytest.raises(ValueError, match="one payload per scheduled instant"):
            pace_send([100, 200], _payloads(1), _ignore, SPIN)


class TestSendClockReads:
    def test_one_clock_read_and_one_call_per_probe(self, monkeypatch):
        # A train far behind schedule never waits, so every clock read is
        # a probe's deadline check. The stub clock is a C callable that
        # steps 2 gaps per read, so it adds no Python-level call of its
        # own, and the profile sees only pace_send itself and the hook.
        n, gap, t0 = 30, 1_000, 10**12
        readings = itertools.count(t0, 2 * gap)
        _stub_clock(monkeypatch, functools.partial(next, readings))
        sent = []

        def send(payload, ts):
            sent.append(ts)

        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code)

        schedule, payloads = [i * gap for i in range(n)], _payloads(n)
        sys.setprofile(profile)
        try:
            ts = pace_send(schedule, payloads, send, SPIN)
        finally:
            sys.setprofile(None)
        assert next(readings) == t0 + n * 2 * gap  # exactly n reads
        assert ts == sent == [t0 + i * 2 * gap for i in range(n)]
        assert calls == [pace_send.__code__] + [send.__code__] * n


class TestInlineStamp:
    """pace_send writes send_ts exactly as the oracle patch_send_ns would."""

    @pytest.mark.parametrize("t", [
        0,
        7 * 10**9 + 999_999_999,  # rem = 999_999_999, rounds up to the next second's fraction
        8 * 10**9,                # a seconds boundary
        wire._MAX_NS - 1,         # the last stamp the 32-bit seconds field holds
    ])
    def test_same_bytes_as_patch_send_ns(self, monkeypatch, t):
        _stub_clock(monkeypatch, lambda: t)
        got = bytearray(b"\xa5" * (HEADER_SIZE + 4))
        want = bytearray(got)
        assert pace_send([0], [got], _ignore, SPIN) == [t]
        patch_send_ns(want, t)
        assert got == want

    @pytest.mark.parametrize("t", [-1, wire._MAX_NS])
    def test_out_of_range_raises_before_the_send(self, monkeypatch, t):
        _stub_clock(monkeypatch, lambda: t)
        payload = bytearray(HEADER_SIZE)
        with pytest.raises(ValueError) as got:
            pace_send([t], [payload], lambda p, ts: pytest.fail("sent"), SPIN)
        with pytest.raises(ValueError) as want:
            wire.ns_to_ntp(t)
        assert str(got.value) == str(want.value)
        assert payload == bytearray(HEADER_SIZE)

    def test_repeated_readings_are_bumped(self, monkeypatch):
        # Packet 1 leaves 99 ns behind its instant; the clock then repeats
        # its reading, and each repeat is stamped 1 ns past the last.
        readings = iter([100, 200, 200, 200, 250])
        _stub_clock(monkeypatch, lambda: next(readings))
        payloads = _payloads(5)
        ts = pace_send([0, 1, 2, 3, 4], payloads, _ignore, SPIN)
        assert ts == [100, 200, 201, 202, 250]
        for payload, t in zip(payloads, ts):
            want = bytearray(HEADER_SIZE)
            patch_send_ns(want, t)
            assert payload == want
