"""Deadline-wait semantics and paced-send timing."""

from __future__ import annotations

import time

import pytest

import traincap.pacing as pacing
from traincap.pacing import HYBRID, PURE_SPIN, PacerConfig, pace_send, wait_until

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

    def test_future_deadline_no_early_wake(self):
        for _ in range(50):
            deadline = time.monotonic_ns() + 10_000
            report = wait_until(deadline, SPIN)
            assert report.wake_ns >= deadline
            assert not report.late
            assert report.slack_ns == report.wake_ns - deadline

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


class TestPaceSend:
    def test_single_packet(self):
        start = time.monotonic_ns() + 100_000
        ts = pace_send([start], lambda i: time.monotonic_ns(), SPIN)
        assert len(ts) == 1
        assert ts[0] >= start

    def test_empty_schedule_emits_nothing(self):
        def emit(i):
            raise AssertionError("an empty schedule has no packet to emit")

        assert pace_send([], emit, SPIN) == []
        assert pace_send([], emit) == []

    def test_timestamps_honor_schedule(self):
        start = time.monotonic_ns() + 100_000
        schedule = [start + i * 50_000 for i in range(20)]
        ts = pace_send(schedule, lambda i: time.monotonic_ns(), SPIN)
        assert all(t >= d for t, d in zip(ts, schedule))
        assert all(b >= a for a, b in zip(ts, ts[1:]))

    def test_total_elapsed_1ms_gaps(self):
        # 10 packets, 1 ms apart: the last emit lands 9 gaps after the
        # scheduled start, plus pacing slop only.
        start = time.monotonic_ns() + 200_000
        schedule = [start + i * 1_000_000 for i in range(10)]
        ts = pace_send(schedule, lambda i: time.monotonic_ns(), SPIN)
        elapsed = ts[-1] - schedule[0]
        assert 9_000_000 <= elapsed <= 11_000_000

    def test_slow_emit_reflects_actual_rate(self):
        # Schedule at 10 us gaps but each emit burns ~200 us: the
        # timestamps must reflect the slower reality.
        def slow_emit(i):
            t = time.monotonic_ns()
            while time.monotonic_ns() - t < 200_000:
                pass
            return time.monotonic_ns()

        start = time.monotonic_ns() + 50_000
        schedule = [start + i * 10_000 for i in range(5)]
        ts = pace_send(schedule, slow_emit, SPIN)
        gaps = [b - a for a, b in zip(ts, ts[1:])]
        assert all(g >= 200_000 for g in gaps)
        assert all(t >= d for t, d in zip(ts, schedule))

    def test_late_start_keeps_the_spacing(self):
        # A first instant 1 ms past moves the whole train: packet i leaves
        # no sooner than i gaps after the call, not back to back with
        # packet 0. A host pause only makes the stamps later.
        start = time.monotonic_ns() - 1_000_000
        schedule = [start + i * 100_000 for i in range(5)]
        before = time.monotonic_ns()
        ts = pace_send(schedule, lambda i: time.monotonic_ns(), SPIN)
        assert all(t >= before + i * 100_000 for i, t in enumerate(ts))

    def test_emit_failure_propagates(self):
        def bad_emit(i):
            if i == 2:
                raise OSError("backend rejected datagram")
            return time.monotonic_ns()

        start = time.monotonic_ns() + 10_000
        with pytest.raises(OSError):
            pace_send([start + i * 1_000 for i in range(5)], bad_emit, SPIN)

    def test_rejects_non_increasing_schedule(self):
        with pytest.raises(ValueError):
            pace_send([100, 100], lambda i: 0, SPIN)
        with pytest.raises(ValueError):
            pace_send([200, 100], lambda i: 0, SPIN)
