"""Roles over loopback, statistics, APC, and the experiment sets."""

from __future__ import annotations

import inspect
import math
import struct
import sys
import threading
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import stats_oracle
from traincap import pacing, session, simnet, transport, wire
from traincap.pacing import HYBRID, PURE_SPIN, PacerConfig
from traincap.session import (
    SessionParams,
    aggregate_stats,
    apc_report,
    run_experiment,
    run_loopback_session,
    run_receiver,
    run_reflector,
    run_sender,
)
from traincap.train import (
    TrainRecord,
    TrainSpec,
    TrainStatus,
    build_schedule,
    estimate_receive_rate,
    estimate_send_rate,
    validate_train,
)
from traincap.transport import (
    OS_DATAGRAM,
    BackendDescriptor,
    TransportError,
    UdpEndpoint,
    loopback_pair,
)
from traincap.wire import (
    HEADER_SIZE,
    FrameGeometry,
    NtpTimestamp,
    ProbePacket,
    decode_probe,
    encode_probe,
    ntp_to_ns,
)
import random


def quick_params(**kw):
    defaults = dict(
        n_trains=3,
        n_packets=50,
        desired_rate=100_000_000,
        geometry=FrameGeometry(1514),
        inter_train_gap_ns=5_000_000,
        pacer=PacerConfig(mode=PURE_SPIN),
    )
    defaults.update(kw)
    return SessionParams(**defaults)


class TestSessionParams:
    def test_expected_duration_covers_sender_plan(self):
        # run_sender schedules each train the warm-up lead ahead, spans
        # (N-1) gaps, then sleeps the inter-train gap.
        cases = [
            dict(n_trains=500, n_packets=50, desired_rate=10e9, inter_train_gap_ns=500_000),
            dict(n_trains=10, n_packets=50, desired_rate=1e8, inter_train_gap_ns=10_000_000),
            dict(n_trains=3, n_packets=2, desired_rate=1e6, inter_train_gap_ns=1),
            dict(n_trains=1, n_packets=1000, desired_rate=1e9, inter_train_gap_ns=1),
        ]
        for kw in cases:
            params = SessionParams(**kw)
            gap = build_schedule(params.train_spec(0), 0).gap
            plan = params.n_trains * (
                session._WARM_UP_LEAD_NS
                + (params.n_packets - 1) * gap
                + params.inter_train_gap_ns
            )
            assert params.expected_duration_ns() >= plan


class TestAggregateStats:
    def test_constant_vector(self):
        s = aggregate_stats([10, 10, 10])
        assert (s.min, s.max, s.mean, s.std, s.rel_std_pct) == (10, 10, 10, 0, 0)

    def test_two_four(self):
        s = aggregate_stats([2, 4])
        assert s.mean == 3
        assert abs(s.std - math.sqrt(2)) < 1e-12
        assert abs(s.rel_std_pct - 47.14) < 0.01

    def test_single_value(self):
        s = aggregate_stats([7.5])
        assert s.std == 0.0 and s.rel_std_pct == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_stats([])

    def test_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(50):
            values = [rng.uniform(1e8, 1e10) for _ in range(rng.randint(2, 40))]
            s = aggregate_stats(values)
            mn, mx, mean, std, rel = stats_oracle(values)
            assert s.min == mn and s.max == mx
            assert math.isclose(s.mean, mean, rel_tol=1e-12)
            assert math.isclose(s.std, std, rel_tol=1e-9) or abs(s.std - std) < 1e-6
            assert math.isclose(s.rel_std_pct, rel, rel_tol=1e-9)

    def test_rel_std_undefined_for_nonpositive_mean(self):
        assert aggregate_stats([-1.0, 1.0]).rel_std_pct is None


class TestApcReport:
    def _rec(self, rates_gap_ns, train_id=0):
        spec = TrainSpec(50, FrameGeometry(1514), 1e9, train_id=train_id)
        return TrainRecord(
            train_id, spec,
            recv_ts=[float(i * rates_gap_ns) for i in range(50)],
            received_seqs=list(range(50)),
            status=TrainStatus.COMPLETE,
        )

    def test_median_of_three(self):
        # spacings chosen so receive rates are 9.86/9.87/9.88 Gbps
        recs = [self._rec(12144e9 / r, i) for i, r in enumerate((9.86e9, 9.87e9, 9.88e9))]
        report = apc_report(recs)
        assert len(report.rates) == 3
        assert math.isclose(report.apc_estimate, 9.87e9, rel_tol=1e-9)
        assert min(report.rates) <= report.apc_estimate <= max(report.rates)

    def test_lossy_excluded(self):
        good = self._rec(1000.0)
        bad = self._rec(1000.0, train_id=1)
        bad.status = TrainStatus.LOSSY
        report = apc_report([good, bad])
        assert len(report.rates) == 1

    def test_no_valid_trains(self):
        bad = self._rec(1000.0)
        bad.status = TrainStatus.LOSSY
        report = apc_report([bad])
        assert report.rates == []
        assert report.apc_estimate is None

    def test_zero_duration_marked(self):
        # validate_train gives the verdict; apc_report only reads it.
        spec = TrainSpec(50, FrameGeometry(1514), 1e9)
        flat = validate_train([(i, 500) for i in range(50)], spec)
        good = self._rec(1000.0, train_id=1)
        lossy = validate_train([(i, i * 1000) for i in range(49)], spec)
        records = [flat, good, lossy]
        before = [rec.status for rec in records]
        report = apc_report(records)
        assert before == [TrainStatus.ZERO_DURATION, TrainStatus.COMPLETE, TrainStatus.LOSSY]
        assert [rec.status for rec in records] == before
        assert len(report.rates) == 1
        assert report.rates == [estimate_receive_rate(good)]
        assert apc_report([flat]).apc_estimate is None


class TestLoopbackSession:
    def test_end_to_end_rates(self):
        params = quick_params()
        sent, received, report = run_loopback_session(params)
        assert len(sent) == 3
        complete = [r for r in received if r.status is TrainStatus.COMPLETE]
        assert len(complete) >= 2
        assert report.apc_estimate is not None
        for rate in report.rates:
            assert abs(rate - 1e8) / 1e8 < 0.05
        for rec in sent:
            assert abs(estimate_send_rate(rec) - 1e8) / 1e8 < 0.05

    def test_paired_run_keeps_the_switch_interval(self):
        # run_paired changes no interpreter-wide state: the receiver
        # thread runs under the caller's switch interval.
        seen = []
        a, b = loopback_pair(1472)
        recv_from = b.recv_from

        def recording_recv_from(deadline):
            seen.append(sys.getswitchinterval())
            return recv_from(deadline)

        b.recv_from = recording_recv_from
        caller = sys.getswitchinterval()
        _, received, _ = session.run_paired(quick_params(n_trains=2, n_packets=5), a, b)
        assert len(received) == 2
        assert seen and set(seen) == {caller}
        assert sys.getswitchinterval() == caller

    @staticmethod
    def _failing_receiver():
        a, b = loopback_pair(1472)

        def recv_from(deadline):
            raise OSError("receiver endpoint failed")

        b.recv_from = recv_from
        return a, b

    def test_paired_run_raises_the_receivers_exception(self):
        a, b = self._failing_receiver()
        with pytest.raises(OSError, match="receiver endpoint failed"):
            session.run_paired(quick_params(n_trains=1, n_packets=5), a, b)

    def test_paired_run_prefers_the_senders_exception(self):
        a, b = self._failing_receiver()

        def warm_up():
            raise RuntimeError("sender failed")

        a.warm_up = warm_up
        with pytest.raises(RuntimeError, match="sender failed"):
            session.run_paired(quick_params(n_trains=1, n_packets=5), a, b)

    def test_single_two_packet_train(self):
        params = quick_params(n_trains=1, n_packets=2)
        sent, received, report = run_loopback_session(params)
        assert sent[0].status is TrainStatus.COMPLETE
        assert len(sent[0].send_ts) == 2
        gap = sent[0].send_ts[1] - sent[0].send_ts[0]
        assert estimate_send_rate(sent[0]) == 12144 * 10**9 / gap

    def test_train_too_long_for_wire_fails_at_once(self):
        # train_len is 16 bits: the params are refused before any thread
        # starts, not after the receiver's overall timeout.
        threads = threading.active_count()
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="16-bit train_len"):
            run_loopback_session(quick_params(n_trains=1, n_packets=1 << 16))
        assert time.monotonic() - t0 < 0.5
        assert threading.active_count() == threads
        assert quick_params(n_packets=(1 << 16) - 1).n_packets == 65535


class TestSenderFailure:
    class FlakyEndpoint:
        def __init__(self, fail_after, error):
            self.fail_after = fail_after
            self.error = error
            self.count = 0

        def send_stamped(self, payload, ts):
            self.count += 1
            if self.count > self.fail_after:
                raise self.error("backend rejected datagram")

        def warm_up(self):
            pass

    def test_remaining_trains_marked_failed(self):
        # Whether the hook raises a TransportError or a bare OSError.
        params = quick_params(n_trains=3, n_packets=5, desired_rate=1e9)
        for error in (TransportError, OSError):
            endpoint = self.FlakyEndpoint(fail_after=7, error=error)  # dies during train 1
            records = run_sender(params, endpoint)
            assert [r.status for r in records] == [
                TrainStatus.COMPLETE,
                TrainStatus.FAILED,
                TrainStatus.FAILED,
            ]


class TestWarmUp:
    """run_sender warms the endpoint's send path once before each train."""

    class Recorder:
        """Records each warm-up and probe send in order, with its clock reading."""

        def __init__(self):
            self.calls = []

        def send_stamped(self, payload, ts):
            seq, train_id, _ = wire.peek_train_fields(payload)
            self.calls.append(((train_id, seq), ts))

        def warm_up(self):
            self.calls.append(("warm_up", time.monotonic_ns()))

    @staticmethod
    def _record_schedules(monkeypatch):
        """The schedules run_sender builds, one per train, in order."""
        schedules = []

        def schedule(spec, start):
            schedules.append(build_schedule(spec, start))
            return schedules[-1]

        monkeypatch.setattr(session, "build_schedule", schedule)
        return schedules

    def test_once_per_train_before_its_first_probe(self, monkeypatch):
        params = quick_params(n_trains=3, n_packets=5, desired_rate=1e9,
                              inter_train_gap_ns=1_000_000)
        schedules = self._record_schedules(monkeypatch)
        ep = self.Recorder()
        records = run_sender(params, ep)
        assert all(r.status is TrainStatus.COMPLETE for r in records)
        assert [call for call, _ in ep.calls] == [
            call
            for train_id in range(params.n_trains)
            for call in ["warm_up", *((train_id, seq) for seq in range(params.n_packets))]
        ]
        warm_ups = [ts for call, ts in ep.calls if call == "warm_up"]
        for sched, warm, rec in zip(schedules, warm_ups, records):
            assert warm >= sched.start - session._WARM_UP_LEAD_NS
            assert warm <= rec.send_ts[0]

    def test_slow_warm_up_leaves_the_first_packet_on_time(self, monkeypatch):
        # A warm-up twice as slow as a cold localhost sendto (100 us) still
        # ends inside the lead, so packet 0 leaves at its deadline and the
        # span keeps its length. The median over five trains rides out a
        # host pause in one of them.
        class Slow(self.Recorder):
            def warm_up(self):
                end = time.monotonic_ns() + 100_000
                while time.monotonic_ns() < end:
                    pass

        params = quick_params(n_trains=5, n_packets=5, inter_train_gap_ns=1_000_000)
        schedules = self._record_schedules(monkeypatch)
        records = run_sender(params, Slow())
        late = sorted(rec.send_ts[0] - sched.start for rec, sched in zip(records, schedules))
        assert late[2] < 50_000

    def test_udp_receiver_gets_probes_only(self):
        params = quick_params(n_trains=3, n_packets=20, desired_rate=1e9,
                              inter_train_gap_ns=1_000_000)
        tx, rx = TestInBandStamps._udp_pair()
        try:
            records = run_sender(params, tx)
            got = []
            while (item := rx.recv_from(time.monotonic_ns() + 50_000_000)) is not None:
                got.append(item[0])
            assert tx.recv_from(time.monotonic_ns()) is None
        finally:
            tx.close()
            rx.close()
        assert all(r.status is TrainStatus.COMPLETE for r in records)
        assert len(got) == params.n_trains * params.n_packets
        assert all(len(p) == params.geometry.payload_size for p in got)
        assert sorted((p.train_id, p.seq) for p in map(decode_probe, got)) == [
            (t, s) for t in range(params.n_trains) for s in range(params.n_packets)
        ]

    def test_failed_warm_up_leaves_the_train_to_run(self):
        def refuse():
            raise OSError("warm-up refused")

        a, b = loopback_pair(1472)
        a.warm_up = refuse
        params = quick_params(n_trains=2, n_packets=5, desired_rate=1e9,
                              inter_train_gap_ns=1_000_000)
        records = run_sender(params, a)
        assert [r.status for r in records] == [TrainStatus.COMPLETE] * 2
        received = 0
        while b.recv_from(time.monotonic_ns()) is not None:
            received += 1
        assert received == 10

    def test_socket_fault_is_reported_by_the_probe_send(self):
        # A closed socket fails the warm-up and the first probe alike; the
        # probe's send marks the trains failed.
        tx, rx = TestInBandStamps._udp_pair()
        tx.close()
        rx.close()
        records = run_sender(quick_params(n_trains=2, n_packets=5), tx)
        assert [r.status for r in records] == [TrainStatus.FAILED] * 2


class TestFirstDeadlineApproach:
    @pytest.mark.parametrize("mode", [HYBRID, PURE_SPIN])
    def test_sender_never_sleeps_into_the_spin_window(self, monkeypatch, mode):
        """In either pacer mode, each train goes from the clock reading its
        schedule starts from, through the warm-up, to packet 0 without a
        sleep that could overrun the first deadline, and packet 0 never
        leaves before its instant. The one sleep per train is the
        inter-train gap, so the sleep counter is live."""
        params = quick_params(n_trains=2, n_packets=10, desired_rate=1e9,
                              inter_train_gap_ns=1_000_000, pacer=PacerConfig(mode=mode))
        events, schedules = [], []
        real_sleep = time.sleep

        def sleep(seconds):
            events.append("sleep")
            real_sleep(seconds)

        def schedule(spec, start):
            events.append("schedule")
            schedules.append(build_schedule(spec, start))
            return schedules[-1]

        a, b = loopback_pair(params.geometry.payload_size)

        def recording_send(payload, ts):
            # Not forwarded: the loopback hook's own yield would record a sleep.
            events.append(("send", wire.peek_train_fields(payload)[0]))

        a.warm_up = lambda: events.append("warm_up")
        a.send_stamped = recording_send
        monkeypatch.setattr(time, "sleep", sleep)
        monkeypatch.setattr(session, "build_schedule", schedule)
        try:
            records = run_sender(params, a)
        finally:
            a.close()
            b.close()
        assert all(r.status is TrainStatus.COMPLETE for r in records)
        packets = [("send", seq) for seq in range(params.n_packets)]
        assert events == [
            "schedule", "warm_up", *packets, "sleep",
            "schedule", "warm_up", *packets,
        ]
        for sched, rec in zip(schedules, records):
            assert rec.send_ts[0] >= sched.start

    def test_hybrid_sender_never_sleeps_between_warm_up_and_first_packet(self, monkeypatch):
        # The hybrid spin window is at least the warm-up lead, so pace_send's
        # wait for packet 0 only spins: a sleep there could overrun the
        # first deadline after the send path was warmed.
        assert pacing._SPIN_WINDOW_NS >= session._WARM_UP_LEAD_NS
        params = quick_params(n_trains=2, n_packets=10, desired_rate=1e9,
                              inter_train_gap_ns=1_000_000, pacer=PacerConfig(mode=HYBRID))
        events = []
        real_sleep = time.sleep

        def sleep(seconds):
            events.append("sleep")
            real_sleep(seconds)

        a, b = loopback_pair(params.geometry.payload_size)

        def recording_send(payload, ts):
            # Not forwarded: the loopback hook's own yield would record a sleep.
            events.append(("send", wire.peek_train_fields(payload)[0]))

        a.warm_up = lambda: events.append("warm_up")
        a.send_stamped = recording_send
        monkeypatch.setattr(time, "sleep", sleep)
        try:
            records = run_sender(params, a)
        finally:
            a.close()
            b.close()
        assert all(r.status is TrainStatus.COMPLETE for r in records)
        warms = [i for i, e in enumerate(events) if e == "warm_up"]
        assert len(warms) == params.n_trains
        for warm in warms:
            assert events[warm + 1] == ("send", 0)
        # The sleep counter is live: the inter-train gap sleeps, and it
        # comes before the second train's warm-up.
        assert "sleep" in events[warms[0]:warms[1]]


class TestInBandStamps:
    """Every sent and reflected probe carries its recorded stamp in send_ts."""

    @staticmethod
    def _udp_pair():
        rx = UdpEndpoint(
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=1472, local=("127.0.0.1", 0))
        )
        tx = UdpEndpoint(
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=1472, remote=rx.local_address)
        )
        return tx, rx

    @staticmethod
    def _drain(ep, n):
        payloads = []
        for _ in range(n):
            got = ep.recv_from(time.monotonic_ns() + 1_000_000_000)
            assert got is not None
            payloads.append(got[0])
        return payloads

    def _check_sender(self, tx, rx):
        params = quick_params(n_trains=2, n_packets=20, desired_rate=1e9,
                              inter_train_gap_ns=1_000_000)
        records = run_sender(params, tx)
        probes = [decode_probe(p) for p in self._drain(rx, params.n_trains * params.n_packets)]
        for rec in records:
            assert rec.status is TrainStatus.COMPLETE
            got = [p for p in probes if p.train_id == rec.train_id]
            assert [p.seq for p in got] == list(range(params.n_packets))
            for p, ts in zip(got, rec.send_ts):
                assert abs(ntp_to_ns(p.send_ts) - ts) <= 1

    def _check_reflector(self, tx, rx):
        params = quick_params(n_trains=1, n_packets=20)
        sent = []
        for seq in range(params.n_packets):
            buf = bytearray(encode_probe(ProbePacket(seq=seq, send_ts=NtpTimestamp(0, 0),
                                                     train_id=0, train_len=params.n_packets), 1472))
            buf[HEADER_SIZE:] = bytes([seq + 1]) * (1472 - HEADER_SIZE)
            tx.send(buf)
            sent.append(buf)
        (entry,) = run_reflector(params, rx, overall_timeout_ns=2_000_000_000)
        assert not entry.partial
        back = self._drain(tx, params.n_packets)
        probes = [decode_probe(p) for p in back]
        assert [p.seq for p in probes] == list(range(params.n_packets))
        for p, ts in zip(probes, entry.egress_ts):
            assert abs(ntp_to_ns(p.send_ts) - ts) <= 1
        # Each packet goes back in a buffer of its own: apart from send_ts
        # (bytes 4-11), its bytes are the ones sent, not those of a later
        # datagram received into a shared buffer.
        for got, want in zip(back, sent):
            assert got[:4] == want[:4] and got[12:] == want[12:]

    def test_sender_loopback(self):
        self._check_sender(*loopback_pair(1472))

    def test_sender_udp(self):
        tx, rx = self._udp_pair()
        try:
            self._check_sender(tx, rx)
        finally:
            tx.close()
            rx.close()

    def test_reflector_loopback(self):
        self._check_reflector(*loopback_pair(1472))

    def test_reflector_udp(self):
        tx, rx = self._udp_pair()
        try:
            self._check_reflector(tx, rx)
        finally:
            tx.close()
            rx.close()

    def test_sender_stamps_stay_exact_ints_past_2_to_53_ns(self, monkeypatch):
        # Past 2^53 ns (104 days of uptime) a float drops the last
        # nanosecond, so the records keep the int stamps the probes carry.
        real = time.monotonic_ns
        offset = (1 << 53) + 1 - real()
        monkeypatch.setattr(time, "monotonic_ns", lambda: real() + offset)
        a, b = loopback_pair(1472)
        params = quick_params(n_trains=1, n_packets=20, desired_rate=1e9)
        (record,) = run_sender(params, a)
        carried = [b.recv_from(time.monotonic_ns() + 1_000_000_000)[1] for _ in range(20)]
        assert record.send_ts == carried
        assert all(type(t) is int and t > 1 << 53 for t in record.send_ts)


class TestSendPathBuildsNoObjects:
    def test_counts_do_not_grow_with_train_length(self, monkeypatch):
        counts = {"ns_to_ntp": 0, "SlackReport": 0, "pack_send_ts": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(wire, "ns_to_ntp", counting("ns_to_ntp", wire.ns_to_ntp))
        monkeypatch.setattr(pacing, "SlackReport", counting("SlackReport", pacing.SlackReport))
        monkeypatch.setattr(wire, "_SEND_TS", types.SimpleNamespace(
            pack_into=counting("pack_send_ts", wire._SEND_TS.pack_into)))
        seen = []
        for n_packets in (2, 40):
            counts.update(dict.fromkeys(counts, 0))
            a, _ = loopback_pair(1472)
            params = quick_params(n_trains=2, n_packets=n_packets, desired_rate=1e9,
                                  inter_train_gap_ns=1_000_000)
            assert all(r.status is TrainStatus.COMPLETE for r in run_sender(params, a))
            seen.append(dict(counts))
        # The counters are live: every probe's stamp is packed with
        # `wire`'s send_ts layout, and a wait builds its report through
        # `pacing`.
        assert [c.pop("pack_send_ts") for c in seen] == [2 * 2, 2 * 40]
        pacing.wait_until(0)
        assert counts["SlackReport"] == seen[1]["SlackReport"] + 1
        assert seen[0] == seen[1]


class TestReceiveClockReads:
    def test_one_clock_read_per_datagram(self, monkeypatch):
        reads = []

        def monotonic_ns():
            reads.append(1)
            return time.monotonic_ns()

        clock = types.SimpleNamespace(monotonic_ns=monotonic_ns, sleep=time.sleep)
        params = quick_params(n_trains=1, n_packets=30)
        tx, rx = TestInBandStamps._udp_pair()
        try:
            for seq in range(params.n_packets):
                tx.send(TestReceiverEdgeCases._probe(seq, 0, params.n_packets))
            time.sleep(0.01)  # every datagram queued before the first receive
            monkeypatch.setattr(transport, "time", clock)
            monkeypatch.setattr(session, "time", clock)
            records, _ = run_receiver(params, rx, overall_timeout_ns=2_000_000_000)
        finally:
            tx.close()
            rx.close()
        assert [r.status for r in records] == [TrainStatus.COMPLETE]
        assert len(reads) <= params.n_packets + 2


class TestOverallDeadlineUnderFlood:
    """A role whose queue never empties still ends at its overall deadline."""

    class Flood:
        """Delivers a non-probe datagram, stamped now, on every receive for 5 s.

        A flooding thread cannot stand in for it: it shares the interpreter
        with the role, and the role drains its queue between turns.
        """

        def __init__(self):
            self.until = time.monotonic_ns() + 5_000_000_000

        def recv_from(self, deadline):
            now = time.monotonic_ns()
            return None if now >= self.until else (bytearray(10), now, None)

        def stamped_sender(self, dest):
            raise AssertionError("a flood holds no train to reflect")

        def warm_up(self):
            pass

    @pytest.mark.parametrize(
        "role",
        [
            lambda params, ep, t: run_receiver(params, ep, overall_timeout_ns=t)[0],
            lambda params, ep, t: run_reflector(params, ep, overall_timeout_ns=t),
        ],
        ids=["receiver", "reflector"],
    )
    def test_returns_empty_handed(self, role):
        flood = self.Flood()
        assert role(quick_params(), flood, 200_000_000) == []
        # Returned while the flood was still on. Not a tight timing bound:
        # the host pauses for milliseconds.
        assert time.monotonic_ns() < flood.until


class TestLateDatagrams:
    """A late datagram of a train already yielded opens no phantom train; a
    duplicate, a datagram that cannot be this session's probe or one from
    another address ends no train early; an id outside the session opens
    none; and the idle deadline is exact.

    A scripted endpoint replays probes with synthetic receive stamps, and
    a None in the script is an idle timeout (nothing arrived before the
    deadline), so no case waits on the wall clock. Every train has 10
    packets and the roles stop after two trains unless a case says so.
    """

    MAIN, OTHER = ("192.0.2.1", 9), ("192.0.2.2", 9)

    class Script:
        def __init__(self, items):
            self.items = list(items)
            self.sent = []
            self.dests = []
            self.deadlines = []

        def recv_from(self, deadline):
            if not self.items:
                raise AssertionError("the role read past the script")
            self.deadlines.append(deadline)
            return self.items.pop(0)

        def stamped_sender(self, dest):
            def send_stamped(payload, ts):
                self.sent.append(wire.peek_train_fields(payload))
                self.dests.append(dest)

            return send_stamped

        def warm_up(self):
            pass

    @staticmethod
    def _script(*parts, t=None):
        """Datagrams of ``(train_id, seqs[, payload_size])`` parts, 12 us
        apart from ``t`` (default now), each announcing 10 packets. None
        passes through, an int is the next datagram's stamp, and an
        address is the source of the datagrams that follow (default
        MAIN). The header is packed as given, so a seq may be out of
        range."""
        t = time.monotonic_ns() if t is None else t
        source = TestLateDatagrams.MAIN
        items = []
        for part in parts:
            if part is None:
                items.append(None)
                continue
            if isinstance(part, int):
                t = part
                continue
            if isinstance(part[0], str):
                source = part
                continue
            train_id, seqs, *size = part
            for seq in seqs:
                payload = bytearray(size[0] if size else 1472)
                struct.pack_into(wire.HEADER_FORMAT, payload, 0, seq, 0, 0, 0, train_id, 10)
                items.append((payload, t, source))
                t += 12_000
        return items

    def _receive(self, *parts):
        records, _ = run_receiver(quick_params(n_trains=2, n_packets=10),
                                  self.Script(self._script(*parts)))
        return [(r.train_id, r.status) for r in records]

    def _reflect(self, *parts):
        script = self.Script(self._script(*parts))
        log = run_reflector(quick_params(n_trains=2, n_packets=10), script)
        return [(e.train_id, e.partial, len(e.egress_ts)) for e in log], script.dests

    def test_receiver_late_tail_after_idle_flush(self):
        got = self._receive((0, range(5)), None, (0, range(5, 10)), (1, range(10)))
        assert got == [(0, TrainStatus.LOSSY), (1, TrainStatus.COMPLETE)]

    def test_receiver_duplicated_seq(self):
        # The duplicate does not count towards the 10 distinct seqs, so
        # train 0 waits for seq 9 and holds every seq, one of them twice.
        got = self._receive((0, [0, 1, 2, 3, 4, 4, 5, 6, 7, 8, 9]), (1, range(10)))
        assert got == [(0, TrainStatus.REORDERED), (1, TrainStatus.COMPLETE)]

    def test_reflector_duplicated_seq_with_loss(self):
        # Ten datagrams but nine distinct seqs: train 0 is not whole.
        log = run_reflector(
            quick_params(n_trains=2, n_packets=10),
            self.Script(self._script((0, [0, 1, 2, 3, 4, 4, 5, 6, 7, 8]), (1, range(10)))),
        )
        assert [(e.train_id, e.partial, len(e.egress_ts)) for e in log] == [
            (0, True, 10),
            (1, False, 10),
        ]

    @pytest.mark.parametrize("parts", [
        # 200-byte frames (158-byte payloads) in a 1514-byte session
        [(1, range(10), 158), (0, range(10)), (1, range(10))],
        # seq 12 in a 10-packet train
        [(0, [0, 1, 2, 3, 4, 12, 5, 6, 7, 8, 9]), (1, range(10))],
    ], ids=["wrong-length", "seq-out-of-range"])
    def test_receiver_drops_datagrams_that_are_not_session_probes(self, parts):
        assert self._receive(*parts) == [(0, TrainStatus.COMPLETE), (1, TrainStatus.COMPLETE)]

    def test_stray_source_neither_joins_nor_ends_a_train(self):
        # Inside train 0, another address sends a seq of train 0 and the
        # first seqs of train 1. Train 0 still gets exactly its own ten
        # datagrams, and train 1 opens only with MAIN's own first datagram.
        parts = ((0, range(5)), self.OTHER, (0, [5]), (1, [0, 1]),
                 self.MAIN, (0, range(5, 10)), (1, range(10)))
        assert self._receive(*parts) == [(0, TrainStatus.COMPLETE), (1, TrainStatus.COMPLETE)]
        assert self._reflect(*parts) == ([(0, False, 10), (1, False, 10)], [self.MAIN] * 20)

    def test_train_id_outside_the_session_takes_no_record(self):
        # A whole stray train with id 7 in a two-train session opens nothing.
        parts = ((7, range(10)), (0, range(10)), (1, range(10)))
        assert self._receive(*parts) == [(0, TrainStatus.COMPLETE), (1, TrainStatus.COMPLETE)]
        assert self._reflect(*parts)[0] == [(0, False, 10), (1, False, 10)]

    def test_idle_deadline_is_exact(self, monkeypatch):
        # A fixed clock: the role reads it only at the start and after a None.
        t0 = 10**12
        monkeypatch.setattr(session, "time", types.SimpleNamespace(monotonic_ns=lambda: t0))
        overall, idle = t0 + 50_000_000, 10_000_000
        items = self._script(
            (0, range(5)), None, (1, range(10)),
            overall - 4_000_000, (2, range(3)), overall, (2, [3]),
            t=t0,
        )
        stamps = [item[1] for item in items if item is not None]
        script = self.Script(items)
        records, _ = run_receiver(quick_params(n_trains=3, n_packets=10), script,
                                  overall_timeout_ns=overall - t0)
        assert [(r.train_id, r.status) for r in records] == [
            (0, TrainStatus.LOSSY), (1, TrainStatus.COMPLETE), (2, TrainStatus.LOSSY),
        ]
        # Within an open train: min(overall, stamp + idle). After a train
        # ends, by idle timeout or by being whole: the overall deadline.
        assert script.deadlines == [
            overall, *(t + idle for t in stamps[0:5]),
            overall, *(t + idle for t in stamps[5:14]),
            overall, overall, overall, overall,
        ]

    def test_reflector_late_tail(self):
        script = self.Script(
            self._script((0, range(5)), None, (0, range(5, 10)), (1, range(10)))
        )
        log = run_reflector(quick_params(n_trains=2, n_packets=10), script)
        assert [(e.train_id, e.partial, len(e.egress_ts)) for e in log] == [
            (0, True, 5),
            (1, False, 10),
        ]
        assert [(train_id, seq) for seq, train_id, _ in script.sent] == [
            *((0, seq) for seq in range(5)),
            *((1, seq) for seq in range(10)),
        ]


class TestTrainAssemblyProperties:
    """``_trains`` as a state machine in virtual time, through both roles.

    Hypothesis builds sessions of 4-packet trains with lost, duplicated
    and delayed datagrams (a delayed one can arrive after its train ended:
    a late tail), strays that cannot be this session's probes, probes
    from a second address (with a running train_id or a new one), empty
    waits (None), and gaps between arrivals that include the idle
    timeout exactly and 1 ns either side of it. No case waits on the
    wall clock.
    """

    TRAIN_LEN = 4
    IDLE = SessionParams.idle_timeout_ns
    GAPS = (1, 12_000, IDLE - 1, IDLE, IDLE + 1, 3 * IDLE)

    class VirtualPath(TestLateDatagrams.Script):
        """Replays ``(payload, gap, source)`` items in virtual time.

        A datagram arrives ``gap`` ns after the previous event and is
        delivered if it arrives before the role's deadline; otherwise the
        wait ends empty at the deadline and the datagram stays queued. A
        None item is a wait that ends empty. ``events`` logs each
        delivery as ``(payload, stamp, source)`` and each empty wait as
        ``(None, deadline, None)``. The role's clock reads the virtual
        time, and every delivered stamp is distinct. ``pace_send``'s
        clock reads 1 us further on at each read, so a burst leaves after
        every arrival so far and takes 1 us per probe.
        """

        def __init__(self, items):
            super().__init__(items)
            self.now = 10**12
            self.arrival = None  # of the next datagram, once it is looked at
            self.events = []
            self.reflected = []
            self.tx_ticks = 0

        def monotonic_ns(self):
            return self.now

        def tx_clock(self):
            self.tx_ticks += 1_000
            return self.now + self.tx_ticks

        def recv_from(self, deadline):
            self.deadlines.append(deadline)
            if self.items and self.items[0] is not None:
                payload, gap, source = self.items[0]
                if self.arrival is None:
                    self.arrival = self.now + gap
                if self.arrival < deadline:
                    self.items.pop(0)
                    self.now, self.arrival = self.arrival, None
                    self.events.append((payload, self.now, source))
                    return payload, self.now, source
            elif self.items:
                self.items.pop(0)
            self.now = deadline
            self.events.append((None, deadline, None))
            return None

        def stamped_sender(self, dest):
            send = super().stamped_sender(dest)

            def send_stamped(payload, ts):
                self.reflected.append(payload)
                send(payload, ts)

            return send_stamped

    @staticmethod
    @st.composite
    def sessions(draw):
        """``(kind, train_id, seq, gap)`` per item; kind None is an empty wait."""
        n = TestTrainAssemblyProperties.TRAIN_LEN
        sent = [
            ("probe", train_id, seq)
            for train_id in range(draw(st.integers(1, 4)))
            for seq in range(n)
            for _ in range(draw(st.sampled_from((1, 1, 1, 1, 0, 2))))  # kept, lost, duplicated
        ]
        for _ in range(draw(st.integers(0, 3))):  # delayed datagrams
            if sent:
                i = draw(st.integers(0, len(sent) - 1))
                sent.insert(draw(st.integers(i, len(sent) - 1)), sent.pop(i))
        strays = st.one_of(
            st.tuples(st.just("short"), st.integers(0, 4), st.integers(0, n - 1)),
            st.tuples(st.just("probe"), st.integers(0, 4), st.integers(n, 2 * n)),
            # From the second address: ids 0-3 may be running, 4 is always new.
            st.tuples(st.just("other"), st.integers(0, 4), st.integers(0, n - 1)),
        )
        extras = draw(st.lists(strays, max_size=4)) + [(None, 0, 0)] * draw(st.integers(0, 1))
        for extra in extras:
            sent.insert(draw(st.integers(0, len(sent))), extra)
        # Mostly 12 us, so that many trains end whole.
        gaps = st.sampled_from((12_000,) * 9 + TestTrainAssemblyProperties.GAPS)
        return [(*item, draw(gaps)) for item in sent]

    def _path(self, session_items):
        items = []
        for kind, train_id, seq, gap in session_items:
            if kind is None:
                items.append(None)
                continue
            payload = bytearray(158 if kind == "short" else 1472)
            struct.pack_into(wire.HEADER_FORMAT, payload, 0, seq, 0, 0, 0, train_id, self.TRAIN_LEN)
            source = TestLateDatagrams.OTHER if kind == "other" else TestLateDatagrams.MAIN
            items.append((payload, gap, source))
        return self.VirtualPath(items)

    def _run(self, role, session_items):
        path = self._path(session_items)
        params = quick_params(n_trains=10, n_packets=self.TRAIN_LEN)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(session, "time", types.SimpleNamespace(monotonic_ns=path.monotonic_ns))
            mp.setattr(pacing, "time", types.SimpleNamespace(monotonic_ns=path.tx_clock))
            mp.setattr(pacing, "_wait", lambda deadline, cfg: pytest.fail("a burst waited"))
            result = role(params, path, overall_timeout_ns=10**12)
        probes = {  # stamp -> (train_id, seq, source) of each delivered datagram that can be a probe
            ts: (train_id, seq, source)
            for payload, ts, source in path.events
            if payload is not None and len(payload) == 1472
            for seq, train_id, train_len in [wire.peek_train_fields(payload)]
            if seq < train_len
        }
        return result, path, probes

    def _check_train(self, train_id, seqs, stamps, whole, probes):
        assert len(seqs) == len(stamps)
        assert all(probes[ts][:2] == (train_id, seq) for seq, ts in zip(seqs, stamps))
        # No stray: every datagram of a train comes from one source.
        assert len({probes[ts][2] for ts in stamps}) == 1
        # Whole iff it holds train_len distinct seqs, and then it ends with
        # the datagram that made it whole.
        assert whole == (len(set(seqs)) == self.TRAIN_LEN)
        if whole:
            assert len(set(seqs[:-1])) < self.TRAIN_LEN

    @staticmethod
    def _check_ends(trains, events, probes):
        """A train that is not whole ends at an empty wait or at the next
        train's first datagram, and that datagram is from its own source:
        a stray never ends it. Nothing between its last datagram and its
        end is a probe of it from its source, so it did not end early."""
        index = {ts: i for i, (payload, ts, _) in enumerate(events) if payload is not None}
        firsts = {index[stamps[0]] for _, stamps, _ in trains}
        for train_id, stamps, whole in trains:
            if whole:
                continue
            last = index[stamps[-1]]
            source = events[last][2]
            end = next(i for i in range(last + 1, len(events))
                       if events[i][0] is None or i in firsts)
            assert events[end][0] is None or events[end][2] == source
            for payload, ts, _ in events[last + 1:end]:
                got = probes.get(ts)
                assert got is None or (got[0], got[2]) != (train_id, source)

    @given(sessions())
    @settings(max_examples=300, deadline=None)
    def test_receiver_and_reflector(self, session_items):
        (records, _), rx_path, probes = self._run(run_receiver, session_items)
        log, path, reflected_probes = self._run(run_reflector, session_items)
        assert reflected_probes == probes

        # At most one record per train_id, and no datagram counted twice.
        assert len({r.train_id for r in records}) == len(records)
        stamps = [ts for r in records for ts in r.recv_ts]
        assert len(set(stamps)) == len(stamps)
        for r in records:
            whole = r.status is not TrainStatus.LOSSY
            self._check_train(r.train_id, r.received_seqs, r.recv_ts, whole, probes)
        self._check_ends([(r.train_id, r.recv_ts, r.status is not TrainStatus.LOSSY)
                          for r in records], rx_path.events, probes)

        assert len({e.train_id for e in log}) == len(log)
        assert len({id(p) for p in path.reflected}) == len(path.reflected)
        assert [ts for e in log for ts in e.ingress_ts] == [
            ts for p in path.reflected for q, ts, _ in path.events if q is p
        ]
        offset = 0
        for e in log:
            n = len(e.egress_ts)
            seqs = [seq for seq, _, _ in path.sent[offset:offset + n]]
            assert e.n_expected == self.TRAIN_LEN
            self._check_train(e.train_id, seqs, e.ingress_ts, not e.partial, probes)
            # Each probe goes back to its train's source, leaves after the
            # train's last arrival, and carries its egress stamp.
            assert path.dests[offset:offset + n] == [probes[e.ingress_ts[0]][2]] * n
            assert e.ingress_ts[-1] < e.egress_ts[0]
            assert all(a < b for a, b in zip(e.egress_ts, e.egress_ts[1:]))
            back = path.reflected[offset:offset + n]
            assert all(abs(ntp_to_ns(decode_probe(p).send_ts) - ts) <= 1
                       for p, ts in zip(back, e.egress_ts))
            offset += n
        self._check_ends([(e.train_id, e.ingress_ts, not e.partial) for e in log],
                         path.events, probes)

        # Both roles assemble the same trains from the same arrivals.
        assert [(r.train_id, r.recv_ts) for r in records] == [
            (e.train_id, e.ingress_ts) for e in log
        ]


class TestReceiverEdgeCases:
    @staticmethod
    def _probe(seq, train_id, train_len, payload_size=1472):
        return encode_probe(
            ProbePacket(seq=seq, send_ts=NtpTimestamp(0, 0), train_id=train_id,
                        train_len=train_len),
            payload_size,
        )

    def test_lossy_train_detected(self):
        a, b = loopback_pair(1472)
        params = quick_params(n_trains=1)

        def feed():
            for seq in range(50):
                if seq != 7:
                    a.send(self._probe(seq, 0, 50))

        t = threading.Thread(target=feed)
        t.start()
        records, report = run_receiver(params, b, overall_timeout_ns=2_000_000_000)
        t.join()
        assert len(records) == 1
        assert records[0].status is TrainStatus.LOSSY
        assert report.apc_estimate is None

    def test_garbage_ignored(self):
        a, b = loopback_pair(1472)
        params = quick_params(n_trains=1, n_packets=3)

        def feed():
            a.send(b"\x00" * 10)  # too short to be a probe
            for seq in range(3):
                a.send(self._probe(seq, 0, 3))

        t = threading.Thread(target=feed)
        t.start()
        records, report = run_receiver(params, b, overall_timeout_ns=2_000_000_000)
        t.join()
        assert len(records) == 1
        assert records[0].status is TrainStatus.COMPLETE

    def test_new_train_id_flushes_previous(self):
        a, b = loopback_pair(1472)
        params = quick_params(n_trains=2, n_packets=5)

        def feed():
            for seq in range(3):  # first train never completes
                a.send(self._probe(seq, 0, 5))
            for seq in range(5):
                a.send(self._probe(seq, 1, 5))

        t = threading.Thread(target=feed)
        t.start()
        records, _ = run_receiver(params, b, overall_timeout_ns=2_000_000_000)
        t.join()
        assert [r.train_id for r in records] == [0, 1]
        assert records[0].status is TrainStatus.LOSSY
        assert records[1].status is TrainStatus.COMPLETE


class TestReflector:
    def _send_train(self, ep, train_id, seqs, train_len=50):
        for seq in seqs:
            ep.send(
                encode_probe(
                    ProbePacket(seq=seq, send_ts=NtpTimestamp(0, 0),
                                train_id=train_id, train_len=train_len),
                    1472,
                )
            )

    def test_buffer_then_burst_ordering(self):
        a, b = loopback_pair(1472)
        params = quick_params(n_trains=1)
        result = {}

        def reflect():
            result["log"] = run_reflector(params, b, overall_timeout_ns=2_000_000_000)

        t = threading.Thread(target=reflect)
        t.start()
        self._send_train(a, 0, range(50))
        t.join()
        (entry,) = result["log"]
        assert not entry.partial
        assert len(entry.egress_ts) == 50
        assert min(entry.egress_ts) > max(entry.ingress_ts)
        # the reflected train comes back to the sender side
        got = [a.recv_from(time.monotonic_ns() + 100_000_000) for _ in range(50)]
        assert all(dg is not None for dg in got)

    @pytest.mark.parametrize("udp", [False, True], ids=["loopback", "udp"])
    def test_burst_never_waits(self, monkeypatch, udp):
        # Real clock: each train leaves in one back-to-back pace_send burst
        # that never enters the pacer's wait, with rising stamps, after
        # the train's last arrival, to the train's source.
        monkeypatch.setattr(pacing, "_wait", lambda deadline, cfg: pytest.fail("the burst waited"))
        tx, rx = TestInBandStamps._udp_pair() if udp else loopback_pair(1472)
        try:
            params = quick_params(n_trains=2, n_packets=20)
            for train_id in range(params.n_trains):
                self._send_train(tx, train_id, range(params.n_packets), train_len=params.n_packets)
            log = run_reflector(params, rx, overall_timeout_ns=2_000_000_000)
            assert [(e.train_id, e.partial) for e in log] == [(0, False), (1, False)]
            for e in log:
                assert all(a < b for a, b in zip(e.egress_ts, e.egress_ts[1:]))
                assert e.egress_ts[0] > e.ingress_ts[-1]
            back = TestInBandStamps._drain(tx, params.n_trains * params.n_packets)
            assert [decode_probe(p).seq for p in back] == [*range(20), *range(20)]
        finally:
            tx.close()
            rx.close()

    def test_partial_flushed_on_idle(self):
        a, b = loopback_pair(1472)
        params = quick_params(n_trains=1)
        result = {}

        def reflect():
            result["log"] = run_reflector(params, b, overall_timeout_ns=2_000_000_000)

        t = threading.Thread(target=reflect)
        t.start()
        self._send_train(a, 0, range(49))  # one packet short
        t.join()
        (entry,) = result["log"]
        assert entry.partial
        assert len(entry.egress_ts) == 49
        idle_ns = min(entry.egress_ts) - max(entry.ingress_ts)
        assert 10_000_000 <= idle_ns <= 14_000_000

    def test_interleaved_train_ids(self):
        a, b = loopback_pair(1472)
        params = quick_params(n_trains=2, n_packets=10)
        result = {}

        def reflect():
            result["log"] = run_reflector(params, b, overall_timeout_ns=2_000_000_000)

        t = threading.Thread(target=reflect)
        t.start()
        self._send_train(a, 0, range(4), train_len=10)
        self._send_train(a, 1, range(10), train_len=10)
        t.join()
        first, second = result["log"]
        assert first.train_id == 0 and first.partial
        assert second.train_id == 1 and not second.partial


class TestExperiments:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            run_experiment("frobnicate")

    @pytest.mark.parametrize("kwargs", [dict(n_trains=0), dict(repeats=0),
                                        dict(jitter=0.1, seed=None)])
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError):
            run_experiment("same-method", **kwargs)

    @pytest.mark.parametrize("kind, expected", [
        ("same-method", 4), ("sender-vs-reference", 4), ("receiver-vs-reference", 5), ("sweep", 16),
    ])
    def test_jitter_free_work_does_not_scale(self, monkeypatch, kind, expected):
        # Add up the trains the simulator's rates core runs, from the
        # count each call is given; the tables never need the trace core.
        counts = []
        ends = simnet._simulate_ends
        signature = inspect.signature(ends)

        def counting(*args, **kwargs):
            counts.append(signature.bind(*args, **kwargs).arguments["count"])
            return ends(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("a table ran the trace core")

        monkeypatch.setattr(simnet, "_simulate_ends", counting)
        monkeypatch.setattr(simnet, "_simulate", refuse)
        seen = []
        for size in (2, 10):
            counts.clear()
            run_experiment(kind, n_trains=size, repeats=size)
            seen.append(sum(counts))
        assert seen == [expected, expected]

    def test_reports_reproducible(self):
        a = run_experiment("same-method", presets=("stack",), repeats=2, n_trains=2)
        b = run_experiment("same-method", presets=("stack",), repeats=2, n_trains=2)
        assert a == b
        c = run_experiment("same-method", presets=("stack",), repeats=2, n_trains=2,
                           jitter=0.1, seed=42)
        d = run_experiment("same-method", presets=("stack",), repeats=2, n_trains=2,
                           jitter=0.1, seed=42)
        assert c == d
        assert c != a

    def test_same_method_bypass_near_wire_speed(self):
        rows = run_experiment("same-method", presets=("bypass",), repeats=2, n_trains=2)
        send_row = next(r for r in rows if r["metric"] == "est_send")
        recv_row = next(r for r in rows if r["metric"] == "est_recv")
        assert abs(send_row["mean_bps"] - 9.87e9) < 0.02e9
        assert abs(recv_row["mean_bps"] - 9.87e9) < 0.02e9

    def test_same_method_stack_ceiling(self):
        rows = run_experiment("same-method", presets=("stack",), repeats=2, n_trains=2)
        send_row = next(r for r in rows if r["metric"] == "est_send")
        assert 2.2e9 <= send_row["mean_bps"] <= 3.1e9

    def test_sender_vs_reference_stack(self):
        rows = run_experiment("sender-vs-reference", presets=("stack",), repeats=2, n_trains=2)
        est = next(r for r in rows if r["metric"] == "est_send")
        act = next(r for r in rows if r["metric"] == "actual_send")
        assert 2.2e9 <= est["mean_bps"] <= 3.1e9
        assert math.isclose(est["mean_bps"], act["mean_bps"], rel_tol=0.02)

    def test_receiver_vs_reference_mapped_batch(self):
        rows = run_experiment(
            "receiver-vs-reference", presets=("mapped-batch",), repeats=2, n_trains=2
        )
        est = next(r for r in rows if r["metric"] == "est_recv")
        act = next(r for r in rows if r["metric"] == "actual_recv")
        assert est["mean_bps"] > 1.2 * act["mean_bps"]

    def test_sweep_shape(self):
        rows = run_experiment("sweep")
        assert len(rows) == 16
        for row in rows:
            assert row["est_recv_rate_bps"] >= row["desired_rate_bps"] >= row["est_send_rate_bps"]

    def test_bypass_jitter_rel_std_small(self):
        rows = run_experiment(
            "same-method", presets=("bypass",), repeats=10, n_trains=10,
            jitter=0.2, seed=11,
        )
        for row in rows:
            assert row["rel_std_pct"] < 3.0
