"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

from __future__ import annotations

import math
import random
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from oracles import (
    batch_completion_stamps,
    chain_arrivals,
    exact_recv_case,
    exact_send_case,
    stats_oracle,
)
from traincap.pacing import PURE_SPIN, PacerConfig, wait_until
from traincap.session import (
    SessionParams,
    aggregate_stats,
    run_paired,
    run_reflector,
    run_sender,
)
from traincap.simnet import (
    SimConfig,
    ethernet_max_rate,
    preset,
    simulate_train,
    sweep,
    sweep_study_config,
)
from traincap.train import (
    DegenerateDurationError,
    TrainSpec,
    TrainStatus,
    build_schedule,
    estimate_receive_rate,
    estimate_send_rate,
)
from traincap.transport import (
    OS_DATAGRAM,
    BackendDescriptor,
    UdpEndpoint,
    loopback_pair,
)
from traincap.wire import (
    FrameGeometry,
    NtpTimestamp,
    ProbePacket,
    decode_probe,
    encode_probe,
    ns_to_ntp,
    ntp_to_ns,
)

G1514 = FrameGeometry(1514)
TEN_G = 10_000_000_000
SPIN = PacerConfig(mode=PURE_SPIN)


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {text}")
        raise
    print(f"criterion {num:2d}: PASS - {text}")


def test_criterion_1_ethernet_layer_maximum():
    with criterion(1, "back-to-back 1514B frames on 10 Gbps estimate 9.870 +/- 0.005 Gbps"):
        t0 = time.monotonic()
        cfg = SimConfig(link_capacity=TEN_G, geometry=G1514)  # zero delays, B=1
        rate = ethernet_max_rate(cfg)  # back-to-back schedule
        spec = TrainSpec(50, G1514, rate)
        _, rec = simulate_train(build_schedule(spec, 0), cfg)
        est_send = estimate_send_rate(rec)
        est_recv = estimate_receive_rate(rec)
        assert abs(est_send - 9.870e9) <= 0.005e9
        assert abs(est_recv - 9.870e9) <= 0.005e9
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_stack_ceiling():
    with criterion(2, "stack preset reaches 2.553 +/- 0.01 Gbps; jittered mean in 2.2-3.1"):
        t0 = time.monotonic()
        cfg = preset("stack", frame_size=1496)  # 1500 counted bytes
        assert cfg.d_proc_send == 4700
        spec = TrainSpec(50, cfg.geometry, 10e9)
        trace, rec = simulate_train(build_schedule(spec, 0), cfg)
        achieved = (
            49 * cfg.geometry.counted_bits * 1e9
            / (trace.stack_egress[-1] - trace.stack_egress[0])
        )
        estimated = estimate_send_rate(rec)
        assert abs(achieved - 2.553e9) <= 0.01e9
        assert abs(estimated - 2.553e9) <= 0.01e9

        rng = random.Random(7)
        jittered = replace(cfg, jitter=0.15)
        means = []
        for _ in range(10):
            _, jrec = simulate_train(build_schedule(spec, 0), jittered, rng=rng)
            means.append(estimate_send_rate(jrec))
        mean = sum(means) / len(means)
        assert 2.2e9 <= mean <= 3.1e9
        assert time.monotonic() - t0 < 1.0


def test_criterion_3_train_length_rate_sweep():
    with criterion(3, "sweep: est_recv >= desired >= est_send; gap shrinks with N; low rates tighter"):
        t0 = time.monotonic()
        lengths = (10, 20, 50, 100)
        rates = (1e9, 2.5e9, 5e9, 10e9)
        cells = sweep(lengths, rates, sweep_study_config())
        by_cell = {(c.n_packets, c.desired_rate): c for c in cells}
        for c in cells:
            assert c.est_recv >= c.desired_rate >= c.est_send
        for rate in rates:
            gaps = [by_cell[(n, rate)].est_recv - by_cell[(n, rate)].est_send for n in lengths]
            assert all(b < a for a, b in zip(gaps, gaps[1:]))
        for n in lengths:
            low, high = by_cell[(n, 1e9)], by_cell[(n, 10e9)]
            assert (low.est_recv - low.est_send) / 1e9 < (high.est_recv - high.est_send) / 10e9
        assert time.monotonic() - t0 < 5.0


def test_criterion_4_coalescing_artifact():
    with criterion(4, "batching inflates receive rate; 2-batch case matches the oracle exactly"):
        cfg = preset("mapped-batch")
        actual = ethernet_max_rate(cfg)  # 9.87 Gbps on the wire
        spec = TrainSpec(50, cfg.geometry, actual)
        _, rec = simulate_train(build_schedule(spec, 0), cfg)
        assert estimate_receive_rate(rec) >= 1.2 * actual

        previous = 0.0
        for b in (2, 5, 10, 25, 49):
            _, rec_b = simulate_train(build_schedule(spec, 0), replace(cfg, batch_size=b))
            est = estimate_receive_rate(rec_b)
            assert est > previous
            previous = est

        _, rec_full = simulate_train(build_schedule(spec, 0), replace(cfg, batch_size=50))
        with pytest.raises(DegenerateDurationError):
            estimate_receive_rate(rec_full)

        # exact 2-batch case, against an independent enumeration oracle
        bare = SimConfig(link_capacity=TEN_G, geometry=G1514, batch_size=25)
        _, rec2 = simulate_train(build_schedule(TrainSpec(50, G1514, actual), 0), bare)
        arrivals = chain_arrivals(50, 12304 * 10**9 / TEN_G)
        stamps = batch_completion_stamps(arrivals, 25)
        expected = 49 * 12144 * 10**9 / (stamps[-1] - stamps[0])
        got = estimate_receive_rate(rec2)
        assert abs(got - expected) <= math.ulp(expected)
        assert math.isclose(got, 19.345e9, rel_tol=1e-3)


def test_criterion_5_analytic_error_model():
    with criterion(5, "closed forms r*T/(T+d) and r*T/(T-delta) match within 1 ulp on 1200 cases"):
        rng = random.Random(20260810)
        for _ in range(600):
            schedule, d, expected = exact_send_case(rng)
            _, rec = simulate_train(schedule, SimConfig(geometry=G1514, d_ts_last=d))
            got = estimate_send_rate(rec)
            assert abs(got - expected) <= math.ulp(expected)
        for _ in range(600):
            schedule, ser, delta, expected = exact_recv_case(rng)
            cfg = SimConfig(
                link_capacity=12304 * 10**9 // ser,
                geometry=G1514,
                d_ts_first_recv=delta,
            )
            _, rec = simulate_train(schedule, cfg)
            got = estimate_receive_rate(rec)
            assert abs(got - expected) <= math.ulp(expected)


def test_criterion_6_wire_codec():
    with criterion(6, "1e6 probe round trips bit-exact; NTP conversion within 1 ns on 1e6 instants"):
        rng = random.Random(3)
        max_ns = (1 << 32) * 10**9 - 1
        for i in range(1_000_000):
            train_len = rng.randint(1, 0xFFFF)
            p = ProbePacket(
                seq=rng.randint(0, train_len - 1),
                send_ts=NtpTimestamp(rng.getrandbits(32), rng.getrandbits(32)),
                error_estimate=rng.getrandbits(16),
                train_id=rng.getrandbits(32),
                train_len=train_len,
            )
            payload_size = 1472 if i % 4096 == 0 else 20
            assert decode_probe(encode_probe(p, payload_size)) == p

        for _ in range(1_000_000):
            ns = rng.randrange(max_ns)
            assert abs(ntp_to_ns(ns_to_ntp(ns)) - ns) <= 1


def test_criterion_7_reflector_invariant():
    with criterion(7, "100 trains: egress after ingress; partials flushed at 10 +/- 2 ms idle"):
        a, b = loopback_pair(1472)
        params = SessionParams(
            n_trains=100,
            n_packets=50,
            desired_rate=200_000_000,
            geometry=G1514,
            inter_train_gap_ns=2_000_000,
            pacer=SPIN,
        )
        result = {}

        def reflect():
            result["log"] = run_reflector(params, b, overall_timeout_ns=30_000_000_000)

        t = threading.Thread(target=reflect)
        t.start()
        time.sleep(0.005)
        run_sender(params, a)
        t.join()
        log = result["log"]
        assert len(log) == 100
        for entry in log:
            assert not entry.partial
            assert min(entry.egress_ts) > max(entry.ingress_ts)

        # partial trains: 49 of 50 packets, then silence
        a2, b2 = loopback_pair(1472)
        params2 = replace(params, n_trains=3)
        result2 = {}

        def reflect_partial():
            result2["log"] = run_reflector(params2, b2, overall_timeout_ns=10_000_000_000)

        t2 = threading.Thread(target=reflect_partial)
        t2.start()
        time.sleep(0.005)
        for train_id in range(3):
            for seq in range(49):
                a2.send(
                    encode_probe(
                        ProbePacket(seq=seq, send_ts=NtpTimestamp(0, 0),
                                    train_id=train_id, train_len=50),
                        1472,
                    )
                )
            time.sleep(0.03)  # exceed the idle timeout before the next train
        t2.join()
        for entry in result2["log"]:
            assert entry.partial
            idle = min(entry.egress_ts) - max(entry.ingress_ts)
            assert 8_000_000 <= idle <= 12_000_000


def test_criterion_8_desk_scale_end_to_end():
    with criterion(8, "localhost UDP at 100 Mbps: >=9/10 complete, rates within 5%, under 10 s"):
        t0 = time.monotonic()
        params = SessionParams(
            n_trains=10,
            n_packets=50,
            desired_rate=100_000_000,
            geometry=G1514,
            inter_train_gap_ns=10_000_000,
            pacer=SPIN,
        )
        rx = UdpEndpoint(
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=1472, local=("127.0.0.1", 0))
        )
        tx = UdpEndpoint(
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=1472, remote=rx.local_address)
        )
        try:
            sent, received, report = run_paired(params, tx, rx)
        finally:
            tx.close()
            rx.close()
        complete = [r for r in received if r.status is TrainStatus.COMPLETE]
        assert len(complete) >= 9
        send_rates = [estimate_send_rate(r) for r in sent if r.send_ts]
        send_rate = statistics.median(send_rates)
        recv_rate = statistics.median(report.rates)
        assert abs(send_rate - 1e8) / 1e8 < 0.05
        assert abs(recv_rate - 1e8) / 1e8 < 0.05
        assert time.monotonic() - t0 < 10.0


def test_criterion_9_pacing_precision():
    with criterion(9, "pure spin: p99 overshoot <= 1 us over 1000 deadlines, never early"):
        slacks = []
        for _ in range(1000):
            # Each deadline comes from a fresh clock read, not a fixed grid:
            # on a 10 us grid a host pause of S us makes about S/10 deadlines
            # `late`, which measures the host's scheduling, not the overshoot.
            deadline = time.monotonic_ns() + 10_000
            report = wait_until(deadline, SPIN)
            assert report.wake_ns >= deadline or report.late
            if not report.late:
                slacks.append(report.slack_ns)
        # wait_until is entered before a deadline set 10 us ahead
        assert len(slacks) >= 990
        slacks.sort()
        p99 = slacks[math.ceil(0.99 * len(slacks)) - 1]
        assert p99 <= 1_000


def test_criterion_10_statistics():
    with criterion(10, "stats match hand values and a brute-force recomputation to 1e-12"):
        s = aggregate_stats([2, 4])
        assert s.mean == 3
        assert abs(s.std - 1.41421) <= 1e-5
        assert abs(s.rel_std_pct - 47.14) <= 0.01
        s3 = aggregate_stats([10, 10, 10])
        assert (s3.min, s3.max, s3.mean, s3.std, s3.rel_std_pct) == (10, 10, 10, 0, 0)

        rng = random.Random(4)
        for _ in range(200):
            values = [rng.uniform(1e6, 1e10) for _ in range(rng.randint(1, 60))]
            got = aggregate_stats(values)
            mn, mx, mean, std, rel = stats_oracle(values)
            assert got.min == mn and got.max == mx
            assert math.isclose(got.mean, mean, rel_tol=1e-12)
            assert math.isclose(got.std, std, rel_tol=1e-12, abs_tol=1e-12 * mean)
            if rel is not None:
                assert math.isclose(got.rel_std_pct, rel, rel_tol=1e-12, abs_tol=1e-12)
