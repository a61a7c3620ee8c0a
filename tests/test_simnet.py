"""Path-model behavior: recurrences, artifacts, presets, sweeps."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from oracles import (
    batch_completion_stamps,
    chain_arrivals,
    exact_recv_case,
    exact_send_case,
)
from traincap.simnet import (
    PRESET_NAMES,
    SimConfig,
    combine,
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
from traincap.wire import FrameGeometry

G1514 = FrameGeometry(1514)
G1496 = FrameGeometry(1496)
TEN_G = 10_000_000_000


def sim(n=50, rate=1e9, cfg=None, start=0, **cfg_kwargs):
    cfg = cfg or SimConfig(geometry=G1514, **cfg_kwargs)
    spec = TrainSpec(n, cfg.geometry, rate)
    return simulate_train(build_schedule(spec, start), cfg)


class TestIdentityConfiguration:
    def test_slow_schedule_passes_through(self):
        # all delays zero, B=1, schedule far below the link: arrivals
        # track the schedule and both estimates equal the schedule rate.
        trace, rec = sim(n=50, rate=1e9)
        gaps = {
            round(b - a, 6)
            for a, b in zip(trace.arrival, trace.arrival[1:])
        }
        assert gaps == {12144.0}  # schedule gap for 1 Gbps
        expected = 12144 * 10**9 / 12144
        assert estimate_send_rate(rec) == expected
        assert estimate_receive_rate(rec) == expected

    def test_arrivals_shift_by_serialization_and_prop(self):
        trace, _ = sim(n=10, rate=1e9, prop_delay=777.0)
        ser = 12304 * 1e9 / 1e10
        for s, a in zip(trace.intended, trace.arrival):
            assert a == s + ser + 777.0


class TestSenderStackCeiling:
    def test_achieved_egress_rate(self):
        # per-packet stack time 4700 ns with 1500 counted bytes:
        # 12000 bits / 4700 ns = 2.553 Gbps, regardless of desired rate
        cfg = SimConfig(geometry=G1496, d_proc_send=4700)
        spec = TrainSpec(50, G1496, 10e9)
        trace, rec = simulate_train(build_schedule(spec, 0), cfg)
        egress_rate = 49 * 12000 * 1e9 / (trace.stack_egress[-1] - trace.stack_egress[0])
        assert math.isclose(egress_rate, 12000e9 / 4700, rel_tol=1e-12)
        # recorded send stamps reflect the throttled submissions
        assert math.isclose(estimate_send_rate(rec), 12000e9 / 4700, rel_tol=1e-12)

    def test_feasible_schedule_not_throttled(self):
        # stack faster than the gap: submissions happen on schedule
        trace, rec = sim(n=20, rate=1e9, d_proc_send=4700)
        assert trace.submit == trace.intended
        assert estimate_send_rate(rec) == 12144 * 10**9 / 12144


class TestReceiverBatching:
    def test_two_batch_exact_oracle(self):
        # Independent enumeration: back-to-back arrivals stamped at the
        # completion of 25-packet batches.
        cfg = SimConfig(link_capacity=TEN_G, geometry=G1514, batch_size=25)
        rate = ethernet_max_rate(cfg)
        _, rec = simulate_train(build_schedule(TrainSpec(50, G1514, rate), 0), cfg)

        ser = 12304 * 10**9 / TEN_G
        arrivals = chain_arrivals(50, ser)
        stamps = batch_completion_stamps(arrivals, 25)
        expected = 49 * 12144 * 10**9 / (stamps[-1] - stamps[0])

        assert rec.recv_ts == stamps
        got = estimate_receive_rate(rec)
        assert got == expected
        assert math.isclose(got, 19.345e9, rel_tol=1e-3)

    def test_estimate_increases_with_batch_size(self):
        rates = []
        for b in (1, 2, 5, 10, 25, 49):
            cfg = SimConfig(link_capacity=TEN_G, geometry=G1514, batch_size=b)
            rate = ethernet_max_rate(cfg)
            _, rec = simulate_train(build_schedule(TrainSpec(50, G1514, rate), 0), cfg)
            rates.append(estimate_receive_rate(rec))
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_full_train_one_batch_degenerate(self):
        cfg = SimConfig(link_capacity=TEN_G, geometry=G1514, batch_size=50)
        rate = ethernet_max_rate(cfg)
        _, rec = simulate_train(build_schedule(TrainSpec(50, G1514, rate), 0), cfg)
        assert len(set(rec.recv_ts)) == 1
        with pytest.raises(DegenerateDurationError):
            estimate_receive_rate(rec)

    def test_zero_receive_span_marked(self):
        # mapped-batch stamps 20 packets in one batch of 25; its send
        # side still has a span.
        cfg = preset("mapped-batch")
        for n, status in ((20, TrainStatus.ZERO_DURATION), (50, TrainStatus.COMPLETE)):
            _, rec = simulate_train(build_schedule(TrainSpec(n, G1514, TEN_G), 0), cfg)
            assert rec.status is status
            assert estimate_send_rate(rec) > 0

    def test_slow_receiver_chains_busy(self):
        # B=1 but processing slower than arrivals: stamps fall behind at
        # one per d_proc_recv, deflating the estimate to c/d.
        cfg = SimConfig(link_capacity=TEN_G, geometry=G1514, d_proc_recv=2200)
        rate = ethernet_max_rate(cfg)
        _, rec = simulate_train(build_schedule(TrainSpec(50, G1514, rate), 0), cfg)
        est = estimate_receive_rate(rec)
        assert math.isclose(est, 12144e9 / 2200, rel_tol=1e-3)


class TestClosedForms:
    def test_send_form_exact(self):
        # est_send = r*T/(T + d_ts_last), checked on integer-exact cases
        rng = random.Random(2024)
        for _ in range(200):
            schedule, d, expected = exact_send_case(rng)
            cfg = SimConfig(geometry=G1514, d_ts_last=d)
            _, rec = simulate_train(schedule, cfg)
            assert estimate_send_rate(rec) == expected

    def test_recv_form_exact(self):
        # est_recv = r*T/(T - delta) with only the first-batch delay set
        rng = random.Random(2025)
        for _ in range(200):
            schedule, ser, delta, expected = exact_recv_case(rng)
            capacity = 12304 * 10**9 // ser
            cfg = SimConfig(link_capacity=capacity, geometry=G1514, d_ts_first_recv=delta)
            assert cfg.serialization_ns == ser
            _, rec = simulate_train(schedule, cfg)
            assert estimate_receive_rate(rec) == expected


class TestPresets:
    def test_names(self):
        assert set(PRESET_NAMES) == {"stack", "rawcap", "mapped-batch", "bypass"}
        with pytest.raises(ValueError, match="unknown preset"):
            preset("warp-drive")

    def test_stack_values(self):
        cfg = preset("stack")
        assert cfg.d_proc_send == 4700
        assert cfg.batch_size == 2

    def test_rawcap_value(self):
        cfg = preset("rawcap")
        assert cfg.d_proc_send == 1880
        # sanity: that delay alone caps the send rate near 6.45 Gbps
        assert math.isclose(12144e9 / 1880, 6.46e9, rel_tol=1e-2)

    def test_bypass_values(self):
        cfg = preset("bypass")
        assert cfg.batch_size == 1
        for d in (cfg.d_proc_send, cfg.d_proc_recv, cfg.d_ts_last, cfg.d_ts_first_recv):
            assert d <= 50

    def test_bypass_within_2pct_at_10g(self):
        cfg = preset("bypass")
        spec = TrainSpec(50, cfg.geometry, 10e9)
        _, rec = simulate_train(build_schedule(spec, 0), cfg)
        assert abs(estimate_send_rate(rec) - 10e9) / 10e9 < 0.02
        assert abs(estimate_receive_rate(rec) - 10e9) / 10e9 < 0.02

    def test_mapped_batch_inflates(self):
        cfg = preset("mapped-batch")
        rate = ethernet_max_rate(cfg)
        _, rec = simulate_train(build_schedule(TrainSpec(50, cfg.geometry, rate), 0), cfg)
        assert estimate_receive_rate(rec) > 1.2 * rate

    def test_frame_size_parameter(self):
        assert preset("stack", frame_size=1496).geometry.counted_bits == 12000

    def test_ethernet_max(self):
        cfg = SimConfig(link_capacity=TEN_G, geometry=G1514)
        assert math.isclose(ethernet_max_rate(cfg), 9.87e9, rel_tol=1e-3)

    def test_combine(self):
        both = combine(preset("stack"), preset("bypass"))
        assert both.d_proc_send == 4700
        assert both.batch_size == 1
        assert both.d_ts_first_recv == 50
        with pytest.raises(ValueError):
            combine(preset("stack", 1514), preset("bypass", 1496))


class TestSweep:
    def test_grid_observations(self):
        cfg = sweep_study_config()
        cells = sweep((10, 20, 50, 100), (1e9, 2.5e9, 5e9, 10e9), cfg)
        assert len(cells) == 16
        by_cell = {(c.n_packets, c.desired_rate): c for c in cells}
        for c in cells:
            assert c.est_recv >= c.desired_rate >= c.est_send
        # the send/receive gap shrinks with train length at fixed rate
        for rate in (1e9, 2.5e9, 5e9, 10e9):
            gaps = [
                by_cell[(n, rate)].est_recv - by_cell[(n, rate)].est_send
                for n in (10, 20, 50, 100)
            ]
            assert all(b < a for a, b in zip(gaps, gaps[1:]))
        # the relative gap is smaller at low rates for every train length
        for n in (10, 20, 50, 100):
            low = by_cell[(n, 1e9)]
            high = by_cell[(n, 10e9)]
            assert (low.est_recv - low.est_send) / 1e9 < (high.est_recv - high.est_send) / 10e9

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep((), (1e9,), sweep_study_config())


class TestModelProperties:
    def test_determinism_bit_identical(self):
        cfg = preset("stack")
        spec = TrainSpec(50, cfg.geometry, 10e9)
        t1, r1 = simulate_train(build_schedule(spec, 0), cfg)
        t2, r2 = simulate_train(build_schedule(spec, 0), cfg)
        assert t1 == t2
        assert r1.send_ts == r2.send_ts and r1.recv_ts == r2.recv_ts

    def test_conservation(self):
        for name in PRESET_NAMES:
            cfg = preset(name)
            _, rec = simulate_train(build_schedule(TrainSpec(37, cfg.geometry, 5e9), 0), cfg)
            assert len(rec.recv_ts) == 37
            assert rec.received_seqs == list(range(37))

    def test_causality_and_monotonicity(self):
        rng = random.Random(99)
        for _ in range(50):
            cfg = SimConfig(
                link_capacity=TEN_G,
                geometry=G1514,
                d_proc_send=rng.randint(0, 5000),
                d_proc_recv=rng.randint(0, 3000),
                batch_size=rng.randint(1, 60),
                d_ts_last=rng.randint(0, 2000),
                d_ts_first_recv=rng.randint(0, 2000),
                prop_delay=rng.randint(0, 100_000),
            )
            n = rng.randint(2, 80)
            trace, _ = simulate_train(
                build_schedule(TrainSpec(n, G1514, rng.choice([1e9, 5e9, 2e10])), 0), cfg
            )
            for seq in (
                trace.submit,
                trace.stack_egress,
                trace.wire_departure,
                trace.arrival,
                trace.sender_ts,
                trace.recv_ts,
            ):
                assert all(b >= a for a, b in zip(seq, seq[1:]))
            for i in range(n):
                assert trace.intended[i] <= trace.submit[i] <= trace.stack_egress[i]
                assert trace.stack_egress[i] <= trace.wire_departure[i] < trace.arrival[i]
                assert trace.sender_ts[i] >= trace.submit[i]
                assert trace.recv_ts[i] >= trace.arrival[i]

    def test_jitter_requires_rng(self):
        cfg = replace(preset("stack"), jitter=0.1)
        spec = TrainSpec(10, cfg.geometry, 1e9)
        with pytest.raises(ValueError, match="rng"):
            simulate_train(build_schedule(spec, 0), cfg)

    def test_jitter_reproducible_by_seed(self):
        cfg = replace(preset("stack"), jitter=0.1)
        spec = TrainSpec(10, cfg.geometry, 1e9)
        t1, _ = simulate_train(build_schedule(spec, 0), cfg, rng=random.Random(5))
        t2, _ = simulate_train(build_schedule(spec, 0), cfg, rng=random.Random(5))
        t3, _ = simulate_train(build_schedule(spec, 0), cfg, rng=random.Random(6))
        assert t1 == t2
        assert t1 != t3

    def test_geometry_mismatch_rejected(self):
        cfg = SimConfig(geometry=G1514)
        schedule = build_schedule(TrainSpec(5, G1496, 1e9), 0)
        with pytest.raises(ValueError, match="geometry"):
            simulate_train(schedule, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(link_capacity=0)
        with pytest.raises(ValueError):
            SimConfig(batch_size=0)
        with pytest.raises(ValueError):
            SimConfig(d_proc_send=-1)
        with pytest.raises(ValueError):
            SimConfig(jitter=1.5)
