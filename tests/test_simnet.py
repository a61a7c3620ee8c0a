"""Path-model behavior: recurrences, artifacts, presets, sweeps."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    batch_completion_stamps,
    chain_arrivals,
    exact_recv_case,
    exact_send_case,
    simulate_oracle,
)
from traincap.simnet import (
    PRESET_NAMES,
    SimConfig,
    combine,
    ethernet_max_rate,
    preset,
    simulate_rates,
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
        with pytest.raises(ValueError, match="batch_size"):
            SimConfig(batch_size=2.5)
        with pytest.raises(ValueError, match="batch_size"):
            SimConfig(batch_size="3")
        with pytest.raises(ValueError):
            SimConfig(d_proc_send=-1)
        with pytest.raises(ValueError):
            SimConfig(jitter=1.5)

    @pytest.mark.parametrize("field", [
        "link_capacity", "d_proc_send", "d_proc_recv", "d_ts_last", "d_ts_first_recv", "prop_delay", "jitter",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_config_rejects_non_finite(self, field, value):
        # A NaN delay or capacity, or an infinite delay, once gave NaN
        # rates that no estimator rejected.
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})


# Every preset, the sweep study config, one config with every delay,
# prop_delay and a batch of 7, and that config with no receive cost, the
# rates core's other branch. The lengths put 7 (one full batch) and 49 (a
# full last batch) beside ones that 7 does not divide.
MIXED = SimConfig(d_proc_send=900.5, d_proc_recv=333.25, batch_size=7, d_ts_last=75.0,
                  d_ts_first_recv=1250.0, prop_delay=12_345.6)
ORACLE_CONFIGS = {
    **{name: preset(name) for name in PRESET_NAMES},
    "sweep-study": sweep_study_config(),
    "mixed": MIXED,
    "mixed-zero-recv": replace(MIXED, d_proc_recv=0.0),
}
ORACLE_LENGTHS = (2, 3, 7, 24, 25, 26, 49, 50, 100)


def oracle_rates(cfg):
    return (1e9, 5e9, ethernet_max_rate(cfg), 12e9)


def rate_or_degenerate(ts, counted_bits):
    span = ts[-1] - ts[0]
    return None if span == 0 else (len(ts) - 1) * counted_bits * 10**9 / span


class TestOracle:
    """simulate_train and simulate_rates against the plain-loop oracle, float for float."""

    @pytest.mark.parametrize("jitter", [0.0, 0.1])
    @pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
    def test_trace_and_record(self, name, jitter):
        cfg = replace(ORACLE_CONFIGS[name], jitter=jitter)
        lib_rng, ref_rng = random.Random(11), random.Random(11)
        for n in ORACLE_LENGTHS:
            for rate in oracle_rates(cfg):
                spec = TrainSpec(n, cfg.geometry, rate, train_id=n)
                schedule = build_schedule(spec, 1_000_003)
                trace, rec = simulate_train(schedule, cfg, rng=lib_rng)
                submit, egress, departure, arrival, sender_ts, recv_ts = simulate_oracle(schedule, cfg, ref_rng)
                assert trace.intended == [float(t) for t in schedule.send_instants]
                assert trace.submit == submit
                assert trace.stack_egress == egress
                assert trace.wire_departure == departure
                assert trace.arrival == arrival
                assert trace.sender_ts == rec.send_ts == sender_ts
                assert trace.recv_ts == rec.recv_ts == recv_ts
                assert rec.train_id == n and rec.spec is spec
                assert rec.received_seqs == list(range(n))
                zero = recv_ts[-1] == recv_ts[0]
                assert rec.status is (TrainStatus.ZERO_DURATION if zero else TrainStatus.COMPLETE)
                assert lib_rng.random() == ref_rng.random()

    @pytest.mark.parametrize("jitter", [0.0, 0.1])
    @pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
    def test_rates(self, name, jitter):
        cfg = replace(ORACLE_CONFIGS[name], jitter=jitter)
        bits = cfg.geometry.counted_bits
        lib_rng, ref_rng = random.Random(12), random.Random(12)
        for n in ORACLE_LENGTHS:
            for rate in oracle_rates(cfg):
                schedule = build_schedule(TrainSpec(n, cfg.geometry, rate), 0)
                expected = []
                for _ in range(3):
                    stamps = simulate_oracle(schedule, cfg, ref_rng)
                    expected.append((rate_or_degenerate(stamps[4], bits), rate_or_degenerate(stamps[5], bits)))
                    if None in expected[-1]:
                        break  # simulate_rates raises here and runs no further train
                if None in expected[-1]:
                    with pytest.raises(DegenerateDurationError):
                        simulate_rates(schedule, cfg, lib_rng, count=3)
                else:
                    assert simulate_rates(schedule, cfg, lib_rng, count=3) == expected
                assert lib_rng.random() == ref_rng.random()


@st.composite
def sim_configs(draw):
    return SimConfig(
        link_capacity=draw(st.floats(1e9, 40e9)),
        d_proc_send=draw(st.floats(0, 5000)),
        d_proc_recv=draw(st.just(0.0) | st.floats(0, 3000)),
        batch_size=draw(st.integers(1, 60)),
        d_ts_last=draw(st.floats(0, 500)),
        d_ts_first_recv=draw(st.floats(0, 2000)),
        prop_delay=draw(st.floats(0, 100_000)),
        jitter=draw(st.just(0.0) | st.floats(0, 0.9)),
    )


class TestSimulateRates:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cfg=sim_configs(), n=st.integers(2, 120), rate=st.floats(1e8, 14e9),
           count=st.integers(1, 4), seed=st.integers(0, 2**32))
    def test_random_configs_equal_estimators_on_records(self, cfg, n, rate, count, seed):
        schedule = build_schedule(TrainSpec(n, cfg.geometry, rate), 1_000_003)
        lib_rng, ref_rng = random.Random(seed), random.Random(seed)
        expected = []
        try:
            for _ in range(count):
                _, rec = simulate_train(schedule, cfg, rng=ref_rng)
                expected.append((estimate_send_rate(rec), estimate_receive_rate(rec)))
        except DegenerateDurationError:
            with pytest.raises(DegenerateDurationError):
                simulate_rates(schedule, cfg, lib_rng, count=count)
        else:
            assert simulate_rates(schedule, cfg, lib_rng, count=count) == expected
        assert lib_rng.random() == ref_rng.random()

    def test_pairs_equal_estimators_on_records(self):
        for name in PRESET_NAMES:
            cfg = replace(preset(name), jitter=0.1)
            schedule = build_schedule(TrainSpec(50, cfg.geometry, 8e9), 0)
            rng = random.Random(3)
            records = [simulate_train(schedule, cfg, rng=rng)[1] for _ in range(5)]
            expected = [(estimate_send_rate(r), estimate_receive_rate(r)) for r in records]
            assert simulate_rates(schedule, cfg, random.Random(3), count=5) == expected

    def test_jitter_free_default_count(self):
        cfg = preset("stack")
        schedule = build_schedule(TrainSpec(50, cfg.geometry, TEN_G), 0)
        _, rec = simulate_train(schedule, cfg)
        assert simulate_rates(schedule, cfg) == [(estimate_send_rate(rec), estimate_receive_rate(rec))]

    def test_zero_duration_raises(self):
        # mapped-batch stamps 20 packets in one batch of 25.
        cfg = preset("mapped-batch")
        schedule = build_schedule(TrainSpec(20, G1514, TEN_G), 0)
        with pytest.raises(DegenerateDurationError):
            simulate_rates(schedule, cfg)

    def test_jitter_requires_rng(self):
        cfg = replace(preset("stack"), jitter=0.1)
        schedule = build_schedule(TrainSpec(10, cfg.geometry, 1e9), 0)
        with pytest.raises(ValueError, match="rng"):
            simulate_rates(schedule, cfg)

    def test_geometry_mismatch_rejected(self):
        schedule = build_schedule(TrainSpec(5, G1496, 1e9), 0)
        with pytest.raises(ValueError, match="geometry"):
            simulate_rates(schedule, SimConfig(geometry=G1514))

    def test_count_must_be_positive(self):
        schedule = build_schedule(TrainSpec(5, G1514, 1e9), 0)
        with pytest.raises(ValueError, match="count"):
            simulate_rates(schedule, SimConfig(geometry=G1514), count=0)
        with pytest.raises(ValueError, match="count"):
            simulate_rates(schedule, SimConfig(geometry=G1514), count=2.0)
