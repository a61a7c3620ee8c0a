"""Schedule construction, rate estimators, and train validation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traincap.train import (
    DegenerateDurationError,
    InvalidTrainError,
    TrainRecord,
    TrainSpec,
    TrainStatus,
    build_schedule,
    estimate_receive_rate,
    estimate_send_rate,
    validate_train,
)
from traincap.wire import FrameGeometry

G1514 = FrameGeometry(1514)  # counted 12144 bits
G1496 = FrameGeometry(1496)  # counted 12000 bits


def spec(n=50, geometry=G1514, rate=10e9, train_id=0):
    return TrainSpec(n_packets=n, geometry=geometry, desired_rate=rate, train_id=train_id)


class TestBuildSchedule:
    def test_gap_rounding_10g(self):
        # 12144 bits / 10 Gbps = 1214.4 ns, rounds to 1214
        assert round(12144e9 / 10e9) == 1214  # oracle
        assert build_schedule(spec(), 0).gap == 1214

    def test_gap_1500_counted(self):
        # exactly 1200 ns <-> 833 kpps for 1500 counted bytes at 10 Gbps
        sched = build_schedule(spec(geometry=G1496), 0)
        assert sched.gap == 1200
        assert math.isclose(1e9 / sched.gap * 1e3, 833e3 * 1e3, rel_tol=1e-3)

    def test_two_packet_schedule(self):
        sched = build_schedule(spec(n=2, rate=1e9), 1000)
        assert sched.send_instants == [1000, 1000 + 12144]

    def test_instants_uniform_and_increasing(self):
        sched = build_schedule(spec(n=10, rate=2.5e9), 5)
        instants = sched.send_instants
        gaps = {b - a for a, b in zip(instants, instants[1:])}
        assert gaps == {sched.gap}
        assert sched.gap > 0

    def test_unschedulable_rate(self):
        with pytest.raises(ValueError, match="rate exceeds schedulable resolution"):
            build_schedule(spec(rate=1e14), 0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrainSpec(n_packets=1, geometry=G1514, desired_rate=1e9)
        with pytest.raises(ValueError):
            TrainSpec(n_packets=2, geometry=G1514, desired_rate=0)

    def test_nan_rate_rejected_by_spec(self):
        # Not left to build_schedule's int(nan), which raised its own error.
        with pytest.raises(ValueError, match="desired_rate must be a number"):
            TrainSpec(n_packets=2, geometry=G1514, desired_rate=math.nan)


class TestSendRate:
    def test_paper_like_span(self):
        # 49 x 12144 bits over 59,506 ns -> 9.9999 Gbps
        expected = 49 * 12144 * 10**9 / 59_506  # oracle: direct division
        rec = TrainRecord(0, spec(), send_ts=[float(i * 59_506 / 49) for i in range(50)])
        rec.send_ts[0], rec.send_ts[-1] = 0.0, 59_506.0
        assert estimate_send_rate(rec) == expected
        assert math.isclose(expected, 9.9999e9, rel_tol=1e-4)

    def test_back_to_back_wire_spacing(self):
        # 1230.4 ns per 1514-byte frame is the 10 Gbps wire: 9.870 Gbps
        # at the Ethernet layer.
        rec = TrainRecord(0, spec(), send_ts=[i * 1230.4 for i in range(50)])
        rate = estimate_send_rate(rec)
        assert abs(rate / 1e9 - 9.870) < 5e-4

    def test_degenerate_duration(self):
        rec = TrainRecord(0, spec(), send_ts=[100.0] * 50)
        with pytest.raises(DegenerateDurationError, match="degenerate duration"):
            estimate_send_rate(rec)

    def test_missing_side(self):
        with pytest.raises(InvalidTrainError):
            estimate_send_rate(TrainRecord(0, spec()))

    def test_ignores_recv_side(self):
        rec = TrainRecord(0, spec(), send_ts=[float(i * 1000) for i in range(50)])
        before = estimate_send_rate(rec)
        rec.recv_ts = [float(i * 77) for i in range(50)]
        assert estimate_send_rate(rec) == before


class TestReceiveRate:
    def test_uniform_arrivals(self):
        rec = TrainRecord(0, spec(), recv_ts=[i * 1230.4 for i in range(50)])
        assert abs(estimate_receive_rate(rec) / 1e9 - 9.870) < 5e-4

    def test_two_batch_coalescing_oracle(self):
        # Independent discrete-event oracle: 50 packets arrive 1230.4 ns
        # apart but are stamped at the completion instants of two
        # 25-packet batches. The span collapses to 25 spacings and the
        # estimate roughly doubles.
        ser = 12304 * 1e9 / 10e9
        arrivals = [0.0] * 50
        for i in range(1, 50):
            arrivals[i] = arrivals[i - 1] + ser
        stamps = [arrivals[24]] * 25 + [arrivals[49]] * 25
        expected = 49 * 12144 * 10**9 / (arrivals[49] - arrivals[24])

        rec = TrainRecord(0, spec(), recv_ts=stamps)
        rate = estimate_receive_rate(rec)
        assert rate == expected
        assert math.isclose(rate, 19.345e9, rel_tol=1e-3)
        actual = 49 * 12144 * 10**9 / (arrivals[49] - arrivals[0])
        assert rate > 1.9 * actual

    def test_all_one_batch_degenerate(self):
        rec = TrainRecord(0, spec(), recv_ts=[500.0] * 50)
        with pytest.raises(DegenerateDurationError):
            estimate_receive_rate(rec)

    def test_lossy_train_invalid(self):
        rec = TrainRecord(0, spec(), recv_ts=[float(i) for i in range(49)],
                          status=TrainStatus.LOSSY)
        with pytest.raises(InvalidTrainError, match="invalid train"):
            estimate_receive_rate(rec)

    def test_ignores_send_side(self):
        rec = TrainRecord(0, spec(), recv_ts=[float(i * 1000) for i in range(50)])
        before = estimate_receive_rate(rec)
        rec.send_ts = [float(i * 3) for i in range(50)]
        assert estimate_receive_rate(rec) == before


class TestEstimatorProperties:
    @given(
        n=st.integers(min_value=2, max_value=100),
        gap=st.integers(min_value=1, max_value=10**9),
        k=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=200)
    def test_scale_consistency_powers_of_two(self, n, gap, k):
        # Scaling all differences by 2**k divides the rate by 2**k with
        # no rounding at all (binary exponent shift).
        base = [float(i * gap) for i in range(n)]
        scaled = [t * (1 << k) for t in base]
        r1 = estimate_send_rate(TrainRecord(0, spec(n=n), send_ts=base))
        r2 = estimate_send_rate(TrainRecord(0, spec(n=n), send_ts=scaled))
        assert r2 == r1 / (1 << k)

    @given(
        n=st.integers(min_value=2, max_value=100),
        gap=st.integers(min_value=1, max_value=10**6),
        start=st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=200)
    def test_uniform_spacing_exact(self, n, gap, start):
        # counted_bits/gap, exactly: both int divisions share one
        # rational value, so the correctly rounded floats coincide.
        ts = [float(start + i * gap) for i in range(n)]
        rate = estimate_send_rate(TrainRecord(0, spec(n=n), send_ts=ts))
        assert rate == 12144 * 10**9 / gap
        rec = validate_train([(i, t) for i, t in enumerate(ts)], spec(n=n))
        assert estimate_receive_rate(rec) == rate

    @given(shrink=st.integers(min_value=1, max_value=59_000))
    def test_smaller_span_larger_estimate(self, shrink):
        full = [float(i * 1230) for i in range(50)]
        compressed = full[:-1] + [full[-1] - shrink]
        r_full = estimate_receive_rate(TrainRecord(0, spec(), recv_ts=full))
        r_comp = estimate_receive_rate(TrainRecord(0, spec(), recv_ts=compressed))
        assert r_comp > r_full


class TestValidateTrain:
    def test_complete(self):
        arrivals = [(i, float(i * 100)) for i in range(50)]
        rec = validate_train(arrivals, spec())
        assert rec.status is TrainStatus.COMPLETE
        assert rec.received_seqs == list(range(50))
        assert rec.recv_ts == [float(i * 100) for i in range(50)]

    def test_missing_seq_lossy(self):
        arrivals = [(i, float(i)) for i in range(50) if i != 7]
        assert validate_train(arrivals, spec()).status is TrainStatus.LOSSY

    def test_out_of_order_reordered(self):
        seqs = list(range(50))
        seqs[11], seqs[12] = seqs[12], seqs[11]
        arrivals = [(s, float(i)) for i, s in enumerate(seqs)]
        assert validate_train(arrivals, spec()).status is TrainStatus.REORDERED

    def test_duplicate_not_complete(self):
        arrivals = [(i, float(i)) for i in range(50)] + [(3, 99.0)]
        assert validate_train(arrivals, spec()).status is not TrainStatus.COMPLETE

    def test_empty_is_lossy(self):
        assert validate_train([], spec()).status is TrainStatus.LOSSY

    def test_flat_stamps_zero_duration(self):
        rec = validate_train([(i, 500) for i in range(50)], spec())
        assert rec.status is TrainStatus.ZERO_DURATION
        with pytest.raises(DegenerateDurationError):
            estimate_receive_rate(rec)
        assert rec.status is TrainStatus.ZERO_DURATION
        # Only an in-order, complete train has a duration to judge.
        swapped = [(1, 500), (0, 500)] + [(i, 500) for i in range(2, 50)]
        assert validate_train(swapped, spec()).status is TrainStatus.REORDERED
        assert validate_train([(0, 500), (1, 501)], spec(n=2)).status is TrainStatus.COMPLETE
