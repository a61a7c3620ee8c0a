"""Independent oracles shared by the unit and acceptance suites.

Everything here is deliberately written from first principles (direct
enumeration, exact rational arithmetic) rather than by calling into the
library's own machinery, so the tests cross-check two routes.
"""

from __future__ import annotations

import random
import struct
from fractions import Fraction

from traincap.train import TrainSchedule, TrainSpec
from traincap.wire import FrameGeometry

# Serialization times (ns) that divide wire_bits * 1e9 for the 1514-byte
# frame (wire_bits 12304 = 2**4 * 769; 1e9 = 2**9 * 5**9), so the link
# capacity and every event instant stay integer-exact in float.
EXACT_SERS = (125, 160, 200, 250, 320, 400, 500, 625, 800, 1000, 1250, 1600, 2000, 2500)


def chain_arrivals(n: int, ser: float, first: float | None = None) -> list[float]:
    """Arrival instants of n back-to-back frames: a plain event loop."""
    a = [ser if first is None else first]
    for _ in range(n - 1):
        a.append(a[-1] + ser)
    return a


def batch_completion_stamps(arrivals: list[float], batch_size: int) -> list[float]:
    """Receive stamps when a batch is stamped at its last packet's arrival."""
    stamps = []
    for lo in range(0, len(arrivals), batch_size):
        hi = min(lo + batch_size, len(arrivals))
        stamps.extend([arrivals[hi - 1]] * (hi - lo))
    return stamps


def exact_send_case(rng: random.Random) -> tuple[TrainSchedule, int, float]:
    """Random integer-exact case for the last-timestamp-lag closed form.

    Returns (schedule, d_ts_last, expected_est_send) where the expected
    value is the rational simplification r*T/(T+d) = (N-1)*c*1e9/(T+d),
    evaluated as one correctly rounded float division of exact integers.
    """
    geometry = FrameGeometry(1514)
    n = rng.randint(2, 100)
    gap = rng.randint(1, 100_000)
    start = rng.randint(0, 10**9)
    d = rng.randint(1, 50_000)
    spec = TrainSpec(n, geometry, geometry.counted_bits * 10**9 / gap)
    schedule = TrainSchedule(spec=spec, start=start, gap=gap)
    t_span = (n - 1) * gap
    expected = (n - 1) * geometry.counted_bits * 10**9 / (t_span + d)
    return schedule, d, expected


def exact_recv_case(rng: random.Random) -> tuple[TrainSchedule, int, int, float]:
    """Random integer-exact case for the first-batch-delay closed form.

    Returns (schedule, ser, delta, expected_est_recv). The gap is at
    least the serialization time and delta is below the gap, so arrivals
    track the schedule and the delay hits only the first stamp:
    expected = r*T/(T-delta) = (N-1)*c*1e9/(T-delta) exactly.
    """
    geometry = FrameGeometry(1514)
    n = rng.randint(2, 100)
    ser = rng.choice(EXACT_SERS)
    gap = rng.randint(ser, ser + 50_000)
    start = rng.randint(0, 10**9)
    delta = rng.randint(1, gap)
    spec = TrainSpec(n, geometry, geometry.counted_bits * 10**9 / gap)
    schedule = TrainSchedule(spec=spec, start=start, gap=gap)
    t_span = (n - 1) * gap
    expected = (n - 1) * geometry.counted_bits * 10**9 / (t_span - delta)
    return schedule, ser, delta, expected


def stats_oracle(values: list[float]) -> tuple[float, float, float, float, float]:
    """Exact-rational min/max/mean/sample-std/rel-std recomputation."""
    exact = [Fraction(v) for v in values]
    n = len(exact)
    mean = sum(exact) / n
    if n > 1:
        var = sum((x - mean) ** 2 for x in exact) / (n - 1)
    else:
        var = Fraction(0)
    std = float(var) ** 0.5
    mean_f = float(mean)
    rel = 100.0 * std / mean_f if mean_f > 0 else None
    return float(min(exact)), float(max(exact)), mean_f, std, rel


def patch_send_ns(buf: bytearray, t: int) -> None:
    """The inline stamp's oracle: write ``t`` ns into a probe's ``send_ts``.

    The 32.32 field at offset 4, network byte order, its fraction rounded
    half up; an out-of-range ``t`` raises ``ns_to_ntp``'s ValueError and
    leaves ``buf`` untouched.
    """
    if t < 0:
        raise ValueError("pre-epoch timestamp")
    if t >= (1 << 32) * 10**9:
        raise ValueError("timestamp beyond 32-bit seconds range")
    seconds, rem = divmod(t, 10**9)
    struct.pack_into("!II", buf, 4, seconds, (rem * (1 << 32) + 10**9 // 2) // 10**9)
