#!/usr/bin/env python3
"""Deadline precision of the two pacing modes.

Pure spin busy-polls the monotonic clock and typically wakes within a
few hundred nanoseconds of the deadline; hybrid sleeps once first and
spins only the final 250 us, freeing the core at the cost of precision
on hosts with coarse sleep granularity.
"""

import time

from traincap import HYBRID, PURE_SPIN, PacerConfig, pace_send, wait_until
from traincap.wire import NtpTimestamp, ProbePacket, decode_probe, encode_probe, ntp_to_ns


def measure(cfg, spacing_ns, count=400):
    slacks = []
    start = time.monotonic_ns() + 1_000_000
    for i in range(count):
        report = wait_until(start + i * spacing_ns, cfg)
        if not report.late:
            slacks.append(report.slack_ns)
    slacks.sort()
    pick = lambda q: slacks[min(int(q * len(slacks)), len(slacks) - 1)]
    return pick(0.5), pick(0.99), slacks[-1], count - len(slacks)


print("wake-up slack past the deadline (ns), 400 deadlines at 50 us spacing;")
print("late deadlines (already past when the wait began) are left out of the slack figures:")
for name, cfg in (
    ("pure-spin", PacerConfig(mode=PURE_SPIN)),
    ("hybrid 250us window", PacerConfig(mode=HYBRID)),
):
    p50, p99, worst, late = measure(cfg, 50_000)
    print(f"  {name:22} p50 {p50:>8}  p99 {p99:>8}  max {worst:>10}  late {late:>4}")
print()

print("pacing a 10-packet train at 1 ms gaps (pure spin):")
start = time.monotonic_ns() + 500_000
schedule = [start + i * 1_000_000 for i in range(10)]
probes = [
    bytearray(encode_probe(ProbePacket(seq=i, send_ts=NtpTimestamp(0, 0), train_len=10), 64))
    for i in range(10)
]
# pace_send stamps each probe in place, then hands it to the send hook;
# here the hook sends nothing.
stamps = pace_send(schedule, probes, lambda probe, ts: None, PacerConfig(mode=PURE_SPIN))
for i, (deadline, stamp) in enumerate(zip(schedule, stamps)):
    print(f"  packet {i}: {stamp - deadline:>6} ns after its deadline")
print(f"  span of the train: {(stamps[-1] - schedule[0]) / 1e6:.3f} ms (ideal 9.000)")
carried = max(abs(ntp_to_ns(decode_probe(p).send_ts) - t) for p, t in zip(probes, stamps))
print(f"  each probe's in-band send_ts is its stamp within {carried} ns")
