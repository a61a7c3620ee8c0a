#!/usr/bin/env python3
"""Buffer-then-burst reflection.

The reflector stores a whole train before sending anything back, so the
work of reflecting never competes with timestamping the inbound packets.
This demo shows the ordering guarantee (first reflected packet leaves
strictly after the last buffered packet arrived), the spacing of the
burst (each train goes back through one ``pace_send`` call over a
schedule 1 ns apart, so its packets leave back to back, one send hook
call apart, however the train was paced on the way in) and the
idle-timeout flush of a train that never completes.
"""

import statistics
import threading
import time

from traincap import (
    NtpTimestamp,
    ProbePacket,
    SessionParams,
    encode_probe,
    loopback_pair,
    run_reflector,
)
from traincap.pacing import PURE_SPIN, PacerConfig
from traincap.session import run_sender
from traincap.wire import FrameGeometry

params = SessionParams(
    n_trains=3,
    n_packets=50,
    desired_rate=200_000_000,
    geometry=FrameGeometry(1514),
    pacer=PacerConfig(mode=PURE_SPIN),
)

sender_end, reflector_end = loopback_pair(params.geometry.payload_size)
result = {}

worker = threading.Thread(
    target=lambda: result.update(log=run_reflector(params, reflector_end))
)
worker.start()
time.sleep(0.005)
run_sender(params, sender_end)
worker.join()

def median_gap_us(stamps):
    return statistics.median(b - a for a, b in zip(stamps, stamps[1:])) / 1000


print("complete trains, buffered then burst back:")
for entry in result["log"]:
    turnaround = (min(entry.egress_ts) - max(entry.ingress_ts)) / 1000
    print(f"  train {entry.train_id}: {len(entry.egress_ts)} packets reflected, "
          f"first egress {turnaround:.1f} us after last ingress")
    print(f"    median spacing: {median_gap_us(entry.ingress_ts):.2f} us in, "
          f"{median_gap_us(entry.egress_ts):.2f} us out (burst span "
          f"{(entry.egress_ts[-1] - entry.egress_ts[0]) / 1000:.1f} us)")

# Now a train that stops one packet short of its announced length:
sender_end2, reflector_end2 = loopback_pair(params.geometry.payload_size)
result2 = {}
worker2 = threading.Thread(
    target=lambda: result2.update(
        log=run_reflector(SessionParams(n_trains=1, n_packets=50,
                                        desired_rate=200_000_000), reflector_end2)
    )
)
worker2.start()
time.sleep(0.005)
for seq in range(49):
    sender_end2.send(
        encode_probe(
            ProbePacket(seq=seq, send_ts=NtpTimestamp(0, 0), train_id=0, train_len=50),
            params.geometry.payload_size,
        )
    )
worker2.join()

(entry,) = result2["log"]
idle_ms = (min(entry.egress_ts) - max(entry.ingress_ts)) / 1e6
print()
print(f"partial train: {len(entry.egress_ts)}/50 packets, flushed after "
      f"{idle_ms:.1f} ms of idle (timeout 10 ms), flagged partial={entry.partial}")
