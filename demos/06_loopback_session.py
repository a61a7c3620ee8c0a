#!/usr/bin/env python3
"""A complete sender/receiver session over the in-memory loopback.

The sender paces pre-built probe trains; the receiver stores each train
in full before computing its receive rate; the per-train receive rates
on an empty path estimate the available path capacity, reported as
their median.
"""

import statistics

from traincap import (
    SessionParams,
    TrainStatus,
    estimate_receive_rate,
    estimate_send_rate,
    run_loopback_session,
)
from traincap.pacing import PURE_SPIN, PacerConfig
from traincap.wire import FrameGeometry

params = SessionParams(
    n_trains=5,
    n_packets=50,
    desired_rate=100_000_000,  # 100 Mbps
    geometry=FrameGeometry(1514),
    pacer=PacerConfig(mode=PURE_SPIN),
)

sender_records, receiver_records, apc = run_loopback_session(params)


def rated(estimate, rec):
    """The record's rate, or None unless its status is complete."""
    return estimate(rec) if rec is not None and rec.status is TrainStatus.COMPLETE else None


def fmt(rate):
    return f"{rate / 1e6:16.2f}" if rate is not None else f"{'-':>16}"


received = {rec.train_id: rec for rec in receiver_records}
print("per-train results at 100 Mbps over loopback:")
print(f"  {'train':>5} {'status':>13} {'est send (Mbps)':>16} {'est recv (Mbps)':>16}")
for s_rec in sender_records:
    r_rec = received.get(s_rec.train_id)
    status = r_rec.status.value if r_rec is not None else "not received"
    send_rate = rated(estimate_send_rate, s_rec)
    recv_rate = rated(estimate_receive_rate, r_rec)
    print(f"  {s_rec.train_id:>5} {status:>13} {fmt(send_rate)} {fmt(recv_rate)}")

print()
send_rates = [r for r in (rated(estimate_send_rate, rec) for rec in sender_records) if r is not None]
if send_rates:
    print(f"median estimated send rate: {statistics.median(send_rates) / 1e6:.2f} Mbps")
print(f"valid trains: {len(apc.rates)}/{params.n_trains}")
if apc.apc_estimate is None:
    print("available path capacity estimate: none (no complete train received)")
else:
    print(f"available path capacity estimate: {apc.apc_estimate / 1e6:.2f} Mbps "
          "(median receive rate on an empty path)")
