"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Each case feeds one check an input it must accept (the program's own
output where the program makes one) and a perturbed copy it must reject.
Prints one line per case and exits 1 if any check accepts a perturbed
input or rejects a good one.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from traincap import cli, simnet  # noqa: E402
from traincap.session import ReflectionRecord  # noqa: E402
from traincap.train import TrainRecord, TrainSpec, TrainStatus, validate_train  # noqa: E402
from traincap.wire import FrameGeometry  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

N = workloads.N_PACKETS
FRAME = workloads.FRAME
SPEC = TrainSpec(N, FrameGeometry(FRAME), workloads.DESIRED_BPS)
SWEEP = (workloads.SimTables.SWEEP_LENGTHS, workloads.SimTables.SWEEP_RATES, FRAME,
         workloads.SimTables.SWEEP_TS_LATENCY_NS)


def _cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if cli.main(argv) != 0:
            raise RuntimeError(f"traincap {' '.join(argv)} failed")
    return buf.getvalue()


def _sweep(scale: float):
    rows = checks.parse_table(_cli(["report", "--experiment", "sweep"]))
    rows[5]["est_send_rate_bps"] *= scale
    checks.check_sweep(rows, *SWEEP)


def _stamps(base: int) -> list[float]:
    return [float(base + 7_000 * i) for i in range(N)]


def _path(swap: bool):
    send, ingress, egress, recv = _stamps(10**9), _stamps(2 * 10**9), _stamps(3 * 10**9), _stamps(4 * 10**9)
    if swap:
        recv[3], recv[4] = recv[4], recv[3]
    checks.check_causal(0, [send, ingress, egress, recv])


def _missing_seq(drop: bool):
    arrivals = [(i, float(1000 * i)) for i in range(N) if not (drop and i == 7)]
    if not checks.train_complete(validate_train(arrivals, SPEC), N):
        raise checks.CheckError("train not complete")


def _reflect_order(early: bool):
    ingress = _stamps(10**9)
    egress = _stamps(ingress[-1] - (7_000 if early else -7_000))
    checks.check_reflect_order(ReflectionRecord(0, N, [int(t) for t in ingress], [int(t) for t in egress], False))


def _seed(same: bool):
    a = _cli(["report", "--experiment", "same-method", "--jitter", "0.1", "--seed", "11"])
    b = a if same else _cli(["report", "--experiment", "same-method", "--jitter", "0.1", "--seed", "12"])
    checks.check_seeds_differ({11: a, 12: b})


def _send_rows(scale: float):
    rows = checks.parse_table(_cli(["report", "--experiment", "sender-vs-reference"]))
    checks.send_rows(rows)["stack"]["mean_bps"] *= scale
    delays = {name: (simnet.preset(name).d_proc_send, simnet.preset(name).d_ts_last) for name in simnet.PRESET_NAMES}
    checks.check_send_rows(rows, delays, workloads.DESIRED_BPS, N, FRAME, 0.0)


def _simulate(shift: float):
    text = _cli(["simulate", "--preset", "stack", "--rate", "10G", "--trains", "3", "--timestamps"])
    header, first, *rest = text.splitlines()
    cells = first.split(",")
    stamps = cells[-2].split(";")
    stamps[-1] = repr(float(stamps[-1]) + shift)  # the last send stamp, which the estimate uses
    cells[-2] = ";".join(stamps)
    checks.check_simulate_records("\n".join([header, ",".join(cells), *rest]) + "\n", 3, N, FRAME, 1230.4)


def _paired_pause(pause_ns: int):
    sent = [TrainRecord(0, SPEC, send_ts=[float(t) for t in range(0, N * 1000, 1000)], status=TrainStatus.COMPLETE)]
    sent[0].send_ts[20] += pause_ns
    sent[0].send_ts[21:] = [t + pause_ns for t in sent[0].send_ts[21:]]
    if not workloads.sender_paused(sent, 10_000_000):
        raise checks.CheckError("incomplete train without a sender pause is a failure")


CASES = [
    ("sweep cell scaled by 1 + 1e-9", lambda: _sweep(1.0), lambda: _sweep(1 + 1e-9)),
    ("send row scaled by 1 + 1e-9", lambda: _send_rows(1.0), lambda: _send_rows(1 + 1e-9)),
    ("record with two stamps swapped", lambda: _path(False), lambda: _path(True)),
    ("train missing one seq", lambda: _missing_seq(False), lambda: _missing_seq(True)),
    ("egress before last ingress", lambda: _reflect_order(False), lambda: _reflect_order(True)),
    ("changed seed, same table", lambda: _seed(False), lambda: _seed(True)),
    ("simulated last stamp moved 1 ns", lambda: _simulate(0.0), lambda: _simulate(1.0)),
    ("paired loss without a sender pause", lambda: _paired_pause(10_000_000), lambda: _paired_pause(9_000_000)),
]


def main() -> int:
    bad = 0
    for name, good, perturbed in CASES:
        try:
            good()
            accepted = "accepts the good input"
        except checks.CheckError as exc:
            accepted = f"REJECTS THE GOOD INPUT: {exc}"
            bad += 1
        try:
            perturbed()
            rejected = "ACCEPTS THE PERTURBED INPUT"
            bad += 1
        except checks.CheckError as exc:
            rejected = f"rejects the perturbed one ({exc})"
        print(f"{name}: {accepted}, {rejected}")
    print("selftest: " + ("ok" if not bad else f"{bad} failures"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
