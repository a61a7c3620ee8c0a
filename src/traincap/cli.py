"""Command-line entry points for the probing roles and the simulator.

Subcommands: send, receive, reflect, simulate, report. Results are
emitted as OutputRecords (one per train) or report tables, in CSV or
JSON with identical values either way.

Each subcommand takes only the options it reads. All take --trains,
--frame-size, --out and --out-file. All but reflect, which learns a
train's length from its packets, take --packets. send, receive and
simulate write train records and take --rate and --timestamps. send
and receive, which can run the sender, take --gap-ms and --pacer (the
hybrid pacer's 250 us spin window is fixed). The report tables use a
fixed 10 Gbit/s desired rate and a fixed sweep grid (10, 20, 50 and 100
packets at 1, 2.5, 5 and 10 Gbit/s).

Rates accept plain integers, scientific notation, and decimal k/M/G
suffixes ("100M", "2.5G", "10e9"); internally rates are integer bits/s.
The default UDP port is 8620, overridable via the TRAINCAP_PORT
environment variable or an explicit host:port.

Exit codes: 0 ok, 2 usage error, 3 transport error, 4 no valid trains.
Usage errors include option values the roles cannot run with (a jitter
outside [0, 1), a frame too small for the probe header or, over UDP,
too large for one datagram, a rate too fast to schedule, a bad port, a
train too long for the 16-bit train_len, a gap or timeout that is not a
positive finite duration), a ``report --in`` file that cannot be
read or whose rate cells are not finite numbers, and an ``--out-file``
that cannot be opened, found before any socket is. Each is reported on
stderr, without a traceback.

With ``--backend loopback`` the send and receive commands run both roles
in one process over an in-memory pair (two processes cannot share a
loopback), emitting their own side's records.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import random
import sys
from dataclasses import replace
from typing import Sequence

from .pacing import HYBRID, PURE_SPIN, PacerConfig
from .session import (
    EXPERIMENT_KINDS,
    MAX_TRAIN_PACKETS,
    SessionParams,
    _stats_row,
    aggregate_stats,
    run_experiment,
    run_loopback_session,
    run_receiver,
    run_reflector,
    run_sender,
)
from .simnet import PRESET_NAMES, preset, simulate_train
from .train import (
    DegenerateDurationError,
    TrainRecord,
    TrainSpec,
    TrainStatus,
    build_schedule,
    estimate_receive_rate,
    estimate_send_rate,
)
from .transport import (
    DEFAULT_PORT,
    OS_DATAGRAM,
    BackendDescriptor,
    TransportError,
    open_endpoint,
)
from .wire import MIN_FRAME_SIZE, FrameGeometry

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TRANSPORT = 3
EXIT_NO_VALID_TRAINS = 4

_SUFFIXES = {"k": 1e3, "M": 1e6, "G": 1e9}
_RATE_COLUMNS = ("est_send_rate_bps", "est_recv_rate_bps")


def parse_rate(text: str) -> int:
    """Parse a rate like '100M', '2.5G', or '10e9' into integer bits/s."""
    text = text.strip()
    mult = 1.0
    if text and text[-1] in _SUFFIXES:
        mult = _SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        value = float(text) * mult
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid rate: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("rate must be positive and finite")
    return int(round(value))


def at_least(minimum: int, maximum: int | None = None):
    """argparse type: an integer no smaller than ``minimum`` (and no larger
    than ``maximum``, when given)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid count: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None


def jitter_fraction(text: str) -> float:
    """argparse type: a jitter fraction in [0, 1)."""
    value = _number(text)
    if not 0 <= value < 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {text}")
    return value


def duration(minimum: float, unit: str):
    """argparse type: a finite duration in ``unit`` no shorter than ``minimum``."""

    def parse(text: str) -> float:
        value = _number(text)
        if not minimum <= value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum:g} {unit} and finite, got {text}"
            )
        return value

    return parse


def _port(text: str, where: str) -> int:
    try:
        port = int(text)
    except ValueError:
        port = -1
    if not 0 <= port < 1 << 16:
        raise argparse.ArgumentTypeError(f"invalid port in {where}: {text!r}")
    return port


def default_port() -> int:
    return _port(os.environ.get("TRAINCAP_PORT", str(DEFAULT_PORT)), "TRAINCAP_PORT")


def parse_endpoint(text: str) -> tuple[str, int]:
    """Parse 'host:port', ':port', or 'host' (default port applies)."""
    host, sep, port = text.rpartition(":")
    if not sep:
        return text, default_port()
    return host, _port(port, repr(text)) if port else default_port()


# ---------------------------------------------------------------------------
# Output records


def record_row(rec: TrainRecord, timestamps: bool = False) -> dict:
    """One OutputRecord. ``rec.status`` judges the receive side if there is
    one, else the send side; a simulated send side always has a span."""
    complete = rec.status is TrainStatus.COMPLETE
    row = {
        "train_id": rec.train_id,
        "n_packets": rec.spec.n_packets,
        "desired_rate_bps": int(rec.spec.desired_rate),
        "est_send_rate_bps": (
            estimate_send_rate(rec) if rec.send_ts and (complete or rec.recv_ts) else None
        ),
        "est_recv_rate_bps": estimate_receive_rate(rec) if complete and rec.recv_ts else None,
        "status": rec.status.value,
    }
    if timestamps:
        row["send_ts"] = rec.send_ts
        row["recv_ts"] = rec.recv_ts
    return row


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ";".join(map(repr, value))
    return str(value)


def write_rows(rows: list[dict], fmt: str, out_file: str | None) -> None:
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.writer(buf)
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow(_csv_cell(v) for v in row.values())
        text = buf.getvalue()
    if out_file:
        with open(out_file, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def read_rows(path: str) -> list[dict]:
    """Load OutputRecords back from a CSV or JSON file, cells as stored.

    JSON cells keep their JSON types. CSV cells stay strings, with ""
    for a missing value; callers convert the columns they use.
    """
    with open(path) as f:
        text = f.read()
    if text.lstrip().startswith("["):
        rows = json.loads(text)
        if not all(isinstance(row, dict) for row in rows):
            raise ValueError("a JSON records file is a list of objects")
        return rows
    return list(csv.DictReader(io.StringIO(text)))


def _rates(rows: list[dict], column: str) -> list[float]:
    """The filled cells of one rate column, each a finite float."""
    values = []
    for row in rows:
        cell = row.get(column)
        if cell is None or cell == "":
            continue
        try:
            value = float(cell)
        except (TypeError, ValueError):
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{column} is not a finite number: {cell!r}")
        values.append(value)
    return values


# ---------------------------------------------------------------------------
# Commands


def _session_params(args: argparse.Namespace) -> SessionParams:
    return SessionParams(
        n_trains=args.trains,
        n_packets=args.packets,
        desired_rate=args.rate,
        geometry=FrameGeometry(args.frame_size),
        inter_train_gap_ns=int(args.gap_ms * 1e6),
        pacer=PacerConfig(mode=args.pacer),
    )


def _udp_descriptor(args: argparse.Namespace, **addresses) -> BackendDescriptor | None:
    """The UDP backend a command opens, or None after a usage line on
    stderr when its frame size does not fit one UDP datagram."""
    try:
        return BackendDescriptor(
            kind=OS_DATAGRAM,
            payload_size=FrameGeometry(args.frame_size).payload_size,
            **addresses,
        )
    except ValueError as exc:
        print(f"usage: --frame-size {args.frame_size}: {exc}", file=sys.stderr)
        return None


def cmd_send(args: argparse.Namespace) -> int:
    params = _session_params(args)
    if args.backend == "loopback":
        records, _, _ = run_loopback_session(params)
    else:
        if not args.remote:
            print("usage: traincap send --backend udp requires --remote", file=sys.stderr)
            return EXIT_USAGE
        descriptor = _udp_descriptor(args, remote=args.remote)
        if descriptor is None:
            return EXIT_USAGE
        endpoint = open_endpoint(descriptor)
        try:
            records = run_sender(params, endpoint)
        finally:
            endpoint.close()
    write_rows([record_row(r, args.timestamps) for r in records], args.out, args.out_file)
    return EXIT_OK


def cmd_receive(args: argparse.Namespace) -> int:
    params = _session_params(args)
    if args.backend == "loopback":
        _, records, report = run_loopback_session(params)
    else:
        descriptor = _udp_descriptor(args, local=args.local)
        if descriptor is None:
            return EXIT_USAGE
        endpoint = open_endpoint(descriptor)
        try:
            records, report = run_receiver(
                params, endpoint, overall_timeout_ns=int(args.timeout * 1e9)
            )
        finally:
            endpoint.close()
    write_rows([record_row(r, args.timestamps) for r in records], args.out, args.out_file)
    if report.apc_estimate is None:
        return EXIT_NO_VALID_TRAINS
    print(f"# apc_estimate_bps={report.apc_estimate!r} valid_trains={len(report.rates)}",
          file=sys.stderr)
    return EXIT_OK


def cmd_reflect(args: argparse.Namespace) -> int:
    descriptor = _udp_descriptor(args, local=args.local)
    if descriptor is None:
        return EXIT_USAGE
    params = SessionParams(n_trains=args.trains, geometry=FrameGeometry(args.frame_size))
    endpoint = open_endpoint(descriptor)
    try:
        log = run_reflector(params, endpoint, overall_timeout_ns=int(args.timeout * 1e9))
    finally:
        endpoint.close()
    rows = [
        {
            "train_id": entry.train_id,
            "n_packets": entry.n_expected,
            "n_reflected": len(entry.egress_ts),
            "status": "partial" if entry.partial else "reflected",
        }
        for entry in log
    ]
    write_rows(rows, args.out, args.out_file)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = preset(args.preset, args.frame_size)
    if args.jitter:
        cfg = replace(cfg, jitter=args.jitter)
    if args.link_capacity:
        cfg = replace(cfg, link_capacity=args.link_capacity)
    rng = random.Random(args.seed) if args.jitter else None
    rows = []
    for train_id in range(args.trains):
        spec = TrainSpec(args.packets, cfg.geometry, args.rate, train_id=train_id)
        _, rec = simulate_train(build_schedule(spec, 0), cfg, rng=rng)
        rows.append(record_row(rec, args.timestamps))
    write_rows(rows, args.out, args.out_file)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    if args.experiment:
        try:
            rows = run_experiment(
                args.experiment,
                n_packets=args.packets,
                n_trains=args.trains,
                repeats=args.repeats,
                frame_size=args.frame_size,
                jitter=args.jitter,
                seed=args.seed,
            )
        except DegenerateDurationError as exc:
            print(f"no valid trains: {exc}", file=sys.stderr)
            return EXIT_NO_VALID_TRAINS
        write_rows(rows, args.out, args.out_file)
        return EXIT_OK
    try:
        rows = read_rows(args.in_file)
        columns = [(column, _rates(rows, column)) for column in _RATE_COLUMNS]
    except (OSError, ValueError, csv.Error) as exc:
        print(f"usage: --in {args.in_file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    summary = [
        {"metric": column, "count": len(values), **_stats_row(aggregate_stats(values))}
        for column, values in columns
        if values
    ]
    write_rows(summary, args.out, args.out_file)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_common(
    p: argparse.ArgumentParser, *, packets: bool = True, records: bool = True,
    sender: bool = True, rate_required: bool = True, max_packets: int | None = None,
) -> None:
    """Add the shared options a command reads: ``--packets`` if it builds
    trains, ``--rate`` and ``--timestamps`` if it writes train records, and
    the pacing options if it can run the sender."""
    p.add_argument("--trains", type=at_least(1), default=10, help="number of trains (default 10)")
    if packets:
        p.add_argument("--packets", type=at_least(2, max_packets), default=50,
                       help="packets per train (default 50)")
    if records:
        p.add_argument("--rate", type=parse_rate, required=rate_required, default=None if rate_required else 100_000_000,
                       help="desired Ethernet-layer rate in bits/s (accepts k/M/G suffixes)")
    p.add_argument("--frame-size", type=at_least(MIN_FRAME_SIZE), default=1514,
                   help="Ethernet frame size excluding FCS (default 1514)")
    p.add_argument("--out", choices=("csv", "json"), default="csv", help="output format")
    p.add_argument("--out-file", default=None, help="write output here instead of stdout")
    if records:
        p.add_argument("--timestamps", action="store_true", help="include per-packet timestamps")
    if sender:
        p.add_argument("--gap-ms", type=duration(1e-6, "ms"), default=10.0, help="inter-train gap in ms (default 10)")
        p.add_argument("--pacer", choices=(PURE_SPIN, HYBRID), default=HYBRID)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The traincap parser, built on the first call and shared after it.

    One parser serves every :func:`main` call in a process, so callers
    must not mutate it. Parsing leaves no state in it: the string
    defaults, and with them ``TRAINCAP_PORT``, are read at parse time.
    """
    parser = argparse.ArgumentParser(
        prog="traincap",
        description="Packet-train path capacity probing: send, receive, reflect, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("send", help="pace probe trains at a target rate")
    _add_common(p, max_packets=MAX_TRAIN_PACKETS)
    p.add_argument("--backend", choices=("udp", "loopback"), default="udp")
    p.add_argument("--remote", type=parse_endpoint,
                   help="receiver/reflector host:port (udp backend)")
    p.set_defaults(func=cmd_send)

    p = sub.add_parser("receive", help="collect trains and report receive rates and APC")
    _add_common(p, rate_required=False, max_packets=MAX_TRAIN_PACKETS)
    p.add_argument("--backend", choices=("udp", "loopback"), default="udp")
    p.add_argument("--local", type=parse_endpoint, default=":",
                   help="bind address host:port (default port 8620)")
    p.add_argument("--timeout", type=duration(1e-9, "s"), default=30.0,
                   help="overall timeout in s")
    p.set_defaults(func=cmd_receive)

    p = sub.add_parser("reflect", help="buffer each train, then burst it back")
    _add_common(p, packets=False, records=False, sender=False)
    p.add_argument("--local", type=parse_endpoint, default=":",
                   help="bind address host:port (default port 8620)")
    p.add_argument("--timeout", type=duration(1e-9, "s"), default=30.0,
                   help="overall timeout in s")
    p.set_defaults(func=cmd_reflect)

    p = sub.add_parser("simulate", help="run trains through the deterministic path model")
    _add_common(p, sender=False)
    p.add_argument("--preset", choices=PRESET_NAMES, required=True)
    p.add_argument("--seed", type=int, default=None, help="RNG seed (required with --jitter)")
    p.add_argument("--jitter", type=jitter_fraction, default=0.0,
                   help="uniform +/- fraction on model delays, in [0, 1)")
    p.add_argument("--link-capacity", type=parse_rate, default=None,
                   help="override the preset's link capacity")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="run an experiment set or summarize a records file")
    _add_common(p, records=False, sender=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--experiment", choices=EXPERIMENT_KINDS, default=None)
    source.add_argument("--in", dest="in_file", default=None, help="records file to summarize")
    p.add_argument("--repeats", type=at_least(1), default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jitter", type=jitter_fraction, default=0.0)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jitter", 0) and args.seed is None:
        print("usage: --jitter requires --seed for reproducibility", file=sys.stderr)
        return EXIT_USAGE
    try:
        if "rate" in args:
            build_schedule(TrainSpec(2, FrameGeometry(args.frame_size), args.rate), 0)
    except ValueError as exc:
        print(f"usage: --rate {args.rate} at --frame-size {args.frame_size}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.out_file:
        try:
            open(args.out_file, "a").close()
        except OSError as exc:
            print(f"usage: --out-file {args.out_file}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
