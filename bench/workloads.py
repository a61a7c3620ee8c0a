"""The benchmark's three workloads.

Each workload has a cold ``setup`` (imports, sockets, a warm-up), then runs whole rounds of the same operations until the run's time is up.
``round`` checks the round's outputs before it returns; ``figures`` turns
a list of rounds into the run's figures. Workloads drive the library's
public functions and the ``traincap`` CLI through module attributes, so
the traced run can wrap them where the program looks them up.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import checks

FRAME = 1514
N_PACKETS = 50
DESIRED_BPS = 10_000_000_000  # more than this host can send: every UDP figure is a host ceiling
C_BITS = checks.counted_bits(FRAME)


# End-to-end figures that depend on the host's speed are scaled to a host
# on which the reference loop below takes REF_NS per iteration. This host
# switches between states in which all of its work, interpreter and
# syscalls alike, runs about 2.6 times slower or faster; the loop, timed in
# every round of the same run, cancels that, while a change to the program
# does not change the loop.
REF_NS = 500.0


class _RefState:
    acc = 0.0


def _ref_step(p: _RefState, i: int) -> int:
    p.acc = (p.acc + i * 0.5 + (time.monotonic_ns() & 7)) % 1000.0
    return int(p.acc) & 0xFF


def host_speed_ns(iterations: int = 2000, bursts: int = 5) -> float:
    """ns per iteration of a fixed pure-Python loop: the host's speed now."""
    p = _RefState()
    per = []
    for _ in range(bursts):
        out = []
        t = time.perf_counter_ns()
        for i in range(iterations):
            out.append(_ref_step(p, i))
        per.append((time.perf_counter_ns() - t) / iterations)
    return statistics.median(per)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _speed(rounds: list[dict]) -> float:
    """How much slower than the nominal host the run's rounds ran."""
    return _median(r["ref_ns"] for r in rounds) / REF_NS


def _pooled(rounds: list[dict], key: str) -> list[float]:
    return [v for r in rounds for v in r[key]]


def _scaled(figures: dict, speed: float, rates=(), times=()) -> dict:
    """Scale host-bound figures to the nominal host; keep each as measured under raw.<name>."""
    for name in (*rates, *times):
        figures["raw." + name] = figures[name]
    for name in rates:
        figures[name] *= speed
    for name in times:
        figures[name] /= speed
    figures["host_speed_ns"] = speed * REF_NS
    return figures


class _Workload:
    def __init__(self, seed: int, tmp_dir: Path, tracer) -> None:
        self.tracer = tracer

    def _phase(self, phase: str) -> None:
        """Label the traced run's aggregates with the part of the round now running."""
        if self.tracer is not None:
            self.tracer.phase = phase

    def trace_targets(self) -> list:
        """Wrap targets beyond the module-level ones (endpoint instances)."""
        return []

    def close(self) -> None:
        pass


class SimTables(_Workload):
    """``traincap.cli.main`` in-process: tables, jittered tables, simulate -> CSV -> report.

    No socket and no pacer: wire, pacing and transport do no work here.
    """

    name = "sim-tables"
    KINDS = ("same-method", "sweep", "sender-vs-reference", "receiver-vs-reference")
    PRESET_KINDS = ("same-method", "sender-vs-reference", "receiver-vs-reference")
    JITTER = 0.1
    SIM_TRAINS = 25  # per preset and round
    # CLI defaults of ``report --experiment``: the packets each table describes.
    SWEEP_LENGTHS = (10, 20, 50, 100)
    SWEEP_RATES = (1e9, 2.5e9, 5e9, 10e9)
    SWEEP_TS_LATENCY_NS = 500
    TABLE_REPEATS = 10
    TABLE_TRAINS = 10

    def __init__(self, seed: int, tmp_dir: Path, tracer) -> None:
        super().__init__(seed, tmp_dir, tracer)
        rng = random.Random(seed)
        first = rng.randrange(1, 2**31)
        # Rounds alternate between two jitter seeds: a round repeats the
        # output of the round two before it, and the other seed differs.
        self.seeds = (first, first + 1 + rng.randrange(2**20))
        self.tmp_dir = tmp_dir
        self.outputs: dict[int, str] = {}
        self.stack_estimates: dict[int, tuple[list[float], list[float]]] = {}

    def setup(self) -> None:
        from traincap import cli, simnet

        self.cli = cli
        self.presets = {name: simnet.preset(name, FRAME) for name in simnet.PRESET_NAMES}
        self.delays = {name: (cfg.d_proc_send, cfg.d_ts_last) for name, cfg in self.presets.items()}
        self.eth_max_bps = DESIRED_BPS * C_BITS / checks.wire_bits(FRAME)
        n_presets = len(self.presets)
        per_table = n_presets * self.TABLE_REPEATS * self.TABLE_TRAINS * N_PACKETS
        sweep = sum(self.SWEEP_LENGTHS) * len(self.SWEEP_RATES)
        # receiver-vs-reference simulates every preset and the reference path.
        self.table_packets = 4 * per_table + sweep
        self.jitter_packets = 4 * per_table
        self.sim_packets = n_presets * self.SIM_TRAINS * N_PACKETS
        self.round(0)

    def _cli(self, argv: list[str]) -> str | None:
        """Run one CLI command; its stdout, or None when it exits non-zero."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        return buf.getvalue() if rc == 0 else None

    def round(self, index: int) -> dict:
        seed = self.seeds[index % 2]
        jitter_args = ["--jitter", str(self.JITTER), "--seed", str(seed)]
        self._phase("tables")
        t0 = time.perf_counter()
        tables = {k: self._cli(["report", "--experiment", k]) for k in self.KINDS}
        t1 = time.perf_counter()
        self._phase("jitter")
        jittered = {k: self._cli(["report", "--experiment", k, *jitter_args]) for k in self.PRESET_KINDS}
        t2 = time.perf_counter()
        self._phase("simulate")
        summaries = {}
        failed = 0
        for name in self.presets:
            path = str(self.tmp_dir / f"simulate-{name}.csv")
            simulated = self._cli(["simulate", "--preset", name, "--rate", str(DESIRED_BPS),
                                   "--trains", str(self.SIM_TRAINS), "--timestamps", *jitter_args,
                                   "--out-file", path])
            # A failed simulate leaves its report --in unrun, which counts as failed too.
            summaries[name] = self._cli(["report", "--in", path]) if simulated is not None else None
            failed += (simulated is None) + (summaries[name] is None)
        t3 = time.perf_counter()
        self._phase("")

        failed += sum(out is None for out in (*tables.values(), *jittered.values()))
        attempted = len(tables) + len(jittered) + 2 * len(summaries)
        if failed:
            return {"attempted": attempted, "failed": failed}
        records = {name: (self.tmp_dir / f"simulate-{name}.csv").read_text() for name in self.presets}
        self._check(seed, tables, jittered, records, summaries)
        return {
            "attempted": attempted,
            "failed": 0,
            "tables_s": t1 - t0,
            "jitter_tables_s": t2 - t1,
            "simulate_s": t3 - t2,
            "ref_ns": host_speed_ns(),
        }

    def _check(self, seed, tables, jittered, records, summaries) -> None:
        t = {k: checks.parse_table(v) for k, v in tables.items()}
        checks.check_sweep(t["sweep"], self.SWEEP_LENGTHS, self.SWEEP_RATES, FRAME, self.SWEEP_TS_LATENCY_NS)
        for jitter, tabs in ((0.0, t), (self.JITTER, {k: checks.parse_table(v) for k, v in jittered.items()})):
            checks.check_send_rows(tabs["same-method"], self.delays, self.eth_max_bps, N_PACKETS, FRAME, jitter)
            checks.check_send_rows(tabs["sender-vs-reference"], self.delays, DESIRED_BPS, N_PACKETS, FRAME, jitter)
        checks.check_reference_receivers(t["receiver-vs-reference"], DESIRED_BPS, self.eth_max_bps)

        for name, text in records.items():
            ser_ns = checks.wire_bits(FRAME) * checks.NS_PER_S / self.presets[name].link_capacity
            sends, recvs = checks.check_simulate_records(text, self.SIM_TRAINS, N_PACKETS, FRAME, ser_ns)
            checks.check_summary(summaries[name], {"est_send_rate_bps": sends, "est_recv_rate_bps": recvs})
            if name == "stack":
                self.stack_estimates[seed] = (sends, recvs)

        output = "".join([*jittered.values(), *records.values(), *summaries.values()])
        if seed in self.outputs:
            checks.check_same_output(seed, self.outputs[seed], output)
        else:
            self.outputs[seed] = output
            if len(self.outputs) == len(self.seeds):
                checks.check_seeds_differ(self.outputs)

    def figures(self, rounds: list[dict]) -> dict[str, float]:
        rounds = [r for r in rounds if "tables_s" in r]
        packets = self.table_packets + self.jitter_packets + self.sim_packets
        sends = [v for s, _ in self.stack_estimates.values() for v in s]
        recvs = [v for _, r in self.stack_estimates.values() for v in r]
        figures = {
            # The simulated stack preset's estimates: the modeled counterpart
            # of the UDP workloads' host ceiling, a function of the seed alone.
            "send_gbps": _median(sends) / 1e9,
            "recv_gbps": _median(recvs) / 1e9,
            "host_ns_per_pkt": _median(
                (r["tables_s"] + r["jitter_tables_s"] + r["simulate_s"]) * 1e9 / packets for r in rounds
            ),
            "tables_s": _median(r["tables_s"] for r in rounds),
            "jitter_tables_s": _median(r["jitter_tables_s"] for r in rounds),
            "simulate_pkts_per_s": _median(self.sim_packets / r["simulate_s"] for r in rounds),
        }
        return _scaled(figures, _speed(rounds), times=("host_ns_per_pkt",))


def sender_paused(sent, limit_ns: int) -> bool:
    """A sender pause inside a train at least as long as the idle timeout.

    A receiver sharing the interpreter can only flush a train early if no
    packet was sent for the idle timeout, and the sender's stamps show it.
    """
    return any(
        any(b - a >= limit_ns for a, b in zip(rec.send_ts, rec.send_ts[1:])) for rec in sent if rec.send_ts
    )


class _Udp(_Workload):
    """Shared parts of the two UDP workloads: localhost endpoints and pure spin."""

    N_TRAINS = 10

    def __init__(self, seed: int, tmp_dir: Path, tracer) -> None:
        super().__init__(seed, tmp_dir, tracer)
        self.endpoints: list = []

    def _open(self, remote=None):
        ep = self.transport.open_endpoint(
            self.transport.BackendDescriptor(
                kind=self.transport.OS_DATAGRAM,
                payload_size=self.params.geometry.payload_size,
                local=("127.0.0.1", 0),
                remote=remote,
            )
        )
        self.endpoints.append(ep)
        return ep

    def _setup_params(self) -> None:
        from traincap import pacing, session, train, transport, wire

        self.session, self.train, self.transport = session, train, transport
        self.params = session.SessionParams(
            n_trains=self.N_TRAINS,
            n_packets=N_PACKETS,
            desired_rate=DESIRED_BPS,
            geometry=wire.FrameGeometry(FRAME),
            pacer=pacing.PacerConfig(pacing.PURE_SPIN),
        )

    def trace_targets(self) -> list:
        import tracing

        return [t for ep in self.endpoints for t in tracing.endpoint_targets(ep)]

    def _warm_up(self, receiver, reflector=None) -> None:
        """One train through each role alone: no inter-train or session sleeps."""
        one = replace(self.params, n_trains=1)
        self.session.run_sender(one, self.sender)
        if reflector is not None:
            self.session.run_reflector(one, reflector)
        self.session.run_receiver(one, receiver)
        self._drain()

    def _drain(self) -> int:
        """Datagrams left in any socket after a round (untraced)."""
        n = 0
        for ep in self.endpoints:
            while type(ep).recv(ep, time.monotonic_ns()) is not None:
                n += 1
        return n

    @staticmethod
    def _by_id(items) -> dict[int, list]:
        out = defaultdict(list)
        for item in items:
            out[item.train_id].append(item)
        return out

    def _check_estimates(self, sender_rec, receiver_rec) -> tuple[float, float]:
        send = checks.check_estimate(self.train.estimate_send_rate(sender_rec), sender_rec.send_ts, FRAME, "send estimate")
        recv = checks.check_estimate(
            self.train.estimate_receive_rate(receiver_rec), receiver_rec.recv_ts, FRAME, "receive estimate"
        )
        return send, recv

    @staticmethod
    def _check_apc(report, receiver_records) -> None:
        complete = [r for r in receiver_records if r.status.value == "complete"]
        want = statistics.median(
            checks.first_last_rate(len(r.recv_ts), FRAME, r.recv_ts[-1] - r.recv_ts[0]) for r in complete
        )
        if report.apc_estimate is None or abs(report.apc_estimate - want) > checks.REL_TOL * want:
            raise checks.CheckError(f"APC {report.apc_estimate!r} != median receive rate {want!r}")

    def close(self) -> None:
        for ep in self.endpoints:
            ep.close()


class UdpRoundtrip(_Udp):
    """One thread runs sender, reflector and receiver alone, one after another.

    A batch of trains fits the socket buffers, so each role drains a full
    queue at its own top speed and each figure is that role's per-packet cost.
    """

    name = "udp-roundtrip"

    def setup(self) -> None:
        self._setup_params()
        self.reflector = self._open()
        self.sender = self._open(remote=self.reflector.local_address)
        self._warm_up(self.sender, self.reflector)

    def round(self, index: int) -> dict:
        session, params = self.session, self.params
        self._phase("send")
        sent = session.run_sender(params, self.sender)
        self._phase("reflect")
        log = session.run_reflector(params, self.reflector)
        self._phase("recv")
        received, report = session.run_receiver(params, self.sender)
        self._phase("")
        leftover = self._drain()

        reflected, back = self._by_id(log), self._by_id(received)
        out = {"attempted": params.n_trains, "failed": 0, "leftover": leftover, "ref_ns": host_speed_ns(),
               "send": [], "in": [], "out": [], "recv": [], "host": []}
        for rec in sent:
            entries, recs = reflected.get(rec.train_id, []), back.get(rec.train_id, [])
            if (
                rec.status.value != "complete"
                or len(entries) != 1 or not checks.reflection_whole(entries[0], N_PACKETS)
                or len(recs) != 1 or not checks.train_complete(recs[0], N_PACKETS)
            ):
                out["failed"] += 1
                continue
            entry, rx = entries[0], recs[0]
            checks.check_causal(rec.train_id, [rec.send_ts, entry.ingress_ts, entry.egress_ts, rx.recv_ts])
            checks.check_reflect_order(entry)
            send, recv = self._check_estimates(rec, rx)
            ingress = checks.first_last_rate(N_PACKETS, FRAME, entry.ingress_ts[-1] - entry.ingress_ts[0])
            egress = checks.first_last_rate(N_PACKETS, FRAME, entry.egress_ts[-1] - entry.egress_ts[0])
            out["send"].append(send)
            out["in"].append(ingress)
            out["out"].append(egress)
            out["recv"].append(recv)
            out["host"].append(sum(C_BITS * 1e9 / r for r in (send, ingress, egress, recv)))
        if out["failed"] == 0:
            self._check_apc(report, received)
        return out

    def figures(self, rounds: list[dict]) -> dict[str, float]:
        figures = {
            "send_gbps": _median(_pooled(rounds, "send")) / 1e9,
            "recv_gbps": _median(_pooled(rounds, "recv")) / 1e9,
            "host_ns_per_pkt": _median(_pooled(rounds, "host")),
            "reflect_in_gbps": _median(_pooled(rounds, "in")) / 1e9,
            "reflect_out_gbps": _median(_pooled(rounds, "out")) / 1e9,
        }
        return _scaled(figures, _speed(rounds), rates=("send_gbps", "recv_gbps"), times=("host_ns_per_pkt",))


class UdpPaired(_Udp):
    """``run_paired``: sender and receiver threads share one interpreter.

    The roles contend for the interpreter lock and the receiver stamps in
    user space, so a gain bought by busier receiving shows here as a loss.
    """

    name = "udp-paired"
    N_TRAINS = 20  # per session; the default 10 ms inter-train gap keeps the default overall timeout

    def setup(self) -> None:
        self._setup_params()
        self.receiver = self._open()
        self.sender = self._open(remote=self.receiver.local_address)
        self._warm_up(self.receiver)

    def round(self, index: int) -> dict:
        params = self.params
        self._phase("paired")
        sent, received, report = self.session.run_paired(params, self.sender, self.receiver)
        self._phase("")
        leftover = self._drain()

        back = self._by_id(received)
        ok = [
            (rec, back[rec.train_id][0])
            for rec in sent
            if rec.status.value == "complete"
            and len(back.get(rec.train_id, [])) == 1
            and checks.train_complete(back[rec.train_id][0], N_PACKETS)
        ]
        out = {"attempted": params.n_trains, "failed": params.n_trains - len(ok), "leftover": leftover,
               "ref_ns": host_speed_ns(), "send": [], "recv": [], "host": []}
        if len(ok) < params.n_trains and sender_paused(sent, params.idle_timeout_ns):
            # A host pause, not a program fault: the session is left out of
            # the figures and counted apart.
            return {**out, "attempted": 0, "failed": 0, "stalled": 1}
        for rec, rx in ok:
            checks.check_causal(rec.train_id, [rec.send_ts, rx.recv_ts])
            send, recv = self._check_estimates(rec, rx)
            out["send"].append(send)
            out["recv"].append(recv)
            out["host"].append(C_BITS * 1e9 / send + C_BITS * 1e9 / recv)
        if ok:
            self._check_apc(report, received)
        return out

    def figures(self, rounds: list[dict]) -> dict[str, float]:
        figures = {
            "send_gbps": _median(_pooled(rounds, "send")) / 1e9,
            # The APC apc_report gives over every train of the run.
            "recv_gbps": _median(_pooled(rounds, "recv")) / 1e9,
            "host_ns_per_pkt": _median(_pooled(rounds, "host")),
        }
        return _scaled(figures, _speed(rounds), rates=("send_gbps", "recv_gbps"), times=("host_ns_per_pkt",))


WORKLOADS = {w.name: w for w in (SimTables, UdpRoundtrip, UdpPaired)}
