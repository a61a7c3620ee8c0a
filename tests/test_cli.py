"""Command-line behavior: flags, output formats, exit codes."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import queue
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from traincap import cli, session, simnet
from traincap.cli import (
    EXIT_NO_VALID_TRAINS,
    EXIT_OK,
    EXIT_TRANSPORT,
    EXIT_USAGE,
    build_parser,
    main,
    parse_endpoint,
    parse_rate,
)
from traincap.transport import BackendDescriptor, OS_DATAGRAM, TransportError, UdpEndpoint


# A reflector that returns at once should a case parse after all.
REFLECT = ["reflect", "--local", "127.0.0.1:0", "--timeout", "0.1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def run_failing(capsys, *argv):
    """Exit code and captured output of a command expected to fail cleanly."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr()


class TestParsers:
    def test_rate_forms(self):
        assert parse_rate("10e9") == 10_000_000_000
        assert parse_rate("2.5G") == 2_500_000_000
        assert parse_rate("100M") == 100_000_000
        assert parse_rate("833k") == 833_000
        assert parse_rate("12144") == 12144

    def test_rate_invalid(self):
        for bad in ("fast", "", "-5M", "0"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_rate(bad)

    def test_endpoint_forms(self, monkeypatch):
        monkeypatch.delenv("TRAINCAP_PORT", raising=False)
        assert parse_endpoint("10.0.0.1:9000") == ("10.0.0.1", 9000)
        assert parse_endpoint(":9000") == ("", 9000)
        assert parse_endpoint("10.0.0.1") == ("10.0.0.1", 8620)
        assert parse_endpoint(":") == ("", 8620)

    def test_port_env_override(self, monkeypatch):
        monkeypatch.setenv("TRAINCAP_PORT", "7777")
        assert parse_endpoint("host") == ("host", 7777)
        assert parse_endpoint(":") == ("", 7777)


class TestSimulateCommand:
    def test_stack_csv_mean(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--preset", "stack",
            "--packets", "50", "--trains", "10", "--rate", "10e9",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 10
        mean = sum(float(r["est_send_rate_bps"]) for r in rows) / 10
        assert 2.4e9 < mean < 2.7e9

    def test_mapped_batch_recv_exceeds_desired(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--preset", "mapped-batch",
            "--packets", "50", "--trains", "3", "--rate", "9.87G",
        )
        assert code == 0
        for row in parse_csv(out):
            assert float(row["est_recv_rate_bps"]) > float(row["desired_rate_bps"])

    def test_csv_json_same_values(self, capsys):
        # A 1 Gbit/s link under a 5 Gbit/s train: the override reaches
        # the path model, which caps the receive rate but not the send.
        args = ("simulate", "--preset", "bypass", "--packets", "20",
                "--trains", "4", "--rate", "5G", "--link-capacity", "1G")
        _, csv_out = run_cli(capsys, *args, "--out", "csv")
        _, json_out = run_cli(capsys, *args, "--out", "json")
        csv_rows = parse_csv(csv_out)
        json_rows = json.loads(json_out)
        assert len(csv_rows) == len(json_rows) == 4
        for c, j in zip(csv_rows, json_rows):
            assert int(c["train_id"]) == j["train_id"]
            assert int(c["n_packets"]) == j["n_packets"]
            assert int(c["desired_rate_bps"]) == j["desired_rate_bps"]
            assert float(c["est_send_rate_bps"]) == j["est_send_rate_bps"]
            assert float(c["est_recv_rate_bps"]) == j["est_recv_rate_bps"]
            assert c["status"] == j["status"]
            assert j["est_recv_rate_bps"] < 1e9 < j["est_send_rate_bps"]

    def test_seed_reproduces_byte_identical(self, capsys):
        args = ("simulate", "--preset", "stack", "--packets", "30", "--trains", "5",
                "--rate", "10G", "--jitter", "0.1", "--seed", "9", "--out", "json")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second
        _, other = run_cli(capsys, "simulate", "--preset", "stack", "--packets", "30",
                           "--trains", "5", "--rate", "10G", "--jitter", "0.1",
                           "--seed", "10", "--out", "json")
        assert first != other

    def test_jitter_without_seed_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "simulate", "--preset", "stack", "--rate", "1G",
                          "--jitter", "0.1")
        assert code == EXIT_USAGE

    def test_report_jitter_without_seed_is_usage_error(self, capsys):
        code, out = run_cli(capsys, "report", "--experiment", "same-method",
                            "--jitter", "0.1")
        assert code == EXIT_USAGE
        assert out == ""

    def test_zero_receive_span_rows(self, capsys):
        # mapped-batch stamps 20 packets in one batch of 25: no receive
        # rate, a send rate, and the verdict simulate_train gave.
        args = ("simulate", "--preset", "mapped-batch", "--rate", "10G",
                "--packets", "20", "--trains", "2")
        _, csv_out = run_cli(capsys, *args)
        assert csv_out.splitlines() == [
            "train_id,n_packets,desired_rate_bps,est_send_rate_bps,est_recv_rate_bps,status",
            "0,20,10000000000,9874860909.013096,,zero-duration",
            "1,20,10000000000,9874860909.013096,,zero-duration",
        ]
        assert cli_json(capsys, *args) == [
            {"train_id": i, "n_packets": 20, "desired_rate_bps": 10_000_000_000,
             "est_send_rate_bps": 9874860909.013096, "est_recv_rate_bps": None,
             "status": "zero-duration"}
            for i in range(2)
        ]

    def test_one_packet_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "stack", "--rate", "1G", "--packets", "1"])
        assert exc.value.code == EXIT_USAGE

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "records.json"
        code, out = run_cli(capsys, "simulate", "--preset", "bypass", "--rate", "1G",
                            "--trains", "2", "--out", "json", "--out-file", str(path))
        assert code == 0
        assert out == ""
        assert len(json.loads(path.read_text())) == 2


class TestLoopbackCommands:
    def test_send_loopback(self, capsys):
        # One complete train record with a send-rate estimate; accuracy
        # under scheduler noise is asserted by the median-based session
        # and acceptance tests, not by a single train.
        code, out = run_cli(
            capsys, "send", "--backend", "loopback", "--rate", "1e8",
            "--packets", "50", "--trains", "1", "--pacer", "pure-spin",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["status"] == "complete"
        assert float(rows[0]["est_send_rate_bps"]) > 0

    def test_receive_loopback(self, capsys):
        code, out = run_cli(
            capsys, "receive", "--backend", "loopback", "--rate", "1e8",
            "--packets", "50", "--trains", "1", "--pacer", "pure-spin",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["status"] == "complete"
        assert float(rows[0]["est_recv_rate_bps"]) > 0


class TestUdpCommands:
    def test_send_to_a_reflector_over_localhost(self, monkeypatch, tmp_path):
        # reflect runs in a thread; send learns its port from the endpoint
        # the reflector opened.
        addresses = queue.Queue()
        open_endpoint = cli.open_endpoint

        def open_and_tell(descriptor):
            endpoint = open_endpoint(descriptor)
            addresses.put(endpoint.local_address)
            return endpoint

        monkeypatch.setattr(cli, "open_endpoint", open_and_tell)
        reflected, sent = tmp_path / "reflected.json", tmp_path / "sent.json"
        codes = {}
        reflector = threading.Thread(target=lambda: codes.setdefault("reflect", main([
            "reflect", "--local", "127.0.0.1:0", "--trains", "2", "--timeout", "10",
            "--out", "json", "--out-file", str(reflected),
        ])))
        reflector.start()
        try:
            host, port = addresses.get(timeout=10)
            codes["send"] = main([
                "send", "--backend", "udp", "--remote", f"{host}:{port}", "--rate", "100M",
                "--trains", "2", "--packets", "10", "--gap-ms", "1", "--timestamps",
                "--out", "json", "--out-file", str(sent),
            ])
        finally:
            reflector.join(timeout=15)
        assert not reflector.is_alive()
        assert codes == {"reflect": EXIT_OK, "send": EXIT_OK}
        assert json.loads(reflected.read_text()) == [
            {"train_id": i, "n_packets": 10, "n_reflected": 10, "status": "reflected"}
            for i in range(2)
        ]
        rows = json.loads(sent.read_text())
        assert [(r["train_id"], r["status"]) for r in rows] == [(0, "complete"), (1, "complete")]
        for row in rows:
            assert row["est_send_rate_bps"] > 0 and row["recv_ts"] is None
            assert len(row["send_ts"]) == 10
            assert all(type(t) is int for t in row["send_ts"])


class TestExitCodes:
    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["send", "--rate", "1G", "--backend", "bogus"])
        assert exc.value.code == 2

    def test_send_udp_requires_remote(self, capsys):
        code, _ = run_cli(capsys, "send", "--rate", "1G")
        assert code == EXIT_USAGE

    def test_transport_error_is_3(self, capsys):
        holder = UdpEndpoint(
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=1472, local=("127.0.0.1", 0))
        )
        try:
            addr = f"127.0.0.1:{holder.local_address[1]}"
            code, _ = run_cli(capsys, "receive", "--local", addr, "--timeout", "0.1")
        finally:
            holder.close()
        assert code == EXIT_TRANSPORT

    @pytest.mark.parametrize("env, argv", [
        (None, ["simulate", "--preset", "stack", "--rate", "1G", "--jitter", "1.5", "--seed", "1"]),
        (None, ["report", "--experiment", "same-method", "--jitter", "-0.1", "--seed", "1"]),
        (None, ["report", "--experiment", "sweep", "--frame-size", "10"]),
        (None, ["simulate", "--preset", "stack", "--rate", "1G", "--frame-size", "61"]),
        (None, ["send", "--backend", "loopback", "--rate", "1G", "--gap-ms", "0"]),
        (None, ["send", "--backend", "loopback", "--rate", "1G", "--gap-ms", "1e-7"]),
        (None, ["send", "--rate", "1G", "--remote", "127.0.0.1:x"]),
        (None, ["receive", "--local", "127.0.0.1:70000"]),
        (None, ["receive", "--local", "127.0.0.1:0", "--timeout", "nan"]),
        (None, ["reflect", "--local", "127.0.0.1:0", "--timeout", "-1"]),
        ("abc", ["reflect"]),
        (None, ["simulate", "--preset", "stack", "--rate", "1e14"]),
        (None, ["simulate", "--preset", "stack", "--rate", "inf"]),
        (None, ["send", "--backend", "loopback", "--rate", "1G", "--trains", "1",
                "--packets", "70000"]),
        (None, ["send", "--remote", "127.0.0.1:9", "--frame-size", "70000", "--rate", "1M",
                "--trains", "2", "--packets", "2"]),
        (None, ["receive", "--local", "127.0.0.1:0", "--timeout", "0.1", "--frame-size", "65550"]),
        (None, [*REFLECT, "--frame-size", "65550"]),
    ], ids=["jitter-1.5", "jitter-negative", "frame-10", "frame-61", "gap-0", "gap-below-1ns",
            "remote-port-x", "local-port-70000", "timeout-nan",
            "timeout-negative", "env-port-abc",
            "rate-unschedulable", "rate-inf", "packets-70000",
            "send-frame-70000", "receive-frame-65550", "reflect-frame-65550"])
    def test_bad_option_values_are_usage_errors(self, capsys, monkeypatch, env, argv):
        def refuse(descriptor):
            raise AssertionError("a usage error opened a socket")

        monkeypatch.setattr(cli, "open_endpoint", refuse)
        if env is not None:
            monkeypatch.setenv("TRAINCAP_PORT", env)
        code, captured = run_failing(capsys, *argv)
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "stack", "--rate", "1G"],
        ["send", "--backend", "loopback", "--rate", "100M"],
    ], ids=["simulate", "send-loopback"])
    def test_unwritable_out_file_is_a_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("the command ran before its output file was checked")

        for name in ("open_endpoint", "run_loopback_session", "simulate_train"):
            monkeypatch.setattr(cli, name, refuse)
        path = tmp_path / "missing" / "x.csv"
        code, captured = run_failing(capsys, *argv, "--out-file", str(path))
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert str(path) in captured.err and "Traceback" not in captured.err

    def test_no_valid_trains_is_4(self, capsys):
        code, _ = run_cli(capsys, "receive", "--local", "127.0.0.1:0",
                          "--trains", "1", "--timeout", "0.2")
        assert code == EXIT_NO_VALID_TRAINS


class TestReportCommand:
    def test_experiment_sweep(self, capsys):
        code, out = run_cli(capsys, "report", "--experiment", "sweep", "--out", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 16
        for row in rows:
            assert row["est_recv_rate_bps"] >= row["desired_rate_bps"] >= row["est_send_rate_bps"]

    def test_experiment_tables_csv_json_match(self, capsys):
        _, csv_out = run_cli(capsys, "report", "--experiment", "sender-vs-reference",
                             "--out", "csv")
        _, json_out = run_cli(capsys, "report", "--experiment", "sender-vs-reference",
                              "--out", "json")
        csv_rows = parse_csv(csv_out)
        json_rows = json.loads(json_out)
        for c, j in zip(csv_rows, json_rows):
            assert c["preset"] == j["preset"]
            assert float(c["mean_bps"]) == j["mean_bps"]

    def test_summarize_records_file(self, capsys, tmp_path):
        path = tmp_path / "records.csv"
        code, _ = run_cli(capsys, "simulate", "--preset", "bypass", "--rate", "5G",
                          "--trains", "5", "--out-file", str(path))
        assert code == 0
        code, out = run_cli(capsys, "report", "--in", str(path))
        assert code == 0
        rows = parse_csv(out)
        metrics = {r["metric"] for r in rows}
        assert metrics == {"est_send_rate_bps", "est_recv_rate_bps"}
        for r in rows:
            assert int(r["count"]) == 5

    def test_one_schedule_per_configuration(self, capsys, monkeypatch):
        # Jittered trains of one configuration share its schedule: four
        # presets give four schedules for 4 x 10 repeats x 10 trains, each
        # run once through the simulator's one per-train core.
        calls = {"build_schedule": 0, "_simulate": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(session, "build_schedule")
        counted(simnet, "_simulate")
        code, _ = run_cli(capsys, "report", "--experiment", "same-method",
                          "--jitter", "0.1", "--seed", "1")
        assert code == EXIT_OK
        assert calls == {"build_schedule": 4, "_simulate": 400}

    @pytest.mark.parametrize("kind", ["same-method", "receiver-vs-reference"])
    def test_zero_duration_preset_exits_4(self, capsys, kind):
        # mapped-batch stamps a whole 20-packet train in one batch of 25
        # with no per-packet receive cost, so its receive span is zero.
        code = main(["report", "--experiment", kind, "--packets", "20"])
        captured = capsys.readouterr()
        assert code == EXIT_NO_VALID_TRAINS
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "mapped-batch" in lines[0] and "Traceback" not in captured.err

    @pytest.mark.parametrize("flag, value", [("--packets", "1"), ("--trains", "0"),
                                             ("--repeats", "0"), ("--trains", "x")])
    def test_bad_counts_are_usage_errors(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--experiment", "same-method", flag, value])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("content", [
        None,  # no such file
        "train_id,est_send_rate_bps,est_recv_rate_bps\n0,fast,1e9\n",
        "train_id,est_send_rate_bps,est_recv_rate_bps\n0,1e9,inf\n",
        "train_id,est_send_rate_bps,est_recv_rate_bps\n0,nan,1e9\n",
        '[{"train_id": 0, "est_send_rate_bps": "fast"}]',
        '[{"train_id": 0, "est_send_rate_bps": Infinity}]',
        '[{"train_id": 0, "est_recv_rate_bps": NaN}]',
        "[1, 2]",
    ], ids=["missing", "csv-text", "csv-inf", "csv-nan", "json-text", "json-inf", "json-nan",
            "json-not-objects"])
    def test_bad_records_file_is_usage_error(self, capsys, tmp_path, content):
        path = tmp_path / "records"
        if content is not None:
            path.write_text(content)
        code, captured = run_failing(capsys, "report", "--in", str(path))
        assert code == EXIT_USAGE
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and str(path) in lines[0]

    def test_report_needs_source(self):
        with pytest.raises(SystemExit) as exc:
            main(["report"])
        assert exc.value.code == 2

    def test_report_takes_one_source(self, capsys, monkeypatch):
        # --experiment and --in exclude each other: passing both is a
        # usage error, found before any table is computed or file read.
        def refuse(*args, **kwargs):
            raise AssertionError("report ran with two sources")

        monkeypatch.setattr(cli, "run_experiment", refuse)
        monkeypatch.setattr(cli, "read_rows", refuse)
        code, captured = run_failing(capsys, "report", "--experiment", "sweep",
                                     "--in", "records.csv")
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "not allowed with" in captured.err


class TestSharedParser:
    """One parser serves every main call in a process and keeps no state."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("bad", [
        ["simulate", "--preset", "stack", "--rate", "1G", "--trains", "3", "--jitter", "1.5",
         "--seed", "1"],
        ["simulate", "--preset", "stack", "--rate", "1G", "--jitter", "0.1"],
        ["report", "--experiment", "sweep", "--in", "records.csv"],
    ], ids=["argparse-error", "main-usage-error", "exclusive-sources"])
    def test_usage_error_leaves_no_state(self, capsys, bad):
        good = ["simulate", "--preset", "stack", "--rate", "1G", "--trains", "2", "--timestamps"]
        src = str(Path(cli.__file__).resolve().parent.parent)
        fresh = subprocess.run([sys.executable, "-m", "traincap.cli", *good],
                               env={**os.environ, "PYTHONPATH": src},
                               capture_output=True, timeout=60)
        assert fresh.returncode == EXIT_OK, fresh.stderr
        code, _ = run_failing(capsys, *bad)
        assert code == EXIT_USAGE
        code, captured = run_failing(capsys, *good)
        assert code == EXIT_OK
        # Bytes, not text mode, which would fold the CSV's \r\n line ends.
        assert (captured.out, captured.err) == (fresh.stdout.decode(), fresh.stderr.decode())

    def test_port_env_read_per_call(self, capsys, monkeypatch):
        bound = []

        def refuse(descriptor):
            bound.append(descriptor.local)
            raise TransportError("not opened")

        monkeypatch.setattr(cli, "open_endpoint", refuse)
        for port in ("7001", "7002"):
            monkeypatch.setenv("TRAINCAP_PORT", port)
            assert run_cli(capsys, "reflect", "--timeout", "0.1")[0] == EXIT_TRANSPORT
        assert bound == [("", 7001), ("", 7002)]


class TestCommandOptions:
    """Each subcommand declares only the options it reads."""

    @staticmethod
    def _subparsers():
        (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def test_option_strings_per_command(self):
        common = ["-h", "--help", "--trains", "--frame-size", "--out", "--out-file"]
        records = ["--rate", "--timestamps"]
        sender = ["--gap-ms", "--pacer"]
        expected = {
            "send": [*common, "--packets", *records, *sender, "--backend", "--remote"],
            "receive": [*common, "--packets", *records, *sender, "--backend", "--local",
                        "--timeout"],
            "reflect": [*common, "--local", "--timeout"],
            "simulate": [*common, "--packets", *records, "--preset", "--seed", "--jitter",
                         "--link-capacity"],
            "report": [*common, "--packets", "--experiment", "--repeats", "--seed", "--jitter",
                       "--in"],
        }
        got = {
            name: sorted(s for a in parser._actions for s in a.option_strings)
            for name, parser in self._subparsers().items()
        }
        assert got == {name: sorted(opts) for name, opts in expected.items()}

    @pytest.mark.parametrize("argv", [
        [*REFLECT, "--packets", "7"],
        [*REFLECT, "--rate", "5G"],
        [*REFLECT, "--timestamps"],
        [*REFLECT, "--gap-ms", "3"],
        [*REFLECT, "--pacer", "pure-spin"],
        [*REFLECT, "--spin-window-us", "100"],
        ["simulate", "--preset", "stack", "--rate", "1G", "--gap-ms", "3"],
        ["simulate", "--preset", "stack", "--rate", "1G", "--pacer", "pure-spin"],
        ["simulate", "--preset", "stack", "--rate", "1G", "--spin-window-us", "100"],
        ["report", "--experiment", "sender-vs-reference", "--rate", "2.5G"],
        ["report", "--experiment", "same-method", "--timestamps"],
        ["report", "--experiment", "same-method", "--gap-ms", "3"],
        ["report", "--experiment", "same-method", "--pacer", "pure-spin"],
        ["report", "--experiment", "same-method", "--spin-window-us", "100"],
        ["send", "--rate", "1G", "--spin-window-us", "100"],
        ["receive", "--spin-window-us", "100"],
    ], ids=lambda argv: argv[0] + next(a for a in reversed(argv) if a.startswith("--")))
    def test_removed_options_are_usage_errors(self, capsys, argv):
        code, captured = run_failing(capsys, *argv)
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


def cli_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--out", "json")
    assert code == 0
    return json.loads(out)


class TestSeedContract:
    """Literal outputs, recorded before the simulator's draws were inlined.

    The order of the jitter draws is part of the per-seed contract: the
    same seed must give these exact floats, bit for bit.
    """

    def cells(self, rows, preset):
        return {r["metric"]: (r["mean_bps"], r["std_bps"]) for r in rows if r["preset"] == preset}

    @pytest.mark.parametrize("kind, seed, preset, expected", [
        ("same-method", 1, "stack", {"est_send": (2583721001.948514, 5192878.789257857),
                                     "est_recv": (2624730045.276372, 4655703.488798338)}),
        ("same-method", 2, "mapped-batch", {"est_send": (9824725480.09919, 1077923.1417262696),
                                            "est_recv": (19345123537.061096, 0.0)}),
        ("receiver-vs-reference", 1, "stack", {"est_recv": (8097790496.594276, 17982510.167752475),
                                               "actual_recv": (9878105213.869345, 150295.11636326366)}),
        ("receiver-vs-reference", 2, "mapped-batch", {"est_recv": (19345123537.061096, 0.0),
                                                      "actual_recv": (9878092919.503708, 119671.04896481264)}),
    ])
    def test_jittered_tables(self, capsys, kind, seed, preset, expected):
        rows = cli_json(capsys, "report", "--experiment", kind, "--jitter", "0.1", "--seed", str(seed))
        assert self.cells(rows, preset) == expected

    @pytest.mark.parametrize("preset, expected", [
        ("stack", [(0, 0.0, 230664.59473732574, 10830.211519804081, 238202.95534072613),
                   (2, 0.0, 229594.5912687883, 10131.00553997515, 236376.1344294401)]),
        ("mapped-batch", [(0, 0.0, 59756.03269622334, 30809.52379553511, 61569.52379553515),
                          (2, 0.0, 59764.42083122874, 30814.591346724887, 61574.59134672492)]),
    ])
    def test_jittered_timestamps(self, capsys, preset, expected):
        rows = cli_json(capsys, "simulate", "--preset", preset, "--rate", "10G", "--trains", "3",
                        "--timestamps", "--jitter", "0.1", "--seed", "11")
        got = [(r["train_id"], r["send_ts"][0], r["send_ts"][-1], r["recv_ts"][0], r["recv_ts"][-1])
               for r in (rows[0], rows[-1])]
        assert got == expected

    @pytest.mark.parametrize("kind, preset, expected", [
        ("same-method", "rawcap", {"est_send": (6424224735.497993, 0.0),
                                   "est_recv": (5520000000.000001, 0.0)}),
        ("sender-vs-reference", "stack", {"est_send": (2580043956.0439563, 0.0),
                                          "actual_send": (2584777981.6513762, 0.0)}),
        ("receiver-vs-reference", "stack", {"est_recv": (8096000000.0, 0.0),
                                            "actual_recv": (9883810999.2254, 0.0)}),
    ])
    def test_jitter_free_tables(self, capsys, kind, preset, expected):
        rows = cli_json(capsys, "report", "--experiment", kind,
                        "--packets", "30", "--trains", "3", "--repeats", "4")
        assert self.cells(rows, preset) == expected

    def test_jitter_free_std_keeps_last_bits(self, capsys):
        # Ten equal rates summed and divided by ten need not give the rate
        # back; the std cell shows those last bits.
        rows = cli_json(capsys, "report", "--experiment", "same-method")
        stack = next(r for r in rows if r["preset"] == "stack" and r["metric"] == "est_send")
        assert (stack["min_bps"], stack["mean_bps"], stack["std_bps"], stack["rel_std_pct"]) == (
            2581587852.4945765, 2581587852.494576, 5.026304976413058e-07, 1.9469819597873315e-14)
