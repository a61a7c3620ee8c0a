"""The names the benchmark under bench/ looks up in traincap still exist.

bench/tracing.py wraps functions by attribute name and bench/workloads.py
opens and drains endpoints by name, so a rename or a removal in the
library would break the benchmark's traced mode without failing any
other test. bench/ is imported here read-only.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

from traincap import transport

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_module_targets_exist():
    missing = [name for owner, attr, name, _ in _tracing().module_targets()
               if not hasattr(owner, attr)]
    assert missing == []


def test_endpoint_targets_exist():
    missing = [name for owner, attr, name, _ in _tracing().endpoint_targets(transport.UdpEndpoint)
               if not hasattr(owner, attr)]
    assert missing == []


def test_endpoint_open_and_drain_as_the_benchmark_does():
    def open_ep(remote=None):
        return transport.open_endpoint(
            transport.BackendDescriptor(
                kind=transport.OS_DATAGRAM,
                payload_size=64,
                local=("127.0.0.1", 0),
                remote=remote,
            )
        )

    rx = open_ep()
    tx = open_ep(rx.local_address)
    try:
        tx.send(bytes(64))
        got = type(rx).recv(rx, time.monotonic_ns() + 1_000_000_000)
        assert got is not None and got[0] == bytes(64)
        assert type(rx).recv(rx, time.monotonic_ns()) is None
    finally:
        tx.close()
        rx.close()
