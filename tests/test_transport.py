"""Loopback and UDP endpoint behavior."""

from __future__ import annotations

import errno
import socket
import time

import pytest

from traincap import transport
from traincap.transport import (
    MAX_UDP_PAYLOAD,
    OS_DATAGRAM,
    BackendDescriptor,
    TransportError,
    UdpEndpoint,
    loopback_pair,
)


def now():
    return time.monotonic_ns()


class TestDescriptor:
    def test_payload_too_small(self):
        with pytest.raises(ValueError, match="payload too small"):
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=15)
        with pytest.raises(ValueError, match="payload too small"):
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=19)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown backend kind"):
            BackendDescriptor(kind="carrier-pigeon", payload_size=100)

    def test_payload_too_large_for_udp(self):
        assert MAX_UDP_PAYLOAD == 65_535 - 20 - 8
        BackendDescriptor(kind=OS_DATAGRAM, payload_size=MAX_UDP_PAYLOAD)
        with pytest.raises(ValueError, match="exceeds UDP"):
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=MAX_UDP_PAYLOAD + 1)


class TestLoopback:
    def test_round_trip_unchanged(self):
        a, b = loopback_pair(64)
        payload = bytes(range(64))
        a.send(payload)
        got, _, source = b.recv_from(now() + 100_000_000)
        assert got == payload
        assert source is None

    def test_fifo_order_50(self):
        a, b = loopback_pair(24)
        for i in range(50):
            a.send(i.to_bytes(4, "big") + bytes(20))
        got = [b.recv_from(now() + 100_000_000)[0][:4] for _ in range(50)]
        assert got == [i.to_bytes(4, "big") for i in range(50)]

    def test_recv_ts_after_send_ts(self):
        # On loopback the receive stamp is the send stamp itself.
        a, b = loopback_pair(32)
        send_ts = a.send(bytes(32))
        _, ts, _ = b.recv_from(now() + 100_000_000)
        assert ts == send_ts

    def test_send_timestamps_strictly_increasing(self):
        a, _ = loopback_pair(32)
        stamps = [a.send(bytes(32)) for _ in range(200)]
        assert all(b > a_ for a_, b in zip(stamps, stamps[1:]))

    def test_timeout_when_empty(self):
        _, b = loopback_pair(32)
        t0 = now()
        assert b.recv_from(t0 + 10_000_000) is None
        elapsed = now() - t0
        assert 10_000_000 <= elapsed <= 60_000_000  # deadline plus scheduler slop

    def test_sender_buffer_reuse_is_safe(self):
        a, b = loopback_pair(32)
        buf = bytearray(32)
        buf[0] = 1
        a.send(buf)
        buf[0] = 2  # mutate after send; the queued copy must not change
        a.send(buf)
        first = b.recv_from(now() + 100_000_000)
        second = b.recv_from(now() + 100_000_000)
        assert first[0][0] == 1
        assert second[0][0] == 2

    def test_send_only_to_peer(self):
        a, b = loopback_pair(32)
        with pytest.raises(TransportError, match="only to its peer"):
            a.send(bytes(32), ("127.0.0.1", 9))
        assert b.recv_from(now() + 1_000_000) is None

    def test_send_stamped_queues_the_given_stamp_and_a_copy(self):
        # pace_send's hook: the peer receives a copy stamped with the
        # stamp it was given, and no clock is read for it.
        a, b = loopback_pair(32)
        buf = bytearray(32)
        a.send_stamped(buf, 12_345)
        buf[0] = 9
        got, ts, _ = b.recv_from(now() + 100_000_000)
        assert (bytes(got), ts) == (bytes(32), 12_345)

    def test_stamped_sender_is_the_peer_hook(self):
        a, b = loopback_pair(32)
        a.stamped_sender(None)(bytes(32), 7)
        assert b.recv_from(now() + 100_000_000)[1] == 7
        with pytest.raises(TransportError, match="only to its peer"):
            a.stamped_sender(("127.0.0.1", 9))

    def test_warm_up_sends_nothing(self):
        a, b = loopback_pair(32)
        a.warm_up()
        assert b.recv_from(now()) is None


class TestUdp:
    def test_localhost_round_trip_full_payload(self):
        rx = UdpEndpoint(
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=1472, local=("127.0.0.1", 0))
        )
        tx = UdpEndpoint(
            BackendDescriptor(
                kind=OS_DATAGRAM, payload_size=1472, remote=rx.local_address
            )
        )
        try:
            payload = bytes(i % 251 for i in range(1472))
            send_ts = tx.send(payload)
            got, ts, _ = rx.recv_from(now() + 1_000_000_000)
            assert got == payload
            assert ts >= send_ts
        finally:
            tx.close()
            rx.close()

    def test_occupied_port_bind_error(self):
        first = UdpEndpoint(
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=64, local=("127.0.0.1", 0))
        )
        try:
            with pytest.raises(TransportError, match="bind failed"):
                UdpEndpoint(
                    BackendDescriptor(
                        kind=OS_DATAGRAM, payload_size=64, local=first.local_address
                    )
                )
        finally:
            first.close()

    def test_socket_creation_error_closes_what_was_opened(self, monkeypatch):
        # The second socket (the warm-up sink) cannot be created, as when
        # the process is out of file descriptors.
        real_socket = transport.socket.socket
        opened = []

        def socket_factory(*args):
            if opened:
                raise OSError(errno.EMFILE, "Too many open files")
            opened.append(real_socket(*args))
            return opened[-1]

        monkeypatch.setattr(transport.socket, "socket", socket_factory)
        with pytest.raises(TransportError, match="Too many open files"):
            UdpEndpoint(BackendDescriptor(kind=OS_DATAGRAM, payload_size=64))
        (first,) = opened
        assert first.fileno() == -1

    def test_send_without_remote(self):
        ep = UdpEndpoint(
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=64, local=("127.0.0.1", 0))
        )
        try:
            with pytest.raises(TransportError, match="no remote endpoint"):
                ep.send(bytes(64))
            with pytest.raises(TransportError, match="no remote endpoint"):
                ep.send_stamped(bytes(64), 1)
        finally:
            ep.close()

    def test_send_stamped_failure_is_a_transport_error(self):
        rx = UdpEndpoint(
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=64, local=("127.0.0.1", 0))
        )
        tx = UdpEndpoint(
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=64, remote=rx.local_address)
        )
        try:
            tx.send_stamped(bytes(range(64)), 1)
            got, _, _ = rx.recv_from(now() + 1_000_000_000)
            assert got == bytes(range(64))
        finally:
            tx.close()
            rx.close()
        with pytest.raises(TransportError, match="send failed"):
            tx.send_stamped(bytes(64), 1)

    def test_stamped_sender_sends_to_its_destination(self):
        # The reflector's hook: one sendto toward the given address, from
        # an endpoint with no remote, with the probe's bytes as given.
        rx = UdpEndpoint(
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=64, local=("127.0.0.1", 0))
        )
        tx = UdpEndpoint(
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=64, local=("127.0.0.1", 0))
        )
        try:
            send = tx.stamped_sender(rx.local_address)
            send(bytes(range(64)), 1)
            got, _, source = rx.recv_from(now() + 1_000_000_000)
            assert got == bytes(range(64))
            assert source == tx.local_address
            with pytest.raises(TransportError, match="no remote endpoint"):
                tx.send_stamped(bytes(64), 1)
        finally:
            tx.close()
            rx.close()
        with pytest.raises(TransportError, match="send failed"):
            send(bytes(64), 1)

    def test_warm_ups_leave_at_most_one_datagram_in_the_sink(self):
        # A sink that filled would count every later warm-up as a UDP
        # receive-buffer drop on the host.
        ep = UdpEndpoint(BackendDescriptor(kind=OS_DATAGRAM, payload_size=1472))
        try:
            for _ in range(200):
                ep.warm_up()
            queued = 0
            try:
                while True:
                    ep._sink.recv(1, socket.MSG_DONTWAIT)
                    queued += 1
            except BlockingIOError:
                pass
        finally:
            ep.close()
        assert queued <= 1

    def test_close_closes_the_warm_up_sink(self):
        ep = UdpEndpoint(
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=64, local=("127.0.0.1", 0))
        )
        sink = ep._sink
        assert sink.fileno() != -1
        ep.close()
        assert sink.fileno() == -1

    def test_timeout(self):
        ep = UdpEndpoint(
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=64, local=("127.0.0.1", 0))
        )
        try:
            t0 = now()
            assert ep.recv_from(t0 + 10_000_000) is None
            assert now() - t0 >= 10_000_000
        finally:
            ep.close()


class TestSwapEquivalence:
    """One code path must behave identically over loopback and UDP."""

    @staticmethod
    def _exercise(tx, rx):
        stamps = []
        for i in range(20):
            buf = bytearray(64)
            buf[0] = i
            stamps.append(tx.send(buf))
        out = []
        for _ in range(20):
            payload, ts, _ = rx.recv_from(now() + 1_000_000_000)
            assert ts >= stamps[payload[0]]
            out.append(payload[0])
        assert out == list(range(20))
        assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_loopback(self):
        a, b = loopback_pair(64)
        self._exercise(a, b)

    def test_udp(self):
        rx = UdpEndpoint(
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=64, local=("127.0.0.1", 0))
        )
        tx = UdpEndpoint(
            BackendDescriptor(kind=OS_DATAGRAM, payload_size=64, remote=rx.local_address)
        )
        try:
            self._exercise(tx, rx)
        finally:
            tx.close()
            rx.close()
