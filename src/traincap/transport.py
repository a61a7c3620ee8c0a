"""Send/receive backends with monotonic timestamping hooks.

Two real backends share one endpoint contract:

* ``loopback`` — an in-memory pair of endpoints joined by two
  ``queue.SimpleQueue``s, one per direction. Order and content are
  preserved exactly, and a datagram's receive timestamp is its send
  timestamp, free of receiver-side scheduling noise.
* ``os-datagram`` — a UDP socket. The portable OS stack is the one real
  transport; kernel-bypass style paths are modeled in :mod:`.simnet`.

Timestamps: ``send(payload, remote=None)``, the one ``send`` both
endpoints share, reads the monotonic clock immediately before handing
the payload with that stamp to the send hook toward ``remote`` (below;
the endpoint's own remote if None); a receive stamps the instant the
backend delivered the datagram. The stamps ``send`` returns on one
endpoint are strictly increasing; a same-ns collision is bumped by 1 ns.
``send`` writes nothing into the payload. No role sends through it.

In-band stamps: every probe, the sender's and the reflector's, leaves
through :func:`.pacing.pace_send`, which stamps it, writes that same
reading into its ``send_ts`` field and then calls a send hook
``hook(buf, ts)``. The hook reads no clock. ``stamped_sender(dest)``
builds the hook toward ``dest``: over UDP one ``sendto`` to ``dest``
with an ``OSError`` raised as ``TransportError``; on loopback (``dest``
None) it puts a copy of the probe with ``ts`` on the peer's queue, so
the peer's receive stamp is still the send stamp, and then yields the
interpreter lock once (``time.sleep(0)``), so the peer's receiving
thread runs between probes. ``send_stamped`` is the hook toward the
endpoint's remote (on loopback, its peer), which ``run_sender`` uses;
``run_reflector`` builds one per train, toward the train's source. So
kernel TX stamps or a batched send would each plug into this one hook.

Warm-up: on localhost, an endpoint's first ``sendto`` after an idle
spell was measured some 50 us slower than the next, and a train's send
estimate counts that cost against its span. ``warm_up()`` sends one
payload-size datagram from the endpoint's own socket to a private sink
socket, bound to ``127.0.0.1:0`` when the endpoint opens and closed with
the endpoint; ``run_sender`` calls it a fixed lead before each train's
first deadline. Before that send, ``warm_up`` reads back and discards
what the non-blocking sink holds (the previous warm-up's datagram), so
the sink never fills and drops, and the ``sendto`` stays its last call.
The datagram never reaches the measured path, the remote or the
endpoint's own address, and ``send`` does not see it. It crosses
loopback, so toward a non-loopback remote it warms the socket and the
interpreter's send path but not the probes' route or device; its effect
there is unmeasured. Every UDP endpoint opens a sink (one more socket
and bind), which keeps ``warm_up`` and ``close`` free of branches. On
loopback ``warm_up`` does nothing.

Receiving: ``recv_from(deadline)`` returns a plain ``(payload, ts,
source)`` tuple, or None once the deadline has passed with nothing to
deliver. ``payload`` is a writable ``bytearray`` that the caller owns:
the datagram's bytes copied once, out of UDP's one reusable receive
buffer (or, on loopback, the copy the send hook queued), so a caller
may keep it across later receives and patch it in place. ``ts`` is one
clock reading taken just after ``recvfrom_into`` returns, before the
copy (on loopback, the send stamp). ``source`` is the sender's address,
or None on loopback. This is the whole per-datagram receive path of the
receiver and reflector roles: one ``recvfrom_into``, one clock read, one
copy. It is the one receive form; ``UdpEndpoint.recv`` is another name
for it.

Ownership: an endpoint may be used by one sending thread and one
receiving thread concurrently, and not shared further.
"""

from __future__ import annotations

import queue
import select
import socket
import time
from dataclasses import dataclass
from typing import Callable

from . import wire

DEFAULT_PORT = 8620

OS_DATAGRAM = "os-datagram"

_RECV_BUFFER_TRAINS = 4  # kernel buffer sized for a few full trains
MAX_UDP_PAYLOAD = 65_507  # 65,535 B IPv4 datagram less 20 B IP and 8 B UDP headers


class TransportError(OSError):
    """Backend could not be opened or refused a datagram."""


SendHook = Callable[[bytes | bytearray, int], None]  # (probe already stamped, its stamp)


@dataclass(frozen=True)
class BackendDescriptor:
    """What to open: backend kind, endpoints, and a payload size that
    carries the probe header and fits one UDP datagram."""

    kind: str
    payload_size: int
    local: tuple[str, int] | None = None
    remote: tuple[str, int] | None = None

    def __post_init__(self) -> None:
        if self.kind != OS_DATAGRAM:
            raise ValueError(f"unknown backend kind: {self.kind!r}")
        wire.require_payload_size(self.payload_size)
        if self.payload_size > MAX_UDP_PAYLOAD:
            raise ValueError(f"payload of {self.payload_size} B exceeds UDP's {MAX_UDP_PAYLOAD} B")


class _Endpoint:
    """The one ``send`` both endpoints share (module docstring)."""

    _last_ts = 0

    def send(self, payload: bytes | bytearray, remote: tuple[str, int] | None = None) -> int:
        send_stamped = self.stamped_sender(remote) if remote is not None else self.send_stamped
        ts = time.monotonic_ns()
        if ts <= self._last_ts:
            ts = self._last_ts + 1
        self._last_ts = ts
        send_stamped(payload, ts)
        return ts


class LoopbackEndpoint(_Endpoint):
    """One side of an in-memory datagram pair: it receives from ``inbox``
    and sends into ``outbox``, the peer's inbox."""

    def __init__(self, inbox: queue.SimpleQueue, outbox: queue.SimpleQueue) -> None:
        self._inbox = inbox
        self._outbox = outbox

    def send_stamped(self, payload: bytes | bytearray, ts: int) -> None:
        """Queue a copy of a probe already stamped ``ts`` for the peer (module docstring)."""
        self._outbox.put((bytearray(payload), ts, None))
        # A spinning sender holds the interpreter lock until the switch
        # interval takes it; yielding here lets the peer's receiver drain
        # each probe as it comes, not a backlog in the middle of a train.
        time.sleep(0)

    def stamped_sender(self, dest: None) -> SendHook:
        """The send hook toward ``dest``, which must be None: the peer."""
        if dest is not None:
            raise TransportError("loopback endpoint sends only to its peer")
        return self.send_stamped

    def warm_up(self) -> None:
        """Nothing to warm: an in-memory send has no cold path."""

    def recv_from(self, deadline: int) -> tuple[bytearray, int, None] | None:
        # The receive timestamp is the send stamp, not the dequeue time:
        # the in-memory medium exists to give tests a noise-free path, so
        # scheduler lag on the draining thread must not distort it.
        while True:
            remaining = deadline - time.monotonic_ns()
            try:
                return self._inbox.get(block=remaining > 0, timeout=remaining / 1e9)
            except queue.Empty:
                if remaining <= 0:
                    return None

    def close(self) -> None:
        try:
            while True:
                self._inbox.get_nowait()
        except queue.Empty:
            pass


class UdpEndpoint(_Endpoint):
    """UDP socket endpoint with a reusable receive buffer."""

    def __init__(self, descriptor: BackendDescriptor) -> None:
        sock = sink = None
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_RCVBUF,
                max(1 << 20, descriptor.payload_size * 256 * _RECV_BUFFER_TRAINS),
            )
            if descriptor.local is not None:
                sock.bind(descriptor.local)
            sink.bind(("127.0.0.1", 0))
        except OSError as exc:
            for opened in filter(None, (sock, sink)):
                opened.close()
            raise TransportError(f"socket or bind failed: {exc}") from exc
        sock.setblocking(False)
        sink.setblocking(False)
        self._sock = sock
        self._sink = sink
        self._sink_address = sink.getsockname()
        self._warm_up_payload = bytes(descriptor.payload_size)
        # One persistent buffer instead of a per-packet allocation.
        self._recv_buf = bytearray(max(descriptor.payload_size, 2048))
        self.send_stamped = self.stamped_sender(descriptor.remote)

    @property
    def local_address(self) -> tuple[str, int]:
        return self._sock.getsockname()

    def stamped_sender(self, dest: tuple[str, int] | None) -> SendHook:
        """The send hook toward ``dest``: one ``sendto`` (module docstring)."""
        sendto = self._sock.sendto

        def send_stamped(payload: bytes | bytearray, ts: int) -> None:
            if dest is None:
                raise TransportError("no remote endpoint configured")
            try:
                sendto(payload, dest)
            except OSError as exc:
                raise TransportError(f"send failed: {exc}") from exc

        return send_stamped

    def warm_up(self) -> None:
        """Drain the private sink, then send it one payload-size datagram
        (module docstring)."""
        try:
            while True:
                self._sink.recv(1)
        except BlockingIOError:
            pass
        self._sock.sendto(self._warm_up_payload, self._sink_address)

    def recv_from(self, deadline: int) -> tuple[bytearray, int, tuple[str, int]] | None:
        """The next datagram as ``(payload, ts, source)``; see the module docstring."""
        sock, buf = self._sock, self._recv_buf
        while True:
            try:
                n, addr = sock.recvfrom_into(buf)
            except BlockingIOError:
                remaining = deadline - time.monotonic_ns()
                if remaining <= 0:
                    return None
                select.select([sock], [], [], remaining / 1e9)
                continue
            ts = time.monotonic_ns()
            return buf[:n], ts, addr

    recv = recv_from  # the name bench/workloads.py and bench/tracing.py look up

    def close(self) -> None:
        self._sock.close()
        self._sink.close()


Endpoint = LoopbackEndpoint | UdpEndpoint


def loopback_pair(payload_size: int) -> tuple[LoopbackEndpoint, LoopbackEndpoint]:
    """Two connected in-memory endpoints; each receives what the other sends."""
    wire.require_payload_size(payload_size)
    a_to_b, b_to_a = queue.SimpleQueue(), queue.SimpleQueue()
    return LoopbackEndpoint(b_to_a, a_to_b), LoopbackEndpoint(a_to_b, b_to_a)


def open_endpoint(descriptor: BackendDescriptor) -> UdpEndpoint:
    """Open the UDP endpoint a descriptor names.

    In-memory endpoints come in connected pairs from :func:`loopback_pair`;
    simulated paths have no endpoint (drive :mod:`.simnet` with schedules).
    """
    return UdpEndpoint(descriptor)
