"""Probe packet wire format and timestamp conversion.

Probe packets ride inside UDP payloads with a fixed 20-byte header in
network byte order:

    offset  size  field
    0       4     seq             train-relative sequence, 0-based
    4       8     send_ts         NTP-style 32.32 fixed-point timestamp
    12      2     error_estimate
    14      4     train_id
    18      2     train_len       packets per train (N)
    20      ...   zero padding up to the configured payload size

Timestamps use the classic 32-bit-seconds / 32-bit-fraction layout, where
one fraction unit is 2**-32 s (~0.233 ns). Conversions round half up so
that a nanosecond value survives a round trip within 1 ns.

Everything here is a pure function; safe to call from any thread.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

HEADER_SIZE = 20
HEADER_FORMAT = "!IIIHIH"

# Ethernet framing overheads in bytes. Rate arithmetic counts the frame
# plus FCS; the preamble and inter-frame gap occupy the wire but are not
# counted as payload bits.
_FCS = 4
_PREAMBLE = 8
_IFG = 12
_ETH_IP_UDP_HEADERS = 14 + 20 + 8
MIN_FRAME_SIZE = _ETH_IP_UDP_HEADERS + HEADER_SIZE

_NS_PER_S = 1_000_000_000
_MAX_NS = (1 << 32) * _NS_PER_S  # seconds field is 32-bit

# Precompiled layouts for the per-packet paths: the send_ts field at
# offset 4, and (seq, train_id, train_len) skipping send_ts and
# error_estimate. pacing.pace_send packs send_ts with _SEND_TS itself,
# with ns_to_ntp's arithmetic and _MAX_NS bound inline.
_SEND_TS = struct.Struct("!II")
_TRAIN_FIELDS = struct.Struct("!I10xIH")


@dataclass(frozen=True)
class NtpTimestamp:
    """32.32 fixed-point timestamp: whole seconds plus 2**-32 s fraction."""

    seconds: int
    fraction: int

    def __post_init__(self) -> None:
        if not 0 <= self.seconds < 1 << 32:
            raise ValueError("seconds out of 32-bit range")
        if not 0 <= self.fraction < 1 << 32:
            raise ValueError("fraction out of 32-bit range")


@dataclass(frozen=True)
class ProbePacket:
    """One timestamped probe: header fields of the wire layout above."""

    seq: int
    send_ts: NtpTimestamp
    error_estimate: int = 0
    train_id: int = 0
    train_len: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.seq < 1 << 32:
            raise ValueError("seq out of 32-bit range")
        if not 0 <= self.error_estimate < 1 << 16:
            raise ValueError("error_estimate out of 16-bit range")
        if not 0 <= self.train_id < 1 << 32:
            raise ValueError("train_id out of 32-bit range")
        if not 0 <= self.train_len < 1 << 16:
            raise ValueError("train_len out of 16-bit range")
        if self.seq >= self.train_len:
            raise ValueError("inconsistent header")


@dataclass(frozen=True)
class FrameGeometry:
    """Ethernet frame geometry used for rate arithmetic.

    ``frame_size`` covers Ethernet header through UDP payload, excluding
    the FCS (the classic 1514 for a full-size frame). ``counted_bits``
    adds the FCS and is what rate math divides by; ``wire_bits`` further
    adds preamble and inter-frame gap and is what the medium carries.
    """

    frame_size: int = 1514

    def __post_init__(self) -> None:
        if self.frame_size < MIN_FRAME_SIZE:
            raise ValueError("frame too small for probe header")

    @property
    def payload_size(self) -> int:
        return self.frame_size - _ETH_IP_UDP_HEADERS

    @property
    def counted_bits(self) -> int:
        return (self.frame_size + _FCS) * 8

    @property
    def wire_bits(self) -> int:
        return (self.frame_size + _FCS + _PREAMBLE + _IFG) * 8


def ns_to_ntp(t: int) -> NtpTimestamp:
    """Convert nanoseconds since epoch to a 32.32 timestamp (half-up)."""
    if t < 0:
        raise ValueError("pre-epoch timestamp")
    if t >= _MAX_NS:
        raise ValueError("timestamp beyond 32-bit seconds range")
    seconds, rem = divmod(t, _NS_PER_S)
    fraction = (rem * (1 << 32) + _NS_PER_S // 2) // _NS_PER_S
    return NtpTimestamp(seconds, fraction)


def ntp_to_ns(ts: NtpTimestamp) -> int:
    """Inverse of :func:`ns_to_ntp`, exact to within 1 ns."""
    return ts.seconds * _NS_PER_S + ((ts.fraction * _NS_PER_S + (1 << 31)) >> 32)


def require_payload_size(payload_size: int) -> None:
    """Reject payload sizes that cannot carry the fixed header."""
    if payload_size < HEADER_SIZE:
        raise ValueError("payload too small")


def encode_probe(p: ProbePacket, payload_size: int) -> bytes:
    """Encode a probe into exactly ``payload_size`` bytes (zero padded)."""
    require_payload_size(payload_size)
    buf = bytearray(payload_size)
    struct.pack_into(
        HEADER_FORMAT,
        buf,
        0,
        p.seq,
        p.send_ts.seconds,
        p.send_ts.fraction,
        p.error_estimate,
        p.train_id,
        p.train_len,
    )
    return bytes(buf)


def patch_send_ts(buf: bytearray, ts: NtpTimestamp) -> None:
    """Overwrite just the timestamp field of an already-encoded probe."""
    _SEND_TS.pack_into(buf, 4, ts.seconds, ts.fraction)


def decode_probe(data: bytes) -> ProbePacket:
    """Parse a probe header; padding beyond the header is ignored."""
    if len(data) < HEADER_SIZE:
        raise ValueError("truncated probe")
    seq, secs, frac, err, train_id, train_len = struct.unpack_from(HEADER_FORMAT, data)
    return ProbePacket(
        seq=seq,
        send_ts=NtpTimestamp(secs, frac),
        error_estimate=err,
        train_id=train_id,
        train_len=train_len,
    )


def peek_train_fields(data: bytes) -> tuple[int, int, int]:
    """Fast header peek: (seq, train_id, train_len) without full decode.

    Used on hot receive paths where only train bookkeeping is needed.
    """
    if len(data) < HEADER_SIZE:
        raise ValueError("truncated probe")  # struct.error is not a ValueError
    return _TRAIN_FIELDS.unpack_from(data)
