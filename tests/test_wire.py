"""Byte-level and conversion tests for the probe wire format."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import patch_send_ns

from traincap.wire import (
    HEADER_SIZE,
    FrameGeometry,
    NtpTimestamp,
    ProbePacket,
    decode_probe,
    encode_probe,
    ns_to_ntp,
    ntp_to_ns,
    patch_send_ts,
    peek_train_fields,
    require_payload_size,
)

_MAX_NS = (1 << 32) * 10**9 - 1


def _fraction_oracle(ns: int) -> tuple[int, int]:
    """Exact rational conversion, rounding half up; independent of the codec."""
    seconds, rem = divmod(ns, 10**9)
    frac = Fraction(rem * (1 << 32), 10**9)
    rounded = int(frac) + (1 if frac - int(frac) >= Fraction(1, 2) else 0)
    return seconds, rounded


class TestNtpConversion:
    def test_zero(self):
        assert ns_to_ntp(0) == NtpTimestamp(0, 0)
        assert ntp_to_ns(NtpTimestamp(0, 0)) == 0

    def test_half_second(self):
        assert ns_to_ntp(1_500_000_000) == NtpTimestamp(1, 1 << 31)
        assert ntp_to_ns(NtpTimestamp(1, 1 << 31)) == 1_500_000_000

    def test_one_nanosecond(self):
        # 2**32 / 10**9 = 4.294..., rounds to 4 (checked against the
        # exact-rational oracle).
        assert _fraction_oracle(1) == (0, 4)
        assert ns_to_ntp(1) == NtpTimestamp(0, 4)

    def test_matches_rational_oracle(self):
        rng = random.Random(1)
        for _ in range(2000):
            ns = rng.randrange(_MAX_NS)
            secs, frac = _fraction_oracle(ns)
            assert ns_to_ntp(ns) == NtpTimestamp(secs, frac)

    def test_pre_epoch_rejected(self):
        with pytest.raises(ValueError, match="pre-epoch timestamp"):
            ns_to_ntp(-1)

    def test_beyond_range_rejected(self):
        with pytest.raises(ValueError):
            ns_to_ntp(_MAX_NS + 1)

    @given(st.integers(min_value=0, max_value=_MAX_NS))
    def test_round_trip_within_1ns(self, ns):
        assert abs(ntp_to_ns(ns_to_ntp(ns)) - ns) <= 1


class TestPatchSendNs:
    """The inline stamp's oracle against the object path: same bytes, same errors."""

    @given(st.integers(min_value=0, max_value=_MAX_NS))
    @example(0)
    @example(_MAX_NS)
    def test_same_bytes_as_object_path(self, ns):
        fast = bytearray(b"\xa5" * (HEADER_SIZE + 4))
        slow = bytearray(fast)
        patch_send_ns(fast, ns)
        patch_send_ts(slow, ns_to_ntp(ns))
        assert fast == slow

    @given(st.one_of(st.integers(max_value=-1), st.integers(min_value=_MAX_NS + 1)))
    @example(-1)
    @example(_MAX_NS + 1)
    def test_out_of_range_rejected_like_ns_to_ntp(self, ns):
        buf = bytearray(HEADER_SIZE)
        with pytest.raises(ValueError) as fast:
            patch_send_ns(buf, ns)
        with pytest.raises(ValueError) as slow:
            ns_to_ntp(ns)
        assert str(fast.value) == str(slow.value)
        assert buf == bytearray(HEADER_SIZE)


class TestProbeLayout:
    def test_zero_packet_layout(self):
        p = ProbePacket(seq=0, send_ts=NtpTimestamp(0, 0), train_id=0, train_len=50)
        data = encode_probe(p, 1472)
        assert len(data) == 1472
        assert data[:18] == bytes(18)
        assert data[18:20] == b"\x00\x32"  # train_len 50, big endian
        assert data[20:] == bytes(1452)

    def test_seq_big_endian(self):
        p = ProbePacket(seq=49, send_ts=NtpTimestamp(0, 0), train_len=50)
        data = encode_probe(p, 64)
        assert data[0:4] == b"\x00\x00\x00\x31"

    def test_field_offsets(self):
        p = ProbePacket(
            seq=0xA1B2,
            send_ts=NtpTimestamp(0x0A0B0C0D, 0x11223344),
            error_estimate=0x5566,
            train_id=0x778899AA,
            train_len=0xFFFF,
        )
        data = encode_probe(p, HEADER_SIZE)
        assert data[0:4] == b"\x00\x00\xa1\xb2"
        assert data[4:8] == b"\x0a\x0b\x0c\x0d"
        assert data[8:12] == b"\x11\x22\x33\x44"
        assert data[12:14] == b"\x55\x66"
        assert data[14:18] == b"\x77\x88\x99\xaa"
        assert data[18:20] == b"\xff\xff"

    def test_minimal_decode(self):
        data = bytearray(HEADER_SIZE)
        data[19] = 1  # train_len = 1
        p = decode_probe(bytes(data))
        assert p == ProbePacket(seq=0, send_ts=NtpTimestamp(0, 0), train_len=1)

    def test_truncated(self):
        for n in (0, 15, HEADER_SIZE - 1):
            with pytest.raises(ValueError, match="truncated probe"):
                decode_probe(bytes(n))

    def test_inconsistent_header(self):
        good = encode_probe(ProbePacket(seq=3, send_ts=NtpTimestamp(0, 0), train_len=4), 32)
        bad = bytearray(good)
        bad[18:20] = (2).to_bytes(2, "big")  # train_len below seq
        with pytest.raises(ValueError, match="inconsistent header"):
            decode_probe(bytes(bad))

    def test_payload_too_small(self):
        p = ProbePacket(seq=0, send_ts=NtpTimestamp(0, 0), train_len=1)
        for n in (0, 15, HEADER_SIZE - 1):
            with pytest.raises(ValueError, match="payload too small"):
                encode_probe(p, n)
        require_payload_size(HEADER_SIZE)  # boundary is fine

    def test_padding_ignored_on_decode(self):
        p = ProbePacket(seq=1, send_ts=NtpTimestamp(5, 6), train_len=2)
        data = bytearray(encode_probe(p, 100))
        data[50] = 0xFF  # garbage in the padding region
        assert decode_probe(bytes(data)) == p


packet_strategy = st.builds(
    lambda seq_and_len, secs, frac, err, tid: ProbePacket(
        seq=seq_and_len[0],
        send_ts=NtpTimestamp(secs, frac),
        error_estimate=err,
        train_id=tid,
        train_len=seq_and_len[1],
    ),
    st.integers(min_value=1, max_value=(1 << 16) - 1).flatmap(
        lambda n: st.tuples(st.integers(min_value=0, max_value=n - 1), st.just(n))
    ),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=(1 << 16) - 1),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)


class TestRoundTrip:
    @given(packet_strategy, st.integers(min_value=HEADER_SIZE, max_value=1472))
    @settings(max_examples=300)
    def test_encode_decode_inverse(self, p, payload_size):
        data = encode_probe(p, payload_size)
        assert len(data) == payload_size
        assert decode_probe(data) == p

    @given(packet_strategy)
    def test_peek_matches_decode(self, p):
        data = encode_probe(p, HEADER_SIZE)
        assert peek_train_fields(data) == (p.seq, p.train_id, p.train_len)

    def test_peek_truncated_is_value_error(self):
        for n in (0, 15, HEADER_SIZE - 1):
            with pytest.raises(ValueError, match="truncated probe"):
                peek_train_fields(bytes(n))


class TestFrameGeometry:
    def test_standard_frame(self):
        g = FrameGeometry(1514)
        assert g.payload_size == 1472
        assert g.counted_bits == 12144
        assert g.wire_bits == 12304

    def test_counted_frame_1500(self):
        # frame whose counted bits are exactly 1500 bytes
        g = FrameGeometry(1496)
        assert g.counted_bits == 12000

    @given(st.integers(min_value=62, max_value=9000))
    def test_invariants(self, frame_size):
        g = FrameGeometry(frame_size)
        assert g.payload_size == frame_size - 42
        assert g.wire_bits == g.counted_bits + 160

    def test_too_small(self):
        with pytest.raises(ValueError):
            FrameGeometry(42 + HEADER_SIZE - 1)
