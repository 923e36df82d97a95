"""Unit tests for the wire layer: varints, ids, wireReps, framing."""

import struct

import pytest

from repro.errors import CommFailure, ProtocolError, UnmarshalError
from repro.wire import (
    FRAME_HEADER_SIZE,
    BufferPool,
    SpaceID,
    WireRep,
    finish_frame,
    fresh_space_id,
    new_frame,
    pack_frame,
    read_frame,
    read_uvarint,
    write_uvarint,
)
from repro.wire.wirerep import SPECIAL_OBJECT_INDEX


class TestVarint:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 255, 300, 16384, 2**32, 2**63 - 1]
    )
    def test_round_trip(self, value):
        out = bytearray()
        write_uvarint(out, value)
        decoded, offset = read_uvarint(bytes(out), 0)
        assert decoded == value
        assert offset == len(out)

    def test_small_values_are_one_byte(self):
        out = bytearray()
        write_uvarint(out, 100)
        assert len(out) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            write_uvarint(bytearray(), -1)

    def test_truncated_input(self):
        out = bytearray()
        write_uvarint(out, 2**40)
        with pytest.raises(UnmarshalError):
            read_uvarint(bytes(out[:-1]), 0)

    def test_overlong_encoding_rejected(self):
        with pytest.raises(UnmarshalError):
            read_uvarint(b"\xff" * 11, 0)

    def test_offset_respected(self):
        out = bytearray(b"xy")
        write_uvarint(out, 777)
        decoded, offset = read_uvarint(bytes(out), 2)
        assert decoded == 777
        assert offset == len(out)


class TestSpaceID:
    def test_fresh_ids_are_unique(self):
        ids = {fresh_space_id() for _ in range(1000)}
        assert len(ids) == 1000

    def test_round_trip(self):
        sid = fresh_space_id("server")
        again = SpaceID.from_bytes(sid.to_bytes())
        assert again == sid

    def test_nickname_not_part_of_identity(self):
        sid = SpaceID(1, 2, "alpha")
        assert sid == SpaceID(1, 2, "beta")
        assert hash(sid) == hash(SpaceID(1, 2))

    def test_ordering_is_total(self):
        a, b = SpaceID(1, 5), SpaceID(2, 0)
        assert a < b
        assert sorted([b, a]) == [a, b]

    def test_bad_length_rejected(self):
        with pytest.raises(UnmarshalError):
            SpaceID.from_bytes(b"short")

    def test_str_contains_nickname(self):
        assert "server" in str(fresh_space_id("server"))


class TestWireRep:
    def test_round_trip(self):
        rep = WireRep(fresh_space_id("o"), 42)
        out = bytearray(b"pad")
        rep.to_wire(out)
        decoded, offset = WireRep.from_wire(bytes(out), 3)
        assert decoded == rep
        assert offset == len(out)

    def test_special_index(self):
        assert WireRep(fresh_space_id(), SPECIAL_OBJECT_INDEX).is_special()
        assert not WireRep(fresh_space_id(), 3).is_special()

    def test_truncated(self):
        with pytest.raises(UnmarshalError):
            WireRep.from_wire(b"\x00" * 10, 0)

    def test_usable_as_dict_key(self):
        sid = fresh_space_id()
        table = {WireRep(sid, 1): "a", WireRep(sid, 2): "b"}
        assert table[WireRep(SpaceID(sid.hi, sid.lo), 1)] == "a"

    def test_decoded_owners_are_interned(self):
        # Wire decode returns one shared SpaceID per identity, so the
        # serve path's owner comparison short-circuits on identity.
        rep = WireRep(fresh_space_id("o"), 1)
        out = bytearray()
        rep.to_wire(out)
        first, _ = WireRep.from_wire(bytes(out), 0)
        second, _ = WireRep.from_wire(memoryview(bytes(out)), 0)
        assert first.owner is second.owner
        assert first.owner == rep.owner

    def test_intern_existing_preseeds_instance(self):
        from repro.wire.ids import intern_existing, intern_space_id

        sid = fresh_space_id("seeded")
        intern_existing(sid)
        assert intern_space_id(sid.to_bytes()) is sid


class TestFraming:
    def test_pack_and_read(self):
        data = pack_frame(b"hello")
        chunks = [data]

        def recv_exact(n):
            buf = chunks[0][:n]
            chunks[0] = chunks[0][n:]
            return buf if len(buf) == n else None

        assert read_frame(recv_exact) == b"hello"

    def test_read_eof(self):
        assert read_frame(lambda n: None) is None

    def test_mid_frame_eof_is_error(self):
        state = {"first": True}

        def recv_exact(n):
            if state["first"]:
                state["first"] = False
                return struct.pack("!I", 100)
            return None

        with pytest.raises(CommFailure):
            read_frame(recv_exact)

    def test_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError):
            pack_frame(b"x" * (64 * 1024 * 1024 + 1))

    def test_oversized_announcement_rejected(self):
        def recv_exact(n):
            return struct.pack("!I", 2**31)

        with pytest.raises(ProtocolError):
            read_frame(recv_exact)

    def test_empty_frame(self):
        chunks = [pack_frame(b"")]

        def recv_exact(n):
            buf, chunks[0] = chunks[0][:n], chunks[0][n:]
            return buf if len(buf) == n else None

        assert read_frame(recv_exact) == b""


class TestFrameBuild:
    """The in-place frame-building API behind the zero-copy send path."""

    def test_new_frame_reserves_header(self):
        frame = new_frame()
        assert len(frame) == FRAME_HEADER_SIZE

    def test_finish_patches_length_in_place(self):
        frame = new_frame()
        frame += b"payload"
        finished = finish_frame(frame)
        assert finished is frame  # same buffer, no copy
        assert bytes(finished) == pack_frame(b"payload")

    def test_finish_zero_length_frame(self):
        frame = finish_frame(new_frame())
        assert bytes(frame) == struct.pack("!I", 0)

    def test_finish_exactly_at_limit(self, monkeypatch):
        monkeypatch.setattr("repro.wire.framing.MAX_FRAME_SIZE", 1024)
        frame = new_frame()
        frame += b"x" * 1024
        assert len(finish_frame(frame)) == FRAME_HEADER_SIZE + 1024

    def test_finish_oversize_rejected(self, monkeypatch):
        monkeypatch.setattr("repro.wire.framing.MAX_FRAME_SIZE", 1024)
        frame = new_frame()
        frame += b"x" * 1025
        with pytest.raises(ProtocolError):
            finish_frame(frame)

    def test_finish_missing_header_rejected(self):
        with pytest.raises(ProtocolError):
            finish_frame(bytearray(b"abc"[:2]))  # shorter than the header

    def test_pack_frame_accepts_memoryview(self):
        assert pack_frame(memoryview(b"hello")) == pack_frame(b"hello")


class TestBufferPool:
    def test_round_trip_reuses_buffer(self):
        pool = BufferPool()
        first = pool.acquire()
        first += b"some payload"
        pool.release(first)
        second = pool.acquire()
        assert second is first
        assert len(second) == FRAME_HEADER_SIZE  # truncated back

    def test_oversized_buffer_not_retained(self):
        pool = BufferPool(max_retained=64)
        buffer = pool.acquire()
        buffer += b"x" * 100
        pool.release(buffer)
        assert pool.acquire() is not buffer

    def test_pool_size_bounded(self):
        pool = BufferPool(max_buffers=2)
        buffers = [pool.acquire() for _ in range(4)]
        for buffer in buffers:
            pool.release(buffer)
        assert len(pool._buffers) == 2


class TestMemoryviewInputs:
    """The zero-copy receive path hands decoders memoryview slices;
    every wire-level reader must accept them interchangeably with
    bytes."""

    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**40])
    def test_varint_from_memoryview(self, value):
        out = bytearray()
        write_uvarint(out, value)
        decoded, offset = read_uvarint(memoryview(bytes(out)), 0)
        assert decoded == value
        assert offset == len(out)

    def test_truncated_varint_from_memoryview(self):
        out = bytearray()
        write_uvarint(out, 2**40)
        with pytest.raises(UnmarshalError):
            read_uvarint(memoryview(bytes(out[:-1])), 0)

    def test_empty_memoryview_truncated(self):
        with pytest.raises(UnmarshalError):
            read_uvarint(memoryview(b""), 0)

    def test_wirerep_from_memoryview(self):
        rep = WireRep(fresh_space_id("o"), 42)
        out = bytearray()
        rep.to_wire(out)
        decoded, offset = WireRep.from_wire(memoryview(bytes(out)), 0)
        assert decoded == rep
        assert offset == len(out)


class TestStreamFrames:
    """The bulk-data plane's frame family."""

    TARGET = WireRep(fresh_space_id("owner"), 7)

    def frames(self):
        from repro.rpc import messages

        return [
            messages.StreamOpen(3, self.TARGET, messages.STREAM_READ, 1 << 22),
            messages.StreamOpen(4, self.TARGET, messages.STREAM_WRITE, 256),
            messages.StreamData(3, b"raw \x00 bytes, no pickle"),
            messages.StreamData(3, b""),
            messages.StreamCredit(3, 1 << 20),
            messages.StreamEnd(3, messages.END_OK, 8 << 20),
            messages.StreamEnd(3, messages.END_FAULT, 5, "ValueError", "boom"),
            messages.StreamEnd(2 ** 40 + 1, messages.END_CANCEL),
        ]

    def test_round_trip(self):
        from repro.rpc import messages

        for frame in self.frames():
            assert messages.decode(memoryview(frame.encode())) == frame

    def test_data_is_a_view_of_the_frame(self):
        from repro.rpc import messages

        frame = bytearray(messages.StreamData(9, b"x" * 100).encode())
        data = messages.decode(memoryview(frame)).data
        assert isinstance(data, memoryview) and data.obj is frame
        # tag + one-byte varint id, then the chunk: no length field.
        assert len(frame) == 2 + 100

    def test_two_piece_frame_counts_its_trailing_bytes(self):
        from repro.rpc import messages

        head = new_frame()
        messages.encode_stream_data_header(head, 5)
        finish_frame(head, trailing=1000)
        (length,) = struct.unpack("!I", head[:FRAME_HEADER_SIZE])
        assert length == len(head) - FRAME_HEADER_SIZE + 1000

    def test_truncated_frames_are_rejected(self):
        from repro.rpc import messages

        for frame in self.frames():
            if type(frame) is messages.StreamData:
                continue  # its payload is "whatever follows"
            encoded = frame.encode()
            for cut in range(1, len(encoded)):
                with pytest.raises(UnmarshalError):
                    messages.decode(encoded[:cut])

    def test_bad_direction_and_status_are_rejected(self):
        from repro.rpc import messages

        opened = bytearray(self.frames()[0].encode())
        opened[-5] = 9  # direction byte sits before the 4-byte credit
        with pytest.raises(UnmarshalError):
            messages.decode(bytes(opened))
        ended = bytearray(messages.StreamEnd(1, messages.END_OK).encode())
        ended[2] = 9
        with pytest.raises(UnmarshalError):
            messages.decode(bytes(ended))

    def test_stream_tags_are_named(self):
        from repro.wire import protocol

        assert {protocol.tag_name(tag) for tag in protocol.STREAM_TAGS} == {
            "STREAM_OPEN", "STREAM_DATA", "STREAM_CREDIT", "STREAM_END",
        }
