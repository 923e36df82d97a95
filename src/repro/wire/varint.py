"""LEB128-style unsigned varints used throughout the pickle format.

Small non-negative integers dominate the wire traffic of this system
(lengths, counts, indices), so we encode them in the classic
7-bits-per-byte little-endian format also used by protocol buffers.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import UnmarshalError


def write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` (a non-negative int) to ``out`` as a varint."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def read_uvarint(data, offset: int) -> Tuple[int, int]:
    """Decode a varint from ``data`` at ``offset``.

    ``data`` may be any indexable bytes-like object (``bytes``,
    ``bytearray`` or ``memoryview``) — the zero-copy receive path
    decodes straight out of the frame buffer.  Returns
    ``(value, new_offset)``.  Raises :class:`UnmarshalError` on
    truncated input or on encodings longer than 10 bytes (which cannot
    arise from :func:`write_uvarint` for values below 2**70 and guards
    against maliciously long encodings).
    """
    try:
        byte = data[offset]
        if byte < 0x80:
            return byte, offset + 1
        result = byte & 0x7F
        shift = 7
        while True:
            offset += 1
            byte = data[offset]
            if byte < 0x80:
                return result | byte << shift, offset + 1
            result |= (byte & 0x7F) << shift
            shift += 7
            if shift > 63:
                raise UnmarshalError("varint too long")
    except IndexError:
        raise UnmarshalError("truncated varint") from None
