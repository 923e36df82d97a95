"""Wire-level building blocks: space identifiers, wireReps and framing.

A *wireRep* is the network representation of an object reference: the
unique identifier of the owner space plus the index of the object at
the owner.  Everything that crosses a channel in this system is a
length-prefixed frame whose payload begins with a one-byte message tag
(see :mod:`repro.wire.protocol`).
"""

from repro.wire.ids import SpaceID, fresh_space_id
from repro.wire.wirerep import WireRep
from repro.wire.framing import (
    BufferPool,
    FRAME_HEADER_SIZE,
    MAX_FRAME_SIZE,
    finish_frame,
    new_frame,
    pack_frame,
    read_frame,
)
from repro.wire import protocol
from repro.wire.varint import read_uvarint, write_uvarint

__all__ = [
    "SpaceID",
    "fresh_space_id",
    "WireRep",
    "BufferPool",
    "FRAME_HEADER_SIZE",
    "MAX_FRAME_SIZE",
    "finish_frame",
    "new_frame",
    "pack_frame",
    "read_frame",
    "protocol",
    "read_uvarint",
    "write_uvarint",
]
