"""The unpickler: bytes → Python values.

Decoding mirrors :class:`~repro.marshal.pickler.Pickler` exactly,
including the memo-id assignment order, and like it spends one Python
frame per value: the parent indexes a 256-entry table with the child's
tag byte and calls its decoder directly.  Mutable containers are
entered into the memo *before* their elements are decoded, so cycles
and sharing reconstruct faithfully.  Tuples and frozensets reserve a
memo slot first and fill it after construction; a back-reference into
an unfilled slot (a genuinely cyclic tuple, which CPython cannot build
through public APIs anyway) is reported as corrupt data.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import Optional

from repro.errors import UnmarshalError
from repro.marshal import tags
from repro.marshal.pickler import NetObjHandler
from repro.marshal.registry import StructRegistry, global_registry
from repro.marshal.tags import MAX_DEPTH
from repro.wire.varint import read_uvarint

_UNPACK_FLOAT = struct.Struct("!d").unpack_from

_UNFILLED = object()


class Unpickler:
    """Decoder for pickles produced by :class:`Pickler`.

    Nothing survives a message, so one instance can be pooled and
    reused; :meth:`bind` swaps the per-message netobj handler.
    ``loads`` accepts any bytes-like input — the zero-copy receive
    path hands it a ``memoryview`` into the frame buffer, and payload
    bytes are only materialised where user code will hold them (BYTES
    values, decoded strings).
    """

    def __init__(
        self,
        registry: Optional[StructRegistry] = None,
        netobj_handler: Optional[NetObjHandler] = None,
    ):
        self._registry = registry if registry is not None else global_registry
        self._handler = netobj_handler
        self._scanned = False

    def bind(self, netobj_handler: Optional[NetObjHandler]) -> "Unpickler":
        """Attach the handler for the next message; returns ``self``."""
        self._handler = netobj_handler
        return self

    def loads(self, data) -> object:
        """Decode one value from ``data``; all bytes must be consumed.

        The decoders index ``data`` without asking its length first:
        running off the end raises ``IndexError`` (``struct.error``
        for a short float), reported here, once, as truncation.
        """
        self._scanned = False
        try:
            value, offset = _DECODERS[data[0]](self, data, 1, [], 0)
        except (IndexError, struct.error) as exc:
            raise UnmarshalError("truncated pickle") from exc
        if offset != len(data):
            raise UnmarshalError(
                f"trailing garbage: {len(data) - offset} bytes after pickle"
            )
        return value

    def _following(self, data, offset: int) -> list:
        """The NETOBJ payloads from ``offset`` on, for the handler that
        is decoding the reference ending there.  One scan per message:
        whoever asked first has seen every later reference."""
        if self._scanned:
            return []
        self._scanned = True
        return scan_netobj_payloads(data, offset)


# -- decoders ---------------------------------------------------------------------
#
# One function per tag, all ``(unpickler, data, offset, memo, depth) ->
# (value, offset)`` with ``offset`` just past the tag byte.  ``depth``
# counts the containers around the value; only a container checks it,
# on entry.  Sized payloads check their end explicitly (a slice never
# raises); everything else relies on the IndexError caught in ``loads``.

def _decode_int_pos(u, data, offset, memo, depth):
    byte = data[offset]
    if byte < 0x80:
        return byte, offset + 1
    return read_uvarint(data, offset)


def _decode_int_neg(u, data, offset, memo, depth):
    magnitude, offset = read_uvarint(data, offset)
    return -1 - magnitude, offset


def _decode_float(u, data, offset, memo, depth):
    return _UNPACK_FLOAT(data, offset)[0], offset + 8


def _take(data, offset: int):
    """``(payload view, end)`` of a uvarint-sized payload at ``offset``."""
    length = data[offset]
    if length < 0x80:
        offset += 1
    else:
        length, offset = read_uvarint(data, offset)
    end = offset + length
    if end > len(data):
        raise UnmarshalError("truncated pickle payload")
    return data[offset:end], end


def _decode_int_big(u, data, offset, memo, depth):
    raw, end = _take(data, offset)
    return int.from_bytes(raw, "little", signed=True), end


def _decode_bytearray(u, data, offset, memo, depth):
    raw, end = _take(data, offset)
    value = bytearray(raw)
    memo.append(value)
    return value, end


# Strings and byte strings are the bulk of most messages: ``_take``
# is inlined in these two.

def _decode_str(u, data, offset, memo, depth):
    length = data[offset]
    if length < 0x80:
        offset += 1
    else:
        length, offset = read_uvarint(data, offset)
    end = offset + length
    if end > len(data):
        raise UnmarshalError("truncated pickle payload")
    try:
        value = str(data[offset:end], "utf-8")
    except UnicodeDecodeError as exc:
        raise UnmarshalError(f"invalid UTF-8 in string: {exc}") from exc
    memo.append(value)
    return value, end


def _decode_bytes(u, data, offset, memo, depth):
    length = data[offset]
    if length < 0x80:
        offset += 1
    else:
        length, offset = read_uvarint(data, offset)
    end = offset + length
    if end > len(data):
        raise UnmarshalError("truncated pickle payload")
    # Materialise: the caller keeps this value, the frame buffer it is
    # a view into does not outlive the message.
    value = bytes(data[offset:end])
    memo.append(value)
    return value, end


def _count(data, offset: int, depth: int):
    """Container entry: the depth check, then the element count."""
    if depth >= MAX_DEPTH:
        raise UnmarshalError(f"pickle nesting exceeds {MAX_DEPTH} levels")
    count = data[offset]
    if count < 0x80:
        return count, offset + 1
    return read_uvarint(data, offset)


def _growing_decoder(new, add):
    """LIST / SET: in the memo before its elements, so it may contain
    itself."""
    def decode(u, data, offset, memo, depth):
        count, offset = _count(data, offset, depth)
        value = new()
        memo.append(value)
        depth += 1
        decoders = _DECODERS
        for _ in range(count):
            item, offset = decoders[data[offset]](u, data, offset + 1, memo, depth)
            add(value, item)
        return value, offset
    return decode


def _frozen_decoder(build):
    """TUPLE / FROZENSET: a memo slot reserved first, filled once built."""
    def decode(u, data, offset, memo, depth):
        count, offset = _count(data, offset, depth)
        slot = len(memo)
        memo.append(_UNFILLED)
        depth += 1
        decoders = _DECODERS
        items = []
        for _ in range(count):
            item, offset = decoders[data[offset]](u, data, offset + 1, memo, depth)
            items.append(item)
        value = memo[slot] = build(items)
        return value, offset
    return decode


def _decode_dict(u, data, offset, memo, depth):
    count, offset = _count(data, offset, depth)
    value: dict = {}
    memo.append(value)
    depth += 1
    decoders = _DECODERS
    for _ in range(count):
        key, offset = decoders[data[offset]](u, data, offset + 1, memo, depth)
        value[key], offset = decoders[data[offset]](
            u, data, offset + 1, memo, depth)
    return value, offset


def _decode_ref(u, data, offset, memo, depth):
    memo_id = data[offset]
    if memo_id < 0x80:
        offset += 1
    else:
        memo_id, offset = read_uvarint(data, offset)
    try:
        value = memo[memo_id]
    except IndexError:
        raise UnmarshalError(f"dangling memo reference {memo_id}") from None
    if value is _UNFILLED:
        raise UnmarshalError(
            f"back-reference into unconstructed value {memo_id}"
        )
    return value, offset


def _decode_struct(u, data, offset, memo, depth):
    """A registered struct, rebuilt by its codec's decode plan."""
    slot = len(memo)
    memo.append(_UNFILLED)
    # The type name: a string, or a back-reference to one.
    tag = data[offset]
    if tag == tags.STR:
        name, offset = _decode_str(u, data, offset + 1, memo, depth)
    elif tag == tags.REF:
        name, offset = _decode_ref(u, data, offset + 1, memo, depth)
    else:
        name = None
    if type(name) is not str:
        raise UnmarshalError("struct name is not a string")
    codec = u._registry.codec_for_name(name)
    count, offset = _count(data, offset, depth)
    if count != len(codec.fields):
        raise UnmarshalError(
            f"struct {codec.name}: expected {len(codec.fields)} fields, "
            f"got {count}"
        )
    depth += 1
    decoders = _DECODERS
    if codec.factory is None:
        # Two-phase build: instance visible in the memo while its
        # fields decode, so structs may sit on cycles.
        value = memo[slot] = codec.new(codec.cls)
        if codec.plain:
            attrs = value.__dict__
            for field in codec.fields:
                attrs[field], offset = decoders[data[offset]](
                    u, data, offset + 1, memo, depth)
            return value, offset
    values = []
    for _ in range(count):
        item, offset = decoders[data[offset]](u, data, offset + 1, memo, depth)
        values.append(item)
    if codec.factory is None:
        # Fields backed by slots or properties: object.__setattr__
        # honours the descriptors but bypasses a class-level
        # __setattr__ (frozen dataclasses).
        for field, item in zip(codec.fields, values):
            object.__setattr__(value, field, item)
    else:
        value = memo[slot] = codec.factory(*values)
    return value, offset


def _decode_netobj(u, data, offset, memo, depth):
    handler = u._handler
    if handler is None:
        raise UnmarshalError(
            "pickle contains a network object but no handler is set"
        )
    raw, end = _take(data, offset)
    value = handler.unmarshal(raw, partial(u._following, data, end))
    memo.append(value)
    return value, end


def _decode_unknown(u, data, offset, memo, depth):
    raise UnmarshalError(f"unknown pickle tag {tags.tag_name(data[offset - 1])}")


#: Tag byte -> decoder.
_DECODERS = [_decode_unknown] * 256
_DECODERS[:tags.NETOBJ + 1] = [
    lambda u, data, offset, memo, depth: (None, offset),    # NONE
    lambda u, data, offset, memo, depth: (True, offset),    # TRUE
    lambda u, data, offset, memo, depth: (False, offset),   # FALSE
    _decode_int_pos, _decode_int_neg, _decode_int_big, _decode_float,
    _decode_str, _decode_bytes, _decode_bytearray,
    _growing_decoder(list, list.append),            # LIST
    _frozen_decoder(tuple),                         # TUPLE
    _decode_dict,
    _growing_decoder(set, set.add),                 # SET
    _frozen_decoder(frozenset),                     # FROZENSET
    _decode_ref, _decode_struct, _decode_netobj,
]


def loads(
    data,
    registry: Optional[StructRegistry] = None,
    netobj_handler: Optional[NetObjHandler] = None,
) -> object:
    """One-shot convenience wrapper around :class:`Unpickler`."""
    return Unpickler(registry, netobj_handler).loads(data)


# -- structural scan --------------------------------------------------------------

# What follows each tag byte, for a scan that skips values unread
# (0: unknown tag).  A container's elements simply follow its count.
_SKIP_NOTHING, _SKIP_UVARINT, _SKIP_SIZED, _SKIP_FLOAT, _SKIP_STRUCT, \
    _COLLECT = range(1, 7)
_SCAN = bytes(
    {
        **dict.fromkeys((tags.NONE, tags.TRUE, tags.FALSE), _SKIP_NOTHING),
        **dict.fromkeys((tags.INT_POS, tags.INT_NEG, tags.REF, tags.LIST,
                         tags.TUPLE, tags.DICT, tags.SET, tags.FROZENSET),
                        _SKIP_UVARINT),
        **dict.fromkeys((tags.INT_BIG, tags.STR, tags.BYTES, tags.BYTEARRAY),
                        _SKIP_SIZED),
        tags.FLOAT: _SKIP_FLOAT, tags.STRUCT: _SKIP_STRUCT,
        tags.NETOBJ: _COLLECT,
    }.get(tag, 0)
    for tag in range(256)
)


def scan_netobj_payloads(data, offset: int = 0) -> list:
    """Collect every NETOBJ payload from ``offset`` to the end of a
    pickle without decoding values.

    Every tag's header says how many bytes it owns and a container's
    elements follow it inline, so the walk is flat — no recursion, no
    nesting state — and may start at *any* value boundary: the
    unpickler hands the netobj handler a scan that resumes right after
    the reference it is decoding.  This powers the dirty-call
    prefetch: the handler can see which references the rest of the
    message carries before the sequential decode walks into them.
    Payloads are views into ``data``, valid while the frame buffer
    lives; a reference repeated later appears once (``REF``).

    Best effort by design: malformed input returns ``[]`` and the real
    decode reports the corruption properly.
    """
    found: list = []
    scan = _SCAN
    end = len(data)
    try:
        while offset < end:
            skip = scan[data[offset]]
            offset += 1
            if skip == _SKIP_STRUCT:
                # STRUCT name-value count: the name is a whole value
                # (STR or REF), the count a bare uvarint after it.
                skip = scan[data[offset]]
                offset += 1
                if skip == _SKIP_SIZED:
                    offset = _take(data, offset)[1]
                elif data[offset - 1] == tags.REF:
                    offset = read_uvarint(data, offset)[1]
                else:
                    return []
                skip = _SKIP_UVARINT
            if skip == _SKIP_UVARINT:
                while data[offset] & 0x80:
                    offset += 1
                offset += 1
            elif skip == _SKIP_SIZED:
                offset = _take(data, offset)[1]
            elif skip == _SKIP_FLOAT:
                offset += 8
            elif skip == _COLLECT:
                payload, offset = _take(data, offset)
                found.append(payload)
            elif skip != _SKIP_NOTHING:
                return []
    except (IndexError, UnmarshalError):
        return []
    return found if offset == end else []
