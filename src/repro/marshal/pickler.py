"""The pickler: Python values → bytes.

Encoding is a recursive descent that spends exactly one Python frame
per value: the parent looks the child's exact type up in a table and
calls its encoder directly.  Two twists the reproduction depends on:

* **Sharing and cycles are preserved.**  Memoizable values receive
  consecutive memo ids as their tags are emitted; repeats are emitted
  as back-references.  Mutable containers are memoized *before* their
  elements so self-referential structures terminate.
* **Network objects are delegated** to a :class:`NetObjHandler`, which
  is where the object runtime swaps in wireReps and where the
  distributed collector records the copy (the transient dirty entry of
  the algorithm).  The pickler itself stays GC-agnostic.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional, Protocol

from repro.errors import MarshalError
from repro.marshal import tags
from repro.marshal.registry import StructRegistry, global_registry
from repro.marshal.tags import MAX_DEPTH, MEMO_VALUE_LIMIT
from repro.wire.varint import write_uvarint

_PACK_FLOAT = struct.Struct("!Bd").pack

#: Values needing more than this many varint bytes use INT_BIG.
_UVARINT_MAX = (1 << 63) - 1

#: Canonical pickles of the two payloads every void RPC carries — the
#: argument tuple ``((), {})`` and the result ``None``.  The call path
#: special-cases them (append / compare a constant) so a null call
#: never runs the general encoder at all.  Kept next to the encoder
#: that defines the format; a marshal test pins each to a round trip.
EMPTY_ARGS_PICKLE = bytes((tags.TUPLE, 2, tags.TUPLE, 0, tags.DICT, 0))
NONE_PICKLE = bytes((tags.NONE,))


class NetObjHandler(Protocol):
    """Hook through which the object runtime plugs into pickling.

    ``recognizes`` decides whether a value is a network object (either
    a concrete exported object or a surrogate); the verdict must depend
    on the value's exact type only — the pickler asks once per type and
    message.  ``marshal`` returns the payload bytes to embed —
    typically the wireRep plus typecode chain — and performs whatever
    bookkeeping the sender requires (e.g. recording a transient dirty
    entry).  ``unmarshal`` is the mirror image used by the unpickler;
    ``following()`` returns the payloads of the references that come
    *after* this one in the same pickle (a structural scan, run only
    if called, and once per pickle: later calls return ``[]``), for a
    handler that wants to register them in one go.
    """

    def recognizes(self, value: object) -> bool: ...

    def marshal(self, value: object) -> bytes: ...

    def unmarshal(self, payload: bytes,
                  following: Callable[[], list]) -> object: ...


class Pickler:
    """Reusable encoder; memo ids are scoped to one value graph.

    Each :meth:`dumps`/:meth:`dump_into` call encodes one message and
    resets the memo state afterwards, so one instance can be pooled and
    reused across messages (the dicts and scratch buffer keep their
    allocations).  :meth:`bind` swaps the per-message netobj handler
    without reallocating anything.
    """

    def __init__(
        self,
        registry: Optional[StructRegistry] = None,
        netobj_handler: Optional[NetObjHandler] = None,
    ):
        self._registry = registry if registry is not None else global_registry
        self._handler = netobj_handler
        self._out = bytearray()
        #: Memoized values in memo-id order — the list the decoder will
        #: rebuild.  Also keeps every identity-memoized value alive so
        #: its id() cannot be recycled mid-pickle.
        self._memo: list = []
        self._ids: dict = {}      # id(container/struct/netobj) -> memo id
        self._strs: dict = {}     # str value -> memo id
        self._bytes: dict = {}    # bytes value -> memo id
        #: Non-builtin types met in this message: exact type -> its
        #: StructCodec, or _NETOBJ when the handler claimed it.
        self._others: dict = {}

    def bind(self, netobj_handler: Optional[NetObjHandler]) -> "Pickler":
        """Attach the handler for the next message; returns ``self``."""
        self._handler = netobj_handler
        return self

    def reset(self) -> None:
        self._out.clear()
        self._memo.clear()
        self._ids.clear()
        self._strs.clear()
        self._bytes.clear()
        self._others.clear()

    def dumps(self, value: object) -> bytes:
        """Encode ``value`` and return the pickle bytes."""
        try:
            _ENCODERS.get(type(value), _encode_other)(self, value, 0)
            return bytes(self._out)
        finally:
            self.reset()

    def dump_into(self, value: object, out: bytearray) -> None:
        """Encode ``value`` by appending directly to ``out``.

        This is the zero-copy send path: ``out`` is typically a frame
        buffer already holding the message envelope, so the pickle is
        produced in its final resting place with no intermediate
        ``bytes`` materialisation.
        """
        own = self._out
        self._out = out
        try:
            _ENCODERS.get(type(value), _encode_other)(self, value, 0)
        finally:
            self._out = own
            self.reset()


# -- encoders ---------------------------------------------------------------------
#
# One function per exact type, all ``(pickler, value, depth)``.  ``depth``
# counts the containers around ``value``; only a container checks it, on
# entry.  A container memoizes itself, writes its header, and dispatches
# each child through ``_ENCODERS`` — anything not in the table (a struct,
# a network object, a subclass of a builtin) goes to ``_encode_other``.

def _too_deep() -> MarshalError:
    return MarshalError(f"value nesting exceeds {MAX_DEPTH} levels")


def _encode_none(p: Pickler, value, depth: int) -> None:
    p._out.append(tags.NONE)


def _encode_bool(p: Pickler, value: bool, depth: int) -> None:
    p._out.append(tags.TRUE if value else tags.FALSE)


def _encode_int(p: Pickler, value: int, depth: int) -> None:
    out = p._out
    if 0 <= value <= _UVARINT_MAX:
        out.append(tags.INT_POS)
        write_uvarint(out, value)
    elif -_UVARINT_MAX - 1 <= value < 0:
        out.append(tags.INT_NEG)
        write_uvarint(out, -1 - value)
    else:
        raw = value.to_bytes((value.bit_length() + 8) // 8, "little", signed=True)
        out.append(tags.INT_BIG)
        write_uvarint(out, len(raw))
        out += raw


def _encode_float(p: Pickler, value: float, depth: int) -> None:
    p._out += _PACK_FLOAT(tags.FLOAT, value)


def _encode_str(p: Pickler, value: str, depth: int) -> None:
    out = p._out
    memo = p._memo
    if len(value) <= MEMO_VALUE_LIMIT:
        # One probe: a new value takes the next id, a seen one
        # answers with the id it took.
        memo_id = p._strs.setdefault(value, len(memo))
        if memo_id != len(memo):
            out.append(tags.REF)
            write_uvarint(out, memo_id)
            return
    # A large string burns its id (decoder numbering is positional)
    # but is never hashed into the value memo.
    memo.append(value)
    raw = value.encode("utf-8")
    out.append(tags.STR)
    if len(raw) < 0x80:
        out.append(len(raw))
    else:
        write_uvarint(out, len(raw))
    out += raw


def _encode_bytes(p: Pickler, value: bytes, depth: int) -> None:
    out = p._out
    memo = p._memo
    if len(value) <= MEMO_VALUE_LIMIT:
        memo_id = p._bytes.setdefault(value, len(memo))
        if memo_id != len(memo):
            out.append(tags.REF)
            write_uvarint(out, memo_id)
            return
    memo.append(value)
    out.append(tags.BYTES)
    if len(value) < 0x80:
        out.append(len(value))
    else:
        write_uvarint(out, len(value))
    out += value


def _encode_bytearray(p: Pickler, value: bytearray, depth: int) -> None:
    # Mutable, so identity-memoized: two occurrences of the *same*
    # bytearray stay aliased after a round trip.
    out = p._out
    memo = p._memo
    memo_id = p._ids.setdefault(id(value), len(memo))
    if memo_id != len(memo):
        out.append(tags.REF)
        write_uvarint(out, memo_id)
        return
    memo.append(value)
    out.append(tags.BYTEARRAY)
    write_uvarint(out, len(value))
    out += value


def _sequence_encoder(tag: int):
    def encode(p: Pickler, value, depth: int) -> None:
        out = p._out
        memo = p._memo
        memo_id = p._ids.setdefault(id(value), len(memo))
        if memo_id != len(memo):
            out.append(tags.REF)
            write_uvarint(out, memo_id)
            return
        if depth >= MAX_DEPTH:
            raise _too_deep()
        memo.append(value)
        out.append(tag)
        if len(value) < 0x80:
            out.append(len(value))
        else:
            write_uvarint(out, len(value))
        depth += 1
        encoders = _ENCODERS
        for item in value:
            encoders.get(type(item), _encode_other)(p, item, depth)
    return encode


def _encode_dict(p: Pickler, value: dict, depth: int) -> None:
    out = p._out
    memo = p._memo
    memo_id = p._ids.setdefault(id(value), len(memo))
    if memo_id != len(memo):
        out.append(tags.REF)
        write_uvarint(out, memo_id)
        return
    if depth >= MAX_DEPTH:
        raise _too_deep()
    memo.append(value)
    out.append(tags.DICT)
    write_uvarint(out, len(value))
    depth += 1
    encoders = _ENCODERS
    for key, item in value.items():
        encoders.get(type(key), _encode_other)(p, key, depth)
        encoders.get(type(item), _encode_other)(p, item, depth)


#: Marks a type the netobj handler claimed in ``Pickler._others``.
_NETOBJ = object()


def _encode_other(p: Pickler, value: object, depth: int) -> None:
    """A registered struct (by its encode plan) or a network object."""
    cls = type(value)
    codec = p._others.get(cls)
    if codec is None:
        # First instance of this type in the message.  The handler
        # outranks the registry: a registered class that is also a
        # network object crosses by reference.
        handler = p._handler
        if handler is not None and handler.recognizes(value):
            codec = _NETOBJ
        else:
            codec = p._registry.by_cls.get(cls)
            if codec is None:
                raise MarshalError(
                    "cannot pickle value of unregistered type "
                    f"{cls.__qualname__}"
                )
        p._others[cls] = codec
    out = p._out
    memo = p._memo
    memo_id = p._ids.setdefault(id(value), len(memo))
    if memo_id != len(memo):
        out.append(tags.REF)
        write_uvarint(out, memo_id)
        return
    if codec is _NETOBJ:
        memo.append(value)
        payload = p._handler.marshal(value)
        out.append(tags.NETOBJ)
        write_uvarint(out, len(payload))
        out += payload
        return
    if depth >= MAX_DEPTH:
        raise _too_deep()
    memo.append(value)
    # The type name shares the string memo with ordinary strings.
    name_id = p._strs.get(codec.name)
    if name_id is not None:
        out.append(tags.STRUCT)
        out.append(tags.REF)
        write_uvarint(out, name_id)
    else:
        if codec.memoize_name:
            p._strs[codec.name] = len(memo)
        memo.append(codec.name)
        out += codec.header
    try:
        fields = codec.getter(value)
    except AttributeError as exc:
        raise MarshalError(
            f"instance of {codec.name} missing field: {exc}"
        ) from exc
    out += codec.count
    depth += 1
    encoders = _ENCODERS
    for item in fields:
        encoders.get(type(item), _encode_other)(p, item, depth)


#: Exact-type dispatch table.  Subclasses of these types deliberately
#: do *not* match: they fall through to the struct registry and are
#: rejected unless registered in their own right.
_ENCODERS = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    bytearray: _encode_bytearray,
    list: _sequence_encoder(tags.LIST),
    tuple: _sequence_encoder(tags.TUPLE),
    dict: _encode_dict,
    set: _sequence_encoder(tags.SET),
    frozenset: _sequence_encoder(tags.FROZENSET),
}


def dumps(
    value: object,
    registry: Optional[StructRegistry] = None,
    netobj_handler: Optional[NetObjHandler] = None,
) -> bytes:
    """One-shot convenience wrapper around :class:`Pickler`."""
    return Pickler(registry, netobj_handler).dumps(value)
