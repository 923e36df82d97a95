"""Wire messages of the RPC and GC protocols.

Each message is its tag byte followed by binary fields (varints,
length-prefixed strings, wireReps), decoded apart from the pickles so
the reader thread can route an envelope without touching its payload.

Messages are specs: a frame is its tag plus its fields in wire order,
and :func:`_frame` compiles that spec at import into a ``__slots__``
class with generated straight-line ``__init__``, ``encode_prefix``,
``encode_into`` and ``decode``.  Only :class:`Hello`/:class:`HelloAck`
are written by hand: they must also read a HELLO without its trailing
``max_version``.

Encoding is write-into: ``encode_into`` appends to a caller-owned
``bytearray`` (on the hot path, a pooled frame buffer).  Call/result
frames carry their pickle as the *trailing* bytes — no length prefix —
so a sender writes the envelope with ``encode_prefix`` and streams the
pickle in after it, and ``decode`` hands the receiver a zero-copy
``memoryview`` slice of it.
"""

from __future__ import annotations

from repro.errors import ProtocolError, UnmarshalError
from repro.wire import protocol
from repro.wire.ids import SpaceID
from repro.wire.varint import read_uvarint, write_uvarint
from repro.wire.wirerep import WireRep

# -- field kinds (a frozenset of ints is a u8 enum of those values) --------

UINT = "uint"               # varint
STR = "str"                 # varint length ‖ UTF-8
FLAG = "flag"               # u8 0/1, decoded as a bool
WIREREP = "WireRep"         # SpaceID (16 bytes) ‖ index varint
ENTRIES = "clean-entries"   # count varint ‖ count × (WireRep ‖ seqno ‖ strong u8)
TRAILING = "trailing"       # the rest of the frame, no length prefix


def _write_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    write_uvarint(out, len(raw))
    out += raw


def _read_str(data, offset: int):
    length, offset = read_uvarint(data, offset)
    end = offset + length
    if end > len(data):
        raise UnmarshalError("truncated string field")
    try:
        return str(data[offset:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise UnmarshalError(f"invalid UTF-8 in string field: {exc}") from exc


def _write_entries(out: bytearray, entries) -> None:
    write_uvarint(out, len(entries))
    for target, seqno, strong in entries:
        target.to_wire(out)
        write_uvarint(out, seqno)
        out.append(1 if strong else 0)


def _read_entries(data, offset: int):
    count, offset = read_uvarint(data, offset)
    entries = []
    for _ in range(count):
        target, offset = WireRep.from_wire(data, offset)
        seqno, offset = read_uvarint(data, offset)
        if offset >= len(data):
            raise UnmarshalError("truncated CleanBatch entry")
        entries.append((target, seqno, bool(data[offset])))
        offset += 1
    return tuple(entries), offset


class Message:
    """Base of every frame.  ``tag`` is the frame's first byte and
    ``fields`` its spec; ``__match_args__`` names the attributes that
    equality and ``repr`` compare and show, in wire order."""

    __slots__ = ()
    fields: tuple = ()

    def encode(self) -> bytes:
        out = bytearray()
        self.encode_into(out)
        return bytes(out)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__match_args__)

    def __repr__(self) -> str:
        parts = []
        for name in self.__match_args__:
            value = getattr(self, name)
            if isinstance(value, (bytes, bytearray, memoryview)):
                parts.append(f"{name}=<{len(value)} bytes>")
            else:
                parts.append(f"{name}={value!r}")
        return f"{type(self).__name__}({', '.join(parts)})"


#: Every frame class by tag, and the decoder ``decode(data, 1)`` of each.
FRAMES: "dict[int, type]" = {}
_DECODERS: dict = {}


def _register(cls):
    FRAMES[cls.tag] = cls
    _DECODERS[cls.tag] = cls.decode
    return cls


# -- the spec compiler -------------------------------------------------------

#: Encode statement per kind (``{v}``: the value expression).
_ENCODE = {
    UINT: "_wu(out, {v})",
    STR: "_ws(out, {v})",
    FLAG: "out.append(1 if {v} else 0)",
    "u8": "out.append({v})",
    WIREREP: "{v}.to_wire(out)",
    ENTRIES: "_we(out, {v})",
}

_READ_U8 = ("if offset >= len(data):\n"
            "    raise UnmarshalError('truncated {m}')\n"
            "{f} = data[offset]\n"
            "offset += 1")

#: Decode statements per kind (``{f}``: the field, ``{m}``: the frame).
_DECODE = {
    UINT: "{f}, offset = _ru(data, offset)",
    STR: "{f}, offset = _rs(data, offset)",
    FLAG: _READ_U8 + "\n{f} = {f} != 0",
    "u8": _READ_U8 + ("\nif {f} not in _{f}_values:\n"
                      "    raise UnmarshalError('bad {m} {f} %d' % {f})"),
    WIREREP: "{f}, offset = _rw(data, offset)",
    ENTRIES: "{f}, offset = _re(data, offset)",
    TRAILING: ("if type(data) is not memoryview:\n"
               "    data = memoryview(data)\n"
               "{f} = data[offset:]"),
}

_HELPERS = {
    "_wu": write_uvarint, "_ws": _write_str, "_we": _write_entries,
    "_ru": read_uvarint, "_rs": _read_str, "_re": _read_entries,
    "_rw": WireRep.from_wire, "UnmarshalError": UnmarshalError,
}


def _frame(tag: int, *fields):
    """Class decorator: compile a frame spec into a message class.

    ``fields`` are ``(name, kind[, default])`` in wire order, TRAILING
    last if at all.  The decorated class lends its name and docstring
    to a new :class:`Message` subclass whose methods are generated from
    this module's own specs (never from wire input); the static
    ``encode_prefix(out, *fields but the trailing one)`` writes the
    envelope alone.  The class is registered under ``tag``.
    """
    names = tuple(field[0] for field in fields)
    assert all(name.isidentifier() for name in names)
    assert TRAILING not in [field[1] for field in fields[:-1]]

    def build(decl):
        env = dict(_HELPERS)
        params, head, body, reads = [], [], [], []
        for name, kind, *default in fields:
            params.append(f"{name}={default[0]!r}" if default else name)
            if isinstance(kind, frozenset):
                env[f"_{name}_values"] = kind
                kind = "u8"
            reads += _DECODE[kind].format(f=name, m=decl.__name__).split("\n")
            if kind == TRAILING:
                body.append(f"out += self.{name}")
            else:
                head.append(_ENCODE[kind].format(v=name))
                body.append(_ENCODE[kind].format(v=f"self.{name}"))
        source = "\n".join([
            f"def __init__(self, {', '.join(params)}):",
            *[f"    self.{name} = {name}" for name in names], "    pass",
            f"def encode_prefix(out, {', '.join(names[:len(head)])}):",
            f"    out.append({tag})", *["    " + line for line in head],
            "def encode_into(self, out):",
            f"    out.append({tag})", *["    " + line for line in body],
            "def decode(data, offset):",
            *["    " + line for line in reads],
            f"    return _cls({', '.join(names)})",
        ])
        exec(compile(source, f"<frame {decl.__name__}>", "exec"), env)
        cls = type(decl.__name__, (Message,), {
            "__slots__": names, "__match_args__": names,
            "__doc__": decl.__doc__, "__module__": __name__,
            "__qualname__": decl.__qualname__, "tag": tag, "fields": fields,
            "__init__": env["__init__"],
            "encode_prefix": staticmethod(env["encode_prefix"]),
            "encode_into": env["encode_into"],
            "decode": staticmethod(env["decode"]),
        })
        env["_cls"] = cls
        return _register(cls)

    return build


# -- connection management ---------------------------------------------------

@_register
class Hello(Message):
    """Handshake: announces the protocol version and the sender's identity.

    The frame carries the version twice — ``version`` after the tag and
    ``max_version`` as a trailing uvarint after the nickname — and this
    runtime puts :data:`~repro.wire.protocol.PROTOCOL_VERSION` in both.
    The receiver reads ``max_version``; a frame with no trailing bytes
    (as the oldest peers sent it) announces its ``version`` instead.
    """

    __slots__ = __match_args__ = ("space_id", "nickname", "version",
                                  "max_version")
    tag = protocol.HELLO

    def __init__(self, space_id: SpaceID, nickname: str,
                 version: int = protocol.PROTOCOL_VERSION,
                 max_version: int = protocol.PROTOCOL_VERSION) -> None:
        self.space_id = space_id
        self.nickname = nickname
        self.version = version
        self.max_version = max_version

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.version)
        out += self.space_id.to_bytes()
        _write_str(out, self.nickname)
        write_uvarint(out, self.max_version)

    @classmethod
    def decode(cls, data, offset: int) -> "Hello":
        version, offset = read_uvarint(data, offset)
        end = offset + 16
        space_id = SpaceID.from_bytes(data[offset:end])
        nickname, offset = _read_str(data, end)
        space_id = SpaceID(space_id.hi, space_id.lo, nickname)
        if offset < len(data):
            max_version, offset = read_uvarint(data, offset)
        else:
            max_version = version
        return cls(space_id, nickname, version, max_version)


@_register
class HelloAck(Hello):
    """The acceptor's handshake reply; the same layout as :class:`Hello`."""

    __slots__ = ()
    tag = protocol.HELLO_ACK


@_frame(protocol.BYE)
class Bye(Message):
    """Orderly shutdown notice."""


# -- calls and their replies -------------------------------------------------

@_frame(protocol.RESULT, ("call_id", UINT), ("result_pickle", TRAILING))
class Result(Message):
    """Successful completion of a call.

    The pickle is the frame's trailing bytes (no length prefix), so a
    decoded Result's ``result_pickle`` is a zero-copy view into the
    frame buffer when the frame arrives as a ``memoryview``.
    """


@_frame(protocol.CALL_BIND, ("call_id", UINT), ("method_id", UINT),
        ("target", WIREREP), ("method", STR), ("args_pickle", TRAILING))
class BindCall(Message):
    """First call through a fresh method binding.

    The METHOD_BIND announcement rides the call itself: the frame
    carries the sender-allocated ``method_id`` together with the full
    target wireRep and method name, plus the args pickle as trailing
    bytes.  The receiver resolves the binding once, caches the bound
    method under ``method_id``, and serves the call; every later call
    through the binding is a :class:`BoundCall` or :class:`FastCall`.
    Like call ids, method ids are allocated per direction, so the two
    sides' id spaces never collide.
    """


@_frame(protocol.CALL_BOUND, ("call_id", UINT), ("method_id", UINT),
        ("args_pickle", TRAILING))
class BoundCall(Message):
    """Steady-state bound call: the envelope is just
    ``call_id, method_id`` — no wireRep, no method string — with the
    args pickle trailing."""


@_frame(protocol.CALL_FAST, ("call_id", UINT), ("method_id", UINT),
        ("args_wire", TRAILING))
class FastCall(Message):
    """Bound call whose arguments are typed scalars.

    ``args_wire`` is the trailing typed-argument encoding of
    :func:`repro.core.typecodes.encode_scalar_args_into` — the pickler
    is bypassed entirely on both sides.
    """


@_frame(protocol.RESULT_FAST, ("call_id", UINT), ("value_wire", TRAILING))
class FastResult(Message):
    """Typed scalar completion of a fast-lane call.

    ``value_wire`` is one self-describing typed value
    (:func:`repro.core.typecodes.encode_scalar_result_into`); the
    caller decodes it without touching the unpickler pool.
    """


@_frame(protocol.FAULT, ("call_id", UINT), ("kind", STR), ("message", STR),
        ("remote_traceback", STR))
class Fault(Message):
    """The remote implementation raised; carried back to the caller."""


@_frame(protocol.BUSY, ("call_id", UINT), ("reason", STR),
        ("retry_after_ms", UINT))
class Busy(Message):
    """The request was shed under admission control.

    A *reply* frame: it completes the caller's pending future with a
    :class:`~repro.errors.ServerBusy` failure instead of a result.
    ``retry_after_ms`` is the server's backoff hint.
    """


# -- distributed garbage collector -------------------------------------------

@_frame(protocol.DIRTY, ("call_id", UINT), ("target", WIREREP),
        ("seqno", UINT))
class Dirty(Message):
    """Dirty call: register the sender in the object's dirty set.

    Carries the client's sequence number; the owner only applies an
    operation whose sequence number exceeds the largest seen from that
    client for this object (the paper's out-of-order guard).
    """


@_frame(protocol.DIRTY_ACK, ("call_id", UINT), ("ok", FLAG),
        ("error", STR, ""))
class DirtyAck(Message):
    """Owner's reply to a dirty call; ``ok`` is False when the object
    is already gone (the client then raises NoSuchObjectError)."""


@_frame(protocol.CLEAN_BATCH, ("call_id", UINT), ("entries", ENTRIES))
class CleanBatch(Message):
    """Clean calls to one owner: remove the sender from each object's
    dirty set.  Every clean travels in one, a lone clean as a batch of
    one.

    ``entries`` is a tuple of ``(target, seqno, strong)`` triples.  A
    *strong* clean (paper §2.3) also bumps past any dirty call the
    client believes may have failed, guaranteeing that a late dirty
    arrival cannot resurrect the entry.  The owner applies the entries
    independently (the per-entry seqno guard still holds), so a
    retried batch — same seqnos — is idempotent.
    """


@_frame(protocol.CLEAN_BATCH_ACK, ("call_id", UINT), ("applied", UINT))
class CleanBatchAck(Message):
    """Owner's reply to a :class:`CleanBatch`; ``applied`` counts the
    entries processed (always the full batch — cleans of unknown
    objects are no-ops)."""


@_frame(protocol.COPY_ACK, ("target", WIREREP), ("copy_id", UINT))
class CopyAck(Message):
    """Receiver acknowledges a reference copy (one-way, no reply).

    Releases the sender's transient dirty entry identified by
    ``copy_id``; sent only after the receiver's dirty call completed,
    which is exactly what makes the Figure-1 race impossible.
    """


@_frame(protocol.PING, ("call_id", UINT))
class Ping(Message):
    """Owner-to-client liveness probe (paper §2.4)."""


@_frame(protocol.PING_ACK, ("call_id", UINT))
class PingAck(Message):
    """Client's answer to a :class:`Ping`."""


# -- read leases -------------------------------------------------------------

@_frame(protocol.LEASE_REQ, ("call_id", UINT), ("target", WIREREP),
        ("ttl_ms", UINT))
class LeaseReq(Message):
    """Client asks the owner for a read lease on ``target``.

    ``ttl_ms`` is the TTL the client would like; the owner may grant
    less (its configured cap) but never more.
    """


@_frame(protocol.LEASE_RENEW, ("call_id", UINT), ("target", WIREREP),
        ("lease_id", UINT), ("ttl_ms", UINT))
class LeaseRenew(Message):
    """Refresh request for a previously granted lease.

    Semantically a :class:`LeaseReq` that also names the prior
    ``lease_id`` so the owner can retire it in the same step instead of
    waiting for its expiry.  The reply is a fresh LEASE_GRANT.
    """


@_frame(protocol.LEASE_GRANT, ("call_id", UINT), ("ok", FLAG),
        ("lease_id", UINT), ("ttl_ms", UINT), ("version", UINT),
        ("error", STR), ("snapshot_pickle", TRAILING))
class LeaseGrant(Message):
    """Owner's reply to LEASE_REQ / LEASE_RENEW.

    On success (``ok``) it carries the lease id, the granted TTL, the
    object's lease version and — as the frame's *trailing* bytes, like
    a RESULT pickle — the snapshot of the object's lease-safe state.
    On denial the snapshot is empty and ``error`` says why; the client
    falls back to per-call RPC.
    """


@_frame(protocol.LEASE_RELEASE, ("target", WIREREP), ("lease_id", UINT))
class LeaseRelease(Message):
    """Client gives up a lease early (one-way, no reply) — sent just
    before a clean so the owner retires the lease without waiting for
    its deadline."""


@_frame(protocol.LEASE_INVALIDATE, ("call_id", UINT), ("target", WIREREP),
        ("lease_id", UINT), ("version", UINT))
class LeaseInvalidate(Message):
    """Owner tells a lease holder its cached state is stale.

    Sent on the write path *before* the mutation's result is released;
    the writer's reply is withheld until every live holder has acked
    (or its lease has provably expired), which is what bounds staleness
    at one RTT.  ``version`` is the owner's new lease version.
    """


@_frame(protocol.LEASE_INVALIDATE_ACK, ("call_id", UINT))
class LeaseInvalidateAck(Message):
    """Holder confirms it dropped the cached state."""


# -- bulk-data plane ---------------------------------------------------------
#
# Stream frames carry no call id: the opener allocates a per-connection
# stream id (odd from the dialing side, even from the accepting side,
# so the two directions never collide) and every later frame names it.

#: ``StreamOpen.direction``: which way the DATA frames flow.
STREAM_READ = 0         # owner -> opener (a reader stream)
STREAM_WRITE = 1        # opener -> owner (a writer stream)

#: ``StreamEnd.status``.
END_OK = 0              # producer finished; ``total`` bytes were moved
END_FAULT = 1           # the stream failed; ``kind``/``message`` say why
END_CANCEL = 2          # consumer: stop producing; producer: stopped


@_frame(protocol.STREAM_OPEN, ("stream_id", UINT), ("target", WIREREP),
        ("direction", frozenset({STREAM_READ, STREAM_WRITE})),
        ("credit", UINT))
class StreamOpen(Message):
    """Bind ``stream_id`` to the stream object ``target``.

    ``credit`` is the byte window: for a read stream, how much the
    owner may send before the first STREAM_CREDIT; for a write stream,
    how much the opener will send before the owner's first
    STREAM_CREDIT — either way no round trip precedes the first DATA.
    A refused open is answered by a STREAM_END fault (kind
    ``"ServerBusy"`` when admission control shed it).
    """


@_frame(protocol.STREAM_DATA, ("stream_id", UINT), ("data", TRAILING))
class StreamData(Message):
    """One chunk of a stream: ``stream_id`` then the raw bytes as the
    frame's trailing payload (zero-copy view on decode, like a RESULT
    pickle).  The sender writes the envelope with ``encode_prefix`` and
    hands the chunk to the channel as its own piece, never copied
    behind the header."""


@_frame(protocol.STREAM_CREDIT, ("stream_id", UINT), ("credit", UINT))
class StreamCredit(Message):
    """The receiver consumed ``credit`` bytes: the sender may send
    that many more."""


@_frame(protocol.STREAM_END, ("stream_id", UINT),
        ("status", frozenset({END_OK, END_FAULT, END_CANCEL})),
        ("total", UINT, 0), ("kind", STR, ""), ("message", STR, ""))
class StreamEnd(Message):
    """End of a stream, in either direction.

    From the producer it is the last frame of the stream: ``END_OK``
    after the final byte (``total`` = bytes moved, the consumer checks
    it), ``END_FAULT`` with the failure, or ``END_CANCEL`` confirming
    the consumer's cancel.  From the consumer of a read stream it is
    the cancel request (``END_CANCEL``); from the producer of a write
    stream ``END_OK`` asks the owner to drain, flush and confirm with
    its own STREAM_END.
    """


#: Replies carry a ``call_id`` matched against the issuer's pending table.
REPLY_TAGS = frozenset({
    protocol.RESULT, protocol.RESULT_FAST, protocol.FAULT, protocol.BUSY,
    protocol.DIRTY_ACK, protocol.CLEAN_BATCH_ACK, protocol.PING_ACK,
    protocol.LEASE_GRANT, protocol.LEASE_INVALIDATE_ACK,
})


def decode(data) -> Message:
    """Decode one frame into its message object.

    ``data`` may be ``bytes``, ``bytearray`` or ``memoryview``.  Pass
    a ``memoryview`` to make a decoded trailing payload a
    zero-copy slice of the frame (the connection reader does).
    """
    if not len(data):
        raise ProtocolError("empty frame")
    decoder = _DECODERS.get(data[0])
    if decoder is None:
        raise ProtocolError(f"unknown message tag {protocol.tag_name(data[0])}")
    return decoder(data, 1)
