"""Wire messages of the RPC and GC protocols.

Each message encodes as its tag byte followed by hand-written binary
fields (varints, length-prefixed strings/bytes, wireReps).  We keep
the envelope codecs separate from the pickles so the reader thread can
decode an envelope — and route it — without touching the argument
payload; unpickling happens later, in the thread that owns the call.

Encoding is write-into: every message appends itself to a caller-owned
``bytearray`` via ``encode_into`` (the hot path hands it a pooled frame
buffer with the 4 length-prefix bytes already reserved); ``encode()``
remains as a one-shot convenience wrapper.  ``decode`` accepts any
bytes-like input, and call/result frames carry their pickle as the
*trailing* bytes of the frame — no length prefix — so the sender can
stream the pickle straight into the frame buffer after the envelope,
and the receiver can take a zero-copy ``memoryview`` slice of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import ProtocolError, UnmarshalError
from repro.wire import protocol
from repro.wire.ids import SpaceID
from repro.wire.varint import read_uvarint, write_uvarint
from repro.wire.wirerep import WireRep


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


def _write_bytes(out: bytearray, raw) -> None:
    write_uvarint(out, len(raw))
    out += raw


def _read_bytes(data, offset: int):
    length, offset = read_uvarint(data, offset)
    end = offset + length
    if end > len(data):
        raise UnmarshalError("truncated bytes field")
    return data[offset:end], end


def _trailing(data, offset: int):
    """The frame's trailing bytes as a zero-copy view.

    ``data[offset:]`` on a memoryview is already zero-copy, but on
    ``bytes``/``bytearray`` (standalone decodes, tests, transports
    that hand whole frames around) it *copies* the payload — wrap
    first so the pickle slice is always a view into the frame buffer.
    """
    if type(data) is not memoryview:
        data = memoryview(data)
    return data[offset:]


class _Encodable:
    """One-shot ``encode()`` on top of each message's ``encode_into``."""

    def encode(self) -> bytes:
        out = bytearray()
        self.encode_into(out)
        return bytes(out)


# -- envelope prefix writers (the zero-copy send path) -----------------------
#
# The hot path never materialises a call/result object on the way out:
# it writes the envelope prefix into the frame buffer and lets the
# pickler (or the typed scalar codec) append the payload in place.  Each
# message's ``encode_into`` delegates here so there is exactly one
# definition of each envelope.

def encode_result_prefix(out: bytearray, call_id: int) -> None:
    """Write a RESULT envelope; the result pickle follows as trailing bytes."""
    out.append(protocol.RESULT)
    write_uvarint(out, call_id)


def encode_bind_call_prefix(out: bytearray, call_id: int, method_id: int,
                            target: WireRep, method: str) -> None:
    """Write a CALL_BIND envelope: the METHOD_BIND announcement
    piggybacked on the first call through a fresh binding.  The args
    pickle follows as trailing bytes."""
    out.append(protocol.CALL_BIND)
    write_uvarint(out, call_id)
    write_uvarint(out, method_id)
    target.to_wire(out)
    _write_str(out, method)


def encode_bound_call_prefix(out: bytearray, call_id: int,
                             method_id: int) -> None:
    """Write a CALL_BOUND envelope; the args pickle follows as
    trailing bytes."""
    out.append(protocol.CALL_BOUND)
    write_uvarint(out, call_id)
    write_uvarint(out, method_id)


def encode_fast_call_prefix(out: bytearray, call_id: int,
                            method_id: int) -> None:
    """Write a CALL_FAST envelope; typed scalar args (see
    :mod:`repro.core.typecodes`) follow as trailing bytes."""
    out.append(protocol.CALL_FAST)
    write_uvarint(out, call_id)
    write_uvarint(out, method_id)


def encode_fast_result_prefix(out: bytearray, call_id: int) -> None:
    """Write a RESULT_FAST envelope; one typed scalar value follows as
    trailing bytes."""
    out.append(protocol.RESULT_FAST)
    write_uvarint(out, call_id)


@dataclass(frozen=True)
class Hello(_Encodable):
    """Handshake: announces the protocol version and the sender's identity.

    The frame carries the version twice — ``version`` after the tag and
    ``max_version`` as a trailing uvarint after the nickname — and this
    runtime puts :data:`~repro.wire.protocol.PROTOCOL_VERSION` in both.
    The receiver reads ``max_version``; a frame with no trailing bytes
    (as the oldest peers sent it) announces its ``version`` instead.
    """

    space_id: SpaceID
    nickname: str
    version: int = protocol.PROTOCOL_VERSION
    max_version: int = protocol.PROTOCOL_VERSION
    tag = protocol.HELLO

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


@dataclass(frozen=True)
class HelloAck(Hello):
    tag = protocol.HELLO_ACK


@dataclass(frozen=True)
class Bye(_Encodable):
    """Orderly shutdown notice."""

    tag = protocol.BYE

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)

    @classmethod
    def decode(cls, data, offset: int) -> "Bye":
        return cls()


class Result(_Encodable):
    """Successful completion of a call.

    The pickle is the frame's trailing bytes (no length prefix), so a
    decoded Result's ``result_pickle`` is a zero-copy view into the
    frame buffer when the frame arrives as a ``memoryview``.

    A plain ``__slots__`` class rather than a frozen dataclass: one is
    constructed per reply, and the frozen-dataclass
    ``object.__setattr__`` dance costs several times a normal init.
    """

    __slots__ = ("call_id", "result_pickle")
    tag = protocol.RESULT

    def __init__(self, call_id: int, result_pickle) -> None:
        self.call_id = call_id
        self.result_pickle = result_pickle

    def __eq__(self, other) -> bool:
        if isinstance(other, Result):
            return (self.call_id == other.call_id
                    and self.result_pickle == other.result_pickle)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"Result(call_id={self.call_id}, "
                f"result_pickle=<{len(self.result_pickle)} bytes>)")

    def encode_into(self, out: bytearray) -> None:
        encode_result_prefix(out, self.call_id)
        out += self.result_pickle

    @classmethod
    def decode(cls, data, offset: int) -> "Result":
        call_id, offset = read_uvarint(data, offset)
        return cls(call_id, _trailing(data, offset))


class BindCall(_Encodable):
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

    __slots__ = ("call_id", "method_id", "target", "method", "args_pickle")
    tag = protocol.CALL_BIND

    def __init__(self, call_id: int, method_id: int, target: WireRep,
                 method: str, args_pickle) -> None:
        self.call_id = call_id
        self.method_id = method_id
        self.target = target
        self.method = method
        self.args_pickle = args_pickle

    def __eq__(self, other) -> bool:
        if isinstance(other, BindCall):
            return (self.call_id == other.call_id
                    and self.method_id == other.method_id
                    and self.target == other.target
                    and self.method == other.method
                    and self.args_pickle == other.args_pickle)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"BindCall(call_id={self.call_id}, "
                f"method_id={self.method_id}, target={self.target}, "
                f"method={self.method!r}, "
                f"args_pickle=<{len(self.args_pickle)} bytes>)")

    def encode_into(self, out: bytearray) -> None:
        encode_bind_call_prefix(out, self.call_id, self.method_id,
                                self.target, self.method)
        out += self.args_pickle

    @classmethod
    def decode(cls, data, offset: int) -> "BindCall":
        call_id, offset = read_uvarint(data, offset)
        method_id, offset = read_uvarint(data, offset)
        target, offset = WireRep.from_wire(data, offset)
        method, offset = _read_str(data, offset)
        return cls(call_id, method_id, target, method, _trailing(data, offset))


class BoundCall(_Encodable):
    """Steady-state bound call: the envelope is just
    ``call_id, method_id`` — no wireRep, no method string — with the
    args pickle trailing."""

    __slots__ = ("call_id", "method_id", "args_pickle")
    tag = protocol.CALL_BOUND

    def __init__(self, call_id: int, method_id: int, args_pickle) -> None:
        self.call_id = call_id
        self.method_id = method_id
        self.args_pickle = args_pickle

    def __eq__(self, other) -> bool:
        if isinstance(other, BoundCall):
            return (self.call_id == other.call_id
                    and self.method_id == other.method_id
                    and self.args_pickle == other.args_pickle)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"BoundCall(call_id={self.call_id}, "
                f"method_id={self.method_id}, "
                f"args_pickle=<{len(self.args_pickle)} bytes>)")

    def encode_into(self, out: bytearray) -> None:
        encode_bound_call_prefix(out, self.call_id, self.method_id)
        out += self.args_pickle

    @classmethod
    def decode(cls, data, offset: int) -> "BoundCall":
        call_id, offset = read_uvarint(data, offset)
        method_id, offset = read_uvarint(data, offset)
        return cls(call_id, method_id, _trailing(data, offset))


class FastCall(_Encodable):
    """Bound call whose arguments are typed scalars.

    ``args_wire`` is the trailing typed-argument encoding of
    :func:`repro.core.typecodes.encode_scalar_args_into` — the pickler
    is bypassed entirely on both sides.
    """

    __slots__ = ("call_id", "method_id", "args_wire")
    tag = protocol.CALL_FAST

    def __init__(self, call_id: int, method_id: int, args_wire) -> None:
        self.call_id = call_id
        self.method_id = method_id
        self.args_wire = args_wire

    def __eq__(self, other) -> bool:
        if isinstance(other, FastCall):
            return (self.call_id == other.call_id
                    and self.method_id == other.method_id
                    and self.args_wire == other.args_wire)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"FastCall(call_id={self.call_id}, "
                f"method_id={self.method_id}, "
                f"args_wire=<{len(self.args_wire)} bytes>)")

    def encode_into(self, out: bytearray) -> None:
        encode_fast_call_prefix(out, self.call_id, self.method_id)
        out += self.args_wire

    @classmethod
    def decode(cls, data, offset: int) -> "FastCall":
        call_id, offset = read_uvarint(data, offset)
        method_id, offset = read_uvarint(data, offset)
        return cls(call_id, method_id, _trailing(data, offset))


class FastResult(_Encodable):
    """Typed scalar completion of a fast-lane call.

    ``value_wire`` is one self-describing typed value
    (:func:`repro.core.typecodes.encode_scalar_result_into`); the
    caller decodes it without touching the unpickler pool.
    """

    __slots__ = ("call_id", "value_wire")
    tag = protocol.RESULT_FAST

    def __init__(self, call_id: int, value_wire) -> None:
        self.call_id = call_id
        self.value_wire = value_wire

    def __eq__(self, other) -> bool:
        if isinstance(other, FastResult):
            return (self.call_id == other.call_id
                    and self.value_wire == other.value_wire)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"FastResult(call_id={self.call_id}, "
                f"value_wire=<{len(self.value_wire)} bytes>)")

    def encode_into(self, out: bytearray) -> None:
        encode_fast_result_prefix(out, self.call_id)
        out += self.value_wire

    @classmethod
    def decode(cls, data, offset: int) -> "FastResult":
        call_id, offset = read_uvarint(data, offset)
        return cls(call_id, _trailing(data, offset))


@dataclass(frozen=True)
class Fault(_Encodable):
    """The remote implementation raised; carried back to the caller."""

    call_id: int
    kind: str
    message: str
    remote_traceback: str
    tag = protocol.FAULT

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.call_id)
        _write_str(out, self.kind)
        _write_str(out, self.message)
        _write_str(out, self.remote_traceback)

    @classmethod
    def decode(cls, data, offset: int) -> "Fault":
        call_id, offset = read_uvarint(data, offset)
        kind, offset = _read_str(data, offset)
        message, offset = _read_str(data, offset)
        remote_traceback, offset = _read_str(data, offset)
        return cls(call_id, kind, message, remote_traceback)


@dataclass(frozen=True)
class Busy(_Encodable):
    """The request was shed under admission control.

    A *reply* frame: it completes the caller's pending future with a
    :class:`~repro.errors.ServerBusy` failure instead of a result.
    ``retry_after_ms`` is the server's backoff hint.
    """

    call_id: int
    reason: str
    retry_after_ms: int
    tag = protocol.BUSY

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.call_id)
        _write_str(out, self.reason)
        write_uvarint(out, self.retry_after_ms)

    @classmethod
    def decode(cls, data, offset: int) -> "Busy":
        call_id, offset = read_uvarint(data, offset)
        reason, offset = _read_str(data, offset)
        retry_after_ms, offset = read_uvarint(data, offset)
        return cls(call_id, reason, retry_after_ms)


@dataclass(frozen=True)
class Dirty(_Encodable):
    """Dirty call: register the sender in the object's dirty set.

    Carries the client's sequence number; the owner only applies an
    operation whose sequence number exceeds the largest seen from that
    client for this object (the paper's out-of-order guard).
    """

    call_id: int
    target: WireRep
    seqno: int
    tag = protocol.DIRTY

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.call_id)
        self.target.to_wire(out)
        write_uvarint(out, self.seqno)

    @classmethod
    def decode(cls, data, offset: int) -> "Dirty":
        call_id, offset = read_uvarint(data, offset)
        target, offset = WireRep.from_wire(data, offset)
        seqno, offset = read_uvarint(data, offset)
        return cls(call_id, target, seqno)


@dataclass(frozen=True)
class DirtyAck(_Encodable):
    """Owner's reply to a dirty call; ``ok`` is False when the object
    is already gone (the client then raises NoSuchObjectError)."""

    call_id: int
    ok: bool
    error: str = ""
    tag = protocol.DIRTY_ACK

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.call_id)
        out.append(1 if self.ok else 0)
        _write_str(out, self.error)

    @classmethod
    def decode(cls, data, offset: int) -> "DirtyAck":
        call_id, offset = read_uvarint(data, offset)
        if offset >= len(data):
            raise UnmarshalError("truncated DirtyAck")
        ok = bool(data[offset])
        error, offset = _read_str(data, offset + 1)
        return cls(call_id, ok, error)


@dataclass(frozen=True)
class Clean(_Encodable):
    """Clean call: remove the sender from the object's dirty set.

    A *strong* clean (paper §2.3) also bumps past any dirty call the
    client believes may have failed, guaranteeing that a late dirty
    arrival cannot resurrect the entry.
    """

    call_id: int
    target: WireRep
    seqno: int
    strong: bool = False
    tag = protocol.CLEAN

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.call_id)
        self.target.to_wire(out)
        write_uvarint(out, self.seqno)
        out.append(1 if self.strong else 0)

    @classmethod
    def decode(cls, data, offset: int) -> "Clean":
        call_id, offset = read_uvarint(data, offset)
        target, offset = WireRep.from_wire(data, offset)
        seqno, offset = read_uvarint(data, offset)
        if offset >= len(data):
            raise UnmarshalError("truncated Clean")
        strong = bool(data[offset])
        return cls(call_id, target, seqno, strong)


@dataclass(frozen=True)
class CleanAck(_Encodable):
    call_id: int
    tag = protocol.CLEAN_ACK

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.call_id)

    @classmethod
    def decode(cls, data, offset: int) -> "CleanAck":
        call_id, offset = read_uvarint(data, offset)
        return cls(call_id)


@dataclass(frozen=True)
class CleanBatch(_Encodable):
    """Several clean calls to one owner in one frame.

    ``entries`` is a tuple of ``(target, seqno, strong)`` triples, each
    with exactly the semantics of a standalone :class:`Clean`.  The
    owner applies the entries independently (the per-entry seqno guard
    still holds), so a retried batch — same seqnos — is idempotent.
    """

    call_id: int
    entries: "tuple[tuple[WireRep, int, bool], ...]"
    tag = protocol.CLEAN_BATCH

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.call_id)
        write_uvarint(out, len(self.entries))
        for target, seqno, strong in self.entries:
            target.to_wire(out)
            write_uvarint(out, seqno)
            out.append(1 if strong else 0)

    @classmethod
    def decode(cls, data, offset: int) -> "CleanBatch":
        call_id, offset = read_uvarint(data, offset)
        count, offset = read_uvarint(data, offset)
        entries = []
        for _ in range(count):
            target, offset = WireRep.from_wire(data, offset)
            seqno, offset = read_uvarint(data, offset)
            if offset >= len(data):
                raise UnmarshalError("truncated CleanBatch entry")
            entries.append((target, seqno, bool(data[offset])))
            offset += 1
        return cls(call_id, tuple(entries))


@dataclass(frozen=True)
class CleanBatchAck(_Encodable):
    """Owner's reply to a :class:`CleanBatch`; ``applied`` counts the
    entries processed (always the full batch — cleans of unknown
    objects are no-ops, exactly as for unit cleans)."""

    call_id: int
    applied: int
    tag = protocol.CLEAN_BATCH_ACK

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.call_id)
        write_uvarint(out, self.applied)

    @classmethod
    def decode(cls, data, offset: int) -> "CleanBatchAck":
        call_id, offset = read_uvarint(data, offset)
        applied, offset = read_uvarint(data, offset)
        return cls(call_id, applied)


@dataclass(frozen=True)
class CopyAck(_Encodable):
    """Receiver acknowledges a reference copy (one-way, no reply).

    Releases the sender's transient dirty entry identified by
    ``copy_id``; sent only after the receiver's dirty call completed,
    which is exactly what makes the Figure-1 race impossible.
    """

    target: WireRep
    copy_id: int
    tag = protocol.COPY_ACK

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        self.target.to_wire(out)
        write_uvarint(out, self.copy_id)

    @classmethod
    def decode(cls, data, offset: int) -> "CopyAck":
        target, offset = WireRep.from_wire(data, offset)
        copy_id, offset = read_uvarint(data, offset)
        return cls(target, copy_id)


@dataclass(frozen=True)
class Ping(_Encodable):
    """Owner-to-client liveness probe (paper §2.4)."""

    call_id: int
    tag = protocol.PING

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.call_id)

    @classmethod
    def decode(cls, data, offset: int) -> "Ping":
        call_id, offset = read_uvarint(data, offset)
        return cls(call_id)


@dataclass(frozen=True)
class PingAck(_Encodable):
    call_id: int
    tag = protocol.PING_ACK

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.call_id)

    @classmethod
    def decode(cls, data, offset: int) -> "PingAck":
        call_id, offset = read_uvarint(data, offset)
        return cls(call_id)


# -- read leases -------------------------------------------------------------

def encode_lease_grant_prefix(out: bytearray, call_id: int, lease_id: int,
                              ttl_ms: int, version: int) -> None:
    """Write a successful LEASE_GRANT envelope; the state snapshot
    pickle follows as trailing bytes (same zero-copy discipline as
    RESULT)."""
    out.append(protocol.LEASE_GRANT)
    write_uvarint(out, call_id)
    out.append(1)  # ok
    write_uvarint(out, lease_id)
    write_uvarint(out, ttl_ms)
    write_uvarint(out, version)
    _write_str(out, "")


@dataclass(frozen=True)
class LeaseReq(_Encodable):
    """Client asks the owner for a read lease on ``target``.

    ``ttl_ms`` is the TTL the client would like; the owner may grant
    less (its configured cap) but never more.
    """

    call_id: int
    target: WireRep
    ttl_ms: int
    tag = protocol.LEASE_REQ

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.call_id)
        self.target.to_wire(out)
        write_uvarint(out, self.ttl_ms)

    @classmethod
    def decode(cls, data, offset: int) -> "LeaseReq":
        call_id, offset = read_uvarint(data, offset)
        target, offset = WireRep.from_wire(data, offset)
        ttl_ms, offset = read_uvarint(data, offset)
        return cls(call_id, target, ttl_ms)


@dataclass(frozen=True)
class LeaseRenew(_Encodable):
    """Refresh request for a previously granted lease.

    Semantically a :class:`LeaseReq` that also names the prior
    ``lease_id`` so the owner can retire it in the same step instead of
    waiting for its expiry.  The reply is a fresh LEASE_GRANT.
    """

    call_id: int
    target: WireRep
    lease_id: int
    ttl_ms: int
    tag = protocol.LEASE_RENEW

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.call_id)
        self.target.to_wire(out)
        write_uvarint(out, self.lease_id)
        write_uvarint(out, self.ttl_ms)

    @classmethod
    def decode(cls, data, offset: int) -> "LeaseRenew":
        call_id, offset = read_uvarint(data, offset)
        target, offset = WireRep.from_wire(data, offset)
        lease_id, offset = read_uvarint(data, offset)
        ttl_ms, offset = read_uvarint(data, offset)
        return cls(call_id, target, lease_id, ttl_ms)


class LeaseGrant(_Encodable):
    """Owner's reply to LEASE_REQ / LEASE_RENEW.

    On success (``ok``) it carries the lease id, the granted TTL, the
    object's lease version and — as the frame's *trailing* bytes, like
    a RESULT pickle — the snapshot of the object's lease-safe state.
    On denial the snapshot is empty and ``error`` says why; the client
    falls back to per-call RPC.

    A ``__slots__`` class (not a frozen dataclass) for the same reason
    as :class:`Result`: it carries a bulk pickle on the hot read path.
    """

    __slots__ = ("call_id", "ok", "lease_id", "ttl_ms", "version", "error",
                 "snapshot_pickle")
    tag = protocol.LEASE_GRANT

    def __init__(self, call_id: int, ok: bool, lease_id: int, ttl_ms: int,
                 version: int, error: str, snapshot_pickle) -> None:
        self.call_id = call_id
        self.ok = ok
        self.lease_id = lease_id
        self.ttl_ms = ttl_ms
        self.version = version
        self.error = error
        self.snapshot_pickle = snapshot_pickle

    def __eq__(self, other) -> bool:
        if isinstance(other, LeaseGrant):
            return (self.call_id == other.call_id and self.ok == other.ok
                    and self.lease_id == other.lease_id
                    and self.ttl_ms == other.ttl_ms
                    and self.version == other.version
                    and self.error == other.error
                    and self.snapshot_pickle == other.snapshot_pickle)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"LeaseGrant(call_id={self.call_id}, ok={self.ok}, "
                f"lease_id={self.lease_id}, ttl_ms={self.ttl_ms}, "
                f"version={self.version}, error={self.error!r}, "
                f"snapshot_pickle=<{len(self.snapshot_pickle)} bytes>)")

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.call_id)
        out.append(1 if self.ok else 0)
        write_uvarint(out, self.lease_id)
        write_uvarint(out, self.ttl_ms)
        write_uvarint(out, self.version)
        _write_str(out, self.error)
        out += self.snapshot_pickle

    @classmethod
    def decode(cls, data, offset: int) -> "LeaseGrant":
        call_id, offset = read_uvarint(data, offset)
        if offset >= len(data):
            raise UnmarshalError("truncated LeaseGrant")
        ok = bool(data[offset])
        lease_id, offset = read_uvarint(data, offset + 1)
        ttl_ms, offset = read_uvarint(data, offset)
        version, offset = read_uvarint(data, offset)
        error, offset = _read_str(data, offset)
        return cls(call_id, ok, lease_id, ttl_ms, version, error,
                   _trailing(data, offset))


@dataclass(frozen=True)
class LeaseRelease(_Encodable):
    """Client gives up a lease early (one-way, no reply) — sent just
    before a CLEAN so the owner retires the lease without waiting for
    its deadline."""

    target: WireRep
    lease_id: int
    tag = protocol.LEASE_RELEASE

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        self.target.to_wire(out)
        write_uvarint(out, self.lease_id)

    @classmethod
    def decode(cls, data, offset: int) -> "LeaseRelease":
        target, offset = WireRep.from_wire(data, offset)
        lease_id, offset = read_uvarint(data, offset)
        return cls(target, lease_id)


@dataclass(frozen=True)
class LeaseInvalidate(_Encodable):
    """Owner tells a lease holder its cached state is stale.

    Sent on the write path *before* the mutation's result is released;
    the writer's reply is withheld until every live holder has acked
    (or its lease has provably expired), which is what bounds staleness
    at one RTT.  ``version`` is the owner's new lease version.
    """

    call_id: int
    target: WireRep
    lease_id: int
    version: int
    tag = protocol.LEASE_INVALIDATE

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.call_id)
        self.target.to_wire(out)
        write_uvarint(out, self.lease_id)
        write_uvarint(out, self.version)

    @classmethod
    def decode(cls, data, offset: int) -> "LeaseInvalidate":
        call_id, offset = read_uvarint(data, offset)
        target, offset = WireRep.from_wire(data, offset)
        lease_id, offset = read_uvarint(data, offset)
        version, offset = read_uvarint(data, offset)
        return cls(call_id, target, lease_id, version)


@dataclass(frozen=True)
class LeaseInvalidateAck(_Encodable):
    call_id: int
    tag = protocol.LEASE_INVALIDATE_ACK

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.call_id)

    @classmethod
    def decode(cls, data, offset: int) -> "LeaseInvalidateAck":
        call_id, offset = read_uvarint(data, offset)
        return cls(call_id)


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


def encode_stream_data_header(out: bytearray, stream_id: int) -> None:
    """Write a STREAM_DATA envelope; the chunk follows as raw trailing
    bytes — sent as its own piece, never copied behind the header."""
    out.append(protocol.STREAM_DATA)
    write_uvarint(out, stream_id)


@dataclass(frozen=True)
class StreamOpen(_Encodable):
    """Bind ``stream_id`` to the stream object ``target``.

    ``credit`` is the byte window: for a read stream, how much the
    owner may send before the first STREAM_CREDIT; for a write stream,
    how much the opener will send before the owner's first
    STREAM_CREDIT — either way no round trip precedes the first DATA.
    A refused open is answered by a STREAM_END fault (kind
    ``"ServerBusy"`` when admission control shed it).
    """

    stream_id: int
    target: WireRep
    direction: int
    credit: int
    tag = protocol.STREAM_OPEN

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.stream_id)
        self.target.to_wire(out)
        out.append(self.direction)
        write_uvarint(out, self.credit)

    @classmethod
    def decode(cls, data, offset: int) -> "StreamOpen":
        stream_id, offset = read_uvarint(data, offset)
        target, offset = WireRep.from_wire(data, offset)
        if offset >= len(data):
            raise UnmarshalError("truncated StreamOpen")
        direction = data[offset]
        if direction not in (STREAM_READ, STREAM_WRITE):
            raise UnmarshalError(f"bad stream direction {direction}")
        credit, offset = read_uvarint(data, offset + 1)
        return cls(stream_id, target, direction, credit)


class StreamData(_Encodable):
    """One chunk of a stream: ``stream_id`` then the raw bytes as the
    frame's trailing payload (zero-copy view on decode, like a RESULT
    pickle).  A ``__slots__`` class: one per chunk on the bulk path."""

    __slots__ = ("stream_id", "data")
    tag = protocol.STREAM_DATA

    def __init__(self, stream_id: int, data) -> None:
        self.stream_id = stream_id
        self.data = data

    def __eq__(self, other) -> bool:
        if isinstance(other, StreamData):
            return (self.stream_id == other.stream_id
                    and self.data == other.data)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"StreamData(stream_id={self.stream_id}, "
                f"data=<{len(self.data)} bytes>)")

    def encode_into(self, out: bytearray) -> None:
        encode_stream_data_header(out, self.stream_id)
        out += self.data

    @classmethod
    def decode(cls, data, offset: int) -> "StreamData":
        stream_id, offset = read_uvarint(data, offset)
        return cls(stream_id, _trailing(data, offset))


@dataclass(frozen=True)
class StreamCredit(_Encodable):
    """The receiver consumed ``credit`` bytes: the sender may send
    that many more."""

    stream_id: int
    credit: int
    tag = protocol.STREAM_CREDIT

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.stream_id)
        write_uvarint(out, self.credit)

    @classmethod
    def decode(cls, data, offset: int) -> "StreamCredit":
        stream_id, offset = read_uvarint(data, offset)
        credit, offset = read_uvarint(data, offset)
        return cls(stream_id, credit)


@dataclass(frozen=True)
class StreamEnd(_Encodable):
    """End of a stream, in either direction.

    From the producer it is the last frame of the stream: ``END_OK``
    after the final byte (``total`` = bytes moved, the consumer checks
    it), ``END_FAULT`` with the failure, or ``END_CANCEL`` confirming
    the consumer's cancel.  From the consumer of a read stream it is
    the cancel request (``END_CANCEL``); from the producer of a write
    stream ``END_OK`` asks the owner to drain, flush and confirm with
    its own STREAM_END.
    """

    stream_id: int
    status: int
    total: int = 0
    kind: str = ""
    message: str = ""
    tag = protocol.STREAM_END

    def encode_into(self, out: bytearray) -> None:
        out.append(self.tag)
        write_uvarint(out, self.stream_id)
        out.append(self.status)
        write_uvarint(out, self.total)
        _write_str(out, self.kind)
        _write_str(out, self.message)

    @classmethod
    def decode(cls, data, offset: int) -> "StreamEnd":
        stream_id, offset = read_uvarint(data, offset)
        if offset >= len(data):
            raise UnmarshalError("truncated StreamEnd")
        status = data[offset]
        if status not in (END_OK, END_FAULT, END_CANCEL):
            raise UnmarshalError(f"bad stream end status {status}")
        total, offset = read_uvarint(data, offset + 1)
        kind, offset = _read_str(data, offset)
        message, offset = _read_str(data, offset)
        return cls(stream_id, status, total, kind, message)


Message = Union[
    Hello, HelloAck, Bye, Result, Fault, Busy,
    BindCall, BoundCall, FastCall, FastResult,
    Dirty, DirtyAck, Clean, CleanAck, CleanBatch, CleanBatchAck,
    CopyAck, Ping, PingAck,
    LeaseReq, LeaseGrant, LeaseRenew, LeaseRelease,
    LeaseInvalidate, LeaseInvalidateAck,
    StreamOpen, StreamData, StreamCredit, StreamEnd,
]

_DECODERS = {
    protocol.HELLO: Hello.decode,
    protocol.HELLO_ACK: HelloAck.decode,
    protocol.BYE: Bye.decode,
    protocol.RESULT: Result.decode,
    protocol.FAULT: Fault.decode,
    protocol.CALL_BIND: BindCall.decode,
    protocol.CALL_BOUND: BoundCall.decode,
    protocol.CALL_FAST: FastCall.decode,
    protocol.RESULT_FAST: FastResult.decode,
    protocol.BUSY: Busy.decode,
    protocol.DIRTY: Dirty.decode,
    protocol.DIRTY_ACK: DirtyAck.decode,
    protocol.CLEAN: Clean.decode,
    protocol.CLEAN_ACK: CleanAck.decode,
    protocol.CLEAN_BATCH: CleanBatch.decode,
    protocol.CLEAN_BATCH_ACK: CleanBatchAck.decode,
    protocol.COPY_ACK: CopyAck.decode,
    protocol.PING: Ping.decode,
    protocol.PING_ACK: PingAck.decode,
    protocol.LEASE_REQ: LeaseReq.decode,
    protocol.LEASE_GRANT: LeaseGrant.decode,
    protocol.LEASE_RENEW: LeaseRenew.decode,
    protocol.LEASE_RELEASE: LeaseRelease.decode,
    protocol.LEASE_INVALIDATE: LeaseInvalidate.decode,
    protocol.LEASE_INVALIDATE_ACK: LeaseInvalidateAck.decode,
    protocol.STREAM_OPEN: StreamOpen.decode,
    protocol.STREAM_DATA: StreamData.decode,
    protocol.STREAM_CREDIT: StreamCredit.decode,
    protocol.STREAM_END: StreamEnd.decode,
}

#: Replies carry a ``call_id`` matched against the issuer's pending table.
REPLY_TAGS = frozenset(
    {protocol.RESULT, protocol.RESULT_FAST, protocol.FAULT,
     protocol.BUSY,
     protocol.DIRTY_ACK, protocol.CLEAN_ACK, protocol.CLEAN_BATCH_ACK,
     protocol.PING_ACK, protocol.LEASE_GRANT,
     protocol.LEASE_INVALIDATE_ACK}
)


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
