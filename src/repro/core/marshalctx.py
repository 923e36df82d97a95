"""The marshal context: where object references meet the pickler.

One context is created per pickled message.  On the way out it turns
concrete objects and surrogates into wire payloads — exporting the
object if needed and pinning a transient dirty entry until the
receiver acknowledges.  On the way in it turns payloads back into the
local instance: the concrete object if we are the owner, otherwise the
(possibly freshly dirtied) surrogate, acknowledging the copy to the
sender only once the reference is safely registered.
"""

from __future__ import annotations

from functools import partial
from typing import Tuple

from repro.core.netobj import NetObj
from repro.core.surrogate import Surrogate
from repro.core.typecodes import typechain
from repro.errors import CommFailure, MarshalError, UnmarshalError
from repro.rpc import messages
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
        raise UnmarshalError("truncated reference payload")
    try:
        return str(data[offset:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise UnmarshalError(f"invalid UTF-8 in reference payload: {exc}") from exc


def encode_ref(wirerep: WireRep, copy_id: int, endpoints: Tuple[str, ...],
               chain: Tuple[str, ...]) -> bytes:
    """Encode a reference payload (see PROTOCOL.md §4)."""
    out = bytearray()
    wirerep.to_wire(out)
    write_uvarint(out, copy_id)
    write_uvarint(out, len(endpoints))
    for endpoint in endpoints:
        _write_str(out, endpoint)
    write_uvarint(out, len(chain))
    for typecode in chain:
        _write_str(out, typecode)
    return bytes(out)


def decode_ref(payload):
    """Decode a reference payload; raises UnmarshalError on corruption.

    ``payload`` may be any bytes-like object — the zero-copy receive
    path hands this a ``memoryview`` slice of the frame buffer.
    """
    wirerep, offset = WireRep.from_wire(payload, 0)
    copy_id, offset = read_uvarint(payload, offset)
    count, offset = read_uvarint(payload, offset)
    endpoints = []
    for _ in range(count):
        endpoint, offset = _read_str(payload, offset)
        endpoints.append(endpoint)
    count, offset = read_uvarint(payload, offset)
    chain = []
    for _ in range(count):
        typecode, offset = _read_str(payload, offset)
        chain.append(typecode)
    if offset != len(payload):
        raise UnmarshalError("trailing bytes in reference payload")
    return wirerep, copy_id, tuple(endpoints), tuple(chain)


class MarshalContext:
    """NetObjHandler bound to one space and (optionally) one connection.

    ``connection`` is the channel the pickle travels on; copy
    acknowledgements for received references go back over it.  A
    context without a connection can marshal (tests, local pickles)
    but refuses to unmarshal references, since it could not ack them.
    """

    def __init__(self, space, connection=None):
        self._space = space
        self._connection = connection
        # A copy's pin is released only by the peer it travels to.
        self._peer = connection.peer_id if connection is not None else None

    # -- NetObjHandler protocol --------------------------------------------------

    def recognizes(self, value: object) -> bool:
        return isinstance(value, (NetObj, Surrogate))

    def marshal(self, value: object) -> bytes:
        space = self._space
        if isinstance(value, Surrogate):
            wirerep = value._wirerep
            endpoints = value._endpoints
            chain = value._chain
            copy_id = space.transient.pin(value, self._peer)
        else:
            entry = space.object_table.export(value)
            wirerep = space.object_table.wirerep_for(entry)
            endpoints = space.public_endpoints
            if not endpoints:
                raise MarshalError(
                    f"cannot marshal {type(value).__qualname__}: space "
                    f"{space.space_id} has no public endpoint for dirty "
                    "calls to reach"
                )
            chain = tuple(typechain(type(value)))
            copy_id = space.transient.pin(value, self._peer)
            space.dgc_owner.record_copy_sent(entry, copy_id)
        return encode_ref(wirerep, copy_id, tuple(endpoints), tuple(chain))

    def unmarshal(self, payload, following=None) -> object:
        """``following()`` lists the reference payloads after this one
        in the pickle being decoded; if this reference turns out to
        need a dirty call, theirs are sent along with it (see
        ``Space._prefetch_refs``)."""
        wirerep, copy_id, endpoints, chain = decode_ref(payload)
        space = self._space
        if self._connection is None:
            raise UnmarshalError(
                "reference received outside a connection context"
            )
        if wirerep.owner == space.space_id:
            # A reference to our own object comes home: the object
            # table resolves it to the concrete object, no surrogate.
            entry = space.object_table.exported_entry(wirerep.index)
            if entry is None:
                raise UnmarshalError(
                    f"received reference to reclaimed local object {wirerep}"
                )
            self._ack(wirerep, copy_id)
            return entry.obj
        surrogate = space.dgc_client.acquire_ref(
            wirerep, endpoints, chain,
            None if following is None
            else partial(space._prefetch_refs, following),
        )
        self._ack(wirerep, copy_id)
        return surrogate

    # -- internals ---------------------------------------------------------------

    def _ack(self, wirerep: WireRep, copy_id: int) -> None:
        if copy_id == 0:
            return  # bootstrap references carry no transient entry
        try:
            self._connection.send(messages.CopyAck(wirerep, copy_id))
        except CommFailure:
            # The sender vanished; its transient entry is now its
            # problem (connection-loss cleanup / pinger handles it).
            pass
