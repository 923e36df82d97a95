"""Length-prefixed message framing over byte streams.

Every transport in this library moves discrete frames.  For stream
transports (TCP) we prefix each payload with a 4-byte big-endian
length; datagram-like transports (in-process queues, the simulated
network) carry payloads natively and do not use this module.
"""

from __future__ import annotations

import struct
import threading
from typing import Callable, List, Optional

from repro.errors import CommFailure, ProtocolError

_LEN_STRUCT = struct.Struct("!I")

#: Size of the length prefix every stream frame starts with.
FRAME_HEADER_SIZE = _LEN_STRUCT.size

#: Upper bound on a single frame.  Large enough for any benchmark in
#: this repository; small enough to fail fast on a corrupt length
#: prefix rather than attempting a multi-gigabyte allocation.
MAX_FRAME_SIZE = 64 * 1024 * 1024


def new_frame() -> bytearray:
    """A fresh frame buffer with header space reserved.

    Writers append the payload directly after the four reserved bytes
    and call :func:`finish_frame` once, so the whole message lives in
    a single buffer from encode to socket.
    """
    return bytearray(FRAME_HEADER_SIZE)


def finish_frame(frame: bytearray, trailing: int = 0) -> bytearray:
    """Patch the length prefix of a buffer built on :func:`new_frame`.

    Returns the same buffer, now a complete frame ready for
    ``Channel.send_framed``.  With ``trailing`` the buffer is only the
    head of the frame: that many payload bytes follow it as a separate
    piece (``Channel.send_vector``) and are counted in the prefix.
    """
    length = len(frame) - FRAME_HEADER_SIZE + trailing
    if length < 0:
        raise ProtocolError("frame buffer is missing its header space")
    if length > MAX_FRAME_SIZE:
        raise ProtocolError(f"frame of {length} bytes exceeds limit")
    _LEN_STRUCT.pack_into(frame, 0, length)
    return frame


def pack_frame(payload) -> bytes:
    """Return ``payload`` prefixed with its 4-byte length.

    One-shot convenience (tests, raw baselines); the RPC hot path
    builds frames in place with :func:`new_frame`/:func:`finish_frame`
    instead.  Accepts any bytes-like payload.
    """
    frame = new_frame()
    frame += payload
    return bytes(finish_frame(frame))


class BufferPool:
    """A small pool of reusable frame buffers.

    ``acquire`` hands out a buffer pre-seeded with header space (as
    from :func:`new_frame`); ``release`` truncates it back to the bare
    header and keeps it for reuse, so steady-state sends perform no
    buffer allocation at all.  Oversized buffers are dropped on
    release rather than pinning megabytes in the pool.
    """

    def __init__(self, max_buffers: int = 8,
                 max_retained: int = 1 << 20) -> None:
        self._max_buffers = max_buffers
        self._max_retained = max_retained
        self._lock = threading.Lock()
        self._buffers: List[bytearray] = []

    def acquire(self) -> bytearray:
        with self._lock:
            if self._buffers:
                return self._buffers.pop()
        return new_frame()

    def release(self, buffer: bytearray) -> None:
        if len(buffer) > self._max_retained:
            return
        del buffer[FRAME_HEADER_SIZE:]
        with self._lock:
            if len(self._buffers) < self._max_buffers:
                self._buffers.append(buffer)


def read_frame(recv_exact: Callable[[int], Optional[bytes]]) -> Optional[bytes]:
    """Read one frame using ``recv_exact(n)``.

    ``recv_exact`` must return exactly ``n`` bytes, or ``None`` on a
    clean end-of-stream *before any byte of this frame*.  Returns the
    payload, or ``None`` on clean EOF.
    """
    header = recv_exact(_LEN_STRUCT.size)
    if header is None:
        return None
    (length,) = _LEN_STRUCT.unpack(header)
    if length > MAX_FRAME_SIZE:
        raise ProtocolError(f"peer announced oversized frame ({length} bytes)")
    if length == 0:
        return b""
    payload = recv_exact(length)
    if payload is None:
        raise CommFailure("connection closed mid-frame")
    return payload


class FrameAssembler:
    """Resumable frame reassembly for nonblocking stream sockets.

    The selector-driven read path cannot loop a blocking ``recv_exact``
    over the stream, so the framing state machine is turned inside out:
    the reactor asks :meth:`next_buffer` where the next bytes belong,
    fills it with ``recv_into``, and reports how many landed via
    :meth:`advance`, which hands back a completed payload once the
    frame closes.  PR 1's copy discipline is preserved exactly — the
    header accumulates in a reused 4-byte scratch buffer and each
    payload is the read path's *single payload-sized allocation*,
    filled in place across however many readable events it takes.

    A reader that sees end-of-stream should consult :attr:`mid_frame`
    to distinguish a clean close (between frames) from truncation.
    """

    __slots__ = ("_header", "_header_view", "_filled", "_payload",
                 "_payload_view")

    def __init__(self) -> None:
        self._header = bytearray(FRAME_HEADER_SIZE)
        self._header_view = memoryview(self._header)
        self._filled = 0
        self._payload: Optional[bytearray] = None
        self._payload_view: Optional[memoryview] = None

    @property
    def mid_frame(self) -> bool:
        """True when some bytes of an unfinished frame have arrived."""
        return self._filled > 0 or self._payload is not None

    def next_buffer(self) -> memoryview:
        """The view the next ``recv_into`` must fill (never empty)."""
        if self._payload is None:
            return self._header_view[self._filled:]
        return self._payload_view[self._filled:]

    def advance(self, count: int) -> Optional[bytearray]:
        """Record ``count`` bytes landing in :meth:`next_buffer`'s view.

        Returns the completed frame payload, or ``None`` while the
        frame is still partial.  Raises :class:`ProtocolError` on an
        oversized length prefix (the connection must drop).
        """
        self._filled += count
        if self._payload is None:
            if self._filled < FRAME_HEADER_SIZE:
                return None
            (length,) = _LEN_STRUCT.unpack(self._header)
            self._filled = 0
            if length > MAX_FRAME_SIZE:
                raise ProtocolError(
                    f"peer announced oversized frame ({length} bytes)"
                )
            if length == 0:
                return bytearray()
            self._payload = bytearray(length)
            self._payload_view = memoryview(self._payload)
            return None
        if self._filled < len(self._payload):
            return None
        payload = self._payload
        self._payload_view = None  # exported buffers must not hold views
        self._payload = None
        self._filled = 0
        return payload

