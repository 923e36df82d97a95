"""Surrogate streams: marshaling readers and writers.

The original system gave streams (Modula-3 ``Rd.T``/``Wr.T``) special
marshaling: passing one to another space produced a *surrogate stream*
there — a local buffered stream whose refill/flush operations are
remote calls against the concrete stream at its owner.  This module
reproduces that design on Python file objects:

* :func:`export_reader` / :func:`export_writer` wrap a local binary
  file object in a network object (:class:`ReaderStream` /
  :class:`WriterStream`) that can cross the wire like any reference;
* :func:`as_file` wraps the received surrogate back into an ordinary
  buffered Python file object, so application code on the client reads
  and writes locally — the paper's "buffered surrogate stream".

How the bytes travel is :func:`as_file`'s business, not the caller's.
Toward a remote owner they ride the bulk-data plane
(:mod:`repro.rpc.streamplane`): credit-windowed stream frames the
owner pumps ahead of the reader, so a transfer runs at the speed of
the transport.  A concrete stream in the same space, or a surrogate
reached over a channel that may reorder frames, keeps the paper's
arrangement — one remote ``read``/``write`` call per ``buffer_size``
of data.

The stream objects are plain network objects either way, so their
lifetime is managed by the distributed collector like everything
else: drop the surrogate and the concrete stream is eventually
reclaimed.
"""

from __future__ import annotations

import io
from typing import BinaryIO

from repro.core.netobj import NetObj
from repro.core.space import Space
from repro.core.surrogate import Surrogate
from repro.errors import CommFailure, ConnectionClosed, SpaceShutdownError
from repro.rpc.messages import STREAM_READ, STREAM_WRITE
from repro.rpc.streamplane import window_for

#: Refill/flush unit for surrogate streams.  Large enough to amortise
#: the per-call cost (see experiment E3), small enough to stay prompt.
DEFAULT_CHUNK = 64 * 1024


class ReaderStream(NetObj):
    """The concrete (owner-side) readable stream."""

    def __init__(self, fileobj: BinaryIO):
        self._file = fileobj

    def read(self, size: int) -> bytes:
        return self._file.read(size)

    def readinto(self, buffer) -> int:
        """Fill ``buffer`` from the file; the bulk-data plane's pump
        refills its one reused chunk buffer through this."""
        readinto = getattr(self._file, "readinto", None)
        if readinto is not None:
            return readinto(buffer) or 0
        data = self._file.read(len(buffer))
        buffer[:len(data)] = data
        return len(data)

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        return self._file.seek(offset, whence)

    def seekable(self) -> bool:
        return self._file.seekable()

    def close(self) -> None:
        self._file.close()


class WriterStream(NetObj):
    """The concrete (owner-side) writable stream."""

    def __init__(self, fileobj: BinaryIO):
        self._file = fileobj

    def write(self, data: bytes) -> int:
        return self._file.write(data)

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        self._file.flush()
        self._file.close()


def export_reader(fileobj: BinaryIO) -> ReaderStream:
    """Wrap a local readable binary file for remote consumption."""
    return ReaderStream(fileobj)


def export_writer(fileobj: BinaryIO) -> WriterStream:
    """Wrap a local writable binary file for remote production."""
    return WriterStream(fileobj)


class _SurrogateRawReader(io.RawIOBase):
    """Raw adapter, RPC path: every refill is one remote ``read`` call
    of at most ``chunk`` bytes, however much the caller asked for."""

    def __init__(self, stream, chunk: int):
        self._stream = stream
        self._chunk = max(1, chunk)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        chunk = self._stream.read(min(len(buffer), self._chunk))
        buffer[: len(chunk)] = chunk
        return len(chunk)

    def readall(self) -> bytes:
        # ``RawIOBase.readall`` would refill 8 KiB at a time.
        parts = []
        while True:
            chunk = self._stream.read(self._chunk)
            if not chunk:
                return b"".join(parts)
            parts.append(chunk)

    def seekable(self) -> bool:
        try:
            return bool(self._stream.seekable())
        except Exception:  # noqa: BLE001 - remote failure: be honest
            return False

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        return self._stream.seek(offset, whence)

    def close(self) -> None:
        # Base-class close flushes first, so the local side must be
        # retired before the remote stream is closed.
        if not self.closed:
            try:
                super().close()
            finally:
                self._stream.close()


class _SurrogateRawWriter(io.RawIOBase):
    """Raw adapter, RPC path: a ``write`` is one remote call per
    ``chunk`` bytes — slices of the caller's buffer, so a payload of
    any size crosses in frames of bounded size."""

    def __init__(self, stream, chunk: int):
        self._stream = stream
        self._chunk = max(1, chunk)

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        view = memoryview(data).cast("B")
        for start in range(0, len(view), self._chunk):
            self._stream.write(bytes(view[start:start + self._chunk]))
        return len(view)

    def flush(self) -> None:
        super().flush()
        if not self.closed:
            self._stream.flush()

    def close(self) -> None:
        # Base-class close flushes through to the remote stream, so it
        # must run before the remote close (which flushes once more at
        # the owner).
        if not self.closed:
            try:
                super().close()
            finally:
                self._stream.close()


class _PlaneRawReader(_SurrogateRawReader):
    """Raw adapter, bulk-data plane: reads come out of a stream the
    owner pumps ahead of us (opened at the first read, so a file that
    is never read costs nothing).  ``seek`` and ``close`` first cancel
    that stream and wait for the owner's confirmation — no owner-side
    read can race the remote call that follows."""

    def __init__(self, stream, space: Space, buffer_size: int):
        super().__init__(stream, buffer_size)
        self._space = space
        self._window = window_for(buffer_size)
        self._inbound = None

    def _open(self):
        inbound = self._inbound
        if inbound is None:
            inbound = self._inbound = _open_stream(
                self._space, self._stream, STREAM_READ, self._window)
        return inbound

    # At the end of the file (or on a failure) the stream is over and
    # forgotten: a later read opens a fresh one at the owner's current
    # position, as a later remote ``read`` call would have looked again.

    def readinto(self, buffer) -> int:
        count = 0
        try:
            count = self._open().readinto(buffer)
        finally:
            if not count:
                self._inbound = None
        return count

    def readall(self) -> bytes:
        try:
            return self._open().readall()
        finally:
            self._inbound = None

    def _cancel(self) -> int:
        """Stop the read-ahead; returns how far it had run ahead."""
        inbound, self._inbound = self._inbound, None
        return inbound.cancel() if inbound is not None else 0

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        ahead = self._cancel()
        if whence == io.SEEK_CUR:
            offset -= ahead  # the owner's position is that far past ours
        return self._stream.seek(offset, whence)

    def close(self) -> None:
        if not self.closed:
            try:
                self._cancel()
            finally:
                super().close()


class _PlaneRawWriter(_SurrogateRawWriter):
    """Raw adapter, bulk-data plane: writes go out as window-bounded
    stream chunks (slices, no copy); ``flush`` — and so ``close`` —
    ends the stream and returns once the owner has confirmed every
    byte written and flushed."""

    def __init__(self, stream, space: Space, buffer_size: int):
        super().__init__(stream, buffer_size)
        self._space = space
        self._window = window_for(buffer_size)
        self._outbound = None

    def write(self, data) -> int:
        outbound = self._outbound
        if outbound is None:
            outbound = self._outbound = _open_stream(
                self._space, self._stream, STREAM_WRITE, self._window)
        return outbound.write(memoryview(data).cast("B"))

    def flush(self) -> None:
        io.RawIOBase.flush(self)
        outbound, self._outbound = self._outbound, None
        if outbound is not None:
            outbound.finish()


def _open_stream(space: Space, surrogate: Surrogate, direction: int,
                 window: int):
    """Open a plane stream on ``surrogate``'s owner."""
    for retry in (False, True):
        connection = space._conn_for_endpoints(surrogate._endpoints)
        if not connection.carries_streams:
            raise CommFailure(
                "the stream's connection may reorder frames")
        try:
            return connection.streams.open(
                direction, surrogate._wirerep, window, space.call_timeout)
        except ConnectionClosed:
            # Reaped between the cache lookup and the OPEN (see
            # Space._invoke_remote): the peer saw nothing, dial again.
            if retry:
                raise


def _plane_space(stream):
    """The space whose bulk-data plane reaches ``stream``'s owner, or
    None when the bytes must travel by remote calls: a concrete
    stream, or a channel that does not keep frames in order."""
    if not isinstance(stream, Surrogate):
        return None
    space = getattr(stream._invoker, "__self__", None)
    if not isinstance(space, Space):
        return None
    try:
        connection = space._conn_for_endpoints(stream._endpoints)
    except (CommFailure, SpaceShutdownError):
        return None  # the first remote call will say what is wrong
    if not connection.carries_streams:
        space.stream_stats.fallbacks += 1
        return None
    return space


def as_file(stream, buffer_size: int = DEFAULT_CHUNK) -> BinaryIO:
    """Turn a (surrogate for a) stream object into a local file object.

    Readers come back as :class:`io.BufferedReader`, writers as
    :class:`io.BufferedWriter`; the buffer makes small application
    reads/writes local.  A surrogate moves its bytes on the bulk-data
    plane, in chunks and under a window both derived from
    ``buffer_size``; otherwise — an owner reached over a channel that
    may reorder frames, or a concrete stream of this space, mirroring
    the object table's "no surrogate for the owner" rule — every
    ``buffer_size`` of data is one remote (or direct)
    ``read``/``write`` call.
    """
    reading = isinstance(stream, ReaderStream) or (
        hasattr(stream, "read") and not hasattr(stream, "write")
    )
    if not reading and not (
        isinstance(stream, WriterStream) or hasattr(stream, "write")
    ):
        raise TypeError(
            f"not a reader or writer stream: {type(stream).__qualname__}"
        )
    space = _plane_space(stream)
    if reading:
        raw = (_PlaneRawReader(stream, space, buffer_size)
               if space is not None
               else _SurrogateRawReader(stream, buffer_size))
        return io.BufferedReader(raw, buffer_size=buffer_size)
    raw = (_PlaneRawWriter(stream, space, buffer_size)
           if space is not None
           else _SurrogateRawWriter(stream, window_for(buffer_size)))
    return io.BufferedWriter(raw, buffer_size=buffer_size)
