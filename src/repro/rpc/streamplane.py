"""The bulk-data plane: credit-windowed stream frames.

The paper's surrogate stream refills and flushes its buffer with
remote calls — one request, one pickle and one reply per chunk, the
two processes taking turns.  This module moves the bytes of a stream
on frames of their own instead (``STREAM_OPEN`` / ``STREAM_DATA`` /
``STREAM_CREDIT`` / ``STREAM_END``, see PROTOCOL.md): the opener binds
a per-connection *stream id* to the stream object's wireRep and names
a byte *window*; from then on chunks travel as raw trailing payloads,
the receiver returns credit as it consumes, and the producer keeps
sending while credit lasts — chunk *k+1* is read at the owner while
the client consumes chunk *k*.

Each connection owns one :class:`StreamTable` and four kinds of
endpoint live in it:

=================  ======================================================
:class:`ReadPump`   owner side of a reader: **one pump task at a time**
                    on the dispatcher reads a chunk into a reused
                    buffer and sends it, and returns — it never waits
                    for the consumer — when credit or the transport
                    runs out; the next ``STREAM_CREDIT`` (or the
                    channel draining) runs it again.  Chunks are
                    ordered by construction and owner memory is one
                    chunk.
:class:`WriteSink`  owner side of a writer: a mailbox the reactor
                    fills, emptied in order by a single drainer task;
                    every chunk written returns its credit.
:class:`Inbound`    opener side of a reader: a queue of at most one
                    window of chunks the application reads from.
:class:`Outbound`   opener side of a writer: spends credit, sends
                    chunks as slices of the caller's buffer.
=================  ======================================================

Chunk and window are not options: the opener derives the window from
its buffer size (:func:`window_for`) and both sides derive the chunk
from the window (:func:`chunk_for`).
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Optional

from repro.errors import (
    CallTimeout, CommFailure, NetObjError, ProtocolError, ServerBusy,
    exception_for_fault,
)
from repro.rpc import messages
from repro.transport.reactor import runtime_wait

#: A window is this many chunks: enough that the producer is never idle
#: while one chunk is on the wire and one is being consumed.
WINDOW_CHUNKS = 4
#: A chunk is this many application buffers (``as_file``'s
#: ``buffer_size``): 512 KiB at the default 64 KiB.
CHUNK_BUFFERS = 8
#: Upper bound on one chunk, whatever the buffer size: chunk-sized
#: buffers are what a stream costs each side.
MAX_CHUNK = 1 << 20
#: The largest window an owner accepts for a *write* stream (its
#: mailbox holds up to a window); a larger ``STREAM_OPEN`` is refused.
MAX_WINDOW = WINDOW_CHUNKS * MAX_CHUNK
#: How long a worker that has just run a pump or drainer step waits
#: for its connection's next one before it goes back to the pool.
WARM_SECONDS = 0.25


def window_for(buffer_size: int) -> int:
    """The byte window of a stream opened with ``buffer_size``."""
    chunk = min(MAX_CHUNK, max(1, buffer_size) * CHUNK_BUFFERS)
    return chunk * WINDOW_CHUNKS


def chunk_for(window: int) -> int:
    """The chunk size both sides use under ``window``."""
    return min(MAX_CHUNK, max(1, window // WINDOW_CHUNKS))


class StreamStats:
    """Per-space counters of the plane (``Space.stats()["streams"]``).
    Best-effort increments under the GIL, like the reactor's."""

    __slots__ = ("opened", "chunks_out", "bytes_out", "chunks_in",
                 "bytes_in", "credit_stalls", "fallbacks", "cancelled")

    def __init__(self) -> None:
        #: Streams opened from, or accepted by, this space.
        self.opened = 0
        self.chunks_out = 0
        self.bytes_out = 0
        self.chunks_in = 0
        self.bytes_in = 0
        #: Times a producer found its credit spent and had to wait.
        self.credit_stalls = 0
        #: ``as_file`` on a surrogate that took the RPC path because
        #: the peer speaks no stream frames.
        self.fallbacks = 0
        #: Read streams cancelled by their consumer before the end.
        self.cancelled = 0

    def snapshot(self, active: int) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__}
        out["active"] = active
        return out


class StreamTable:
    """The streams of one connection, by id.

    Frames arrive on the connection's I/O thread (``dispatch``), which
    must not block: endpoints only queue, count and schedule there.

    Pump and drainer steps run on dispatcher workers (:meth:`run`), and
    the worker that finishes one stays *warm* for a moment: the next
    step of any stream on this connection — typically a few hundred
    microseconds away, the next credit or chunk — is handed straight
    to it.  That saves a pool hand-off per chunk, and it keeps a
    connection's chunk-sized buffers (the pump's, and whatever the
    stream objects allocate under ``read``/``write``) in one thread's
    malloc arena instead of rotating them through every pool thread's,
    each of which would keep a copy.  Only an *idle* worker is reused:
    while it runs a step, other streams' steps go to the pool, so one
    slow file never holds up the connection's other streams.
    """

    def __init__(self, connection, dispatcher, stats: StreamStats,
                 outbound: bool):
        self._connection = connection
        self._dispatcher = dispatcher
        self.stats = stats
        self._lock = threading.Lock()
        self._streams: dict = {}
        # Odd ids from the dialing side, even from the accepting side:
        # either end may open streams and the two never collide.
        self._ids = itertools.count(1 if outbound else 2, 2)
        self._failure: Optional[Exception] = None
        # The warm worker: parked on ``_warm`` (at most one), and the
        # step handed to it.
        self._warm = threading.Condition(self._lock)
        self._parked = False
        self._handoff = None

    @property
    def active(self) -> int:
        return len(self._streams)

    # -- the opener's side ----------------------------------------------------

    def open(self, direction: int, target, window: int, timeout: float):
        """Open a stream on the stream object ``target``: an
        :class:`Inbound` to read it (``STREAM_READ``), an
        :class:`Outbound` to write it.  ``timeout`` bounds every wait
        for the peer on this stream."""
        kind = Inbound if direction == messages.STREAM_READ else Outbound
        stream = kind(self, next(self._ids), window, timeout)
        self._register(stream)
        try:
            self._connection.send(messages.StreamOpen(
                stream.stream_id, target, direction, window
            ))
        except BaseException:
            self.remove(stream.stream_id)
            raise
        return stream

    # -- the owner's side -----------------------------------------------------

    def accept(self, message: messages.StreamOpen) -> bool:
        """I/O thread: the peer opened a stream.  The endpoint exists
        from this moment, so the DATA frames that follow the OPEN on
        the wire find it; :meth:`start` binds the stream object once a
        worker has resolved it.  False when the OPEN must be dropped:
        the connection is going down, or the id is already taken (a
        peer's bug must not rebind a live stream)."""
        if message.direction == messages.STREAM_READ:
            stream = ReadPump(self, message.stream_id, message.credit)
        else:
            stream = WriteSink(self, message.stream_id, message.credit)
        try:
            self._register(stream)
        except NetObjError:
            return False
        return True

    def start(self, stream_id: int, obj) -> None:
        """Worker: bind the resolved stream object and start moving."""
        stream = self._streams.get(stream_id)
        if stream is not None:
            stream.start(obj)

    def refuse(self, stream_id: int, kind: str, message: str) -> None:
        """Answer an OPEN that will not be served with a fault END."""
        stream = self.remove(stream_id)
        if stream is not None:
            stream.fail(CommFailure(message))
        self.send(messages.StreamEnd(
            stream_id, messages.END_FAULT, 0, kind, message
        ))

    # -- frames ---------------------------------------------------------------

    def dispatch(self, message, gauge) -> None:
        """I/O thread: route one DATA / CREDIT / END frame.  ``gauge``
        is the connection's credit account, already charged for a DATA
        frame; the endpoint releases it once the bytes are handed on."""
        stream = self._streams.get(message.stream_id)
        mtype = type(message)
        if mtype is messages.StreamData:
            data = message.data
            if stream is None:
                # A chunk that crossed our cancel (or fault) on the wire.
                if gauge is not None:
                    gauge.release(len(data))
                return
            self.stats.chunks_in += 1
            self.stats.bytes_in += len(data)
            stream.on_data(data, gauge)
        elif stream is None:
            return
        elif mtype is messages.StreamCredit:
            stream.on_credit(message.credit)
        else:
            stream.on_end(message)

    def send(self, message) -> bool:
        """Send a control frame; False when the connection is gone
        (teardown fails every stream, there is nothing else to do)."""
        try:
            self._connection.send(message)
            return True
        except CommFailure:
            return False

    def send_data(self, stream_id: int, chunk) -> None:
        self._connection.send_stream_data(stream_id, chunk)
        self.stats.chunks_out += 1
        self.stats.bytes_out += len(chunk)

    def run(self, step, inline: bool = False) -> bool:
        """Run ``step`` — one pass of a pump or a drainer — on a
        worker: the connection's warm one if it is parked, else the
        calling thread (``inline``, for a caller that is a worker) or
        the pool.  False when the pool has shut down."""
        with self._warm:
            if self._parked and self._handoff is None:
                self._handoff = step
                self._warm.notify()
                return True
        if inline:
            self._work(step)
            return True
        # ``force``: an admitted stream's work is never shed by the
        # dispatcher's queue cap (only a shut-down pool refuses).
        return self._dispatcher.submit(lambda: self._work(step), force=True)

    def _work(self, step) -> None:
        while step is not None:
            step()
            step = self._park()

    def _park(self):
        """Stay warm: wait briefly for the connection's next step.
        None when there is none (or another worker already waits)."""
        with self._warm:
            if self._parked or self._failure is not None:
                return None
            self._parked = True
            if self._handoff is None:
                self._warm.wait(WARM_SECONDS)
            step, self._handoff = self._handoff, None
            self._parked = False
            return step

    def on_drained(self, callback) -> bool:
        return self._connection.on_output_drained(callback)

    def flush(self, timeout: float) -> None:
        self._connection.flush_output(timeout)

    # -- bookkeeping ----------------------------------------------------------

    def _register(self, stream) -> None:
        with self._lock:
            if self._failure is not None:
                raise self._failure
            if stream.stream_id in self._streams:
                raise ProtocolError(
                    f"stream id {stream.stream_id} is already open")
            self._streams[stream.stream_id] = stream
        self.stats.opened += 1

    def remove(self, stream_id: int):
        with self._lock:
            return self._streams.pop(stream_id, None)

    def fail_all(self, failure: Exception) -> None:
        """Connection teardown: every stream ends with ``failure``."""
        with self._warm:
            self._failure = failure
            streams = list(self._streams.values())
            self._streams.clear()
            self._warm.notify_all()  # the warm worker leaves now
        for stream in streams:
            stream.fail(failure)


# -- owner side -------------------------------------------------------------------

class _Served:
    """What the two owner-side endpoints share: the stream object the
    OPEN resolved to, and the single-task discipline of their step (a
    pump pass, a drain pass).

    ``_running`` is that discipline: it is set, under the lock, by
    whoever schedules the step and cleared only by the step itself,
    under the same lock, in the branch that decides to return — so at
    most one task per stream is queued or running, and an event
    arriving at any moment (a credit, a chunk, the peer's END) either
    finds the step running (it will see the event) or schedules it.
    """

    def __init__(self, table: StreamTable, stream_id: int):
        self.stream_id = stream_id
        self._table = table
        self._lock = threading.Lock()
        self._obj = None
        self._running = False
        self._done = False
        self._total = 0

    def start(self, obj) -> None:
        self._obj = obj
        with self._lock:
            if self._done:
                return
            self._running = True
        # Already on a worker (the OPEN's task): unless the warm one
        # is waiting, step from here — no second hand-off.
        self._table.run(self._step, inline=True)

    def fail(self, failure: Exception) -> None:
        with self._lock:
            self._done = True
            self._release()

    def _schedule(self) -> None:
        with self._lock:
            if self._running or self._done or self._obj is None:
                return
            self._running = True
        self._resume()

    def _resume(self) -> None:
        """Hand the step, already marked running, to a worker."""
        if not self._table.run(self._step):
            self.fail(CommFailure("dispatcher shut down"))

    def _finish(self, end) -> None:
        """Lock held: the stream is over; ``end`` is its last frame."""
        self._done = True
        self._running = False
        self._release()
        self._table.remove(self.stream_id)
        self._table.send(end)

    def _fault(self, exc: BaseException) -> None:
        """Lock held: end the stream with ``exc`` as its fault."""
        self._finish(messages.StreamEnd(
            self.stream_id, messages.END_FAULT, self._total,
            type(exc).__name__, str(exc),
        ))

    def _step(self) -> None:
        raise NotImplementedError

    def _release(self) -> None:
        """Lock held: drop the buffers the stream holds."""


class ReadPump(_Served):
    """Owner side of a read stream (see the module docstring)."""

    def __init__(self, table: StreamTable, stream_id: int, credit: int):
        super().__init__(table, stream_id)
        self._credit = credit
        self._chunk = chunk_for(credit)
        self._buffer: Optional[bytearray] = None
        self._cancelled = False

    def on_data(self, data, gauge) -> None:
        if gauge is not None:  # a reader receives no data; ignore it
            gauge.release(len(data))

    def on_credit(self, credit: int) -> None:
        with self._lock:
            self._credit += credit
        self._schedule()

    def on_end(self, end) -> None:
        """The consumer cancelled: the pump stops at its next step and
        confirms with its own END (so the consumer knows no read is
        running any more, and how far the stream was read)."""
        with self._lock:
            self._cancelled = True
        self._schedule()

    def _step(self) -> None:
        table = self._table
        while True:
            with self._lock:
                if self._done:
                    self._running = False
                    return
                if self._cancelled:
                    table.stats.cancelled += 1
                    return self._finish(messages.StreamEnd(
                        self.stream_id, messages.END_CANCEL, self._total
                    ))
                if self._credit <= 0:
                    table.stats.credit_stalls += 1
                    self._running = False
                    return
                want = min(self._chunk, self._credit)
            # Paced by the transport: while earlier chunks are still
            # queued behind the socket, reading more would only grow
            # that queue.  ``_running`` stays set — the drain callback
            # (on the I/O thread) owns the next hand-off.
            if table.on_drained(self._resume):
                return
            try:
                chunk = self._read(want)
            except Exception as exc:  # noqa: BLE001 - the owner's read failed
                with self._lock:
                    return self._fault(exc)
            if not len(chunk):
                with self._lock:
                    return self._finish(messages.StreamEnd(
                        self.stream_id, messages.END_OK, self._total
                    ))
            try:
                table.send_data(self.stream_id, chunk)
            except CommFailure as exc:
                return self.fail(exc)
            with self._lock:
                self._credit -= len(chunk)
                self._total += len(chunk)

    def _read(self, want: int):
        # A stream object that fills a caller's buffer (ReaderStream
        # does) is read into the one reused chunk buffer; any other
        # reader's ``read(n)`` costs a bytes object per chunk.
        readinto = getattr(self._obj, "readinto", None)
        if readinto is None:
            return self._obj.read(want)
        if self._buffer is None:
            self._buffer = bytearray(self._chunk)
        view = memoryview(self._buffer)[:want]
        return view[:readinto(view) or 0]

    def _release(self) -> None:
        self._buffer = None


class WriteSink(_Served):
    """Owner side of a write stream: the I/O thread appends arriving
    chunks to the mailbox, one drainer task at a time writes them in
    order and returns each chunk's credit.  The opener's END asks for
    the tail: drain, flush, and confirm with the byte count."""

    def __init__(self, table: StreamTable, stream_id: int, window: int):
        super().__init__(table, stream_id)
        self._window = window
        self._mailbox: deque = deque()
        self._queued = 0
        self._end = None

    def on_data(self, data, gauge) -> None:
        with self._lock:
            overrun = self._queued + len(data) > self._window
            if self._done or overrun:
                if gauge is not None:
                    gauge.release(len(data))
                if overrun and not self._done:
                    self._fault(
                        ProtocolError("stream data beyond its credit"))
                return
            self._mailbox.append((data, gauge))
            self._queued += len(data)
        self._schedule()

    def on_credit(self, credit: int) -> None:
        pass  # a writer's owner grants credit, it receives none

    def on_end(self, end) -> None:
        with self._lock:
            self._end = end
        self._schedule()

    def _step(self) -> None:
        table = self._table
        while True:
            with self._lock:
                if self._done:
                    self._running = False
                    return
                if self._mailbox:
                    data, gauge = self._mailbox.popleft()
                elif self._end is not None:
                    return self._confirm()
                else:
                    self._running = False
                    return
            try:
                self._write(data)
            except Exception as exc:  # noqa: BLE001 - the owner's write failed
                with self._lock:
                    return self._fault(exc)
            finally:
                if gauge is not None:
                    gauge.release(len(data))
            with self._lock:
                self._queued -= len(data)
                self._total += len(data)
            table.send(messages.StreamCredit(self.stream_id, len(data)))

    def _write(self, data) -> None:
        write = self._obj.write
        while len(data):
            count = write(data)
            if count is None or count >= len(data):
                return
            data = data[count:]  # a raw file may take less than all

    def _confirm(self) -> None:
        """Lock held, mailbox empty, the opener's END in hand: flush
        and send the stream's last frame."""
        try:
            if self._total != self._end.total:
                raise ProtocolError(
                    f"stream ended at {self._end.total} bytes, "
                    f"{self._total} arrived")
            flush = getattr(self._obj, "flush", None)
            if flush is not None:
                flush()
        except Exception as exc:  # noqa: BLE001 - reported to the writer
            return self._fault(exc)
        self._finish(messages.StreamEnd(
            self.stream_id, messages.END_OK, self._total))

    def _release(self) -> None:
        while self._mailbox:
            data, gauge = self._mailbox.popleft()
            if gauge is not None:
                gauge.release(len(data))
        self._queued = 0


# -- opener side ------------------------------------------------------------------

class _Opened:
    """What the two opener-side endpoints share: the peer's END (or
    the connection's failure) and the wait for it."""

    def __init__(self, table: StreamTable, stream_id: int, window: int,
                 timeout: float):
        self.stream_id = stream_id
        self._table = table
        self._window = window
        self._timeout = timeout
        self._cond = threading.Condition()
        #: The peer's STREAM_END, or the exception that ended the stream.
        self._end = None

    def on_end(self, end) -> None:
        self._table.remove(self.stream_id)
        with self._cond:
            self._end = end
            self._cond.notify_all()

    def fail(self, failure: Exception) -> None:
        with self._cond:
            if self._end is None:
                self._end = failure
            self._cond.notify_all()

    def _wait(self) -> None:
        """Condition held: block for the next event, bounded."""
        runtime_wait()
        if not self._cond.wait(self._timeout):
            raise CallTimeout(
                f"stream {self.stream_id}: nothing from the peer "
                f"in {self._timeout} s")

    def _raise_if_failed(self) -> None:
        end = self._end
        if isinstance(end, Exception):
            raise end
        if end is not None and end.status == messages.END_FAULT:
            if end.kind == "ServerBusy":
                raise ServerBusy(end.message)  # the OPEN was shed
            raise exception_for_fault(end.kind, end.message)


class Inbound(_Opened):
    """Opener side of a read stream: chunks queue here (at most one
    window — that is what the credit bounds) and the application reads
    them out; each chunk fully consumed returns its credit."""

    def __init__(self, table, stream_id, window, timeout):
        super().__init__(table, stream_id, window, timeout)
        self._chunks: deque = deque()
        self._current = None  # the partly consumed head chunk
        #: Bytes handed to the application so far, and how many of
        #: them have not been returned to the owner as credit yet.
        self.consumed = 0
        self._uncredited = 0
        #: Bytes the owner may still send under the credit it holds.
        self._allowance = window

    def on_data(self, data, gauge) -> None:
        # The queue is bounded by the window this side granted itself;
        # holding admission credit for it too would only let an idle
        # stream's buffer pause the reads an active one waits for.
        if gauge is not None:
            gauge.release(len(data))
        with self._cond:
            self._allowance -= len(data)
            if self._allowance < 0:
                # The bound is ours to enforce, not the peer's to keep.
                self._chunks.clear()
                if self._end is None:
                    self._end = ProtocolError(
                        "peer sent stream data beyond its credit")
                    self._table.remove(self.stream_id)
                    self._table.send(messages.StreamEnd(
                        self.stream_id, messages.END_CANCEL))
            else:
                self._chunks.append(data)
            self._cond.notify()

    def on_credit(self, credit: int) -> None:
        pass

    def _next_chunk(self):
        """The next unread chunk, or None at the end of the stream."""
        current = self._current
        if current is not None:
            return current
        with self._cond:
            while not self._chunks:
                if self._end is not None:
                    self._raise_if_failed()
                    return None
                self._wait()
            current = self._current = self._chunks.popleft()
        return current

    def _advance(self, chunk, count: int) -> None:
        self.consumed += count
        self._uncredited += count
        if count < len(chunk):
            self._current = chunk[count:]
            return
        self._current = None
        if self._end is None:
            # One CREDIT per chunk, once all of it has been consumed.
            with self._cond:
                self._allowance += self._uncredited
            self._table.send(messages.StreamCredit(
                self.stream_id, self._uncredited
            ))
        self._uncredited = 0

    def readinto(self, buffer) -> int:
        chunk = self._next_chunk()
        if chunk is None:
            return 0
        count = min(len(buffer), len(chunk))
        buffer[:count] = chunk[:count]
        self._advance(chunk, count)
        return count

    def readall(self) -> bytes:
        parts = []
        while True:
            chunk = self._next_chunk()
            if chunk is None:
                return b"".join(parts)
            parts.append(chunk)
            self._advance(chunk, len(chunk))

    def cancel(self) -> int:
        """Stop the owner's pump and wait for its confirmation, so no
        owner-side read runs after this returns.  Returns how many
        bytes the owner read beyond what the application consumed (a
        relative seek must step back over them)."""
        with self._cond:
            if self._end is None:
                self._table.send(messages.StreamEnd(
                    self.stream_id, messages.END_CANCEL
                ))
                while self._end is None:
                    self._wait()
            end = self._end
            self._chunks.clear()
            self._current = None
        if isinstance(end, Exception):
            raise end
        return end.total - self.consumed


class Outbound(_Opened):
    """Opener side of a write stream: ``write`` spends credit chunk by
    chunk (slices of the caller's buffer, never a copy of it) and
    waits when the window is full."""

    def __init__(self, table, stream_id, window, timeout):
        super().__init__(table, stream_id, window, timeout)
        self._credit = window
        self._chunk = chunk_for(window)
        self._total = 0

    def on_data(self, data, gauge) -> None:
        if gauge is not None:  # a writer receives no data; ignore it
            gauge.release(len(data))

    def on_credit(self, credit: int) -> None:
        with self._cond:
            self._credit += credit
            self._cond.notify_all()

    def write(self, view: memoryview) -> int:
        table = self._table
        sent = 0
        while sent < len(view):
            with self._cond:
                while self._credit <= 0 and self._end is None:
                    table.stats.credit_stalls += 1
                    self._wait()
                if self._end is not None:
                    self._raise_if_failed()
                    raise CommFailure("stream already ended")
                count = min(self._chunk, self._credit, len(view) - sent)
                self._credit -= count
            table.send_data(self.stream_id, view[sent:sent + count])
            sent += count
            self._total += count
            # Paced by the transport: do not pile the caller's whole
            # payload into the send backlog.
            table.flush(self._timeout)
        return sent

    def finish(self) -> None:
        """Tell the owner the stream is complete and wait until it
        has written and flushed every byte."""
        with self._cond:
            if self._end is None:
                self._table.send(messages.StreamEnd(
                    self.stream_id, messages.END_OK, self._total
                ))
                while self._end is None:
                    self._wait()
            self._raise_if_failed()
