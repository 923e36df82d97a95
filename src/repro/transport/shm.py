"""Shared-memory ring transport for same-machine spaces.

Two spaces on one machine still paid the full loopback-TCP toll per
frame: kernel socket buffers, two copies, packetisation.  This module
moves the bytes through a pair of single-producer/single-consumer ring
buffers in a shared ``mmap`` instead, and keeps only a tiny Unix-domain
socket as rendezvous and *doorbell* — a one-byte nudge that makes the
peer's reactor look at the ring.  The wire format is exactly the TCP
one (4-byte length prefix, then payload; see ``repro.wire.framing``),
so handshake, RPC, and DGC traffic ride the channel unchanged.

Layout of the mapped file (one per channel, created by the dialer and
unlinked the moment the listener has mapped it, so a dying process
leaks no files)::

    0    magic "RSHM" + version          8 bytes
    8    ring capacity (uint64)          8 bytes
    64   ring 0 header: tail / head / need_space   (dialer -> listener)
    128  ring 1 header: tail / head / need_space   (listener -> dialer)
    192  ring 0 data [capacity bytes]
    ...  ring 1 data [capacity bytes]

``tail`` (producer cursor) and ``head`` (consumer cursor) are
monotonically increasing uint64 byte counts; ``used = tail - head``,
position in the buffer is ``cursor % capacity``.  Each cursor has
exactly one writer and is loaded and stored through a
``memoryview(...).cast("Q")`` of its ring header — one aligned native
8-byte access, which the peer *process* can never observe half
written.  (``struct.pack_into`` stores byte by byte: a peer reading
between two of those stores saw a torn cursor, believed the ring held
gigabytes, set ``need_space`` and wedged.)  With the doorbell's
send/recv syscall pair as the cross-process memory barrier, the peer
never observes a cursor before the bytes it covers.

Doorbell protocol (bytes on the UDS):

* ``\\x01`` — "I produced into my ring (or corked with ``need_space``
  set): look."  Rung after every send; the receiving side drains its
  consumer ring completely per wakeup, so a spurious ring is a no-op.
* ``\\x02`` — "I consumed and your ``need_space`` flag was set: there
  is room again."  The producer flushes its cork on receipt.

End-of-stream is the UDS closing.  The survivor drains its consumer
ring *before* delivering EOF — frames already in shared memory are
not lost — and reports :class:`~repro.errors.CommFailure` if the
stream dies mid-frame (``FrameAssembler.mid_frame``), mirroring the
TCP channel's truncation semantics.
"""

from __future__ import annotations

import errno
import mmap
import os
import socket
import struct
import tempfile
import threading
import time
from typing import Optional

from repro.errors import CommFailure
from repro.transport.base import (
    Listener,
    OnConnect,
    SelectableChannel,
    Transport,
    split_endpoint,
)
from repro.wire.framing import FrameAssembler, pack_frame

_MAGIC = b"RSHM\x01\x00\x00\x00"
_U64 = struct.Struct("<Q")   # file header only; never a live cursor

_HEADER_SIZE = 64          # file header (magic + capacity, padded)
_RING_HEADER = 64          # per-ring header (tail/head/flag, padded)
_TAIL_WORD = 0            # uint64 index within the ring header
_HEAD_WORD = 1
_FLAG_OFF = 16

#: Default ring capacity per direction.  Large enough that a pipelined
#: burst of small frames never blocks; two of these per channel.
DEFAULT_CAPACITY = 1 << 20

_DATA_BELL = b"\x01"
_SPACE_BELL = b"\x02"

_SETUP_PREFIX = b"REPRO-SHM1 "


def rendezvous_path(port: int) -> str:
    """Where a space listening on TCP ``port`` parks its shm doorbell
    socket.  Deriving the path from the port is what lets a dialer
    holding only ``tcp://127.0.0.1:port`` discover the shm side door."""
    return os.path.join(tempfile.gettempdir(), f"repro-shm-{port}.sock")


def _file_size(capacity: int) -> int:
    return _HEADER_SIZE + 2 * _RING_HEADER + 2 * capacity


class _Ring:
    """One direction of the channel: a SPSC byte ring over the map.

    Exactly one process calls :meth:`produce`, the other :meth:`consume`
    — the cursor discipline in the module docstring depends on it.
    """

    __slots__ = ("_map", "_mv", "_words", "_header", "_data", "_capacity")

    def __init__(self, map_: mmap.mmap, mv: memoryview, header: int,
                 data: int, capacity: int):
        self._map = map_
        # Slicing an mmap materialises bytes; slicing a memoryview of
        # it does not — payload copies below go through ``_mv`` so each
        # byte crosses the ring exactly once per direction.
        self._mv = mv
        # The ring header as native uint64 words (the mapping is page
        # aligned and the header offset a multiple of 8): item access
        # is one aligned 8-byte load or store.
        self._words = mv[header:header + _RING_HEADER].cast("Q")
        self._header = header
        self._data = data
        self._capacity = capacity

    # Cursor accessors: single-word loads/stores on the mapping.
    def _tail(self) -> int:
        return self._words[_TAIL_WORD]

    def _head(self) -> int:
        return self._words[_HEAD_WORD]

    def _set_tail(self, value: int) -> None:
        self._words[_TAIL_WORD] = value

    def _set_head(self, value: int) -> None:
        self._words[_HEAD_WORD] = value

    def release(self) -> None:
        self._words.release()

    @property
    def need_space(self) -> bool:
        return self._map[self._header + _FLAG_OFF] != 0

    @need_space.setter
    def need_space(self, value: bool) -> None:
        self._map[self._header + _FLAG_OFF] = 1 if value else 0

    def free(self) -> int:
        return self._capacity - (self._tail() - self._head())

    def used(self) -> int:
        return self._tail() - self._head()

    def produce(self, data) -> int:
        """Copy as much of ``data`` into the ring as fits; return the
        byte count (0 when full)."""
        view = memoryview(data)
        tail = self._tail()
        count = min(len(view), self._capacity - (tail - self._head()))
        if count == 0:
            return 0
        pos = tail % self._capacity
        first = min(count, self._capacity - pos)
        base = self._data
        self._mv[base + pos:base + pos + first] = view[:first]
        if first < count:
            self._mv[base:base + count - first] = view[first:count]
        # Publish after the payload bytes are in place.
        self._set_tail(tail + count)
        return count

    def consume_into(self, view: memoryview) -> int:
        """Fill ``view`` from the ring; return bytes copied (0 when
        empty)."""
        head = self._head()
        count = min(len(view), self._tail() - head)
        if count == 0:
            return 0
        pos = head % self._capacity
        first = min(count, self._capacity - pos)
        base = self._data
        view[:first] = self._mv[base + pos:base + pos + first]
        if first < count:
            view[first:count] = self._mv[base:base + count - first]
        self._set_head(head + count)
        return count


class ShmChannel(SelectableChannel):
    """A same-machine channel: frames through shared memory, wakeups
    through a Unix-domain doorbell socket.

    The doorbell descriptor is what the reactor selects on
    (:meth:`fileno`), so a :class:`~repro.transport.reactor.Reactor`
    owns shm channels exactly like sockets.  ``wants_write`` is always
    False — backpressure flushing is driven by the peer's ``\\x02``
    doorbell arriving as a *readable* event, never by writability of
    the UDS.
    """

    def __init__(self, bell: socket.socket, map_: mmap.mmap,
                 capacity: int, dialer: bool):
        self._bell = bell
        self._map = map_
        self._map_view = memoryview(map_)
        ring0 = _Ring(map_, self._map_view, _HEADER_SIZE,
                      _HEADER_SIZE + 2 * _RING_HEADER, capacity)
        ring1 = _Ring(map_, self._map_view, _HEADER_SIZE + _RING_HEADER,
                      _HEADER_SIZE + 2 * _RING_HEADER + capacity, capacity)
        # Ring 0 always flows dialer -> listener.
        self._out, self._in = (ring0, ring1) if dialer else (ring1, ring0)
        self._recv_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._closed = threading.Event()
        self._eof = False
        # Reactor adoption state (mirrors SocketChannel).
        self._reactor = None
        self._sink = None
        self._assembler = FrameAssembler()
        self._eof_delivered = False
        self._cork = bytearray()
        self._drained = threading.Event()
        self._drained.set()
        #: ``on_drained`` callbacks, fired when the cork empties.
        self._drain_waiters: list = []
        bell.setblocking(True)

    # -- sending ---------------------------------------------------------------

    def send(self, payload) -> None:
        self._sendall(pack_frame(payload))

    def send_framed(self, frame: bytearray) -> None:
        self._sendall(frame)

    def send_vector(self, head: bytearray, body) -> None:
        # The ring takes the two pieces back to back: the payload is
        # copied once, into shared memory, never behind its header.
        self._sendall(head, body)

    def on_drained(self, callback) -> bool:
        with self._send_lock:
            if not self._cork or self._reactor is None:
                return False
            self._drain_waiters.append(callback)
            return True

    def _sendall(self, frame, body=None) -> None:
        if self._reactor is not None:
            return self._send_nonblocking(frame, body)
        with self._send_lock:
            if self._closed.is_set():
                raise CommFailure("channel is closed")
            for piece in (frame, body):
                if piece is None:
                    continue
                view = memoryview(piece)
                while view:
                    wrote = self._out.produce(view)
                    if wrote:
                        view = view[wrote:]
                        self._ring_bell(_DATA_BELL)
                    elif self._closed.is_set() or self._eof:
                        raise CommFailure("peer closed while sending")
                    else:
                        # Blocking mode only carries the handshake; a
                        # full ring here means the peer is slow, not
                        # wedged — poll briefly rather than entangling
                        # the doorbell with a concurrent blocking recv.
                        time.sleep(0.0005)

    def _send_nonblocking(self, frame, body=None) -> None:
        """Reactor-mode send: never blocks the caller; whatever does
        not fit in the ring is corked for the ``\\x02`` doorbell.
        ``write_backlog_limit`` caps the cork — a peer that stops
        draining its ring is disconnected, not buffered for (a
        two-piece stream chunk is exempt, see ``Channel.send_vector``)."""
        limit = self.write_backlog_limit
        with self._send_lock:
            if self._closed.is_set():
                raise CommFailure("channel is closed")
            if self._cork:
                if body is not None:
                    self._cork += frame
                    self._cork += body
                    self._ring_bell(_DATA_BELL)
                    return
                if limit is not None and len(self._cork) + len(frame) > limit:
                    self._cork.clear()
                    self._drain_waiters.clear()
                    self._drained.set()
                else:
                    self._cork += frame
                    self._ring_bell(_DATA_BELL)
                    return
            else:
                view = memoryview(frame)
                wrote = self._out.produce(view)
                if wrote < len(view):
                    # Copy the tail: the caller recycles its buffer.
                    self._cork += view[wrote:]
                    if body is not None:
                        self._cork += body
                elif body is not None:
                    view = memoryview(body)
                    wrote = self._out.produce(view)
                    if wrote < len(view):
                        self._cork += view[wrote:]
                if self._cork:
                    self._out.need_space = True
                    self._drained.clear()
                self._ring_bell(_DATA_BELL)
                return
        hook = self.on_backlog_overflow
        if hook is not None:
            hook()
        self.close()
        raise CommFailure(
            f"write backlog exceeded {limit} bytes (peer not draining)"
        )

    def _flush_cork(self) -> None:
        """Reactor thread (``\\x02`` received): push corked bytes."""
        rang = False
        waiters = ()
        with self._send_lock:
            if self._cork:
                wrote = self._out.produce(self._cork)
                if wrote:
                    del self._cork[:wrote]
                    rang = True
                if self._cork:
                    self._out.need_space = True
                else:
                    self._drained.set()
                    waiters, self._drain_waiters = self._drain_waiters, []
        if rang:
            self._ring_bell(_DATA_BELL)
        for callback in waiters:
            callback()

    def _ring_bell(self, which: bytes) -> None:
        """Nudge the peer.  Nonblocking and lossy-on-backlog by design:
        if the doorbell socket's buffer is full, kilobytes of unread
        bells already guarantee the peer will wake."""
        try:
            self._bell.send(which, socket.MSG_DONTWAIT)
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            pass  # peer gone; EOF surfaces through the read path

    # -- reactor protocol ------------------------------------------------------

    def fileno(self) -> int:
        return self._bell.fileno()

    def attach_reactor(self, reactor, sink) -> None:
        self._reactor = reactor
        self._sink = sink
        self._bell.setblocking(False)

    def wants_write(self) -> bool:
        return False

    def handle_writable(self) -> bool:
        return False

    def handle_readable(self, ready) -> None:
        """Swallow doorbell bytes, then drain the consumer ring through
        the frame assembler into ``ready``."""
        while True:
            try:
                bells = self._bell.recv(512)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self._drain_ring(ready)
                if self._closed.is_set():
                    self._deliver_eof(ready, None)
                else:
                    self._deliver_eof(
                        ready, CommFailure(f"doorbell failed: {exc}"))
                return
            if not bells:
                # Peer closed.  Frames already in shared memory are
                # still good — drain before pronouncing EOF.
                self._eof = True
                self._drain_ring(ready)
                if self._assembler.mid_frame and not self._closed.is_set():
                    self._deliver_eof(
                        ready, CommFailure("peer died mid-frame over shm"))
                else:
                    self._deliver_eof(ready, None)
                return
            if _SPACE_BELL[0] in bells:
                self._flush_cork()
            self._drain_ring(ready)

    def _drain_ring(self, ready) -> None:
        """Move every frame in the consumer ring to ``ready``."""
        assembler = self._assembler
        on_frame = self._sink.on_frame
        while True:
            try:
                count = self._in.consume_into(assembler.next_buffer())
            except ValueError:
                # close() raced this drain and released the mapping on
                # another thread (reactor already stopping, so forget()
                # could not defer the release to us).  The connection
                # is going away either way — stop reading.
                return
            if count == 0:
                break
            payload = assembler.advance(count)
            if payload is not None:
                if self._reactor is not None:
                    self._reactor.frames_in += 1
                ready.append((on_frame, payload))
        # The drain leaves the ring empty, so a blocked peer producer
        # can always make progress now.
        if self._in.need_space:
            self._in.need_space = False
            self._ring_bell(_SPACE_BELL)

    def _deliver_eof(self, ready, failure: Optional[Exception]) -> None:
        if self._eof_delivered:
            return
        self._eof_delivered = True
        ready.append((self._sink.on_closed, failure))

    # -- blocking mode (handshake / raw-channel use) ---------------------------

    def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        with self._recv_lock:
            while True:
                frame = self._next_frame_blocking()
                if frame is not None:
                    return frame
                if self._eof:
                    if self._assembler.mid_frame:
                        raise CommFailure("peer died mid-frame over shm")
                    return None
                try:
                    self._bell.settimeout(timeout)
                    bells = self._bell.recv(512)
                except socket.timeout as exc:
                    raise CommFailure("recv timed out") from exc
                except OSError as exc:
                    if self._closed.is_set():
                        self._eof = True
                        continue
                    raise CommFailure(f"recv failed: {exc}") from exc
                if not bells:
                    self._eof = True
                # ``\x02`` bells are irrelevant here: blocking sends
                # poll for space rather than corking.

    def _next_frame_blocking(self) -> Optional[bytearray]:
        assembler = self._assembler
        while True:
            count = self._in.consume_into(assembler.next_buffer())
            if count == 0:
                if self._in.need_space:
                    self._in.need_space = False
                    self._ring_bell(_SPACE_BELL)
                return None
            payload = assembler.advance(count)
            if payload is not None:
                if self._in.need_space:
                    self._in.need_space = False
                    self._ring_bell(_SPACE_BELL)
                return payload

    # -- orderly shutdown ------------------------------------------------------

    def flush(self, timeout: Optional[float] = None) -> bool:
        if self._reactor is None:
            return True
        return self._drained.wait(timeout)

    def half_close(self) -> None:
        try:
            self._bell.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        with self._send_lock:
            self._cork.clear()
            self._drain_waiters.clear()
            self._drained.set()
        try:
            self._bell.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        reactor = self._reactor
        if reactor is not None:
            # As with sockets: the descriptor (and the mapping the
            # selector-driven drain still reads) outlives the
            # registration, not the other way around.
            if reactor.forget(self, and_then=self._release):
                return
        self._release()

    def _release(self) -> None:
        try:
            self._bell.close()
        except OSError:
            pass
        with self._send_lock:
            # Not under a producer's feet: ``produce`` runs under the
            # same lock (the consumer side tolerates the ValueError).
            self._out.release()
            self._in.release()
        try:
            self._map_view.release()
        except (BufferError, ValueError):
            pass  # a sliced payload view still pins it; see below
        try:
            self._map.close()
        except (BufferError, ValueError):
            # An exported payload view pins the map briefly; the map
            # goes away with the process either way.
            pass

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


def _recv_line(sock: socket.socket, limit: int = 512) -> bytes:
    chunks = bytearray()
    while not chunks.endswith(b"\n"):
        if len(chunks) > limit:
            raise CommFailure("oversized shm setup line")
        byte = sock.recv(1)
        if not byte:
            raise CommFailure("peer closed during shm setup")
        chunks += byte
    return bytes(chunks[:-1])


class _ShmListener(Listener):
    def __init__(self, path: str, on_connect: OnConnect):
        self._path = path
        self._on_connect = on_connect
        self._closed = threading.Event()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.bind(path)
        except OSError as exc:
            if exc.errno != errno.EADDRINUSE:
                sock.close()
                raise
            # A previous process may have died without unlinking.  If
            # nobody answers the socket it is stale: reclaim it.
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.settimeout(0.2)
                probe.connect(path)
            except OSError:
                probe.close()
                try:
                    os.unlink(path)
                except OSError:
                    pass
                sock.bind(path)
            else:
                probe.close()
                sock.close()
                raise CommFailure(
                    f"shm rendezvous {path!r} already in use"
                ) from exc
        sock.listen(16)
        self._sock = sock
        self.endpoint = f"shm://{path}"
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"shm-accept-{os.path.basename(path)}",
            daemon=True,
        )
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                sock, _addr = self._sock.accept()
            except OSError:
                return
            threading.Thread(
                target=self._setup, args=(sock,),
                name="shm-on-connect", daemon=True,
            ).start()

    def _setup(self, sock: socket.socket) -> None:
        """Accept side of the rendezvous: map the dialer's file, ack,
        hand the channel up."""
        try:
            sock.settimeout(10.0)
            line = _recv_line(sock)
            if not line.startswith(_SETUP_PREFIX):
                raise CommFailure(f"bad shm setup line: {line!r}")
            _tag, path_text, capacity_text = line.split(b" ")
            capacity = int(capacity_text)
            with open(path_text.decode(), "r+b") as backing:
                map_ = mmap.mmap(backing.fileno(), _file_size(capacity))
            if bytes(map_[:8]) != _MAGIC:
                map_.close()
                raise CommFailure("shm segment has wrong magic")
            sock.sendall(b"OK\n")
            sock.settimeout(None)
        except (OSError, ValueError, CommFailure):
            sock.close()
            return
        self._on_connect(ShmChannel(sock, map_, capacity, dialer=False))

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        try:
            os.unlink(self._path)
        except OSError:
            pass
        if threading.current_thread() is not self._thread:
            self._thread.join(timeout=5.0)


class ShmTransport(Transport):
    """Factory for ``shm://<rendezvous-socket-path>`` endpoints."""
    scheme = "shm"

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 connect_timeout: float = 10.0):
        self.capacity = capacity
        self.connect_timeout = connect_timeout

    def listen(self, endpoint: str, on_connect: OnConnect) -> Listener:
        scheme, path = split_endpoint(endpoint)
        if scheme != "shm":
            raise CommFailure(f"not an shm endpoint: {endpoint!r}")
        try:
            return _ShmListener(path, on_connect)
        except OSError as exc:
            raise CommFailure(f"cannot listen on {endpoint!r}: {exc}") from exc

    def connect(self, endpoint: str):
        scheme, path = split_endpoint(endpoint)
        if scheme != "shm":
            raise CommFailure(f"not an shm endpoint: {endpoint!r}")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.connect_timeout)
        try:
            sock.connect(path)
        except OSError as exc:
            sock.close()
            raise CommFailure(f"cannot connect to {endpoint!r}: {exc}") from exc
        fd, backing_path = tempfile.mkstemp(prefix="repro-shm-seg-")
        map_ = None
        try:
            capacity = self.capacity
            size = _file_size(capacity)
            os.ftruncate(fd, size)
            map_ = mmap.mmap(fd, size)
            map_[:8] = _MAGIC
            _U64.pack_into(map_, 8, capacity)
            sock.sendall(
                _SETUP_PREFIX + backing_path.encode() +
                b" " + str(capacity).encode() + b"\n"
            )
            ack = _recv_line(sock)
            if ack != b"OK":
                raise CommFailure(f"shm setup rejected: {ack!r}")
        except (OSError, CommFailure) as exc:
            sock.close()
            if map_ is not None:
                map_.close()
            raise CommFailure(
                f"shm setup with {endpoint!r} failed: {exc}"
            ) from exc
        finally:
            os.close(fd)
            # Both sides hold the mapping now (or setup failed); either
            # way the name must not outlive this call.
            try:
                os.unlink(backing_path)
            except OSError:
                pass
        sock.settimeout(None)
        return ShmChannel(sock, map_, capacity, dialer=True)
