"""The TCP transport: real sockets, length-prefixed frames.

This is the paper's deployment transport.  Listeners run an accept
loop on a daemon thread and hand each connection to the space's
``on_connect`` callback.  ``tcp://host:0`` binds an ephemeral port and
reports the concrete endpoint.

A :class:`SocketChannel` lives in one of two modes.  It starts
*blocking* — sends are serialising ``sendall`` calls, ``recv`` reads
frames with a tiny recv-exact loop — which is what the synchronous
HELLO handshake and the raw-channel tests use.  Once a space's reactor
adopts it (``attach_reactor``), the socket goes *nonblocking*: each
readable event is one ``recv_into`` into a per-channel read buffer,
and every complete frame in it is cut out for the loop to deliver;
sends try the wire directly from the calling thread, parking any
unsent remainder in the cork for the reactor to flush on writable
events (backpressure never blocks a caller).
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Optional

from repro.errors import CommFailure
from repro.transport.base import (
    Listener,
    OnConnect,
    SelectableChannel,
    Transport,
    split_endpoint,
)
from repro.wire.framing import FRAME_HEADER_SIZE, MAX_FRAME_SIZE, pack_frame

_LEN_STRUCT = struct.Struct("!I")

#: Size of a reactor-mode channel's read buffer: one ``recv_into``
#: per readable event fills it.  A frame that does not fit is received
#: in place, in its own payload-sized allocation.
RECV_BUFFER_SIZE = 16 * 1024


class SocketChannel(SelectableChannel):
    """A connected TCP socket carrying length-prefixed frames."""
    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._recv_lock = threading.Lock()
        self._closed = threading.Event()
        # Send coalescing ("cork") state; see ``_sendall``.  In reactor
        # mode the cork doubles as the nonblocking write backlog and
        # ``_drained`` gates ``flush``.
        self._cork_lock = threading.Lock()
        self._cork = bytearray()
        self._sender_active = False
        self._drained = threading.Event()
        self._drained.set()
        #: ``on_drained`` callbacks, fired when the backlog empties.
        self._drain_waiters: list = []
        # Reactor adoption state (``attach_reactor``).  The read buffer
        # holds unread bytes in ``[0, _rend)``; ``_large`` is a frame
        # too big for it, ``_large_filled`` bytes in.
        self._reactor = None
        self._sink = None
        self._rbuf: Optional[bytearray] = None
        self._rview: Optional[memoryview] = None
        self._rend = 0
        self._large: Optional[bytearray] = None
        self._large_filled = 0
        self._eof_delivered = False
        # Reused for every frame header; only touched under _recv_lock.
        self._header = bytearray(_LEN_STRUCT.size)
        self._header_view = memoryview(self._header)
        # Statistics (benchmarks): frames that rode another thread's
        # sendall, and the flushes that carried them.
        self.frames_coalesced = 0
        self.coalesced_flushes = 0
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, payload) -> None:
        self._sendall(pack_frame(payload))

    def send_framed(self, frame: bytearray) -> None:
        # The buffer already carries its patched header: one sendall,
        # no concatenation, no intermediate bytes object.
        self._sendall(frame)

    def send_vector(self, head: bytearray, body) -> None:
        # Two pieces, one frame: ``sendmsg`` gathers them, so the bulk
        # payload is never copied behind its header.
        self._sendall(head, body)

    def on_drained(self, callback) -> bool:
        with self._cork_lock:
            if not self._cork or self._reactor is None:
                return False
            self._drain_waiters.append(callback)
            return True

    def _sendall(self, frame, body=None) -> None:
        """Write one frame, coalescing under contention.

        Opportunistic corking: while some thread is inside ``sendall``
        (the *active sender*), other senders append their frames to the
        cork buffer and return immediately — the active sender flushes
        the accumulated cork in one ``sendall`` per pass before giving
        the role up.  Pipelined bursts thus collapse many small frames
        into few syscalls, while an uncontended send stays the plain
        zero-copy ``sendall`` it always was, with errors raised in the
        sending thread.  Invariant: ``_sender_active`` is only cleared
        when the cork is empty (both under ``_cork_lock``), so corked
        frames can never be stranded and per-thread frame order is
        preserved.  A corked frame whose carrying ``sendall`` fails is
        reported to *its* sender only through the channel closing —
        the connection teardown fails every pending call anyway.

        In reactor mode the same cork is the nonblocking write
        backlog: the caller tries one direct ``send`` when the cork is
        empty, and whatever the kernel refuses is appended for the
        reactor to flush on writable events (``handle_writable``).
        """
        if self._reactor is not None:
            return self._send_nonblocking(frame, body)
        cork_lock = self._cork_lock
        with cork_lock:
            if self._sender_active:
                # Copy, not alias: callers recycle their frame buffers
                # the moment this returns.
                self._cork += frame
                if body is not None:
                    self._cork += body
                self.frames_coalesced += 1
                return
            self._sender_active = True
        try:
            self._sock.sendall(frame)
            if body is not None:
                self._sock.sendall(body)
            while True:
                with cork_lock:
                    if not self._cork:
                        self._sender_active = False
                        return
                    flush = self._cork
                    self._cork = bytearray()
                self.coalesced_flushes += 1
                self._sock.sendall(flush)
        except OSError as exc:
            with cork_lock:
                self._sender_active = False
                self._cork.clear()
            self.close()
            raise CommFailure(f"send failed: {exc}") from exc

    def _send_nonblocking(self, frame, body=None) -> None:
        """Reactor-mode send: never blocks the calling thread.

        The cork doubles as the write backlog toward a peer that is
        not reading; ``write_backlog_limit`` caps it.  A send that
        would grow the backlog past the cap disconnects the slow
        consumer instead of buffering without bound — except a
        two-piece stream chunk (``body``), which its credit window
        already bounds (see ``Channel.send_vector``).
        """
        limit = self.write_backlog_limit
        with self._cork_lock:
            if self._closed.is_set():
                raise CommFailure("channel is closed")
            overflow = False
            if self._cork:
                if body is not None:
                    self._cork += frame
                    self._cork += body
                    return
                if limit is not None and len(self._cork) + len(frame) > limit:
                    self._abort_cork_locked()
                    overflow = True
                else:
                    # Order: everything already corked goes first.
                    self._cork += frame
                    self.frames_coalesced += 1
                    return
            else:
                try:
                    if body is None:
                        sent = self._sock.send(frame)
                    else:
                        sent = self._sock.sendmsg((frame, body))
                except (BlockingIOError, InterruptedError):
                    sent = 0
                except OSError as exc:
                    self._abort_cork_locked()
                    raise CommFailure(f"send failed: {exc}") from exc
                # Copy the unsent tail: the caller recycles its buffers.
                if body is None:
                    if sent == len(frame):
                        return
                    self._cork += memoryview(frame)[sent:]
                else:
                    if sent == len(frame) + len(body):
                        return
                    for piece in (frame, body):
                        if sent < len(piece):
                            self._cork += memoryview(piece)[sent:]
                        sent = max(0, sent - len(piece))
                self._drained.clear()
        if overflow:
            hook = self.on_backlog_overflow
            if hook is not None:
                hook()
            self.close()
            raise CommFailure(
                f"write backlog exceeded {limit} bytes (peer not reading)"
            )
        self._reactor.request_write(self)

    def _abort_cork_locked(self) -> None:
        """Send-path failure cleanup (cork lock held): drop the
        backlog and release flush waiters before closing."""
        self._cork.clear()
        self._drain_waiters.clear()
        self._drained.set()

    # -- reactor protocol (see transport.base.SelectableChannel) -------------

    def fileno(self) -> int:
        return self._sock.fileno()

    def attach_reactor(self, reactor, sink) -> None:
        self._reactor = reactor
        self._sink = sink
        self._rbuf = bytearray(RECV_BUFFER_SIZE)
        self._rview = memoryview(self._rbuf)
        self._sock.setblocking(False)

    def wants_write(self) -> bool:
        with self._cork_lock:
            return bool(self._cork)

    def handle_writable(self) -> bool:
        """Reactor thread: push corked bytes; True while more remain."""
        with self._cork_lock:
            if not self._cork:
                self._drained.set()
                return False
            try:
                sent = self._sock.send(self._cork)
            except (BlockingIOError, InterruptedError):
                return True
            except OSError:
                # The read side will observe the failure and tear the
                # connection down; just stop asking for write events.
                self._abort_cork_locked()
                return False
            del self._cork[:sent]
            if self._cork:
                return True
            self.coalesced_flushes += 1
            self._drained.set()
            waiters, self._drain_waiters = self._drain_waiters, []
        for callback in waiters:
            callback()
        return False

    def handle_readable(self, ready) -> None:
        """One ``recv_into`` — into the read buffer, or straight into a
        large frame's payload — then every complete frame in the
        buffer goes to ``ready``."""
        large = self._large
        try:
            if large is None:
                count = self._sock.recv_into(self._rview[self._rend:])
            else:
                count = self._sock.recv_into(
                    memoryview(large)[self._large_filled:])
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            if self._closed.is_set():
                self._deliver_eof(ready, None)
            else:
                self._deliver_eof(
                    ready, CommFailure(f"recv failed: {exc}"))
            return
        if count == 0:
            if (large is not None or self._rend) \
                    and not self._closed.is_set():
                self._deliver_eof(
                    ready, CommFailure("connection closed mid-frame"))
            else:
                self._deliver_eof(ready, None)
            return
        if large is None:
            self._rend += count
            self._cut_frames(ready)
            return
        self._large_filled += count
        if self._large_filled == len(large):
            self._large = None
            self._reactor.frames_in += 1
            ready.append((self._sink.on_frame, large))

    def _cut_frames(self, ready) -> None:
        """Cut every complete frame out of the read buffer, each as its
        own copy; move a partial one to the front (or, when it cannot
        fit, into a payload of its own)."""
        on_frame = self._sink.on_frame
        buf = self._rbuf
        start, end = 0, self._rend
        cut = 0
        while end - start >= FRAME_HEADER_SIZE:
            (length,) = _LEN_STRUCT.unpack_from(buf, start)
            if length > MAX_FRAME_SIZE:
                start = end = 0
                self._deliver_eof(ready, CommFailure(
                    f"invalid frame from peer: oversized frame ({length})"))
                break
            body = start + FRAME_HEADER_SIZE
            stop = body + length
            if stop > end:
                if FRAME_HEADER_SIZE + length > len(buf):
                    large = bytearray(length)
                    large[:end - body] = self._rview[body:end]
                    self._large, self._large_filled = large, end - body
                    start = end
                break
            ready.append((on_frame, buf[body:stop]))
            cut += 1
            start = stop
        self._reactor.frames_in += cut
        if start:
            # Keep the partial frame at the front: the next recv_into
            # always has room for the rest of it.
            buf[:end - start] = buf[start:end]
            end -= start
        self._rend = end

    def _deliver_eof(self, ready, failure: Optional[Exception]) -> None:
        if self._eof_delivered:
            return
        self._eof_delivered = True
        ready.append((self._sink.on_closed, failure))

    # -- orderly shutdown ------------------------------------------------------

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Wait for the cork/backlog to reach the kernel."""
        if self._reactor is None:
            # Blocking mode: _sendall returns only once bytes are
            # written, so there is never a backlog to wait on.
            return True
        return self._drained.wait(timeout)

    def half_close(self) -> None:
        """Signal end-of-stream; keep receiving the peer's last words."""
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        with self._recv_lock:
            try:
                self._sock.settimeout(timeout)
                if not self._recv_into(self._header_view, allow_eof=True):
                    return None
                (length,) = _LEN_STRUCT.unpack(self._header)
                if length > MAX_FRAME_SIZE:
                    raise CommFailure(f"oversized frame announced ({length})")
                if length == 0:
                    return b""
                # The frame's only payload-sized allocation: the buffer
                # the payload lands in, filled in place by recv_into and
                # decoded through memoryview slices from then on.
                payload = bytearray(length)
                self._recv_into(memoryview(payload), allow_eof=False)
                return payload
            except socket.timeout as exc:
                raise CommFailure("recv timed out") from exc
            except OSError as exc:
                if self._closed.is_set():
                    return None
                raise CommFailure(f"recv failed: {exc}") from exc

    def _recv_into(self, view: memoryview, allow_eof: bool) -> bool:
        """Fill ``view`` exactly from the socket; False on clean EOF
        before the first byte (only when ``allow_eof``)."""
        total = len(view)
        while view:
            count = self._sock.recv_into(view)
            if count == 0:
                if allow_eof and len(view) == total:
                    return False
                raise CommFailure("connection closed mid-frame")
            view = view[count:]
        return True

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        with self._cork_lock:
            self._abort_cork_locked()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        reactor = self._reactor
        if reactor is not None:
            # Defer the descriptor's release until the reactor has
            # dropped its registration: closing first would let the
            # kernel recycle the fd under the selector's feet.  The
            # shutdown above already woke the reactor with EOF.
            if reactor.forget(self, and_then=self._sock.close):
                return
        self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


class _TcpListener(Listener):
    """One endpoint, one *or several* accept sockets.

    With ``SO_REUSEPORT`` every socket binds the same port and the
    kernel spreads incoming connections across them (hashing the
    4-tuple), so accepts never funnel through a single accept queue —
    the listener-side twin of the reactor-pool sharding.  Each socket
    gets its own accept thread; ``shards`` reports how many.
    """

    def __init__(self, socks: "list[socket.socket]", on_connect: OnConnect):
        self._socks = socks
        self._on_connect = on_connect
        self._closed = threading.Event()
        host, port = socks[0].getsockname()[:2]
        self.endpoint = f"tcp://{host}:{port}"
        self.shards = len(socks)
        self._threads = [
            threading.Thread(
                target=self._accept_loop, args=(sock,),
                name=f"tcp-accept-{port}.{index}", daemon=True,
            )
            for index, sock in enumerate(socks)
        ]
        for thread in self._threads:
            thread.start()

    def _accept_loop(self, listen_sock: socket.socket) -> None:
        while not self._closed.is_set():
            try:
                sock, _addr = listen_sock.accept()
            except OSError:
                return  # listener closed
            channel = SocketChannel(sock)
            threading.Thread(
                target=self._on_connect,
                args=(channel,),
                name="tcp-on-connect",
                daemon=True,
            ).start()

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        for sock in self._socks:
            try:
                # close() alone does not wake a thread blocked in
                # accept(); shutdown does, so the accept loops exit
                # promptly instead of lingering until process death.
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        me = threading.current_thread()
        for thread in self._threads:
            if thread is not me:
                thread.join(timeout=5.0)


class TcpTransport(Transport):
    """Listener/dialer factory for ``tcp://host:port`` endpoints.

    ``listener_shards > 1`` asks for that many ``SO_REUSEPORT`` accept
    sockets per listen call.  Platforms without the option (or kernels
    that refuse the second bind) fall back to a single shared socket;
    everything above the accept path is identical either way.
    """
    scheme = "tcp"

    def __init__(self, connect_timeout: float = 10.0,
                 listener_shards: int = 1):
        self.connect_timeout = connect_timeout
        self.listener_shards = max(1, listener_shards)

    def listen(self, endpoint: str, on_connect: OnConnect) -> Listener:
        host, port = self._parse(endpoint)
        first = self._bind(host, port, reuseport=self.listener_shards > 1)
        socks = [first]
        if self.listener_shards > 1:
            # The first socket resolved an ephemeral port request; the
            # siblings bind the concrete port it landed on.
            concrete = first.getsockname()[1]
            for _ in range(self.listener_shards - 1):
                try:
                    socks.append(self._bind(host, concrete, reuseport=True))
                except CommFailure:
                    # Kernel refused the extra bind (no effective
                    # REUSEPORT support): run with what we have.
                    break
        return _TcpListener(socks, on_connect)

    def _bind(self, host: str, port: int, reuseport: bool) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuseport:
            reuseport_option = getattr(socket, "SO_REUSEPORT", None)
            if reuseport_option is None:
                if port == 0:
                    # No REUSEPORT on this platform: shard 0 proceeds
                    # alone (caller's retry loop stops at the first
                    # sibling failure below).
                    reuseport = False
                else:
                    sock.close()
                    raise CommFailure("SO_REUSEPORT unavailable")
            else:
                try:
                    sock.setsockopt(socket.SOL_SOCKET, reuseport_option, 1)
                except OSError as exc:
                    sock.close()
                    if port == 0:
                        return self._bind(host, port, reuseport=False)
                    raise CommFailure(f"SO_REUSEPORT refused: {exc}") from exc
        try:
            sock.bind((host, port))
            sock.listen(128)
        except OSError as exc:
            sock.close()
            raise CommFailure(
                f"cannot listen on tcp://{host}:{port}: {exc}"
            ) from exc
        return sock

    def connect(self, endpoint: str) -> Channel:
        host, port = self._parse(endpoint)
        try:
            sock = socket.create_connection((host, port), self.connect_timeout)
        except OSError as exc:
            raise CommFailure(f"cannot connect to {endpoint!r}: {exc}") from exc
        return SocketChannel(sock)

    @staticmethod
    def _parse(endpoint: str) -> "tuple[str, int]":
        scheme, rest = split_endpoint(endpoint)
        if scheme != "tcp":
            raise CommFailure(f"not a tcp endpoint: {endpoint!r}")
        host, sep, port_text = rest.rpartition(":")
        if not sep:
            raise CommFailure(f"tcp endpoint needs host:port, got {endpoint!r}")
        try:
            port = int(port_text)
        except ValueError as exc:
            raise CommFailure(f"bad port in {endpoint!r}") from exc
        return host or "127.0.0.1", port
