"""A live connection between two spaces.

After the HELLO/HELLO_ACK handshake the connection is symmetric: each
side allocates its own call ids, keeps its own pending-call table, and
serves whatever requests the peer sends.  Incoming frames arrive via
the :class:`~repro.transport.reactor.FrameSink` callbacks
(:meth:`Connection.on_frame` / :meth:`Connection.on_closed`) — from
a reactor shard's loop for selectable channels, from a per-connection
:class:`~repro.transport.reactor.ChannelPump` bridge otherwise.  The
delivering thread decodes the envelope: replies complete a pending
call future, and a request is offered to the owning space's
``serve_here`` hook, which serves it on the spot when the runtime
answers it without user code or its method has proven fast (see
:mod:`repro.transport.reactor`); every other request goes to the
space's dispatcher.

Calls come in two shapes over the same call-id multiplexing:

* ``call_buffer``/``call`` — the classic blocking RPC: send, park the
  calling thread, return the reply.  Implemented on the same machinery
  as the async path, with the future slot recycled afterwards.
* ``call_buffer_async``/``call_async`` — pipelined: send and return a
  :class:`~repro.rpc.futures.CallFuture` immediately, so one thread
  can keep hundreds of calls in flight per connection.

There is one protocol version,
:data:`~repro.wire.protocol.PROTOCOL_VERSION`: the handshake refuses a
peer that announces anything lower, so every frame in
:mod:`repro.rpc.messages` may be sent on every connection.  The
bulk-data plane's ``STREAM_*`` frames are routed to ``self.streams``.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Optional

from repro.errors import (
    CallTimeout, CommFailure, ConnectionClosed, ProtocolError, ServerBusy,
)
from repro.rpc import messages
from repro.rpc.admission import AdmissionController
from repro.rpc.dispatcher import Dispatcher
from repro.rpc.futures import CallFuture
from repro.rpc.streamplane import StreamStats, StreamTable
from repro.transport.base import Channel, SelectableChannel
from repro.transport.reactor import ChannelPump, ReactorPool, runtime_wait
from repro.wire import protocol
from repro.wire.framing import BufferPool, finish_frame
from repro.wire.ids import SpaceID

#: Default per-call deadline, generous enough for loaded CI machines.
DEFAULT_CALL_TIMEOUT = 30.0

#: How long an orderly close waits for corked output to hit the wire
#: before half-closing.  Short: the backlog is at most a few frames.
DEFAULT_FLUSH_TIMEOUT = 1.0


#: Recycled pending-call future slots kept per connection.  Bounds the
#: free list so a burst of concurrent callers doesn't pin Events
#: forever.  Only the blocking path recycles: a future handed out by
#: ``call_buffer_async`` belongs to its caller.
_MAX_FREE_PENDING = 8

#: The control plane.  These frames are *bounded* by the
#: per-connection inflight gauge (reads pause) but never *refused* by
#: the queue cap, rate bucket, or bulkheads: refusing a DIRTY/CLEAN
#: would break the reference-listing invariants, and refusing a PING
#: makes a busy-but-live client look dead to the pinger (which would
#: then purge its dirty entries — a GC-safety violation, not a
#: liveness hiccup).  COPY_ACK and LEASE_RELEASE only hand state back,
#: and shedding a one-way frame is silent: a lost COPY_ACK pins the
#: sender's transient entry for good, a lost LEASE_RELEASE costs a
#: holder's write the invalidation round trip it exists to save.  Every
#: frame here is at most a table update and its ack, and stays charged
#: to the gauge, so the exemption cannot be used to flood past admission.
_GC_PLANE_TAGS = frozenset({
    protocol.DIRTY, protocol.CLEAN_BATCH, protocol.PING,
    protocol.COPY_ACK, protocol.LEASE_RELEASE,
})

#: Bulk-data frames of streams that are already open: routed to the
#: connection's stream table on the delivering thread, never queued
#: as requests and never shed (STREAM_OPEN is the admission point).
_STREAM_FRAME_TAGS = protocol.STREAM_TAGS - {protocol.STREAM_OPEN}


class Connection:
    """One handshaken channel, fed frames by the space's reactor.

    A connection goes live in two phases.  The constructor runs the
    handshake, synchronously on the constructing thread (dialer thread
    outbound, the listener's on-connect thread inbound), and delivers
    nothing.  The owner then records the connection (the space's
    ``_track``) and calls :meth:`start`, so the first frame served
    already finds it listed and charged to admission.
    """

    def __init__(
        self,
        channel: Channel,
        local_id: SpaceID,
        dispatcher: Dispatcher,
        handle_request: Callable[["Connection", messages.Message], None],
        on_close: Optional[Callable[["Connection"], None]] = None,
        outbound: bool = True,
        handshake_timeout: float = 10.0,
        reactor: Optional[ReactorPool] = None,
        serve_here: Optional[
            Callable[["Connection", messages.Message], bool]
        ] = None,
        profile=None,
        admission: Optional[AdmissionController] = None,
        stream_stats: Optional[StreamStats] = None,
    ):
        self._channel = channel
        self._local_id = local_id
        self._dispatcher = dispatcher
        self._handle_request = handle_request
        self._on_close = on_close
        self._pending: dict[int, CallFuture] = {}
        self._pending_lock = threading.Lock()
        self._pending_free: list[CallFuture] = []
        self._call_ids = itertools.count(1)
        self._closed = threading.Event()
        self._closing = False  # set under _pending_lock; rejects new calls
        self._send_buffers = BufferPool()
        self._reactor = reactor
        self._serve_here = serve_here
        self._profile = profile
        # Method-id interning tables (see PROTOCOL.md, "Bound calls").
        # Each direction allocates its own ids, exactly like call ids,
        # so the two never collide.
        # A binding lives as long as the reference it was made through:
        # the client drops it when it sends the surrogate's clean call,
        # the owner when the client leaves the object's dirty set.
        #: Our outbound bindings: wirerep -> {method: method id the
        #: peer has *confirmed* (the CALL_BIND frame reached the wire)}.
        self.method_ids: dict = {}
        #: The peer's bindings: method id -> the binding the owning
        #: space's request handler registered at CALL_BIND time (its
        #: ``target`` wireRep keys the per-target bulkhead);
        #: ``bound_targets`` lists the ids per object index, and
        #: ``bound_high`` is the largest id ever bound (an unknown id
        #: at or below it was evicted, not never announced).
        self.bound_methods: dict = {}
        self.bound_targets: dict = {}
        self.bound_high = 0
        self._method_ids = itertools.count(1)
        #: Reactor shard index this connection's frames arrive on; set
        #: at registration, routes request dispatch to that shard's
        #: local deque.  None = unsharded (standalone / pre-register).
        self._shard: Optional[int] = None
        #: True when the close was a negotiated goodbye (Bye/EOF seen or
        #: sent) rather than a failure — CommFailure diagnostics only.
        self.orderly = False
        self.peer_id: Optional[SpaceID] = None
        #: Slot for the owning space's per-connection codec context
        #: (set lazily by Space; the connection itself never reads it).
        self.marshal_ctx: Optional[object] = None
        #: The endpoint this connection was dialed to (set by
        #: ConnectionCache.get); lets BUSY replies demote the endpoint
        #: in multi-endpoint health ordering.  None for inbound.
        self.endpoint: Optional[str] = None
        #: Read-throttle gate for pumped (non-selectable) transports:
        #: cleared = pump parked, set = frames flow.  Read by
        #: ``Reactor.register`` when it builds the ChannelPump.
        self.recv_gate = threading.Event()
        self.recv_gate.set()
        self._admission = admission
        #: Per-connection credit account (None with admission off).
        self._gauge = None
        #: The bulk-data plane's streams on this connection.
        self.streams = StreamTable(
            self, dispatcher,
            stream_stats if stream_stats is not None else StreamStats(),
            outbound,
        )

        self._handshake(outbound, handshake_timeout)
        if admission is not None \
                and admission.config.write_backlog_max is not None:
            channel.write_backlog_limit = admission.config.write_backlog_max
            channel.on_backlog_overflow = \
                lambda: admission.count("backlog_sheds")

    def start(self) -> None:
        """Let frames flow: attach the admission gauge, then hand the
        channel to the reactor — a selectable channel goes nonblocking
        under the shard's selector thread, anything else gets a
        :class:`ChannelPump` bridge.  Without a live reactor
        (standalone use, as in the protocol-level tests) a private
        pump reproduces the classic reader-thread arrangement.  A
        connection closed before it started stays closed."""
        if self._closed.is_set():
            return
        channel = self._channel
        reactor = self._reactor
        # The shard is chosen before registration, so frames delivered
        # the moment the channel joins it already see their shard.
        shard = reactor.pick() if reactor is not None and reactor.alive \
            else None
        self._reactor = shard
        if shard is not None:
            self._shard = shard.index
        admission = self._admission
        if admission is not None:
            if shard is not None and isinstance(channel, SelectableChannel):
                pause = lambda: shard.pause_read(channel)   # noqa: E731
                resume = lambda: shard.resume_read(channel)  # noqa: E731
            else:
                pause = self.recv_gate.clear
                resume = self.recv_gate.set
            self._gauge = admission.attach(pause, resume)
        if shard is not None:
            shard.register(channel, self, name=f"conn-{self.peer_id}")
        else:
            ChannelPump(
                channel, self, name=f"conn-reader-{self.peer_id}",
                gate=self.recv_gate,
            ).start()

    # -- handshake ------------------------------------------------------------

    def _handshake(self, outbound: bool, timeout: float) -> None:
        """HELLO/HELLO_ACK exchange, refusing any peer below our version.

        Both frames announce :data:`~repro.wire.protocol.PROTOCOL_VERSION`
        in both version fields (see :class:`~repro.rpc.messages.Hello`);
        the peer's ``max_version`` is what we check.  The acceptor
        replies even when it is about to reject an older peer, so that
        peer fails fast instead of timing out on a silently closed
        channel.
        """
        nickname = self._local_id.nickname
        try:
            if outbound:
                self.send(messages.Hello(self._local_id, nickname))
                reply = self._expect_handshake(messages.HelloAck, timeout)
            else:
                reply = self._expect_handshake(messages.Hello, timeout)
                self.send(messages.HelloAck(self._local_id, nickname))
        except CommFailure:
            self._channel.close()
            raise
        if reply.max_version < protocol.PROTOCOL_VERSION:
            self._channel.close()
            raise ProtocolError(
                f"peer speaks protocol {reply.max_version}, "
                f"this runtime only {protocol.PROTOCOL_VERSION}"
            )
        self.peer_id = reply.space_id

    def _expect_handshake(self, expected_type, timeout: float):
        frame = self._channel.recv(timeout=timeout)
        if frame is None:
            raise CommFailure("peer closed during handshake")
        message = messages.decode(memoryview(frame))
        if not type(message) is expected_type:
            raise ProtocolError(
                f"expected {expected_type.__name__} during handshake, "
                f"got {type(message).__name__}"
            )
        return message

    # -- outgoing traffic -------------------------------------------------------

    def next_call_id(self) -> int:
        return next(self._call_ids)

    def next_method_id(self) -> int:
        """Allocate an outbound method id (interning).  Ids are
        never reused; a racing duplicate bind for the same method is
        harmless — the peer registers both ids and ``method_ids``
        settles on whichever publishes first."""
        return next(self._method_ids)

    # Frame buffers: ``new_send_buffer`` hands out a pooled bytearray
    # with the 4 length-prefix bytes reserved; callers append the
    # message (envelope + pickle) in place and pass it to
    # ``send_buffer``/``call_buffer``, which patch the length, hand the
    # channel the single buffer, and return it to the pool.  A caller
    # that fails before sending must ``discard_send_buffer`` it.

    def new_send_buffer(self) -> bytearray:
        return self._send_buffers.acquire()

    def discard_send_buffer(self, buffer: bytearray) -> None:
        self._send_buffers.release(buffer)

    def send_buffer(self, buffer: bytearray) -> None:
        """Finish and transmit a frame built in ``new_send_buffer``.

        Takes ownership of ``buffer`` — it goes back to the pool
        whether the send succeeds or not.
        """
        try:
            if self._closed.is_set():
                raise ConnectionClosed("connection closed")
            profile = self._profile
            if profile is None:
                self._channel.send_framed(finish_frame(buffer))
            else:
                start = time.perf_counter_ns()
                self._channel.send_framed(finish_frame(buffer))
                profile.syscall_ns += time.perf_counter_ns() - start
                profile.syscall_calls += 1
            if self._reactor is not None:
                self._reactor.frames_out += 1
        finally:
            self._send_buffers.release(buffer)

    def send(self, message: messages.Message) -> None:
        """Fire-and-forget send (results, acks, one-way GC messages)."""
        buffer = self.new_send_buffer()
        try:
            message.encode_into(buffer)
        except BaseException:
            self.discard_send_buffer(buffer)
            raise
        self.send_buffer(buffer)

    def send_stream_data(self, stream_id: int, chunk) -> None:
        """Send one STREAM_DATA frame: the envelope from a pooled
        buffer and ``chunk`` as a second piece, so the bulk bytes are
        never copied behind their five-byte header."""
        head = self.new_send_buffer()
        try:
            if self._closed.is_set():
                raise ConnectionClosed("connection closed")
            messages.StreamData.encode_prefix(head, stream_id)
            self._channel.send_vector(finish_frame(head, len(chunk)), chunk)
            if self._reactor is not None:
                self._reactor.frames_out += 1
        finally:
            self._send_buffers.release(head)

    def on_output_drained(self, callback: Callable[[], None]) -> bool:
        """See :meth:`repro.transport.base.Channel.on_drained`."""
        return self._channel.on_drained(callback)

    def flush_output(self, timeout: float) -> None:
        """Wait until buffered output has reached the wire."""
        runtime_wait()
        if not self._channel.flush(timeout) and not self._closed.is_set():
            raise CallTimeout(
                f"peer took no output for {timeout} s (not reading)")

    def call(
        self,
        message: messages.Message,
        timeout: float = DEFAULT_CALL_TIMEOUT,
    ) -> messages.Message:
        """Send a request carrying ``message.call_id``; await its reply."""
        buffer = self.new_send_buffer()
        try:
            message.encode_into(buffer)
        except BaseException:
            self.discard_send_buffer(buffer)
            raise
        return self.call_buffer(message.call_id, buffer, timeout)

    def call_async(self, message: messages.Message) -> CallFuture:
        """Send a request carrying ``message.call_id``; return a
        :class:`CallFuture` for its reply without blocking."""
        buffer = self.new_send_buffer()
        try:
            message.encode_into(buffer)
        except BaseException:
            self.discard_send_buffer(buffer)
            raise
        return self.call_buffer_async(message.call_id, buffer)

    def call_buffer_async(self, call_id: int, buffer: bytearray) -> CallFuture:
        """Send a pre-built request frame; return its reply future.

        Takes ownership of ``buffer`` (see :meth:`send_buffer`).  The
        future completes on the reader thread when the reply frame
        arrives, or with CommFailure if the connection dies first.
        Raises CommFailure synchronously if the send itself fails.
        """
        future = CallFuture(self, call_id)
        with self._pending_lock:
            if self._closed.is_set() or self._closing:
                self._send_buffers.release(buffer)
                raise ConnectionClosed("connection closed")
            self._pending[call_id] = future
        try:
            self.send_buffer(buffer)
        except BaseException:
            # Not just CommFailure: a ProtocolError (oversize frame)
            # must also unregister, or the dead slot pins the
            # connection against idle reaping forever.
            with self._pending_lock:
                self._pending.pop(call_id, None)
            raise
        return future

    def call_buffer(
        self,
        call_id: int,
        buffer: bytearray,
        timeout: float = DEFAULT_CALL_TIMEOUT,
    ) -> messages.Message:
        """Send a pre-built request frame; await the matching reply.

        The blocking path: ``call_buffer_async(...).result(timeout)``
        on a recycled future slot — an Event (with its internal
        Condition and lock) is three allocations per call we avoid on
        the null-call hot path.  Recycling is safe because every way a
        future completes (reply, teardown, timed-out wait) does so
        under ``_pending_lock`` with the slot already out of the
        pending table, making this thread the slot's sole owner again.

        Takes ownership of ``buffer`` (see :meth:`send_buffer`).
        """
        with self._pending_lock:
            if self._closed.is_set() or self._closing:
                self._send_buffers.release(buffer)
                raise ConnectionClosed("connection closed")
            free = self._pending_free
            if free:
                future = free.pop()
                future.call_id = call_id
            else:
                future = CallFuture(self, call_id)
            self._pending[call_id] = future
        try:
            self.send_buffer(buffer)
        except BaseException:
            # See call_buffer_async: any send failure unregisters.
            with self._pending_lock:
                self._pending.pop(call_id, None)
                self._recycle(future)
            raise
        try:
            return future.result(timeout)
        finally:
            with self._pending_lock:
                self._recycle(future)

    def _recycle(self, future: CallFuture) -> None:
        """Return a blocking-path future to the free list.  Caller must
        hold ``_pending_lock`` and must be the slot's sole owner."""
        future._reset()
        if len(self._pending_free) < _MAX_FREE_PENDING:
            self._pending_free.append(future)

    # -- incoming traffic (FrameSink protocol) ----------------------------------
    #
    # Called on a reactor loop (selectable channels) or a pump thread
    # (everything else).  Neither callback waits for the network:
    # envelope decode, pending-table completion, the ``serve_here``
    # hook, and dispatcher hand-off only.

    def on_frame(self, frame) -> None:
        profile = self._profile
        start = time.perf_counter_ns() if profile is not None else 0
        try:
            # memoryview: a decoded call/result's pickle is a
            # zero-copy slice of the frame buffer.
            message = messages.decode(memoryview(frame))
        except Exception as exc:  # corrupt frame: drop connection
            self._channel.close()
            self._teardown(ProtocolError(f"undecodable frame: {exc}"))
            return
        if isinstance(message, messages.Bye):
            self.orderly = True
            self._channel.close()
            self._teardown(CommFailure("connection closed by peer"))
            return
        if profile is not None:
            # Envelope decode + routing only: a request served here is
            # user code and accounts itself in the space's buckets.
            profile.reactor_ns += time.perf_counter_ns() - start
            profile.reactor_calls += 1
        tag = message.tag
        if tag in messages.REPLY_TAGS:
            self._complete(message)
            return
        if tag in _STREAM_FRAME_TAGS:
            # Charged to the inflight-bytes gauge (reads pause when an
            # owner cannot write as fast as a peer uploads), never
            # policed: the stream was admitted at its OPEN.
            gauge = self._gauge if tag == protocol.STREAM_DATA else None
            if gauge is not None:
                gauge.admit(len(message.data), police=False)
            self.streams.dispatch(message, gauge)
            return
        if tag == protocol.STREAM_OPEN:
            self._on_stream_open(message, len(frame))
            return
        # Admission: charge the frame against this connection's credit
        # budget before any work is queued for it.  Rate policing sheds
        # here; inflight-budget exhaustion pauses reads instead (the
        # gauge's pause callback) — invisible to a well-behaved peer.
        gauge = self._gauge
        gc_plane = tag in _GC_PLANE_TAGS
        nbytes = 0
        admission = self._admission
        bkey = None
        if gauge is not None:
            nbytes = len(frame)
            reason = gauge.admit(nbytes, police=not gc_plane)
            if reason is not None:
                self._shed(message, reason, "shed_rate")
                return
            # A request served here counts against its target's
            # bulkhead exactly as a worker-served one does.
            if not gc_plane and admission.config.bulkhead_quota is not None:
                bkey = self._bulkhead_key(message)
                if bkey is not None and not admission.bulkhead_enter(bkey):
                    gauge.release(nbytes)
                    self._shed(message, "target quota", "shed_bulkhead")
                    return
        serve_here = self._serve_here
        if serve_here is not None and serve_here(self, message):
            if gauge is not None:
                gauge.release(nbytes)
                if bkey is not None:
                    admission.bulkhead_leave(bkey)
            return
        if profile is None:
            base_task = lambda m=message: self._handle_request(self, m)  # noqa: E731
        else:
            submitted = time.perf_counter_ns()

            def base_task(m=message):
                profile.dispatch_ns += time.perf_counter_ns() - submitted
                profile.dispatch_calls += 1
                self._handle_request(self, m)

        if gauge is None:
            # Admission off: no credit to charge, but never skip the
            # refusal — a dropped request would strand the caller
            # until its timeout.
            if not self._dispatcher.submit(base_task, shard=self._shard,
                                           force=gc_plane):
                self._shed(message, "queue full", "shed_queue")
            return

        def task(inner=base_task):
            try:
                inner()
            finally:
                gauge.release(nbytes)
                if bkey is not None:
                    admission.bulkhead_leave(bkey)

        call_id = getattr(message, "call_id", None)

        def on_shed():
            # Fired by a draining shutdown for queued-but-unstarted
            # tasks: credit back and answer BUSY so a waiting caller
            # fails fast instead of timing out against a dead space.
            gauge.release(nbytes)
            if bkey is not None:
                admission.bulkhead_leave(bkey)
            admission.count("shed_shutdown")
            self._send_shed_reply(call_id, "shutting down")

        task.on_shed = on_shed
        if not self._dispatcher.submit(task, shard=self._shard,
                                       force=gc_plane):
            gauge.release(nbytes)
            if bkey is not None:
                admission.bulkhead_leave(bkey)
            self._shed(message, "queue full", "shed_queue")

    def _on_stream_open(self, message: messages.StreamOpen,
                        nbytes: int) -> None:
        """Admit (or refuse) a STREAM_OPEN.  The stream's endpoint is
        created here, on the delivering thread, so the DATA frames
        that follow the OPEN find it; resolving the target is a
        request like any other and goes to the dispatcher.  A refusal
        — rate limit, full queue, shutdown — is answered with a
        STREAM_END fault of kind ``ServerBusy``."""
        gauge = self._gauge
        admission = self._admission
        streams = self.streams
        stream_id = message.stream_id

        def release() -> None:
            if gauge is not None:
                gauge.release(nbytes)

        def refuse(reason: str, counter: str) -> None:
            if admission is not None:
                admission.count(counter)
            streams.refuse(stream_id, "ServerBusy", reason)

        if gauge is not None:
            reason = gauge.admit(nbytes)
            if reason is not None:
                return refuse(reason, "shed_rate")
        if not streams.accept(message):
            return release()

        def task():
            try:
                self._handle_request(self, message)
            finally:
                release()

        def on_shed():
            release()
            refuse("shutting down", "shed_shutdown")

        task.on_shed = on_shed
        if not self._dispatcher.submit(task, shard=self._shard):
            release()
            refuse("queue full", "shed_queue")

    def on_closed(self, failure: Optional[Exception]) -> None:
        if failure is None:
            self.orderly = True
            failure = CommFailure("connection closed by peer")
        self._teardown(failure)

    def _bulkhead_key(self, message: messages.Message):
        """The per-target quota bucket a request counts against: the
        target wireRep, read from the envelope or — for bound calls —
        from the binding, so every frame for one object shares one
        bucket across connections.  An unknown or evicted binding has
        no key: its call faults before any user code runs."""
        target = getattr(message, "target", None)
        if target is None:
            binding = self.bound_methods.get(
                getattr(message, "method_id", None))
            if binding is not None:
                target = binding.target
        return target

    def _shed(self, message: messages.Message, reason: str,
              counter: str) -> None:
        """Refuse ``message``: count it and answer BUSY when the
        request carries a call id."""
        admission = self._admission
        if admission is not None:
            admission.count(counter)
        self._send_shed_reply(getattr(message, "call_id", None), reason)

    def _send_shed_reply(self, call_id: Optional[int], reason: str) -> None:
        if call_id is None:
            return  # a one-way message is shed by silence
        config = self._admission.config if self._admission is not None \
            else None
        retry_ms = config.retry_after_ms if config is not None else 50
        try:
            self.send(messages.Busy(call_id, reason, retry_ms))
        except CommFailure:
            pass

    def _complete(self, reply: messages.Message) -> None:
        # Fields are set and the event raised *under* the lock: slot
        # recycling in ``call_buffer`` depends on completion being
        # atomic with respect to the pending table.  Done callbacks run
        # after the lock is released (they may issue new calls).
        #
        # A BUSY frame completes the future with a ServerBusy
        # *failure* here, in the one place both blocking and async
        # callers converge.  Only BUSY does: a FAULT of kind
        # "ServerBusy" reports a shed *inside* the remote method (a
        # nested call), so the call did run and is not retryable.
        failure: Optional[Exception] = None
        if type(reply) is messages.Busy:
            failure = ServerBusy(reply.reason, reply.retry_after_ms / 1000.0)
            if self._admission is not None:
                self._admission.count("busy_received")
        with self._pending_lock:
            future = self._pending.pop(reply.call_id, None)
            if future is None:
                return  # reply to an abandoned call; dropped silently
            if failure is None:
                callbacks = future._complete(reply, None)
            else:
                callbacks = future._complete(None, failure)
        future._run_callbacks(callbacks)

    # -- teardown -------------------------------------------------------------

    def close(self, notify_peer: bool = True) -> None:
        if self._closed.is_set():
            return
        if notify_peer:
            try:
                self.send(messages.Bye())
                # The Bye may still sit in a nonblocking transport's
                # cork; give it a moment to reach the wire before the
                # close below discards the backlog.
                self._channel.flush(DEFAULT_FLUSH_TIMEOUT)
            except CommFailure:
                pass
        self._channel.close()
        self._teardown(CommFailure("connection closed locally"))

    def begin_close(
        self, flush_timeout: float = DEFAULT_FLUSH_TIMEOUT
    ) -> None:
        """Start an orderly goodbye: refuse new calls, send Bye, flush
        buffered output, then half-close so the peer reads our Bye and
        a clean end-of-stream instead of a reset that may destroy
        frames in flight.  Full teardown completes when the peer's
        answering close arrives (``await_closed``); callers that cannot
        wait may follow up with :meth:`close`.
        """
        with self._pending_lock:
            if self._closed.is_set() or self._closing:
                return
            self._closing = True
        self._send_goodbye(flush_timeout)

    def await_closed(self, timeout: Optional[float] = None) -> bool:
        """Wait for teardown to finish; True once closed."""
        return self._closed.wait(timeout)

    def try_close_idle(
        self, flush_timeout: float = DEFAULT_FLUSH_TIMEOUT
    ) -> bool:
        """Orderly-close the connection iff no calls are in flight and
        no stream is open (a long transfer makes no calls).

        The idle-reaper's entry point: the pending-table check and the
        switch to the call-refusing ``_closing`` state are atomic under
        ``_pending_lock``, so a call racing this either lands in the
        table first (we return False, connection stays) or arrives
        after and gets the same CommFailure any closed connection
        gives.  Returns True when a close was initiated (or the
        connection was already closed/closing).
        """
        with self._pending_lock:
            if self._closed.is_set() or self._closing:
                return True
            if self._pending or self.streams.active:
                return False
            self._closing = True
        self._send_goodbye(flush_timeout)
        return True

    def _send_goodbye(self, flush_timeout: float) -> None:
        self.orderly = True
        try:
            self.send(messages.Bye())
        except CommFailure:
            self.close(notify_peer=False)
            return
        self._channel.flush(flush_timeout)
        self._channel.half_close()

    def _teardown(self, failure: Exception) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        # A parked pump must wake to observe the close; a paused gauge
        # must never resume a dead channel.
        self.recv_gate.set()
        if self._gauge is not None:
            self._gauge.close()
        self._channel.close()
        # Method bindings die with the connection (ids are
        # per-connection); drop them eagerly so server-side binding
        # records release their object-table weakrefs now rather than
        # whenever the Connection itself is collected.
        self.method_ids.clear()
        self.bound_methods.clear()
        self.bound_targets.clear()
        self.streams.fail_all(failure)
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
            self._pending_free.clear()
            completed = [
                (future, future._complete(None, failure))
                for future in pending
            ]
        for future, callbacks in completed:
            future._run_callbacks(callbacks)
        if self._on_close is not None:
            self._on_close(self)

    @property
    def carries_streams(self) -> bool:
        """May the bulk-data plane use this connection?  Only if the
        channel delivers in order, without loss."""
        return self._channel.ordered

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    @property
    def closing(self) -> bool:
        """True once an orderly goodbye started; new calls are refused
        (with :class:`ConnectionClosed`) while in-flight ones drain."""
        return self._closing

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<Connection to {self.peer_id} ({state})>"
