"""The reactor plane: selector loops owning every connection in a space.

The paper's 1993 runtime parked one reader thread per connection —
fine on a DECstation serving a handful of peers, fatal for a space
holding hundreds of mostly-idle inbound connections.  This module
replaces that with the classic reactor pattern: a small fixed pool of
select loops per :class:`~repro.core.space.Space`
(:class:`ReactorPool`, default ``min(4, cpu_count)`` shards) owns
every selectable channel through :mod:`selectors`.  A channel reads
each readable event with one ``recv``, cuts every complete frame out
of it and returns them; the loop hands each frame to its connection's
:class:`FrameSink` callbacks.  Thread count goes from O(connections) to O(shards) +
dispatcher workers, and a busy space is no longer capped at one
core's worth of frame processing: connections are assigned to the
least-loaded shard at registration and stay there for life, so
per-channel state (read buffer, selector registration) is only ever
touched by the thread that holds the shard's loop.

**A loop never waits for the network, and runs user code only for
requests that have proven fast.**  A sink's ``on_frame`` decodes the
message envelope and routes it: replies complete a pending call
future; the frames the runtime answers without user code (DIRTY,
COPY_ACK, PING, LEASE_INVALIDATE) are served right there, and so are
calls and lease grants whose recent worker runs were all fast
(:meth:`Reactor.serve`); everything else goes to the space's
dispatcher workers.  The loop is a *role* that can move
between threads: before any runtime wait (:func:`runtime_wait` — a
reply future, an invalidation ack, a dirty call made while
unpickling, a dial) and whenever one request has held the loop for
:data:`STALL_HANDOFF_S` (the pool's :class:`_StallGuard`), the loop
passes to a fresh thread and the request finishes off the loop.  So
no request can stall its shard for long, or wait for a reply that
only its own loop would read.  Frames read but not yet delivered wait
in the loop's own queue, which the next holder delivers first; the
channels know nothing of hand-offs.

Transports with no kernel-pollable descriptor (in-process queues, the
simulated network) are bridged by :class:`ChannelPump`: one daemon
thread per connection blocking in ``channel.recv`` and invoking the
same sink callbacks, byte-for-byte the old reader-thread behaviour.
A pump is not a loop: it serves the runtime's own frames, and sends
every call to the workers.

The reactor also owns a timer wheel (:meth:`Reactor.add_timer`) used
for housekeeping ticks such as the connection cache's idle-TTL sweep,
and exports counters (``frames_in``, ``frames_out``, ``wakeups``,
``active_connections``, ``inline_dispatches``, ``loop_handoffs``,
``stall_handoffs``) surfaced through ``Space.stats()``.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import selectors
import socket
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.errors import CommFailure
from repro.transport.base import Channel, SelectableChannel

logger = logging.getLogger("repro.transport.reactor")


#: How long one loop-served request may hold its shard's loop before
#: the stall guard passes the loop to another thread.
STALL_HANDOFF_S = 0.002

#: How long the stall guard stays parked without a loop-served
#: request before its thread ends.
_GUARD_PARK_S = 0.1


class _LoopState(threading.local):
    #: The reactor whose loop this thread runs (None off any loop).
    reactor: Optional["Reactor"] = None
    #: Set by :func:`runtime_wait` since the last :func:`start_run`.
    waited = False


_loop_state = _LoopState()


def current_loop() -> Optional["Reactor"]:
    """The reactor whose select loop the calling thread runs, if any."""
    return _loop_state.reactor


def runtime_wait() -> None:
    """The runtime is about to block on the network (a reply future,
    an ack, a dial): mark the current run as one that waited, and pass
    on any loop this thread holds, so the frames the wait needs are
    still read."""
    state = _loop_state
    state.waited = True
    reactor = state.reactor
    if reactor is not None:
        reactor._pass_loop()


def start_run() -> int:
    """Start timing one request on this thread; returns the stamp for
    :func:`run_was_fast`."""
    _loop_state.waited = False
    return time.perf_counter_ns()


def run_was_fast(started: int, limit_ns: int) -> bool:
    """Did the run begun at ``started`` end within ``limit_ns`` without
    a runtime wait?"""
    return (not _loop_state.waited
            and time.perf_counter_ns() - started < limit_ns)


class FrameSink:
    """What the reactor delivers to (duck-typed; Connection implements
    this).  ``on_frame(payload)`` receives one complete frame — called
    on the loop for selectable channels, on the pump thread otherwise.
    It never waits for the network; it may serve a request on the loop
    through :meth:`Reactor.serve`.  ``on_closed(failure)`` fires
    exactly once when the stream ends: ``failure`` is ``None`` for a
    clean end-of-stream and an exception for an abortive one.
    """

    def on_frame(self, payload) -> None:  # pragma: no cover - protocol
        raise NotImplementedError

    def on_closed(self, failure: Optional[Exception]) -> None:  # pragma: no cover
        raise NotImplementedError


class Timer:
    """A repeating reactor timer; ``cancel()`` is thread-safe and
    idempotent.  Callbacks run on the loop and must not block — they
    are housekeeping ticks, not work."""

    __slots__ = ("interval", "callback", "_cancelled")

    def __init__(self, interval: float, callback: Callable[[], None]):
        self.interval = interval
        self.callback = callback
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class ChannelPump:
    """Bridges a blocking :class:`Channel` into FrameSink callbacks.

    One daemon thread per connection calling ``channel.recv()`` — the
    adapter that keeps datagram-style transports (inproc queues, the
    simulated network) working under the reactor regime with frame
    delivery order and teardown semantics identical to the old
    per-connection reader thread.  ``recv() is None`` means clean
    end-of-stream (``on_closed(None)``); a :class:`CommFailure` from
    the channel is an abortive close.
    """

    def __init__(self, channel: Channel, sink, name: str = "pump",
                 reactor: Optional["Reactor"] = None,
                 gate: Optional[threading.Event] = None):
        self._channel = channel
        self._sink = sink
        self._reactor = reactor
        # Admission control's read-throttle for pumped transports: when
        # the sink's credit budget is exhausted the gate is cleared and
        # the pump parks here instead of pulling more frames — the
        # pumped-path analogue of dropping selector read interest.
        # Teardown must set the gate so a parked pump can exit.
        self._gate = gate
        self._thread = threading.Thread(
            target=self._run, name=f"{name}-pump", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        failure: Optional[Exception] = None
        reactor = self._reactor
        gate = self._gate
        try:
            while True:
                if gate is not None and not gate.is_set():
                    gate.wait()
                frame = self._channel.recv()
                if frame is None:
                    break
                if reactor is not None:
                    reactor.frames_in += 1
                self._sink.on_frame(frame)
        except CommFailure as exc:
            failure = exc
        finally:
            if reactor is not None:
                reactor._pump_finished(self)
            self._sink.on_closed(failure)


class _StallGuard:
    """Passes a shard's loop on when one loop-served request has held
    it for :data:`STALL_HANDOFF_S`.

    One thread per :class:`ReactorPool`, started by a loop-served
    request when none runs — an idle space runs none.  While requests
    keep coming it samples each shard's request in progress once per
    stall bound, sleeping until that request's deadline; the first
    sample that finds nothing served since the one before parks it
    until the next loop-served request wakes it, and a tenth of a
    second parked ends it.  So a loop pays one attribute read per
    request while the guard samples, and the guard wakes about once
    per burst of loop-served requests, not once per stall bound, when
    they are sparse."""

    def __init__(self, name: str):
        self._name = name
        self._reactors: List["Reactor"] = []
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._stopped = False
        #: True while the guard samples; read unlocked by every
        #: loop-served request (see :meth:`arm`).
        self.running = False

    def watch(self, reactor: "Reactor") -> None:
        self._reactors.append(reactor)

    def arm(self) -> None:
        """A loop-served request started while the guard was parked or
        ended."""
        with self._lock:
            if self._stopped or self.running:
                return
            self.running = True
            if self._thread is not None:
                self._wake.set()
                return
            self._thread = threading.Thread(
                target=self._run, name=f"reactor-{self._name}-guard",
                daemon=True,
            )
            self._thread.start()

    def stop(self) -> None:
        with self._lock:
            self._stopped = True
            thread = self._thread
        self._wake.set()
        if thread is not None and thread is not threading.current_thread():
            thread.join(1.0)

    def _run(self) -> None:
        seen = -1
        while not self._stopped:
            now = time.perf_counter()
            pause = STALL_HANDOFF_S
            served = 0
            serving = False
            for reactor in self._reactors:
                served += reactor.inline_dispatches
                seq, since = reactor._serving_seq, reactor._serving_since
                if since is None:
                    continue
                serving = True
                left = since + STALL_HANDOFF_S - now
                if left <= 0:
                    reactor._pass_loop(stalled=seq)
                else:
                    pause = min(pause, left)
            if serving or served != seen:
                seen = served
                time.sleep(pause)
                continue
            # Quiet since the last sample: park.  A request that starts
            # after ``running`` is cleared sees it and wakes us; one
            # that started before is seen by the next sample.
            with self._lock:
                self.running = False
                self._wake.clear()
            if any(r._serving_since is not None for r in self._reactors):
                self.arm()
                continue
            woken = self._wake.wait(_GUARD_PARK_S)
            with self._lock:
                if not woken and not self.running:
                    self._thread = None
                    return


class Reactor:
    """One select loop owning every selectable channel of a shard.

    The loop is a role, not a thread: it runs on ``_thread`` until a
    loop-served request hands it to a fresh thread (:meth:`_pass_loop`)
    and finishes off the loop.  ``generation`` counts hand-offs; a
    thread that finds it moved on while it served has lost the loop
    and must touch no loop or channel state again.  Channels append
    what they read to ``_ready``, which the holder drains one call at
    a time, so a hand-off in the middle of a read leaves the rest of
    it queued for the next holder.

    Thread-safety contract: ``start``/``stop``/``register``/
    ``call_soon``/``add_timer``/``request_write`` may be called from
    any thread; everything prefixed ``_on_thread`` (selector mutation,
    channel event dispatch, timer firing) happens only on the thread
    holding the loop.  Counter increments ride the GIL like the
    dispatcher's — best-effort exactness, same as every other stats
    field.
    """

    def __init__(self, name: str = "", index: int = 0,
                 guard: Optional[_StallGuard] = None):
        self.name = name or "reactor"
        #: Shard number within a :class:`ReactorPool` (0 standalone).
        #: Connections use it to route dispatcher work to their
        #: shard's local deque.
        self.index = index
        #: Channels/pumps assigned to this reactor, counted eagerly at
        #: registration (before the deferred selector work runs) so a
        #: burst of registrations spreads across a pool instead of all
        #: picking the same momentarily-empty shard.
        self._assigned = 0
        self._selector = selectors.DefaultSelector()
        # Self-pipe (socketpair for portability): call_soon from other
        # threads writes one byte to pop the selector out of its wait.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ, None)
        self._lock = threading.Lock()
        self._pending: deque = deque()
        self._wake_armed = False
        self._timers: List = []  # heap of (deadline, seq, Timer)
        self._timer_seq = itertools.count()
        self._interest: Dict[SelectableChannel, int] = {}
        # Channels whose read interest is dropped by admission control.
        # A fully-quiet channel (paused, nothing to write) cannot stay
        # in the selector with an empty mask — selectors reject a zero
        # event set — so it is *unregistered* while remaining in
        # ``_interest`` with mask 0, and re-registered on resume.
        self._read_paused: set = set()
        self._pumps: set = set()
        self._stopped = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"reactor-{self.name}", daemon=True
        )
        # The loop role (see the class docstring).  ``_role_lock``
        # orders a hand-off against the end of the request it
        # interrupts.  ``_ready`` holds the ``(callback, argument)``
        # deliveries the channels read (see
        # SelectableChannel.handle_readable); it belongs to the holder.
        self._role_lock = threading.Lock()
        self.generation = 0
        self._loop_done = False
        self._ready: deque = deque()
        #: The loop-served request in progress (its start, on the
        #: ``perf_counter`` clock) and a count that tells requests
        #: apart; read by the stall guard.
        self._serving_since: Optional[float] = None
        self._serving_seq = 0
        self._serving_pass: Optional[Callable[[], None]] = None
        self._owns_guard = guard is None
        self._guard = guard if guard is not None else _StallGuard(self.name)
        self._guard.watch(self)
        #: Stats counters (see Space.stats()).
        self.frames_in = 0
        self.frames_out = 0
        self.wakeups = 0
        #: Requests served on this loop (:meth:`serve`).
        self.inline_dispatches = 0
        #: Loop hand-offs before a runtime wait, and by the stall guard.
        self.loop_handoffs = 0
        self.stall_handoffs = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the loop; closes any channel still registered."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self._wake()
        if self._owns_guard:
            self._guard.stop()
        deadline = _now() + timeout
        while True:
            # Join whichever thread holds the loop, again if it moved
            # on while we waited.
            holder = self._thread
            if holder is threading.current_thread() or not holder.is_alive():
                return
            holder.join(max(0.0, deadline - _now()))
            if self._thread is holder or _now() >= deadline:
                return

    @property
    def alive(self) -> bool:
        return not self._stopped.is_set()

    # -- registration (any thread) --------------------------------------------

    def register(self, channel: Channel, sink, name: str = "conn") -> "Reactor":
        """Own ``channel``: selector-driven if it is selectable, pumped
        by a bridge thread otherwise.  Frames flow to ``sink`` either
        way.  Returns the reactor that owns the channel (itself; a
        :class:`ReactorPool` returns the chosen shard)."""
        with self._lock:
            self._assigned += 1
        if isinstance(channel, SelectableChannel):
            channel.attach_reactor(self, sink)
            if not self.call_soon(lambda: self._register_on_thread(channel)):
                # Raced by stop(): the channel never joined the
                # selector, so it never will be unassigned either.
                with self._lock:
                    self._assigned -= 1
        else:
            pump = ChannelPump(channel, sink, name=name, reactor=self,
                               gate=getattr(sink, "recv_gate", None))
            with self._lock:
                self._pumps.add(pump)
            pump.start()
        return self

    def call_soon(self, fn: Callable[[], None]) -> bool:
        """Run ``fn`` on the loop at its next turn; False (and not
        queued) once the reactor has stopped."""
        with self._lock:
            if self._stopped.is_set():
                return False
            self._pending.append(fn)
            if self._wake_armed or \
                    threading.current_thread() is self._thread:
                return True
            self._wake_armed = True
        self._wake()
        return True

    def add_timer(self, interval: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` every ``interval`` seconds (on the
        loop; keep it quick).  Returns a cancellable Timer."""
        timer = Timer(interval, callback)
        monotonic = _now()

        def arm():
            heapq.heappush(
                self._timers,
                (monotonic + interval, next(self._timer_seq), timer),
            )

        self.call_soon(arm)
        return timer

    def request_write(self, channel: SelectableChannel) -> None:
        """A nonblocking send left a backlog: poll ``channel`` for
        writability until it drains (cleared by the event handler once
        ``wants_write`` goes False)."""
        self.call_soon(lambda: self._update_interest(channel))

    def pause_read(self, channel: SelectableChannel) -> None:
        """Admission control: stop reading ``channel`` until
        :meth:`resume_read`.  Unread bytes back up in the kernel socket
        buffer and flow-control the peer through TCP — the reactor
        buffers nothing.  Idempotent; safe from any thread."""
        def apply():
            self._read_paused.add(channel)
            self._update_interest(channel)
        self.call_soon(apply)

    def resume_read(self, channel: SelectableChannel) -> None:
        """Undo :meth:`pause_read` once the connection's queued work
        drains below its low-water mark."""
        def apply():
            self._read_paused.discard(channel)
            self._update_interest(channel)
        self.call_soon(apply)

    def forget(self, channel: SelectableChannel,
               and_then: Optional[Callable[[], None]] = None) -> bool:
        """Unregister ``channel`` on the loop, then run ``and_then``
        (typically: release the file descriptor).  False if the
        reactor is stopped — the caller must clean up itself."""
        def drop():
            self._unregister_on_thread(channel)
            if and_then is not None:
                and_then()

        return self.call_soon(drop)

    # -- serving on the loop --------------------------------------------------

    def serve(self, work: Callable, *args,
              on_pass: Optional[Callable[[], None]] = None) -> bool:
        """Run ``work(*args)`` — one request — on the loop, which the
        calling thread must hold.  True when it finished with the loop
        still here; False when the loop passed to another thread
        meanwhile (a runtime wait, or the stall guard), so the request
        finished off the loop and this thread must return at once.
        ``on_pass`` runs at the moment of such a hand-off, before the
        request's reply can have left."""
        self.inline_dispatches += 1
        self._serving_seq += 1
        self._serving_pass = on_pass
        self._serving_since = time.perf_counter()
        if not self._guard.running:
            self._guard.arm()
        holder = self._thread
        try:
            work(*args)
        except Exception:  # noqa: BLE001 - a request must not kill the loop
            logger.exception("reactor %s: request failed", self.name)
        finally:
            with self._role_lock:
                kept = self._thread is holder
                if kept:
                    self._serving_since = None
                    self._serving_pass = None
        return kept

    def _pass_loop(self, stalled: Optional[int] = None) -> bool:
        """Hand the loop to a fresh thread.  Called by the holder before
        a runtime wait (``stalled`` None), or by the stall guard for
        the request numbered ``stalled``; False when there is nothing
        to pass (not the holder, the request ended, the loop ended)."""
        with self._role_lock:
            if self._loop_done:
                return False
            if stalled is None:
                if self._thread is not threading.current_thread():
                    return False
                self.loop_handoffs += 1
            else:
                if self._serving_seq != stalled \
                        or self._serving_since is None:
                    return False
                self.stall_handoffs += 1
            self._serving_since = None
            on_pass, self._serving_pass = self._serving_pass, None
            self.generation += 1
            thread = threading.Thread(
                target=self._run, name=f"reactor-{self.name}", daemon=True
            )
            self._thread = thread
        if stalled is None:
            _loop_state.reactor = None
        if on_pass is not None:
            on_pass()
        thread.start()
        return True

    # -- stats ----------------------------------------------------------------

    @property
    def load(self) -> int:
        """Channels assigned to this reactor, counted at registration
        time (eager — see ``_assigned``).  The pool's placement key."""
        with self._lock:
            return self._assigned

    @property
    def active_connections(self) -> int:
        with self._lock:
            return len(self._interest) + len(self._pumps)

    def stats(self) -> dict:
        return {
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
            "wakeups": self.wakeups,
            "inline_dispatches": self.inline_dispatches,
            "loop_handoffs": self.loop_handoffs,
            "stall_handoffs": self.stall_handoffs,
            "active_connections": self.active_connections,
            "paused_reads": len(self._read_paused),
        }

    # -- the loop -------------------------------------------------------------

    def _run(self) -> None:
        _loop_state.reactor = self
        generation = self.generation
        try:
            while not self._stopped.is_set():
                # First what the previous holder read but did not
                # deliver before it passed the loop on.
                if not self._deliver(generation):
                    return
                events = self._selector.select(self._next_timeout())
                self.wakeups += 1
                for key, mask in events:
                    channel = key.data
                    if channel is None:
                        self._drain_wake()
                        continue
                    self._channel_event(channel, mask)
                    if not self._deliver(generation):
                        return  # events left over are reported again
                if not self._run_pending(generation) \
                        or not self._fire_timers(generation):
                    return
        except Exception:  # pragma: no cover - must never die silently
            logger.exception("reactor %s: I/O loop crashed", self.name)
        finally:
            self._retire(generation)

    def _retire(self, generation: int) -> None:
        """A loop thread exits: after a hand-off it just leaves; the
        last holder shuts the loop down."""
        _loop_state.reactor = None
        with self._role_lock:
            if self.generation != generation:
                return
            self._loop_done = True
        self._shutdown_on_thread()

    def _next_timeout(self) -> Optional[float]:
        while self._timers and self._timers[0][2].cancelled:
            heapq.heappop(self._timers)
        if not self._timers:
            return None
        return max(0.0, self._timers[0][0] - _now())

    def _drain_wake(self) -> None:
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:  # pragma: no cover - wake pipe died with us
            pass
        with self._lock:
            self._wake_armed = False

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\x00")
        except (BlockingIOError, InterruptedError):
            pass  # pipe already full: the loop is waking anyway
        except OSError:  # pragma: no cover - raced by close
            pass

    def _channel_event(self, channel: SelectableChannel, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            try:
                more = channel.handle_writable()
            except Exception:  # noqa: BLE001 - one channel must not kill the loop
                logger.exception("reactor %s: writable handler failed",
                                 self.name)
                more = False
            if not more:
                self._update_interest(channel)
        if mask & selectors.EVENT_READ:
            try:
                channel.handle_readable(self._ready)
            except Exception:  # noqa: BLE001
                logger.exception("reactor %s: readable handler failed",
                                 self.name)

    def _deliver(self, generation: int) -> bool:
        """Make the deliveries the channels read, in order; False once
        the loop has moved on (the rest stay queued for the holder)."""
        ready = self._ready
        while self.generation == generation:
            if not ready:
                return True
            callback, argument = ready.popleft()
            try:
                callback(argument)
            except Exception:  # noqa: BLE001 - one frame must not kill the loop
                logger.exception("reactor %s: frame delivery failed",
                                 self.name)
        return False

    def _wanted_events(self, channel: SelectableChannel) -> int:
        events = 0
        if channel not in self._read_paused:
            events |= selectors.EVENT_READ
        if channel.wants_write():
            events |= selectors.EVENT_WRITE
        return events

    def _register_on_thread(self, channel: SelectableChannel) -> None:
        events = self._wanted_events(channel)
        with self._lock:
            if channel in self._interest:
                return
            self._interest[channel] = events
        if events == 0:
            # Paused before it ever joined the selector: tracked with
            # an empty mask, registered for real on resume.
            return
        try:
            self._selector.register(channel, events, channel)
        except (ValueError, OSError) as exc:
            with self._lock:
                self._interest.pop(channel, None)
                self._assigned -= 1
            logger.debug("reactor %s: register failed: %s", self.name, exc)

    def _unregister_on_thread(self, channel: SelectableChannel) -> None:
        self._read_paused.discard(channel)
        with self._lock:
            current = self._interest.pop(channel, None)
            if current is not None:
                self._assigned -= 1
        if not current:
            # Unknown, or tracked with an empty mask (read-paused and
            # nothing to write) — not in the selector either way.
            return
        try:
            self._selector.unregister(channel)
        except (KeyError, ValueError, OSError):  # pragma: no cover - raced
            pass

    def _update_interest(self, channel: SelectableChannel) -> None:
        wanted = self._wanted_events(channel)
        with self._lock:
            current = self._interest.get(channel)
            if current is None or current == wanted:
                return
            self._interest[channel] = wanted
        # A selector entry cannot carry an empty event mask, so the
        # zero transitions are register/unregister, not modify.
        try:
            if current == 0:
                self._selector.register(channel, wanted, channel)
            elif wanted == 0:
                self._selector.unregister(channel)
            else:
                self._selector.modify(channel, wanted, channel)
        except (KeyError, ValueError, OSError):  # pragma: no cover - raced
            pass

    def _run_pending(self, generation: int) -> bool:
        """Run scheduled calls; False once the loop has moved on."""
        while True:
            with self._lock:
                if not self._pending:
                    return True
                fn = self._pending.popleft()
            try:
                fn()
            except Exception:  # noqa: BLE001 - scheduled work must not kill the loop
                logger.exception("reactor %s: scheduled call failed", self.name)
            if self.generation != generation:
                return False

    def _fire_timers(self, generation: int) -> bool:
        """Fire due timers; False once the loop has moved on."""
        now = _now()
        while self._timers and self._timers[0][0] <= now:
            _deadline, _seq, timer = heapq.heappop(self._timers)
            if timer.cancelled:
                continue
            try:
                timer.callback()
            except Exception:  # noqa: BLE001
                logger.exception("reactor %s: timer callback failed", self.name)
            heapq.heappush(
                self._timers,
                (now + timer.interval, next(self._timer_seq), timer),
            )
            if self.generation != generation:
                return False
        return True

    def _pump_finished(self, pump: ChannelPump) -> None:
        with self._lock:
            if pump in self._pumps:
                self._pumps.discard(pump)
                self._assigned -= 1

    def _shutdown_on_thread(self) -> None:
        # Channels still registered at stop (stragglers the owning
        # space failed to close) are closed here so their descriptors
        # and flush waiters are released.
        with self._lock:
            leftovers = list(self._interest)
            self._interest.clear()
            pending = list(self._pending)
            self._pending.clear()
        for channel in leftovers:
            try:
                self._selector.unregister(channel)
            except (KeyError, ValueError, OSError):
                pass
            try:
                channel.close()
            except CommFailure:
                pass
        self._ready.clear()
        for fn in pending:
            try:
                fn()
            except Exception:  # noqa: BLE001
                logger.exception("reactor %s: late scheduled call failed",
                                 self.name)
        try:
            self._selector.unregister(self._wake_recv)
        except (KeyError, ValueError, OSError):
            pass
        self._selector.close()
        self._wake_recv.close()
        self._wake_send.close()


class ReactorPool:
    """N reactors sharing a space's I/O load — one select loop per
    shard, connections pinned to the least-loaded shard at
    registration, and one stall guard watching every shard.

    The pool presents the same surface a single :class:`Reactor` did
    (``register``/``add_timer``/``stop``/``stats``/``alive``/
    ``active_connections``), so the owning
    :class:`~repro.core.space.Space` and its
    :class:`~repro.rpc.cache.ConnectionCache` are shard-blind.
    ``register`` returns the chosen shard; a
    :class:`~repro.rpc.connection.Connection` keeps that handle for
    its per-shard counters and for routing incoming requests to the
    dispatcher's matching local deque.

    Placement is least-loaded by *assigned* channel count (eager, so a
    registration burst interleaves across shards instead of piling
    onto one), with the lowest shard index breaking ties.  A channel
    never migrates: its read buffer and selector registration belong
    to its shard's loop for life, which is what keeps the whole plane
    lock-free on the per-channel hot path.

    Timers arm on shard 0 — housekeeping (the connection cache's idle
    sweep, the collector's ping rounds and transient sweep) does not
    need spreading.  ``frames_out`` on the pool itself
    counts frames sent before a connection is registered (handshake
    traffic); per-shard counters take over afterwards.
    """

    def __init__(self, shards: int = 1, name: str = ""):
        shards = max(1, int(shards))
        base = name or "pool"
        self._guard = _StallGuard(base)
        self._reactors: List[Reactor] = [
            Reactor(name=f"{base}.{i}" if shards > 1 else base, index=i,
                    guard=self._guard)
            for i in range(shards)
        ]
        self._lock = threading.Lock()
        #: Handshake-time frame sends (see class docstring).
        self.frames_out = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        for reactor in self._reactors:
            reactor.start()

    def stop(self, timeout: float = 5.0) -> None:
        for reactor in self._reactors:
            reactor.stop(timeout)
        self._guard.stop()

    @property
    def alive(self) -> bool:
        return all(reactor.alive for reactor in self._reactors)

    @property
    def shards(self) -> int:
        return len(self._reactors)

    @property
    def reactors(self) -> "List[Reactor]":
        """The shards, indexed by ``Reactor.index`` (read-only use)."""
        return list(self._reactors)

    # -- registration ----------------------------------------------------------

    def pick(self) -> Reactor:
        """The least-loaded shard, where the next channel belongs."""
        with self._lock:
            # min() on the eager load keeps a registration burst from
            # racing every pick onto the momentarily-least shard; the
            # pool lock serialises the reads against each other.
            return min(self._reactors, key=lambda r: (r.load, r.index))

    def register(self, channel: Channel, sink, name: str = "conn") -> Reactor:
        """Assign ``channel`` to the least-loaded shard; returns it."""
        return self.pick().register(channel, sink, name=name)

    def add_timer(self, interval: float, callback: Callable[[], None]) -> Timer:
        return self._reactors[0].add_timer(interval, callback)

    # -- stats ----------------------------------------------------------------

    @property
    def active_connections(self) -> int:
        return sum(r.active_connections for r in self._reactors)

    def stats(self) -> dict:
        per_shard = [reactor.stats() for reactor in self._reactors]
        return {
            "frames_in": sum(s["frames_in"] for s in per_shard),
            "frames_out": self.frames_out
            + sum(s["frames_out"] for s in per_shard),
            "wakeups": sum(s["wakeups"] for s in per_shard),
            "inline_dispatches": sum(
                s["inline_dispatches"] for s in per_shard
            ),
            "loop_handoffs": sum(s["loop_handoffs"] for s in per_shard),
            "stall_handoffs": sum(s["stall_handoffs"] for s in per_shard),
            "active_connections": sum(
                s["active_connections"] for s in per_shard
            ),
            "paused_reads": sum(s["paused_reads"] for s in per_shard),
            "shards": len(per_shard),
            "per_shard": per_shard,
        }


def default_reactor_shards() -> int:
    """The default I/O shard count: ``min(4, cpu_count)``.  One shard
    per core up to four — beyond that, selector threads contend on the
    GIL faster than they drain sockets."""
    try:
        import os

        cpus = os.cpu_count() or 1
    except Exception:  # pragma: no cover - platform oddity
        cpus = 1
    return max(1, min(4, cpus))


def _now() -> float:
    return time.monotonic()
