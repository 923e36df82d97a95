"""The reactor plane: selector threads owning every connection in a space.

The paper's 1993 runtime parked one reader thread per connection —
fine on a DECstation serving a handful of peers, fatal for a space
holding hundreds of mostly-idle inbound connections.  This module
replaces that with the classic reactor pattern: a small fixed pool of
I/O threads per :class:`~repro.core.space.Space`
(:class:`ReactorPool`, default ``min(4, cpu_count)`` shards) owns
every selectable channel through :mod:`selectors`, performs
incremental frame reassembly (:class:`~repro.wire.framing.FrameAssembler`
keeps PR 1's recv_into/one-allocation discipline), and hands each
completed frame to its connection's :class:`FrameSink` callbacks.
Thread count goes from O(connections) to O(shards) + dispatcher
workers, and a busy space is no longer capped at one core's worth of
frame processing: connections are assigned to the least-loaded shard
at registration and stay there for life, so per-channel state
(assembler, selector registration) remains single-threaded.

**The reactor thread never unpickles and never runs user code.**  A
sink's ``on_frame`` decodes the message *envelope* only and routes it:
replies complete a pending call future, requests go to the space's
dispatcher pool.  Anything that can block — unpickling (which may
issue nested dirty calls), method execution, GC acks — happens on a
worker or caller thread, exactly as it did under reader-per-connection,
so the formal-model GC obligations and protocol interop are untouched.

Transports with no kernel-pollable descriptor (in-process queues, the
simulated network) are bridged by :class:`ChannelPump`: one daemon
thread per connection blocking in ``channel.recv`` and invoking the
same sink callbacks, byte-for-byte the old reader-thread behaviour.
Connections therefore stay transport-blind — they implement FrameSink
and never ask which side of the bridge they live on.

The reactor also owns a timer wheel (:meth:`Reactor.add_timer`) used
for housekeeping ticks such as the connection cache's idle-TTL sweep,
and exports counters (``frames_in``, ``frames_out``, ``wakeups``,
``active_connections``) surfaced through ``Space.stats()``.
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


# -- inline-dispatch budget (the call fast lane) ------------------------------
#
# A @quick method runs directly on the thread that delivered its frame
# (reactor shard or channel pump), skipping both thread hand-offs of a
# normal dispatch.  That thread also serves every other connection on
# the shard, so inline work is budgeted per wall-clock window: within
# any INLINE_WINDOW_NS span at most INLINE_WINDOW_BUDGET_NS of inline
# CPU and INLINE_WINDOW_MAX_CALLS calls run; past either limit new
# frames fall back to the dispatcher until the window rolls over.  A
# single call overrunning INLINE_CALL_DEMOTE_NS additionally demotes
# its *binding* — a mis-marked blocking method stalls the shard at most
# once, then dispatches normally forever (see DESIGN.md, "The call
# fast lane", for the resulting starvation bound).

#: Budget window length.
INLINE_WINDOW_NS = 5_000_000        # 5 ms
#: Inline CPU allowed per window (half the window: frame I/O always
#: keeps at least half the shard's attention).
INLINE_WINDOW_BUDGET_NS = 2_500_000
#: Call-count ceiling per window, a backstop against clock-granularity
#: undercounting of very short calls.
INLINE_WINDOW_MAX_CALLS = 2048
#: Single-call overrun that permanently demotes the method binding.
INLINE_CALL_DEMOTE_NS = 1_000_000   # 1 ms


class FrameSink:
    """What the reactor delivers to (duck-typed; Connection implements
    this).  ``on_frame(payload)`` receives one complete frame —
    called on the reactor thread for selectable channels, on the pump
    thread otherwise, and must not block.  ``on_closed(failure)``
    fires exactly once when the stream ends: ``failure`` is ``None``
    for a clean end-of-stream and an exception for an abortive one.
    """

    def on_frame(self, payload) -> None:  # pragma: no cover - protocol
        raise NotImplementedError

    def on_closed(self, failure: Optional[Exception]) -> None:  # pragma: no cover
        raise NotImplementedError


class Timer:
    """A repeating reactor timer; ``cancel()`` is thread-safe and
    idempotent.  Callbacks run on the reactor thread and must not
    block — they are housekeeping ticks, not work."""

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


class Reactor:
    """One selector thread owning every selectable channel of a space.

    Thread-safety contract: ``start``/``stop``/``register``/
    ``call_soon``/``add_timer``/``request_write`` may be called from
    any thread; everything prefixed ``_on_thread`` (selector mutation,
    channel event dispatch, timer firing) happens only on the reactor
    thread.  Counter increments ride the GIL like the dispatcher's —
    best-effort exactness, same as every other stats field.
    """

    def __init__(self, name: str = "", index: int = 0):
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
        #: Stats counters (see Space.stats()).
        self.frames_in = 0
        self.frames_out = 0
        self.wakeups = 0
        self.inline_dispatches = 0
        # Inline budget window state (self-resetting on the clock, so
        # it needs no per-loop-turn hook and works identically for the
        # selector thread and ChannelPump threads sharing this shard).
        self._inline_window_start = 0
        self._inline_window_ns = 0
        self._inline_window_calls = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the I/O thread; closes any channel still registered."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self._wake()
        if self._thread.is_alive() and \
                threading.current_thread() is not self._thread:
            self._thread.join(timeout)

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
        """Run ``fn`` on the reactor thread at the next loop turn;
        False (and not queued) once the reactor has stopped."""
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
        """Schedule ``callback`` every ``interval`` seconds (reactor
        thread; keep it quick).  Returns a cancellable Timer."""
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
        """Unregister ``channel`` on the reactor thread, then run
        ``and_then`` (typically: release the file descriptor).  False
        if the reactor is stopped — the caller must clean up itself."""
        def drop():
            self._unregister_on_thread(channel)
            if and_then is not None:
                and_then()

        return self.call_soon(drop)

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
            "active_connections": self.active_connections,
            "paused_reads": len(self._read_paused),
        }

    # -- inline-dispatch budget (any frame-delivering thread) -----------------

    def try_acquire_inline(self) -> bool:
        """May one more call run inline right now?  Rolls the budget
        window over when it has expired.  Racy by design (GIL-ridden
        increments, like every counter here): the budget bounds inline
        work per window approximately, which is all the starvation
        argument needs."""
        now = time.perf_counter_ns()
        if now - self._inline_window_start >= INLINE_WINDOW_NS:
            self._inline_window_start = now
            self._inline_window_ns = 0
            self._inline_window_calls = 0
        return (
            self._inline_window_ns < INLINE_WINDOW_BUDGET_NS
            and self._inline_window_calls < INLINE_WINDOW_MAX_CALLS
        )

    def record_inline(self, elapsed_ns: int) -> bool:
        """Account one completed inline call; True when the call
        overran :data:`INLINE_CALL_DEMOTE_NS` and its binding should be
        demoted to the dispatcher."""
        self.inline_dispatches += 1
        self._inline_window_calls += 1
        self._inline_window_ns += elapsed_ns
        return elapsed_ns > INLINE_CALL_DEMOTE_NS

    # -- reactor thread -------------------------------------------------------

    def _run(self) -> None:
        try:
            while not self._stopped.is_set():
                timeout = self._next_timeout()
                events = self._selector.select(timeout)
                self.wakeups += 1
                for key, mask in events:
                    if key.data is None:
                        self._drain_wake()
                    else:
                        self._channel_event(key.data, mask)
                self._run_pending()
                self._fire_timers()
        except Exception:  # pragma: no cover - must never die silently
            logger.exception("reactor %s: I/O loop crashed", self.name)
        finally:
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
                channel.handle_readable()
            except Exception:  # noqa: BLE001
                logger.exception("reactor %s: readable handler failed",
                                 self.name)

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

    def _run_pending(self) -> None:
        while True:
            with self._lock:
                if not self._pending:
                    return
                fn = self._pending.popleft()
            try:
                fn()
            except Exception:  # noqa: BLE001 - scheduled work must not kill the loop
                logger.exception("reactor %s: scheduled call failed", self.name)

    def _fire_timers(self) -> None:
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
    """N reactors sharing a space's I/O load — one selector thread per
    shard, connections pinned to the least-loaded shard at
    registration.

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
    never migrates: its frame-assembly state and selector registration
    stay single-threaded for life, which is what keeps the whole plane
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
        self._reactors: List[Reactor] = [
            Reactor(name=f"{base}.{i}" if shards > 1 else base, index=i)
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
