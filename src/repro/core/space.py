"""The Space: one address space of the distributed system.

A ``Space`` owns every per-process structure of the paper's runtime —
object table, connection cache, dispatcher, the two halves of the
distributed collector, the cleanup daemon, the optional pinger and the
agent — and exposes the user-facing API:

    with Space("server", listen=["tcp://127.0.0.1:0"]) as server:
        server.serve("bank", BankImpl())

    with Space("client") as client:
        bank = client.import_object(server.endpoints[0], "bank")
        bank.deposit("alice", 100)

Everything a surrogate does funnels through :meth:`_invoke_remote`;
everything a peer asks of us funnels through :meth:`_handle_request`.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
import weakref
from types import FunctionType
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.leases import HeldLease, LeaseCache, LeaseTable
from repro.core.marshalctx import MarshalContext, decode_ref
from repro.core.netobj import NetObj, reads_method_set, remote_method_set
from repro.core.objtable import ExportedEntry, ObjectTable
from repro.core.surrogate import Surrogate
from repro.core.typecodes import (
    TypeRegistry,
    decode_scalar_args,
    decode_scalar_result,
    encode_scalar_args_into,
    encode_scalar_result_into,
    global_types,
    typechain,
)
from repro.dgc.client import DgcClient, TransientTable
from repro.dgc.config import GcConfig
from repro.dgc.daemon import CleanupDaemon
from repro.dgc.owner import DgcOwner
from repro.dgc.pinger import Pinger
from repro.errors import (
    CommFailure,
    ConnectionClosed,
    NetObjError,
    NoSuchMethodError,
    NoSuchObjectError,
    ProtocolError,
    ServerBusy,
    SpaceShutdownError,
    UnmarshalError,
    exception_for_fault,
)
from repro.dgc.states import RefState
from repro.marshal import tags
from repro.marshal.pickler import EMPTY_ARGS_PICKLE, NONE_PICKLE
from repro.marshal.snapshot import build_replica, snapshot_state
from repro.marshal.pool import MarshalPool
from repro.marshal.registry import StructRegistry, global_registry
from repro.naming.agent import Agent
from repro.rpc import messages
from repro.rpc.admission import (
    AdmissionConfig, AdmissionController, busy_backoff, retry_busy,
)
from repro.rpc.cache import ConnectionCache
from repro.rpc.connection import Connection
from repro.rpc.dispatcher import Dispatcher
from repro.rpc.futures import CallFuture, RemoteFuture
from repro.rpc.hotpath import HotpathProfile
from repro.rpc.streamplane import MAX_WINDOW, StreamStats
from repro.transport.base import Transport, TransportRegistry, split_endpoint
from repro.transport.inprocess import InProcessTransport
from repro.transport.reactor import (
    ReactorPool, current_loop, default_reactor_shards, run_was_fast,
    runtime_wait, start_run,
)
from repro.transport.shm import ShmTransport, rendezvous_path
from repro.transport.tcp import TcpTransport
from repro.wire.ids import SpaceID, fresh_space_id, intern_existing
from repro.wire.wirerep import SPECIAL_OBJECT_INDEX, WireRep

#: First byte of :data:`NONE_PICKLE`; a one-byte result pickle with
#: this tag short-circuits the reply unpickle in ``_invoke_remote``.
_NONE_TAG = tags.NONE

#: The keyword arguments of a CALL_FAST (typed scalars are positional).
_NO_KWARGS: dict = {}

#: A method is loop-served once this many of its runs on workers in a
#: row were fast ...
PROVEN_RUNS = 8
#: ... meaning each ended within this long and never waited in the
#: runtime.
FAST_RUN_NS = 500_000
#: A loop-served run that passes the loop on (it waited, or overran
#: the stall bound) sends its method back to the workers, and so do
#: this many loop-served runs in a row over ``FAST_RUN_NS``.  One
#: overrun alone proves nothing: a run's wall time also counts its
#: thread's waits for the GIL.
LOOP_OVERRUNS = 2

#: The requests the runtime answers without user code: always served
#: on the thread that read them.  A CLEAN_BATCH is not one of them: a
#: clean that drops an export frees whatever the object holds, work
#: of the object's size, so cleans are always served on workers
#: (served on the loop, they lifted ``bulk_stream``'s peak RSS from
#: 43 to 46-50 MiB).
_RUNTIME_FRAMES = frozenset({
    messages.Dirty, messages.CopyAck, messages.Ping,
    messages.LeaseInvalidate,
})


class _Pace:
    """How one method (or one class's lease grant) has run lately: its
    fast worker runs in a row, and its loop-served runs in a row that
    overran.  From :data:`PROVEN_RUNS` fast runs on, its requests are
    served on the reactor loop that reads them, until one such run
    passes the loop on or :data:`LOOP_OVERRUNS` of them overrun
    (:meth:`demote`)."""

    __slots__ = ("fast_runs", "overruns", "demotions")

    def __init__(self):
        self.fast_runs = 0
        self.overruns = 0
        self.demotions = 0

    def loop_run(self, elapsed_ns: int) -> None:
        """A loop-served run ended with the loop still here, so without
        a runtime wait."""
        if elapsed_ns < FAST_RUN_NS:
            self.overruns = 0
            return
        self.overruns += 1
        if self.overruns >= LOOP_OVERRUNS:
            self.demote()

    def demote(self) -> None:
        """Back to the workers until the method proves fast again."""
        self.fast_runs = 0
        self.overruns = 0
        self.demotions += 1


class _MethodBinding:
    """The server half of one interned ``(object, method)`` pair.

    Registered in ``connection.bound_methods`` when a CALL_BIND frame
    arrives; every later CALL_BOUND/CALL_FAST carrying the same method
    id skips wirerep decode, the owner check, the object-table lookup,
    the remote-surface check and the method-name string entirely.
    ``target`` is the wireRep the binding was made for (the per-target
    bulkhead key of its calls).  The binding caches the *entry* only weakly and
    the method as the plain function from the class dict: a strong
    entry (or bound method) would pin the object against the
    distributed collector for the life of the peer's connection, which
    would break the clean/drop story.  ``func`` is None for exotic
    descriptors (staticmethods, callable instance attributes) — those
    fall back to per-call ``getattr``.

    ``fault`` records a bind-time resolution failure as an
    ``(exception_class, message)`` pair replayed on every call — the
    same answer per-call resolution would keep giving.  ``pace`` is
    the space-wide :class:`_Pace` of the class's method (None with a
    fault: such calls stay on workers).
    """

    __slots__ = ("target", "entry_ref", "method", "func", "invalidates",
                 "fault", "pace")

    def __init__(self, target: WireRep, method: str):
        self.target = target
        self.entry_ref = _dead_ref
        self.method = method
        self.func = None
        self.invalidates = False
        self.fault = None
        self.pace: Optional[_Pace] = None


def _dead_ref():
    """Stands in for a weakref whose entry never resolved."""
    return None


def _publish_bind(connection: Connection, wirerep: WireRep, method: str,
                  method_id: int) -> None:
    """Client side: make a confirmed binding visible to later calls."""
    connection.method_ids.setdefault(wirerep, {}).setdefault(method, method_id)


class Space:
    """One address space: objects, connections and collector state."""

    def __init__(
        self,
        nickname: str = "",
        listen: Sequence[str] = (),
        transports: Optional[Sequence[Transport]] = None,
        types: Optional[TypeRegistry] = None,
        structs: Optional[StructRegistry] = None,
        gc: Optional[GcConfig] = None,
        call_timeout: float = 30.0,
        conn_idle_ttl: Optional[float] = None,
        reactor_shards: Optional[int] = None,
        dispatcher_max_workers: int = 256,
        shm: str = "auto",
        leases: str = "on",
        hotpath_profile: bool = False,
        agent: Optional[Agent] = None,
        admission=None,
    ):
        """``reactor_shards`` picks the I/O shard count (default
        ``min(4, cpu_count)``); ``dispatcher_max_workers`` caps the
        task pool; ``shm`` is ``"auto"`` (same-machine peers upgrade to
        the shared-memory transport when both sides run one) or
        ``"off"``; ``leases`` is ``"on"`` (read leases granted and
        used, for types that declare ``@reads`` methods) or ``"off"``
        (every read is an RPC);
        ``hotpath_profile`` turns on per-stage call-pipeline timing
        (see :mod:`repro.rpc.hotpath` — costs a few hundred ns per
        call, so it defaults to off); ``agent`` substitutes the name
        server exported at the special index (a
        :class:`~repro.naming.mesh.MeshAgent` turns this space into a
        naming-mesh replica); ``admission`` configures the bounded
        ingress pipeline — ``None`` enables it with the default
        :class:`~repro.rpc.admission.AdmissionConfig` budgets,
        ``"off"`` disables it entirely (unbounded ingress),
        and an :class:`~repro.rpc.admission.AdmissionConfig` (or a
        ready :class:`~repro.rpc.admission.AdmissionController`)
        customises the budgets."""
        self.space_id = fresh_space_id(nickname)
        # Wire decodes of our own identity (the owner field of every
        # incoming call target) then return this very instance, making
        # the serve path's owner check an ``is`` hit.
        intern_existing(self.space_id)
        self.nickname = nickname
        self.call_timeout = call_timeout
        self.gc_config = gc if gc is not None else GcConfig()
        self.types = types if types is not None else global_types
        self.structs = structs if structs is not None else global_registry

        shards = (max(1, reactor_shards) if reactor_shards is not None
                  else default_reactor_shards())
        self.reactor_shards = shards
        self._shm_mode = shm

        self.transports = TransportRegistry()
        if transports is None:
            transports = [
                InProcessTransport.default(),
                TcpTransport(listener_shards=shards),
            ]
            if shm != "off":
                transports = [*transports, ShmTransport()]
        for transport in transports:
            self.transports.add(transport)

        # The bounded ingress pipeline: one controller shared by every
        # connection of this space, so the budgets are per-space, not
        # per-channel.  ``"off"`` leaves ingress unbounded.
        if admission == "off":
            self.admission: Optional[AdmissionController] = None
        elif isinstance(admission, AdmissionController):
            self.admission = admission
        elif isinstance(admission, AdmissionConfig):
            self.admission = AdmissionController(admission)
        elif admission is None:
            self.admission = AdmissionController(AdmissionConfig())
        else:  # pragma: no cover - misuse
            raise TypeError(
                "admission must be None, 'off', an AdmissionConfig or "
                f"an AdmissionController (got {type(admission).__name__})"
            )
        admission_config = (
            self.admission.config if self.admission is not None else None
        )

        self.dispatcher = Dispatcher(
            name=nickname or str(self.space_id),
            max_workers=dispatcher_max_workers,
            shards=shards if shards > 1 else 0,
            max_queued=(admission_config.max_queued
                        if admission_config is not None else None),
            shard_queue_max=(admission_config.shard_queue_max
                             if admission_config is not None else None),
        )
        self._marshal = MarshalPool(self.structs)
        self.object_table = ObjectTable(self.space_id)
        self.transient = TransientTable()
        self.dgc_owner = DgcOwner(self.object_table)
        # Read leases: the owner half lives on exported
        # entries via ``lease_table``; the client half caches replicas
        # in ``lease_cache``.  The collector retires a holder's lease
        # whenever it leaves a dirty set (CLEAN or pinger purge) — the
        # lease ⊆ pdirty invariant.
        self._leases_enabled = leases != "off"
        self.lease_table = LeaseTable(self.gc_config.lease_ttl)
        self.lease_cache = LeaseCache()
        self.dgc_owner.retire_holder = self._retire_holder
        self.dgc_client = DgcClient(
            self.object_table, self.types, self._gc_request,
            self._invoke_remote, self.gc_config,
        )
        self.cleanup_daemon = CleanupDaemon(
            self.dgc_client, self.gc_config,
            name=f"gc-cleanup-{nickname or self.space_id.short()}",
        )

        #: CLEAN_BATCH frames sent (every clean frame).
        self.clean_batch_frames = 0

        # Call-fast-lane counters (surfaced as stats()["fastlane"];
        # inline_dispatches — requests served on a loop — lives on the
        # reactor shards, inline_demotions on the paces).
        self.methods_bound = 0
        self.fastlane_calls = 0
        self.fastlane_fallbacks = 0
        #: (class, method name) -> _Pace; a lease grant's name is None.
        self._paces: Dict[tuple, _Pace] = {}

        #: Bulk-data plane counters, shared by every connection's
        #: stream table (surfaced as stats()["streams"]).
        self.stream_stats = StreamStats()

        #: Per-stage hot-path buckets; instrumentation sites fire only
        #: when ``_hotpath`` is non-None (i.e. profiling was requested).
        self.hotpath = HotpathProfile()
        self._hotpath = self.hotpath if hotpath_profile else None

        self._listeners: List = []
        #: Same-machine side doors (shm rendezvous sockets), one per
        #: TCP listener.  Deliberately *not* in ``endpoints``: a
        #: marshaled reference must carry addresses any machine can
        #: dial, and shm discovery happens by convention
        #: (``rendezvous_path(port)``) instead.
        self._shm_listeners: List = []
        self._connections: set = set()
        self._conns_by_peer: Dict[SpaceID, List[Connection]] = {}
        self._conn_lock = threading.Lock()
        self._closed = threading.Event()

        # The space's I/O plane: ``reactor_shards`` selector threads,
        # started before any listener can accept.  Connections register
        # their channels with the pool, which pins each to the least
        # loaded shard; the cache's idle sweep rides shard 0's timer.
        self.reactor = ReactorPool(
            shards=shards, name=nickname or self.space_id.short()
        )
        self.reactor.start()

        # A connection to an owner whose objects we still reference
        # is never idle-reaped: the owner's pinger needs it.
        self.cache = ConnectionCache(
            self._dial, idle_ttl=conn_idle_ttl,
            upgrade=self._shm_upgrade if shm != "off" else None,
            held=self.dgc_client.holds_refs,
        )
        if admission_config is not None:
            self.cache.busy_strike_limit = admission_config.busy_strikes
        if conn_idle_ttl is not None:
            self._every(max(conn_idle_ttl / 4.0, 0.05), self.cache.sweep_idle)

        # The agent is the special object: pinned at index 0 so any
        # peer can bootstrap from just our endpoint.
        self.agent = agent if agent is not None else Agent()
        self.object_table.export(self.agent, pinned=True)
        bind_space = getattr(self.agent, "_bind_space", None)
        if bind_space is not None:
            bind_space(self)

        for endpoint in listen:
            self.add_listener(endpoint)

        self.pinger: Optional[Pinger] = None
        if self.gc_config.ping_interval is not None:
            self.pinger = Pinger(
                self.dgc_owner, self._ping_client, self.gc_config,
                closed=self._closed.is_set, on_purge=self._on_client_purged,
            )
            self._every(self.gc_config.ping_interval, self.pinger.round)
        ttl = self.gc_config.transient_ttl
        if ttl is not None:
            self._every(max(ttl / 4.0, 0.05), lambda: self._release_expired(ttl))

    def _every(self, interval: float, work: Callable[[], None]) -> None:
        """Periodic work (DESIGN.md): the timer only schedules, a worker
        runs ``work``, and a tick that finds it still running skips."""
        running = threading.Lock()

        def run() -> None:
            try:
                work()
            finally:
                running.release()

        def tick() -> None:
            if self._closed.is_set() or not running.acquire(blocking=False):
                return
            if not self.dispatcher.submit(run, force=True):
                running.release()

        self.reactor.add_timer(interval, tick)

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "Space":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Stop serving, close connections orderly, stop the daemons.

        Connections get a negotiated goodbye first: Bye, flush of any
        corked output, half-close — so peers observe our Bye and a
        clean end-of-stream rather than a reset that can destroy
        frames (including the Bye itself) still in kernel buffers.
        The wait for the peers' answering closes is bounded; whatever
        has not torn down by then is force-closed.  The reactor stops
        last, after every channel it owns is gone.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        agent_shutdown = getattr(self.agent, "_shutdown", None)
        if agent_shutdown is not None:
            agent_shutdown()
        self.cleanup_daemon.stop()
        for listener in (*self._listeners, *self._shm_listeners):
            listener.close()
        # Drain the dispatcher *before* the connection goodbyes: a
        # space quitting under overload must not execute its whole
        # backlog first, and each discarded task's on_shed hook sends
        # its waiting caller a BUSY reply — which only reaches the
        # peer while the connections are still open.  Tasks already
        # running keep their workers and reply normally.
        self.dispatcher.shutdown(discard_pending=True)
        with self._conn_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.begin_close()
        deadline = time.monotonic() + 1.0
        for connection in connections:
            connection.await_closed(max(0.0, deadline - time.monotonic()))
        self.cache.close_all()
        for connection in connections:
            connection.close(notify_peer=False)
        self.reactor.stop()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    @property
    def inline_demotions(self) -> int:
        """Loop-served runs that sent their method back to workers."""
        return sum(pace.demotions for pace in list(self._paces.values()))

    # -- listening ---------------------------------------------------------------

    def add_listener(self, endpoint: str) -> str:
        """Start listening on ``endpoint``; returns the concrete address.

        A TCP listener also opens the same-machine shm side door (a
        rendezvous socket derived from its port) when shm is enabled;
        failure to open it is non-fatal — the space simply stays
        TCP-only for local peers.
        """
        listener = self.transports.listen(endpoint, self._on_accept)
        self._listeners.append(listener)
        if self._shm_mode != "off" and "shm" in self.transports:
            try:
                scheme, rest = split_endpoint(listener.endpoint)
                if scheme == "tcp":
                    port = int(rest.rpartition(":")[2])
                    self._shm_listeners.append(self.transports.listen(
                        f"shm://{rendezvous_path(port)}", self._on_accept
                    ))
            except (CommFailure, ValueError):
                pass
        return listener.endpoint

    @property
    def endpoints(self) -> List[str]:
        return [listener.endpoint for listener in self._listeners]

    @property
    def public_endpoints(self) -> List[str]:
        """Endpoints embedded in marshaled references we own."""
        return self.endpoints

    # -- connections ---------------------------------------------------------------

    def _on_accept(self, channel) -> None:
        try:
            connection = Connection(
                channel, self.space_id, self.dispatcher,
                self._handle_request, on_close=self._on_conn_close,
                outbound=False,
                reactor=self.reactor, serve_here=self._serve_here,
                profile=self._hotpath, admission=self.admission,
                stream_stats=self.stream_stats,
            )
        except (CommFailure, ProtocolError):
            return
        self._track(connection)
        connection.start()

    def _shm_upgrade(self, endpoint: str) -> Optional[str]:
        """Map a loopback TCP endpoint to the peer's shm rendezvous
        socket, if one is parked at the conventional path.  Returns
        None when the endpoint isn't same-machine (or the side door
        isn't there) — the cache then dials the endpoint as given."""
        if "shm" not in self.transports:
            return None
        try:
            scheme, rest = split_endpoint(endpoint)
        except CommFailure:
            return None
        if scheme != "tcp":
            return None
        host, _, port_text = rest.rpartition(":")
        if host not in ("localhost", "::1") and not host.startswith("127."):
            return None
        try:
            int(port_text)
        except ValueError:
            return None
        path = rendezvous_path(int(port_text))
        if not os.path.exists(path):
            return None
        return f"shm://{path}"

    def _dial(self, endpoint: str) -> Connection:
        if self._closed.is_set():
            raise SpaceShutdownError("space is shut down")
        channel = self.transports.connect(endpoint)
        connection = Connection(
            channel, self.space_id, self.dispatcher,
            self._handle_request, on_close=self._on_conn_close,
            outbound=True,
            reactor=self.reactor, serve_here=self._serve_here,
            profile=self._hotpath, admission=self.admission,
            stream_stats=self.stream_stats,
        )
        self._track(connection)
        connection.start()
        return connection

    def _track(self, connection: Connection) -> None:
        with self._conn_lock:
            self._connections.add(connection)
            peers = self._conns_by_peer.setdefault(connection.peer_id, [])
            peers.append(connection)
        if self._closed.is_set():
            # An accept (or a dial raced by shutdown) landed after the
            # shutdown snapshot walked ``_connections``; nobody else
            # will ever close this connection, so do it here.  Closing
            # triggers ``_on_conn_close`` via the teardown hook.  (A
            # connection that has not started cannot have closed on
            # its own: nothing reads its channel yet.)
            connection.close()

    def _on_conn_close(self, connection: Connection) -> None:
        with self._conn_lock:
            self._connections.discard(connection)
            peers = self._conns_by_peer.get(connection.peer_id)
            if peers is not None:
                if connection in peers:
                    peers.remove(connection)
                if not peers:
                    del self._conns_by_peer[connection.peer_id]
        self.cache.evict(connection)

    def connection_to(self, peer: SpaceID) -> Optional[Connection]:
        """Any live connection to ``peer`` (used by the pinger)."""
        with self._conn_lock:
            for connection in self._conns_by_peer.get(peer, ()):
                if not connection.closed:
                    return connection
        return None

    def _conn_for_endpoints(self, endpoints: Sequence[str]) -> Connection:
        failure: Exception = CommFailure("reference carries no endpoints")
        # Endpoints that keep answering BUSY are tried last, so a
        # reference with replica choice prefers healthy replicas.
        for endpoint in self.cache.healthy_order(endpoints):
            try:
                return self.cache.get(endpoint)
            except (CommFailure, SpaceShutdownError) as exc:
                failure = exc
        raise failure

    def _codec_ctx(self, connection: Connection) -> MarshalContext:
        """The codec context for ``connection``, created once per
        connection — it is stateless (space + connection only), so one
        instance serves every message on every thread."""
        ctx = connection.marshal_ctx
        if ctx is None:
            ctx = connection.marshal_ctx = MarshalContext(self, connection)
        return ctx

    # -- outgoing invocations ---------------------------------------------------------

    def _invoke_remote(self, wirerep: WireRep, endpoints: Sequence[str],
                       method: str, args: tuple, kwargs: dict,
                       fastlane: bool = False, release: bool = False):
        """Entry point for every surrogate method call.

        The request is built in a single pooled frame buffer: envelope
        prefix first, then the args pickle (or, on the fast lane,
        the typed scalar encoding) streamed directly after it (see
        DESIGN.md, "Hot path & copy discipline").  ``fastlane`` is the
        surrogate's build-time verdict that ``method`` declares a
        scalar-only signature; the actual arguments are still checked
        per call and fall back to the pickle lane when they do not
        conform.  ``release`` is its verdict that ``method`` writes a
        leasable object: see :meth:`_release_before_write`.
        """
        if self._closed.is_set():
            raise SpaceShutdownError("space is shut down")
        profile = self._hotpath
        for retry in (False, True):
            connection = self._conn_for_endpoints(endpoints)
            if release:
                self._release_before_write(connection, wirerep)
            call_id = connection.next_call_id()
            buffer, pending_bind = self._encode_call(
                connection, call_id, wirerep, method, args, kwargs, fastlane
            )
            try:
                reply = connection.call_buffer(call_id, buffer,
                                               timeout=self.call_timeout)
            except ConnectionClosed:
                # The idle sweep (or a peer goodbye) closed this
                # connection between the cache lookup and the send —
                # e.g. while a large argument was marshalling.  The
                # peer never saw the call, so one fresh dial is safe.
                if retry:
                    raise
                continue
            except ServerBusy:
                # Strike the endpoint so healthy_order demotes it; the
                # *caller* decides whether to retry — writes are never
                # auto-retried (the shed guarantee says the call did
                # not run, but policy stays with the invoking layer).
                self.cache.note_busy(connection.endpoint)
                raise
            if self.cache._busy_strikes:
                self.cache.note_ok(connection.endpoint)
            if pending_bind is not None:
                # The CALL_BIND frame is on the wire (its reply proves
                # it), so a bound call published now can never overtake
                # its bind on the stream.
                _publish_bind(connection, *pending_bind)
            if profile is None:
                return self._decode_reply(connection, reply)
            start = time.perf_counter_ns()
            try:
                return self._decode_reply(connection, reply)
            finally:
                profile.decode_ns += time.perf_counter_ns() - start
                profile.decode_calls += 1

    def invoke_async(self, surrogate, method: str, *args, **kwargs
                     ) -> RemoteFuture:
        """Start ``surrogate.method(*args, **kwargs)`` without blocking.

        Returns a :class:`~repro.rpc.futures.RemoteFuture` whose
        ``result()`` yields the call's return value (or raises its
        exception).  Hundreds of invocations can be in flight on one
        connection — the reply frames complete the futures as they
        arrive, and the result pickle is decoded on the thread that
        first asks for it.  Most callers want :func:`repro.async_call`.
        """
        if not isinstance(surrogate, Surrogate):
            raise TypeError(
                "invoke_async needs a surrogate; local objects are "
                f"called directly (got {type(surrogate).__qualname__})"
            )
        if self._closed.is_set():
            raise SpaceShutdownError("space is shut down")
        for retry in (False, True):
            connection = self._conn_for_endpoints(surrogate._endpoints)
            if method in surrogate._lease_writes_:
                self._release_before_write(connection, surrogate._wirerep)
            call_id = connection.next_call_id()
            buffer, pending_bind = self._encode_call(
                connection, call_id, surrogate._wirerep, method, args,
                kwargs, method in surrogate._fastlane_methods_
            )
            try:
                future = connection.call_buffer_async(call_id, buffer)
            except ConnectionClosed:
                # See _invoke_remote: pre-send close, safe to redial.
                if retry:
                    raise
                continue
            if pending_bind is not None:
                # Published after the send, as in _invoke_remote.
                _publish_bind(connection, *pending_bind)
            return RemoteFuture(
                future, lambda reply, c=connection: self._decode_reply(c, reply)
            )

    def _encode_call(self, connection: Connection, call_id: int,
                     wirerep: WireRep, method: str, args: tuple,
                     kwargs: dict, fastlane: bool = False):
        """Build one request frame in a pooled buffer (caller owns it):
        CALL_BIND on a binding's first call, CALL_FAST or CALL_BOUND
        afterwards.

        Returns ``(buffer, pending_bind)``: ``pending_bind`` is the
        ``(wirerep, method, method_id)`` triple the caller must publish
        into ``connection.method_ids`` once the frame has been sent
        (None when no new binding was announced).
        """
        profile = self._hotpath
        start = time.perf_counter_ns() if profile is not None else 0
        buffer = connection.new_send_buffer()
        pending_bind = None
        fast = False
        try:
            bound = connection.method_ids.get(wirerep)
            method_id = bound.get(method) if bound is not None else None
            if method_id is None:
                # First call through this binding: the METHOD_BIND
                # announcement rides the call frame itself, so interning
                # never costs an extra round trip.  Concurrent first
                # calls each announce their own id — the peer registers
                # all of them and ``method_ids`` settles on whichever
                # send publishes first.
                method_id = connection.next_method_id()
                self.methods_bound += 1
                pending_bind = wirerep, method, method_id
                messages.BindCall.encode_prefix(
                    buffer, call_id, method_id, wirerep, method
                )
            else:
                if fastlane and not kwargs:
                    base = len(buffer)
                    messages.FastCall.encode_prefix(buffer, call_id,
                                                    method_id)
                    fast = encode_scalar_args_into(buffer, args)
                    if fast:
                        self.fastlane_calls += 1
                    else:
                        # The *signature* conforms but these arguments
                        # don't (a surrogate where a scalar was
                        # annotated, an int beyond 64 bits, ...):
                        # rewind and take the pickle lane per call.
                        del buffer[base:]
                        self.fastlane_fallbacks += 1
                if not fast:
                    messages.BoundCall.encode_prefix(buffer, call_id,
                                                     method_id)
            if not fast:
                self._pickle_args_into(connection, buffer, args, kwargs)
        except BaseException:
            connection.discard_send_buffer(buffer)
            raise
        if profile is not None:
            profile.encode_ns += time.perf_counter_ns() - start
            profile.encode_calls += 1
        return buffer, pending_bind

    def _pickle_args_into(self, connection: Connection, buffer: bytearray,
                          args: tuple, kwargs: dict) -> None:
        if not args and not kwargs:
            # Void-call fast path: ``((), {})`` has one canonical
            # encoding, so append it instead of running the pickler.
            buffer += EMPTY_ARGS_PICKLE
            return
        pickler = self._marshal.acquire_pickler(self._codec_ctx(connection))
        try:
            pickler.dump_into((args, kwargs), buffer)
        finally:
            self._marshal.release_pickler(pickler)

    def _decode_reply(self, connection: Connection,
                      reply: messages.Message):
        """Turn a reply message into the call's value (or exception)."""
        if type(reply) is messages.FastResult:
            # Typed scalar result: no pickle, no codec stack.
            return decode_scalar_result(reply.value_wire)
        if isinstance(reply, messages.Fault):
            raise self._fault_to_exception(reply)
        assert isinstance(reply, messages.Result)
        pickle = reply.result_pickle
        if len(pickle) == 1 and pickle[0] == _NONE_TAG:
            return None
        unpickler = self._marshal.acquire_unpickler(self._codec_ctx(connection))
        try:
            return unpickler.loads(pickle)
        finally:
            self._marshal.release_unpickler(unpickler)

    @staticmethod
    def _fault_to_exception(fault: messages.Fault) -> Exception:
        return exception_for_fault(fault.kind, fault.message,
                                   fault.remote_traceback)

    # -- read leases: client half ------------------------------------------------------

    def _invoke_read(self, surrogate: Surrogate, method: str, args: tuple,
                     kwargs: dict):
        """Invocation path of a ``@reads`` surrogate method.

        Serve from the lease-cached replica when one is held; acquire a
        lease on a miss; fall back to an ordinary remote invocation
        whenever leasing is off, denied, unavailable or the replica
        cannot run the method locally.
        """
        wirerep = surrogate._wirerep
        cache = self.lease_cache

        def remote_read():
            # @reads methods are idempotent by contract, so a BUSY shed
            # is retried after a jittered backoff (writes never are).
            return retry_busy(lambda: self._invoke_remote(
                wirerep, surrogate._endpoints, method, args, kwargs
            ))

        if (not self._leases_enabled
                or not cache.leasable(surrogate._surrogate_typecode_)):
            return remote_read()
        replica = cache.replica_for(wirerep)
        if replica is None:
            replica = self._acquire_lease(surrogate)
            if replica is None:
                return remote_read()
        try:
            return getattr(replica, method)(*args, **kwargs)
        except NotImplementedError:
            # The narrowed local class is a pure interface — its method
            # bodies are stubs.  This type cannot replicate here; stop
            # asking for leases on it and serve reads remotely.
            cache.mark_unleasable(surrogate._surrogate_typecode_)
            cache.drop(wirerep)
            return remote_read()

    def _acquire_lease(self, surrogate: Surrogate):
        """Ask the owner for a read lease; returns the replica or None.

        The holder-side expiry clock starts *before* the request is
        sent, so this replica always expires strictly earlier than the
        owner believes the lease does — an unreachable holder can be
        waited out safely by a writer.
        """
        if self._closed.is_set():
            return None
        cache = self.lease_cache
        wirerep = surrogate._wirerep
        if not cache.begin_acquire(wirerep):
            # Another reader's request is in flight; one RPC now beats
            # a duplicate grant (and the out-of-order registrations a
            # stampede of grants would produce).
            return None
        try:
            return self._request_lease(surrogate, wirerep)
        finally:
            cache.end_acquire(wirerep)

    def _request_lease(self, surrogate: Surrogate, wirerep: WireRep):
        cache = self.lease_cache
        try:
            connection = self._conn_for_endpoints(surrogate._endpoints)
        except (CommFailure, SpaceShutdownError):
            return None
        cache.lease_requests += 1
        ttl_ms = max(1, int(self.gc_config.lease_ttl * 1000))
        sent_at = time.monotonic()
        call_id = connection.next_call_id()
        prior = cache.last_lease_id(wirerep)
        if prior is not None:
            request = messages.LeaseRenew(call_id, wirerep, prior, ttl_ms)
        else:
            request = messages.LeaseReq(call_id, wirerep, ttl_ms)
        try:
            reply = connection.call(request, timeout=self.call_timeout)
        except ServerBusy as busy:
            # A lease acquire is idempotent: one jittered retry, then
            # give up and let the read fall back to a plain RPC (which
            # carries its own busy-retry policy).
            time.sleep(busy_backoff(busy.retry_after, 0))
            try:
                reply = connection.call(request, timeout=self.call_timeout)
            except NetObjError:
                return None
        except NetObjError:
            return None
        if not isinstance(reply, messages.LeaseGrant) or not reply.ok:
            if isinstance(reply, messages.LeaseGrant) \
                    and reply.error == "unleasable":
                # The owner's class declares no @reads methods; asking
                # again for this type is pointless.
                cache.mark_unleasable(surrogate._surrogate_typecode_)
            return None
        unpickler = self._marshal.acquire_unpickler(self._codec_ctx(connection))
        try:
            state = unpickler.loads(reply.snapshot_pickle)
        except NetObjError:
            # UnmarshalError, or a CommFailure from the nested dirty
            # call a surrogate inside the snapshot makes if its owner
            # died — either way the read falls back to a plain RPC.
            return None
        finally:
            self._marshal.release_unpickler(unpickler)
        replica = build_replica(
            self.types.class_for(surrogate._surrogate_typecode_), state
        )
        deadline = sent_at + reply.ttl_ms / 1000.0
        if not cache.register(wirerep, reply.lease_id, replica, deadline,
                              reply.version):
            return None  # invalidated or superseded while in flight
        return replica

    def _release_lease(self, connection: Connection, target: WireRep,
                       held: Optional[HeldLease]) -> None:
        """Tell the owner that ``held``, already dropped from the lease
        cache, is gone: it retires the lease without invalidating it."""
        if held is not None:
            try:
                connection.send(messages.LeaseRelease(target, held.lease_id))
            except CommFailure:
                pass  # owner gone; its lease dies with the connection

    def _release_before_write(self, connection: Connection,
                              target: WireRep) -> None:
        """Drop our replica of ``target`` and release its lease on the
        connection the write is about to take, so the owner has no
        lease of ours to invalidate (DESIGN.md, "Release-before-write")."""
        self._release_lease(connection, target, self.lease_cache.drop(target))

    # -- GC plumbing -------------------------------------------------------------------

    def _gc_request(self, endpoints: Sequence[str], kind: str, *,
                    target: Optional[WireRep] = None, seqno: int = 0,
                    entries: Sequence = ()):
        """Send collector traffic to an owner and await its ack(s).

        ``kind`` is "dirty" or "clean_batch".  Every clean rides a
        CLEAN_BATCH frame, a lone clean as a batch of one.
        """
        connection = self._conn_for_endpoints(endpoints)
        timeout = self.gc_config.gc_call_timeout
        if kind == "dirty":
            request = messages.Dirty(connection.next_call_id(), target, seqno)
            reply = connection.call(request, timeout=timeout)
            assert isinstance(reply, messages.DirtyAck)
            if not reply.ok:
                raise NoSuchObjectError(reply.error)
        elif kind == "clean_batch":
            # The lease goes with the reference: a resurrected
            # surrogate is never served defunct cached state.
            for entry_target, _seqno, _strong in entries:
                connection.method_ids.pop(entry_target, None)
                self._release_lease(connection, entry_target,
                                    self.lease_cache.forget(entry_target))
            # Cleans are idempotent (the seqno dedups at the owner), so
            # a BUSY shed is retried with backoff; a dirty above is
            # not — its caller owns the must-not-lose-the-ack policy.
            self.clean_batch_frames += 1
            reply = retry_busy(lambda: connection.call(
                messages.CleanBatch(connection.next_call_id(), tuple(entries)),
                timeout=timeout,
            ))
            assert isinstance(reply, messages.CleanBatchAck)
        else:  # pragma: no cover - internal misuse
            raise ValueError(f"unknown GC request kind {kind!r}")

    def _gc_dirty_async(self, endpoints: Sequence[str], target: WireRep,
                        seqno: int, on_done) -> None:
        """Send one dirty call without blocking.

        ``on_done(failure_or_None)`` runs exactly once when the ack
        lands (or the connection dies); an immediate send failure
        raises here instead and ``on_done`` is never invoked.  Used by
        the unmarshal path to pipeline the dirty calls of a message
        carrying several new references.
        """
        connection = self._conn_for_endpoints(endpoints)
        request = messages.Dirty(connection.next_call_id(), target, seqno)
        future = connection.call_async(request)

        def _finish(completed):
            failure = completed.exception(0)
            if failure is None:
                reply = completed.result(0)
                if isinstance(reply, messages.DirtyAck):
                    if not reply.ok:
                        failure = NoSuchObjectError(reply.error)
                elif isinstance(reply, messages.Fault):
                    failure = self._fault_to_exception(reply)
                else:
                    failure = ProtocolError(
                        "unexpected reply to dirty call: "
                        f"{type(reply).__name__}"
                    )
            on_done(failure)

        future.add_done_callback(_finish)

    def _prefetch_refs(self, following) -> None:
        """Pipeline the dirty calls of a multi-reference message.

        Runs on the decoding thread at the moment the unpickle meets a
        reference that needs a dirty call of its own (``following`` is
        the unpickler's scan of the bytes after it — a pickle that
        carries no new reference is never scanned).  The dirty calls of
        the later references new to this space are issued as futures
        right here, ahead of the synchronous one, collapsing k dirty
        round trips into ~1.  The unpickle then finds each entry
        already OK (or waits briefly on the in-flight dirty) and builds
        the surrogate as usual.  Dirty calls themselves stay
        synchronous per the formal model — only their mutual
        serialisation is removed.
        """
        fresh = []
        seen = set()
        client = self.dgc_client
        for payload in following():
            try:
                wirerep, _copy_id, endpoints, chain = decode_ref(payload)
            except UnmarshalError:
                return  # corrupt; the real decode reports it properly
            if wirerep.owner == self.space_id or wirerep in seen:
                continue
            seen.add(wirerep)
            entry = client.entry(wirerep)
            if entry is not None and (
                entry.dirty_in_progress
                or entry.state not in (RefState.NONEXISTENT, RefState.NIL)
            ):
                continue  # already usable or busy; nothing to hide
            fresh.append((wirerep, endpoints, chain))
        if fresh:
            client.prefetch_refs(fresh, self._gc_dirty_async)

    def _release_expired(self, ttl: float) -> None:
        """Expire transient pins whose copy_ack never came (the
        receiver presumably died mid-transfer); see
        GcConfig.transient_ttl."""
        for copy_id, pinned in self.transient.expire(ttl):
            self._unpin(copy_id, pinned)

    def _ping_client(self, client: SpaceID) -> Optional[CallFuture]:
        connection = self.connection_to(client)
        if connection is None:
            return None
        return connection.call_async(messages.Ping(connection.next_call_id()))

    def _on_client_purged(self, client: SpaceID) -> None:
        """Pinger hook: a client space is dead and its dirty-set
        entries are purged.  Sweep the agent's third-party
        registrations whose objects that space owned — a ``get`` of
        such a name could only hand out a surrogate doomed to
        :class:`CommFailure` — and refresh any agent leases so
        clients' cached tables drop the names too."""
        sweep = getattr(self.agent, "_sweep_owner", None)
        if sweep is None:
            return
        removed = sweep(client)
        if removed:
            self._invalidate_after_write(self.agent, "remove")

    # -- serving -----------------------------------------------------------------------

    def _handle_request(self, connection: Connection,
                        message: messages.Message) -> None:
        """A dispatcher worker serves ``message``, timing the run when
        its method is paced (see :meth:`_serve_here`)."""
        pace = self._pace_of(connection, message)
        if pace is None:
            self._serve(connection, message)
            return
        started = start_run()
        self._serve(connection, message)
        if run_was_fast(started, FAST_RUN_NS):
            pace.fast_runs += 1
        else:
            pace.fast_runs = 0

    def _serve_here(self, connection: Connection,
                    message: messages.Message) -> bool:
        """Connection hook, on the thread that read ``message``: True
        when the request was served right here (DESIGN.md, "Loop-served
        requests").

        The runtime's own frames always are, and a CALL_BIND registers
        its binding here, ahead of any later frame on the connection.
        A call or lease grant is served here when this thread runs a
        reactor loop and its kind has proven fast; a run that then
        waits in the runtime or overruns the stall bound passes the
        loop on, which sends the method back to the workers until it
        proves fast again, and so do :data:`LOOP_OVERRUNS` runs in a row
        over :data:`FAST_RUN_NS`.  LEASE_RELEASE is
        applied here too, so a holder's release beats its own write;
        the lease lock it takes is never held across a network wait."""
        mtype = type(message)
        if mtype in _RUNTIME_FRAMES:
            loop = current_loop()
            if loop is None:
                self._serve(connection, message)
            else:
                loop.serve(self._serve, connection, message)
            return True
        if mtype is messages.LeaseRelease:
            self._apply_lease_release(connection.peer_id, message)
            return True
        if mtype is messages.BindCall:
            self._register_binding(connection, message)
        pace = self._pace_of(connection, message)
        if pace is None or pace.fast_runs < PROVEN_RUNS:
            return False
        loop = current_loop()
        if loop is None:
            return False
        started = time.perf_counter_ns()
        if loop.serve(self._serve, connection, message, on_pass=pace.demote):
            pace.loop_run(time.perf_counter_ns() - started)
        return True

    def _pace_of(self, connection: Connection,
                 message: messages.Message) -> Optional[_Pace]:
        """The pace a call or lease grant is judged by; None for other
        requests and for calls that fault before any user code."""
        mtype = type(message)
        if mtype is messages.FastCall or mtype is messages.BoundCall \
                or mtype is messages.BindCall:
            binding = connection.bound_methods.get(message.method_id)
            return None if binding is None else binding.pace
        if mtype is messages.LeaseReq or mtype is messages.LeaseRenew:
            target = message.target
            entry = (self.object_table.exported_entry(target.index)
                     if target.owner == self.space_id else None)
            return None if entry is None else self._pace(type(entry.obj))
        return None

    def _pace(self, cls: type, method: Optional[str] = None) -> _Pace:
        """The pace of ``cls.method``; of a lease grant of ``cls`` with
        no method."""
        pace = self._paces.get((cls, method))
        if pace is None:
            pace = self._paces.setdefault((cls, method), _Pace())
        return pace

    def _serve(self, connection: Connection,
               message: messages.Message) -> None:
        # Call frames first: they are the hot path.  All three take the
        # one pipeline in ``_serve_call``; a CALL_BIND's binding was
        # registered when its frame was read.
        mtype = type(message)
        if mtype is messages.FastCall or mtype is messages.BoundCall \
                or mtype is messages.BindCall:
            self._serve_call(connection, message,
                             connection.bound_methods.get(message.method_id))
        elif isinstance(message, messages.Dirty):
            ok, error = self._apply_dirty(connection.peer_id, message)
            self._reply(connection, messages.DirtyAck(message.call_id, ok, error))
        elif isinstance(message, messages.CleanBatch):
            for target, seqno, strong in message.entries:
                self.dgc_owner.handle_clean(
                    connection.peer_id, target, seqno, strong
                )
            self._reply(connection, messages.CleanBatchAck(
                message.call_id, len(message.entries)
            ))
        elif isinstance(message, messages.CopyAck):
            self._apply_copy_ack(connection.peer_id, message)
        elif isinstance(message, messages.Ping):
            self._reply(connection, messages.PingAck(message.call_id))
        elif isinstance(message, (messages.LeaseReq, messages.LeaseRenew)):
            self._serve_lease(connection, message)
        elif isinstance(message, messages.LeaseInvalidate):
            # Holder side: drop the replica, then ack.  Ack ordering
            # matters — the writer's result is withheld until this ack,
            # so a reader here can never see pre-write cached state
            # after the writer's call returned.
            self.lease_cache.invalidate(message.target, message.lease_id)
            self._reply(connection,
                        messages.LeaseInvalidateAck(message.call_id))
        elif mtype is messages.StreamOpen:
            self._serve_stream_open(connection, message)
        # Unknown requests are dropped; replies are handled in Connection.

    def _retire_holder(self, entry: ExportedEntry, client: SpaceID) -> None:
        """``client`` left ``entry``'s dirty set (a clean that was not
        stale, or a purge): what it held *through* that reference goes
        with it — its read lease and, on each of its connections, its
        method bindings.  The collector calls this before the clean is
        acknowledged, so a re-import's CALL_BIND can only come after."""
        self.lease_table.retire(entry, client)
        with self._conn_lock:
            connections = list(self._conns_by_peer.get(client, ()))
        for connection in connections:
            for method_id in connection.bound_targets.pop(entry.index, ()):
                connection.bound_methods.pop(method_id, None)

    def _apply_dirty(self, peer: SpaceID, message: messages.Dirty):
        if message.target.owner != self.space_id:
            return False, f"not the owner of {message.target}"
        return self.dgc_owner.handle_dirty(peer, message.target, message.seqno)

    def _apply_copy_ack(self, peer: SpaceID,
                        message: messages.CopyAck) -> None:
        """Release the pin of the copy ``peer`` acknowledges — only if
        the copy went to ``peer``: another space cannot release it."""
        copy_id = message.copy_id
        pinned = self.transient.release(copy_id, peer)
        if pinned is not None:
            self._unpin(copy_id, pinned)

    def _unpin(self, copy_id: int, pinned: object) -> None:
        """Unwind what pinning a released copy recorded: the owner-side
        transient entry of the object it pinned, if we own that object.
        For a surrogate pin, dropping the strong reference is the whole
        release; local collection does the rest."""
        entry = self.object_table.exported_entry_for(pinned)
        if entry is not None and copy_id in entry.tdirty:
            self.dgc_owner.release_copy(
                self.object_table.wirerep_for(entry), copy_id
            )

    def _decode_args(self, connection: Connection, args_pickle):
        if args_pickle == EMPTY_ARGS_PICKLE:
            # Mirror of the void-call fast path in _invoke_remote.
            return (), {}
        profile = self._hotpath
        start = time.perf_counter_ns() if profile is not None else 0
        unpickler = self._marshal.acquire_unpickler(
            self._codec_ctx(connection)
        )
        try:
            return unpickler.loads(args_pickle)
        finally:
            self._marshal.release_unpickler(unpickler)
            if profile is not None:
                profile.decode_ns += time.perf_counter_ns() - start
                profile.decode_calls += 1

    def _serve_stream_open(self, connection: Connection,
                           message: messages.StreamOpen) -> None:
        """STREAM_OPEN: resolve the stream object and hand it to
        the connection's stream table, which starts the pump (reader)
        or the drainer (writer).  The object must offer the method the
        plane will call as part of its remote surface — a stream frame
        reaches nothing a CALL could not."""
        writing = message.direction == messages.STREAM_WRITE
        try:
            if writing and message.credit > MAX_WINDOW:
                raise ProtocolError(
                    f"write window of {message.credit} bytes exceeds "
                    f"{MAX_WINDOW}")
            obj = self._resolve_entry(message.target).obj
            self._check_method(type(obj), "write" if writing else "read")
        except NetObjError as exc:
            connection.streams.refuse(
                message.stream_id, type(exc).__name__, str(exc))
            return
        connection.streams.start(message.stream_id, obj)

    # -- the call pipeline: CALL_BIND, CALL_BOUND, CALL_FAST --------------------------

    def _register_binding(self, connection: Connection,
                          message: messages.BindCall) -> _MethodBinding:
        """CALL_BIND: intern ``method_id`` for this connection.

        Resolution runs once, here; a failure is recorded in the
        binding and replayed as a fault on every call through it —
        the same answer per-call resolution would keep giving (a
        dropped object's index is never reused, and a class's remote
        surface is fixed at definition time).
        """
        name = message.method
        binding = _MethodBinding(message.target, name)
        try:
            entry = self._resolve_entry(message.target)
            cls = type(entry.obj)
            self._check_method(cls, name)
        except NetObjError as exc:
            binding.fault = (type(exc), str(exc))
        else:
            binding.entry_ref = weakref.ref(entry)
            # The attribute as the class dict holds it: ``getattr``
            # would unwrap a staticmethod into a plain function that
            # must not be handed ``obj``.
            raw = next((klass.__dict__[name] for klass in cls.__mro__
                        if name in klass.__dict__), None)
            if type(raw) is FunctionType:
                # Ordinary def: calling ``func(obj, *args)`` is exactly
                # ``obj.method(*args)`` minus the per-call bound-method
                # allocation.
                binding.func = raw
            binding.pace = self._pace(cls, name)
            reads = reads_method_set(cls)
            binding.invalidates = bool(reads) and name not in reads
        connection.bound_methods[message.method_id] = binding
        connection.bound_targets.setdefault(message.target.index, []).append(
            message.method_id)
        connection.bound_high = max(connection.bound_high, message.method_id)
        return binding

    @staticmethod
    def _bound_object(connection: Connection, method_id: int,
                      binding: Optional[_MethodBinding]) -> NetObj:
        """The object a call through ``method_id`` targets.

        Raises the binding's recorded bind-time fault, NoSuchMethodError
        for an id never bound on this connection, or NoSuchObjectError
        once the binding was evicted (the peer's clean) or its entry's
        weakref died (the collector reclaimed the object)."""
        if binding is None:
            if method_id > connection.bound_high:
                raise NoSuchMethodError(
                    f"unknown method binding {method_id} "
                    "(bound call without a preceding CALL_BIND)"
                )
            entry = None  # bound once, evicted with the peer's clean
        elif binding.fault is not None:
            raise binding.fault[0](binding.fault[1])
        else:
            entry = binding.entry_ref()
        if entry is None:
            raise NoSuchObjectError(
                f"object bound to method id {method_id} "
                "is no longer exported"
            )
        return entry.obj

    def _serve_call(self, connection: Connection, call,
                    binding: Optional[_MethodBinding]) -> None:
        """Serve one call: binding → decode args → run → invalidate →
        encode, for every call frame.

        The frame type decides only two things: CALL_FAST carries typed
        scalar arguments (no unpickling, so no nested dirty call) and
        is answered with RESULT_FAST when the value allows it;
        CALL_BIND and CALL_BOUND carry an args pickle and get a pickled
        RESULT.  Every failure is a FAULT."""
        try:
            obj = self._bound_object(connection, call.method_id, binding)
            fast = type(call) is messages.FastCall
            if fast:
                args, kwargs = decode_scalar_args(call.args_wire), _NO_KWARGS
            else:
                args, kwargs = self._decode_args(connection, call.args_pickle)
            func = binding.func
            profile = self._hotpath
            if profile is not None:
                start = time.perf_counter_ns()
            if func is not None:
                result = func(obj, *args, **kwargs)
            else:
                result = getattr(obj, binding.method)(*args, **kwargs)
            if profile is not None:
                profile.user_code_ns += time.perf_counter_ns() - start
                profile.user_code_calls += 1
            if self._leases_enabled and binding.invalidates:
                self._invalidate_after_write(obj, binding.method)
            self._send_result(connection, call.call_id, result, fast)
            return
        except NetObjError as exc:
            reply = messages.Fault(
                call.call_id, type(exc).__name__, str(exc), ""
            )
        except Exception as exc:  # noqa: BLE001 - application exception
            reply = messages.Fault(
                call.call_id, type(exc).__name__, str(exc),
                traceback.format_exc(),
            )
        self._reply(connection, reply)

    def _send_result(self, connection: Connection, call_id: int,
                     result: object, fast: bool) -> None:
        """Encode and send a call's result as one frame buffer (mirror
        image of :meth:`_encode_call`): RESULT_FAST when ``fast`` and
        the value is scalar, a pickled RESULT otherwise — the frames
        are self-describing, so the client needs no foreknowledge of
        which lane the result took."""
        buffer = connection.new_send_buffer()
        if fast:
            base = len(buffer)
            messages.FastResult.encode_prefix(buffer, call_id)
            fast = encode_scalar_result_into(buffer, result)
            if not fast:
                # A fast-lane method returned a non-scalar (a
                # reference, a struct...): rewind to the pickle lane.
                del buffer[base:]
        if not fast:
            messages.Result.encode_prefix(buffer, call_id)
            if result is None:
                buffer += NONE_PICKLE
            else:
                pickler = self._marshal.acquire_pickler(
                    self._codec_ctx(connection))
                try:
                    pickler.dump_into(result, buffer)
                except BaseException:
                    connection.discard_send_buffer(buffer)
                    raise
                finally:
                    self._marshal.release_pickler(pickler)
        try:
            connection.send_buffer(buffer)
        except CommFailure:
            pass  # peer vanished; nothing to tell it

    # -- read leases: owner half -------------------------------------------------------

    def _serve_lease(self, connection: Connection, message) -> None:
        """Grant (or deny) a read lease: LEASE_REQ / LEASE_RENEW.

        The grant frame is built like a result frame — envelope prefix,
        then the state pickle streamed into the same buffer — but the
        snapshot runs *inside* the lease-table critical section, so it
        is atomic with respect to the write path's invalidation
        collect: a concurrent write either sees this lease registered
        (and invalidates it) or the snapshot captures the post-write
        state.  Never called under the collector's lock (lock order is
        lease lock → DgcOwner lock; the pickle may record copy pins).
        """
        holder = connection.peer_id
        target = message.target
        entry = None
        deny = None
        if not self._leases_enabled:
            deny = "leasing disabled"
        elif target.owner != self.space_id:
            deny = f"not the owner of {target}"
        else:
            entry = self.object_table.exported_entry(target.index)
            if entry is None:
                deny = f"no such object: {target}"
            elif not reads_method_set(type(entry.obj)):
                deny = "unleasable"
            elif holder not in entry.pdirty:
                # Lease ⊆ pdirty: a holder must be registered with the
                # collector first, so purge/CLEAN provably retire every
                # lease.  (Unlocked read: a racing clean is caught by
                # the retirement hook after the grant registers.)
                deny = "holder not in dirty set"
        if deny is not None:
            self.lease_table.leases_denied += 1
            self._reply(connection, messages.LeaseGrant(
                message.call_id, False, 0, 0, 0, deny, b""
            ))
            return
        if isinstance(message, messages.LeaseRenew):
            self.lease_table.retire_by_id(entry, holder, message.lease_id)
        ttl = min(message.ttl_ms / 1000.0, self.gc_config.lease_ttl)
        ttl_ms = max(1, int(ttl * 1000))
        buffer = connection.new_send_buffer()
        pickler = self._marshal.acquire_pickler(self._codec_ctx(connection))
        obj = entry.obj

        def snapshot(lease) -> None:
            messages.LeaseGrant.encode_prefix(
                buffer, message.call_id, True, lease.lease_id, ttl_ms,
                lease.version, "",
            )
            pickler.dump_into(snapshot_state(obj), buffer)

        try:
            with self.lease_table.lock:
                self.lease_table.grant(entry, holder, ttl, snapshot)
        except Exception as exc:  # noqa: BLE001 - unpicklable state etc.
            connection.discard_send_buffer(buffer)
            self.lease_table.leases_denied += 1
            self._reply(connection, messages.LeaseGrant(
                message.call_id, False, 0, 0, 0,
                f"snapshot failed: {exc}", b"",
            ))
            return
        finally:
            self._marshal.release_pickler(pickler)
        try:
            connection.send_buffer(buffer)
        except CommFailure:
            pass  # holder vanished; its lease expires on its own

    def _apply_lease_release(self, peer: SpaceID,
                             message: messages.LeaseRelease) -> None:
        if message.target.owner != self.space_id:
            return
        entry = self.object_table.exported_entry(message.target.index)
        if entry is not None:
            self.lease_table.retire_by_id(entry, peer, message.lease_id)

    def _invalidate_after_write(self, obj: NetObj, method_name: str) -> None:
        """Write-path invalidation: runs after the mutation, before its
        result frame is released.

        Every live lease holder gets a LEASE_INVALIDATE and the result
        is withheld until each has acked — or, for an unreachable
        holder, until the owner-side lease deadline has passed (the
        holder's own clock expired the replica strictly earlier, see
        :meth:`_acquire_lease`).  Either way, once the writer's call
        returns no reader anywhere can observe pre-write cached state.
        """
        reads = reads_method_set(type(obj))
        if not reads or method_name in reads:
            return  # not a leasable type, or a read — nothing to do
        entry = self.object_table.exported_entry_for(obj)
        if entry is None:
            return
        live = self.lease_table.begin_write(entry)
        if not live:
            return
        wirerep = self.object_table.wirerep_for(entry)
        version = entry.lease_version
        sends = []
        for lease in live:
            peer_conn = self.connection_to(lease.holder)
            future = None
            if peer_conn is not None:
                request = messages.LeaseInvalidate(
                    peer_conn.next_call_id(), wirerep, lease.lease_id,
                    version,
                )
                try:
                    future = peer_conn.call_async(request)
                except NetObjError:
                    future = None
            sends.append((lease, future))
        slack = self.gc_config.lease_invalidate_slack
        for lease, future in sends:
            if future is not None:
                budget = max(0.0, lease.remaining()) + slack
                if future.exception(budget) is None:
                    self.lease_table.retire(entry, lease.holder, lease)
                    continue
            # Unreachable (or unresponsive) holder: wait out the
            # owner-side deadline; the replica is already dead at the
            # holder by then.
            remaining = lease.remaining()
            if remaining > 0:
                runtime_wait()
                time.sleep(remaining)
            self.lease_table.retire(entry, lease.holder, lease)

    def _resolve_entry(self, target: WireRep) -> ExportedEntry:
        if target.owner != self.space_id:
            raise NoSuchObjectError(f"not the owner of {target}")
        entry = self.object_table.exported_entry(target.index)
        if entry is None:
            raise NoSuchObjectError(f"no such object: {target}")
        return entry

    @staticmethod
    def _check_method(cls: type, name: str) -> None:
        if name not in remote_method_set(cls):
            raise NoSuchMethodError(
                f"{cls.__qualname__} has no remote method {name!r}"
            )

    def _reply(self, connection: Connection, message) -> None:
        try:
            connection.send(message)
        except CommFailure:
            pass  # peer vanished; nothing to tell it

    # -- public API ----------------------------------------------------------------------

    def serve(self, name: str, obj: NetObj) -> None:
        """Publish ``obj`` under ``name`` in this space's agent."""
        if not isinstance(obj, NetObj):
            raise TypeError(
                f"serve() needs a NetObj, got {type(obj).__qualname__}"
            )
        self.agent.put(name, obj)
        # A local mutation bypasses the remote-call write path, so
        # clients holding a lease on the agent must be refreshed here.
        self._invalidate_after_write(self.agent, "put")

    def unserve(self, name: str) -> None:
        self.agent.remove(name)
        self._invalidate_after_write(self.agent, "remove")

    def import_object(self, endpoint: str, name: Optional[str] = None):
        """Bootstrap from a peer: its agent, or the object it serves
        under ``name``.

        This is the only way to obtain a first reference into another
        space; every further reference arrives through method calls.
        """
        if self._closed.is_set():
            raise SpaceShutdownError("space is shut down")
        connection = self.cache.get(endpoint)
        if connection.peer_id == self.space_id:
            return self.agent if name is None else self.agent.get(name)
        agent_rep = WireRep(connection.peer_id, SPECIAL_OBJECT_INDEX)
        agent_chain = tuple(typechain(Agent))
        agent_surrogate = self.dgc_client.acquire_ref(
            agent_rep, (endpoint,), agent_chain
        )
        if name is None:
            return agent_surrogate
        return agent_surrogate.get(name)

    # -- diagnostics ----------------------------------------------------------------------

    def stats(self) -> dict:
        """One snapshot of every subsystem's counters.

        The diagnostics front door: ``stats()["gc"]`` replaces direct
        ``gc_stats()`` access in tests and benchmarks, and the other
        sections expose the admission pipeline (``admission``: frames
        admitted/shed by stage, read pauses/resumes, backlog sheds —
        or ``{"enabled": False}`` with ``admission="off"``), the
        dispatcher pool, the connection cache, the reactor
        (``frames_in``/``frames_out``/``wakeups``/
        ``active_connections``/``paused_reads``), the call fast lane
        (``fastlane``: methods bound, fast-lane calls and per-call
        fallbacks, inline dispatches/demotions), the per-stage
        hot-path profile (``hotpath``, all-zero unless the space was
        built with ``hotpath_profile=True``) and the name service
        (``naming``: ``mode`` single/mesh, entries; a mesh replica
        adds gossip rounds, entries synced, elections, failovers) and
        the bulk-data plane (``streams``: streams opened/active,
        chunks and bytes each way, credit stalls, RPC fallbacks,
        cancelled reads).
        """
        reactor = self.reactor.stats()
        with self._conn_lock:
            active_streams = sum(
                connection.streams.active for connection in self._connections
            )
        return {
            "admission": (
                self.admission.stats() if self.admission is not None
                else {"enabled": False}
            ),
            "naming": self.agent.naming_stats(),
            "gc": self.gc_stats(),
            "dispatcher": self.dispatcher.stats(),
            "cache": self.cache.stats(),
            "reactor": reactor,
            "marshal": self._marshal.stats(),
            "leases": self.lease_stats(),
            "fastlane": {
                "methods_bound": self.methods_bound,
                "fastlane_calls": self.fastlane_calls,
                "fastlane_fallbacks": self.fastlane_fallbacks,
                "inline_dispatches": reactor["inline_dispatches"],
                "inline_demotions": self.inline_demotions,
            },
            "hotpath": self.hotpath.stats(
                enabled=self._hotpath is not None
            ),
            "streams": self.stream_stats.snapshot(active=active_streams),
        }

    def lease_stats(self) -> dict:
        """Owner- and client-side read-lease counters, merged (the two
        halves share no key names)."""
        return {**self.lease_table.stats(), **self.lease_cache.stats()}

    def gc_stats(self) -> dict:
        """A snapshot of collector counters (tests and benchmarks)."""
        return {
            "exported": self.object_table.exported_count(),
            "surrogates": self.dgc_client.live_surrogates(),
            "ref_entries": self.dgc_client.entry_count(),
            "transient_pins": len(self.transient),
            "dirty_calls_sent": self.dgc_client.dirty_calls_sent,
            "clean_calls_sent": self.dgc_client.clean_calls_sent,
            "dirty_calls_seen": self.dgc_owner.dirty_calls_seen,
            "clean_calls_seen": self.dgc_owner.clean_calls_seen,
            "objects_dropped": self.dgc_owner.objects_dropped,
            "resurrections": self.dgc_client.resurrections,
            "dropped_tasks": self.dispatcher.tasks_failed,
            "saturated_submits": self.dispatcher.saturated_submits,
            "failed_cleans": self.cleanup_daemon.cleans_failed,
            "clean_batches_sent": self.clean_batch_frames,
            "pings_sent": getattr(self.pinger, "pings_sent", 0),
            "clients_purged": getattr(self.pinger, "clients_purged", 0),
            "transients_expired": self.transient.expired_total,
        }

    def __repr__(self) -> str:
        return f"<Space {self.space_id} endpoints={self.endpoints}>"


def async_call(method, *args, **kwargs) -> RemoteFuture:
    """Start ``surrogate.method(*args, **kwargs)`` without blocking.

    ``method`` must be a bound method of a surrogate::

        future = repro.async_call(bank.deposit, "alice", 100)
        ...
        future.result()

    Returns a :class:`~repro.rpc.futures.RemoteFuture`; see
    :meth:`Space.invoke_async`.  Calling it with anything but a bound
    surrogate method raises TypeError — local objects don't need it.
    """
    surrogate = getattr(method, "__self__", None)
    if not isinstance(surrogate, Surrogate):
        raise TypeError(
            "async_call needs a bound surrogate method, got "
            f"{method!r}"
        )
    space = getattr(surrogate._invoker, "__self__", None)
    if not isinstance(space, Space):
        raise TypeError(
            f"surrogate {surrogate!r} is not attached to a Space"
        )
    return space.invoke_async(surrogate, method.__name__, *args, **kwargs)


#: Re-exported for the package root.
__all__ = ["GcConfig", "Space", "async_call"]
