"""Connection caching.

The paper's runtime caches one connection per peer and multiplexes
calls over it; establishing a connection (TCP handshake + HELLO
exchange) is far more expensive than a call, which experiment E8
quantifies.  The cache is keyed by endpoint; a broken connection is
evicted by its ``on_close`` callback and the next call reconnects.

With an ``idle_ttl`` the cache also *reaps*: a periodic sweep (armed
by the owning space on its reactor's timer) orderly-closes any cached
connection unused for longer than the TTL — unless the space still
holds references to the peer's objects: the peer's pinger probes the
space over that connection, and a reaped one would look like a dead
client (the owner purges it).  The eviction-vs-in-flight
race is resolved at two levels: ``get`` refreshes the last-use stamp
under the cache lock, so only endpoints quiet for a full TTL are
candidates, and the final close goes through
``Connection.try_close_idle``, whose pending-table check is atomic —
a connection with calls in flight is put back instead of closed.  The
one window left open is a caller that obtained the connection from
``get`` and then stalls for longer than the TTL before sending (e.g.
marshalling a huge argument); such a call fails pre-send with
:class:`~repro.errors.ConnectionClosed` — nothing went on the wire —
and the space's invoke path retries it once on a fresh dial.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.errors import CommFailure, SpaceShutdownError
from repro.rpc.connection import Connection
from repro.transport.reactor import runtime_wait
from repro.wire.ids import SpaceID


class ConnectionCache:
    """One cached connection per endpoint (see module docstring)."""
    def __init__(self, connect: Callable[[str], Connection],
                 idle_ttl: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic,
                 upgrade: Optional[Callable[[str], Optional[str]]] = None,
                 held: Optional[Callable[[SpaceID], bool]] = None):
        """``connect(endpoint)`` must build a handshaken Connection.
        ``idle_ttl`` of None disables reaping; ``clock`` is injectable
        so tests can age connections without sleeping.  ``upgrade``
        may map an endpoint to a preferred alternate (the space wires
        in same-machine shm discovery here); a dial tries the
        alternate first and falls back to the original on failure, and
        the cache entry stays keyed by the *original* endpoint either
        way.  ``held(peer_id)`` is true while the space references the
        peer's objects; such a connection is never idle-reaped."""
        self._connect = connect
        self._upgrade = upgrade
        self._held = held
        self._connections: Dict[str, Connection] = {}
        self._locks: Dict[str, threading.Lock] = {}
        self._last_used: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._shutdown = False
        self.idle_ttl = idle_ttl
        self._clock = clock
        #: Connections orderly-closed by the idle sweep.
        self.idle_reaped = 0
        #: Successful dials (cache misses that built a connection).
        self.dials = 0
        #: Dials that landed on the upgraded (e.g. shm) endpoint.
        self.upgraded_dials = 0
        #: Endpoint-health strikes: consecutive ServerBusy replies per
        #: endpoint (reset by the first non-busy completion).  Read by
        #: :meth:`healthy_order` to demote overloaded endpoints.
        self._busy_strikes: Dict[str, int] = {}
        #: How many strikes demote an endpoint (mirrors
        #: ``AdmissionConfig.busy_strikes``; the space sets it).
        self.busy_strike_limit = 3
        #: Times an endpoint crossed the strike limit.
        self.busy_demotions = 0

    # -- endpoint health -------------------------------------------------

    def note_busy(self, endpoint: Optional[str]) -> None:
        """Record a ServerBusy from ``endpoint``; repeated strikes
        demote it in :meth:`healthy_order`."""
        if endpoint is None:
            return
        with self._lock:
            strikes = self._busy_strikes.get(endpoint, 0) + 1
            self._busy_strikes[endpoint] = strikes
            if strikes == self.busy_strike_limit:
                self.busy_demotions += 1

    def note_ok(self, endpoint: Optional[str]) -> None:
        """A successful completion clears the endpoint's strikes."""
        if endpoint is None or not self._busy_strikes:
            return
        with self._lock:
            self._busy_strikes.pop(endpoint, None)

    def healthy_order(self, endpoints):
        """Stable-sort ``endpoints``, demoted (strike-limit) ones
        last — callers with replica choice try healthy replicas
        first."""
        if not self._busy_strikes or len(endpoints) < 2:
            return list(endpoints)
        with self._lock:
            limit = self.busy_strike_limit
            return sorted(
                endpoints,
                key=lambda e: self._busy_strikes.get(e, 0) >= limit,
            )

    def get(self, endpoint: str) -> Connection:
        """Return a live cached connection, creating one if needed."""
        with self._lock:
            if self._shutdown:
                raise SpaceShutdownError("space is shut down")
            existing = self._connections.get(endpoint)
            if (existing is not None and not existing.closed
                    and not existing.closing):
                self._last_used[endpoint] = self._clock()
                return existing
            per_endpoint = self._locks.setdefault(endpoint, threading.Lock())
        # Serialise dials per endpoint but not across endpoints.  A dial
        # (or the wait for another thread's) blocks on the network.
        runtime_wait()
        with per_endpoint:
            with self._lock:
                existing = self._connections.get(endpoint)
                if (existing is not None and not existing.closed
                        and not existing.closing):
                    self._last_used[endpoint] = self._clock()
                    return existing
            try:
                connection = self._dial(endpoint)
            except BaseException:
                # Nothing cached for this endpoint, so its dial lock
                # would otherwise linger forever — unreachable peers
                # retried periodically (e.g. by the pinger) would grow
                # ``_locks`` without bound.
                with self._lock:
                    if endpoint not in self._connections:
                        self._locks.pop(endpoint, None)
                raise
            # Attribute the connection to the endpoint asked for (even
            # when the dial upgraded to a side door) so BUSY replies
            # demote the right name in healthy_order.
            connection.endpoint = endpoint
            self.dials += 1
            with self._lock:
                if not self._shutdown:
                    racer = self._connections.get(endpoint)
                    if connection.closed:
                        # The connection died between handshake and
                        # here — its on_close hook already ran, so an
                        # evict for it can never fire again.  Caching
                        # it would wedge the endpoint behind a dead
                        # entry; hand out a live racer if one slipped
                        # in, else surface the failure.
                        if (racer is not None and not racer.closed
                                and not racer.closing):
                            return racer
                        if racer is None:
                            self._locks.pop(endpoint, None)
                        raise CommFailure(
                            f"connection to {endpoint!r} closed during dial"
                        )
                    if racer is None or racer.closed or racer.closing:
                        self._connections[endpoint] = connection
                        self._last_used[endpoint] = self._clock()
                        return connection
                    # An evict dropped our dial lock mid-flight and a
                    # fresh dial won the endpoint; keep theirs.
                else:
                    racer = None
            try:
                connection.close()
            except CommFailure:
                pass
            if racer is not None:
                return racer
            raise SpaceShutdownError("space is shut down")

    def _dial(self, endpoint: str) -> Connection:
        """Build a connection for ``endpoint``, preferring its upgraded
        alternate (same-machine shm side door) when the hook offers
        one.  The alternate is an optimisation, never a requirement:
        any failure dialling it falls back to the endpoint as given."""
        if self._upgrade is not None:
            alternate = self._upgrade(endpoint)
            if alternate:
                try:
                    connection = self._connect(alternate)
                except (CommFailure, OSError):
                    pass
                else:
                    self.upgraded_dials += 1
                    return connection
        return self._connect(endpoint)

    def evict(self, connection: Connection) -> None:
        """Forget ``connection`` (typically from its on_close hook)."""
        with self._lock:
            for endpoint, cached in list(self._connections.items()):
                if cached is connection:
                    del self._connections[endpoint]
                    # Drop the endpoint's dial lock with it: entries
                    # must track *live* endpoints, not every endpoint
                    # ever contacted.
                    self._locks.pop(endpoint, None)
                    self._last_used.pop(endpoint, None)

    def sweep_idle(self) -> int:
        """Orderly-close connections unused for ``idle_ttl`` seconds.

        Returns how many closes were initiated.  Runs on a worker
        thread (the reactor's timer tick only schedules it): the
        orderly goodbye waits briefly for corked output to flush,
        which must not stall the I/O loop.  A candidate is removed
        from the cache *before* ``try_close_idle`` so no new ``get``
        can hand it out mid-close; if calls turn out to be in flight
        it is re-inserted untouched (unless a fresh dial already took
        the endpoint — then the in-flight caller keeps its direct
        reference and the connection retires when those calls drain).
        """
        ttl = self.idle_ttl
        if ttl is None:
            return 0
        held = self._held
        now = self._clock()
        stale = []
        with self._lock:
            if self._shutdown:
                return 0
            for endpoint, connection in list(self._connections.items()):
                last = self._last_used.get(endpoint, now)
                if now - last >= ttl and (
                        held is None or not held(connection.peer_id)):
                    del self._connections[endpoint]
                    stale.append((endpoint, connection))
        reaped = 0
        for endpoint, connection in stale:
            if connection.try_close_idle():
                reaped += 1
                with self._lock:
                    if endpoint not in self._connections:
                        # No racer redialled; retire the endpoint's
                        # bookkeeping along with its connection.
                        self._locks.pop(endpoint, None)
                        self._last_used.pop(endpoint, None)
            else:
                with self._lock:
                    racer = self._connections.get(endpoint)
                    if (not self._shutdown and racer is None
                            and not connection.closed
                            and not connection.closing):
                        self._connections[endpoint] = connection
                        self._last_used[endpoint] = now
        self.idle_reaped += reaped
        return reaped

    def peek(self, endpoint: str) -> Optional[Connection]:
        with self._lock:
            return self._connections.get(endpoint)

    def close_all(self) -> None:
        with self._lock:
            self._shutdown = True
            connections = list(self._connections.values())
            self._connections.clear()
            self._locks.clear()
            self._last_used.clear()
        for connection in connections:
            try:
                connection.close()
            except CommFailure:
                pass

    def stats(self) -> dict:
        """Snapshot of cache gauges (surfaced via ``Space.stats()``)."""
        with self._lock:
            return {
                "connections": len(self._connections),
                "dials": self.dials,
                "idle_reaped": self.idle_reaped,
                "upgraded_dials": self.upgraded_dials,
                "busy_endpoints": sum(
                    1 for s in self._busy_strikes.values()
                    if s >= self.busy_strike_limit
                ),
                "busy_demotions": self.busy_demotions,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._connections)
