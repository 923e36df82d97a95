"""Client-liveness detection at the owner.

From the paper (§2.4): "[the] collector detects termination by having
each process periodically ping the clients that have surrogates for
its objects.  If the ping is not acknowledged after sufficient time,
the client is assumed to have died, and is removed from all dirty
sets at that owner."

We ping over the existing (symmetric) connection to the client; a
client with no live connection cannot be probed at all, which counts
as a failed ping.  After ``ping_max_failures`` consecutive failures
the client is purged from every dirty set — at which point objects it
alone kept alive become locally collectable.  A round pings every
client at once against one ``ping_timeout`` deadline; the space runs
rounds on its timer (DESIGN.md, "Periodic work").
"""

from __future__ import annotations

import logging
import time
from typing import Callable, Dict, Optional

from repro.dgc.config import GcConfig
from repro.dgc.owner import DgcOwner
from repro.errors import NetObjError
from repro.wire.ids import SpaceID

logger = logging.getLogger("repro.dgc.pinger")

#: ``ping(client_id) -> CallFuture`` — provided by the space; None
#: when the client has no live connection.
PingFn = Callable[[SpaceID], Optional[object]]


class Pinger:
    """Client-liveness prober (see module docstring).

    A round that finds ``closed()`` true after its wait counts
    nothing: our own shutdown fails every ping in flight.
    ``on_purge(client_id)`` is called after a client is purged from
    the dirty sets — the space hooks it to sweep dangling third-party
    name registrations the dead space owned.
    """
    def __init__(self, owner: DgcOwner, ping: PingFn, config: GcConfig,
                 closed: Callable[[], bool],
                 on_purge: Optional[Callable[[SpaceID], None]] = None):
        self._owner = owner
        self._ping = ping
        self._config = config
        self._closed = closed
        self._on_purge = on_purge
        self._failures: Dict[SpaceID, int] = {}
        self.clients_purged = 0
        self.pings_sent = 0

    def round(self) -> None:
        clients = self._owner.clients()
        # Forget failure counts of clients that cleaned up properly.
        for known in list(self._failures):
            if known not in clients:
                del self._failures[known]
        futures = []
        for client in clients:
            self.pings_sent += 1
            try:
                futures.append(self._ping(client))
            except NetObjError:
                futures.append(None)
        deadline = time.monotonic() + self._config.ping_timeout
        answered = [
            future is not None and future.exception(
                max(0.0, deadline - time.monotonic())) is None
            for future in futures
        ]
        if self._closed():
            return
        for client, alive in zip(clients, answered):
            if alive:
                self._failures[client] = 0
                continue
            count = self._failures.get(client, 0) + 1
            self._failures[client] = count
            if count >= self._config.ping_max_failures:
                self._owner.purge_client(client)
                self.clients_purged += 1
                del self._failures[client]
                if self._on_purge is not None:
                    try:
                        self._on_purge(client)
                    except Exception:  # noqa: BLE001 - purge the rest
                        logger.exception("on_purge failed for %s", client)
