"""The simulated transport: channels over a :class:`SimNetwork`.

All spaces sharing one :class:`SimTransport` instance live on the same
simulated network and therefore share its latency/loss/FIFO model and
its statistics.  Frames traverse the event scheduler; reads block on a
local inbox, so the threaded RPC runtime runs unchanged on top.
"""

from __future__ import annotations

import itertools
import queue
import threading
from typing import Dict, Optional

from repro.errors import CommFailure
from repro.sim.network import NetworkModel, SimNetwork
from repro.sim.scheduler import EventScheduler
from repro.transport.base import Channel, Listener, OnConnect, Transport, split_endpoint

_EOF = object()


class SimChannel(Channel):
    """A channel endpoint whose sends traverse the simulated network."""
    def __init__(self, network: SimNetwork, local: str, remote: str):
        self._network = network
        self._local = local
        self._remote = remote
        self._inbox: "queue.Queue" = queue.Queue()
        self._closed = threading.Event()
        self.peer: Optional["SimChannel"] = None
        model = network.model
        self.ordered = model.fifo and not model.drop_probability

    def send(self, payload) -> None:
        # Accepts any bytes-like payload; it is queued in the event
        # scheduler as-is, so reusable buffers must arrive through
        # ``send_framed`` (which copies once before queueing).
        peer = self.peer
        if self._closed.is_set() or peer is None or peer._closed.is_set():
            raise CommFailure("simulated channel is closed")
        self._network.send(self._local, self._remote, payload, peer._deliver)

    def _deliver(self, payload: bytes) -> None:
        if not self._closed.is_set():
            self._inbox.put(payload)

    def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        if self._closed.is_set():
            return None
        try:
            item = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise CommFailure("recv timed out") from None
        if item is _EOF:
            return None
        return item

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        self._inbox.put(_EOF)
        peer = self.peer
        if peer is not None and not peer._closed.is_set():
            # Closure notice travels instantaneously: it models the
            # peer's kernel noticing the TCP reset, not a message.
            peer._inbox.put(_EOF)

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


class _SimListener(Listener):
    def __init__(self, transport: "SimTransport", endpoint: str, on_connect: OnConnect):
        self.endpoint = endpoint
        self.on_connect = on_connect
        self._transport = transport

    def close(self) -> None:
        self._transport._unlisten(self.endpoint)


class SimTransport(Transport):
    """One simulated network; create one per experiment."""

    scheme = "sim"

    def __init__(self, model: Optional[NetworkModel] = None,
                 scheduler: Optional[EventScheduler] = None):
        self.scheduler = scheduler if scheduler is not None else EventScheduler()
        self.scheduler.start()
        self.network = SimNetwork(self.scheduler, model)
        self._listeners: Dict[str, _SimListener] = {}
        self._lock = threading.Lock()
        self._conn_ids = itertools.count(1)

    @property
    def clock(self):
        return self.scheduler.clock

    @property
    def stats(self):
        return self.network.stats

    def listen(self, endpoint: str, on_connect: OnConnect) -> Listener:
        scheme, _name = split_endpoint(endpoint)
        if scheme != self.scheme:
            raise CommFailure(f"not a sim endpoint: {endpoint!r}")
        listener = _SimListener(self, endpoint, on_connect)
        with self._lock:
            if endpoint in self._listeners:
                raise CommFailure(f"endpoint already in use: {endpoint!r}")
            self._listeners[endpoint] = listener
        return listener

    def connect(self, endpoint: str) -> Channel:
        with self._lock:
            listener = self._listeners.get(endpoint)
        if listener is None:
            raise CommFailure(f"connection refused: {endpoint!r}")
        conn_id = next(self._conn_ids)
        client_name = f"{endpoint}/client/{conn_id}"
        server_name = f"{endpoint}/server/{conn_id}"
        client_side = SimChannel(self.network, client_name, server_name)
        server_side = SimChannel(self.network, server_name, client_name)
        client_side.peer = server_side
        server_side.peer = client_side
        threading.Thread(
            target=listener.on_connect,
            args=(server_side,),
            name=f"sim-accept-{conn_id}",
            daemon=True,
        ).start()
        return client_side

    def _unlisten(self, endpoint: str) -> None:
        with self._lock:
            self._listeners.pop(endpoint, None)

    def shutdown(self) -> None:
        self.scheduler.stop()
