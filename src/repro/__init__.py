"""Network Objects (SOSP 1993), reproduced in Python.

A distributed object system: subclass :class:`NetObj` to define remote
interfaces, host instances in a :class:`Space`, and invoke them from
other spaces through automatically generated surrogates.  General data
crosses the wire via a from-scratch, graph-preserving pickle format;
object references cross by wireRep; and Birrell's distributed
reference-listing garbage collector keeps every remotely referenced
object alive — and reclaims it promptly once the last remote reference
dies.

Quickstart::

    from repro import NetObj, Space

    class Counter(NetObj):
        def __init__(self):
            self.n = 0
        def increment(self):
            self.n += 1
            return self.n

    server = Space("server", listen=["tcp://127.0.0.1:0"])
    server.serve("counter", Counter())

    client = Space("client")
    counter = client.import_object(server.endpoints[0], "counter")
    assert counter.increment() == 1
"""

from repro.core import (
    GcConfig, NetObj, Space, Surrogate, async_call, reads, wiretypes,
)
from repro.rpc.futures import CallFuture, RemoteFuture
from repro.errors import (
    CallTimeout,
    CommFailure,
    MarshalError,
    NameServiceError,
    NarrowingError,
    NetObjError,
    NoSuchMethodError,
    NoSuchObjectError,
    ProtocolError,
    RemoteError,
    SpaceShutdownError,
    UnmarshalError,
)
from repro.marshal import register_struct
from repro.naming import Agent, MeshAgent, MeshConfig, NameServer, ReplicatedAgent

__version__ = "1.0.0"

__all__ = [
    "Agent",
    "CallFuture",
    "CallTimeout",
    "CommFailure",
    "GcConfig",
    "MarshalError",
    "MeshAgent",
    "MeshConfig",
    "NameServer",
    "NameServiceError",
    "NarrowingError",
    "NetObj",
    "NetObjError",
    "NoSuchMethodError",
    "NoSuchObjectError",
    "ProtocolError",
    "RemoteError",
    "RemoteFuture",
    "ReplicatedAgent",
    "Space",
    "SpaceShutdownError",
    "Surrogate",
    "UnmarshalError",
    "async_call",
    "reads",
    "register_struct",
    "wiretypes",
    "__version__",
]
