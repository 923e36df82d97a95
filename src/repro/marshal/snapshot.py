"""Lease snapshots: capturing and replaying an object's read state.

A read lease ships a *snapshot* of an exported object's
lease-safe state to the holder, which rebuilds a local *replica* and
runs ``@reads`` methods against it.  This module owns the two halves
of that round trip; the actual byte encoding is the ordinary pickle
codec (with the connection's network-object handler, so NetObj values
inside the state marshal as references, not copies).

Classes can customise what a snapshot contains:

``__lease_state__(self) -> dict``
    Return the state to ship.  Default: ``dict(vars(self))``.

``__set_lease_state__(self, state: dict) -> None``
    Install a received snapshot into a freshly allocated replica.
    Default: update ``__dict__`` (with a ``setattr`` fallback for
    ``__slots__`` classes).

The replica is built with ``cls.__new__(cls)`` — ``__init__`` is never
run, exactly like unpickling — where ``cls`` is the *client's* view of
the type (the narrowest registered class for the typecode), which may
be a pure interface.  A replica method that turns out to be
unrunnable locally (``NotImplementedError`` from an interface stub)
makes the client mark the type unleasable and fall back to RPC.
"""

from __future__ import annotations

from typing import Type


def snapshot_state(obj) -> dict:
    """The lease-safe state of ``obj``, as a plain dict."""
    hook = getattr(obj, "__lease_state__", None)
    if hook is not None:
        state = hook()
        if not isinstance(state, dict):
            raise TypeError(
                f"__lease_state__ must return a dict, got {type(state).__name__}"
            )
        return state
    return dict(vars(obj))


def build_replica(cls: Type, state: dict):
    """Allocate an instance of ``cls`` and install ``state`` into it."""
    replica = cls.__new__(cls)
    hook = getattr(replica, "__set_lease_state__", None)
    if hook is not None:
        hook(state)
        return replica
    try:
        replica.__dict__.update(state)
    except AttributeError:  # __slots__ class without a __dict__
        for name, value in state.items():
            setattr(replica, name, value)
    return replica
