"""Exception hierarchy for the Network Objects runtime.

The original system distinguishes *network failures* (``NetObj.Error``
raised with ``CommFailure``), *protocol violations* and *application
exceptions propagated through a remote invocation*.  We mirror that
split: every exception raised by this library derives from
:class:`NetObjError`, and application-level exceptions that crossed the
wire are re-raised wrapped in :class:`RemoteError` so a caller can tell
a local failure from a remote one.
"""

from __future__ import annotations


class NetObjError(Exception):
    """Base class for all Network Objects errors."""


class MarshalError(NetObjError):
    """A value could not be pickled for transmission."""


class UnmarshalError(NetObjError):
    """A byte stream could not be unpickled (corrupt or unknown data)."""


class ProtocolError(NetObjError):
    """A peer violated the wire protocol (bad frame, bad handshake...)."""


class CommFailure(NetObjError):
    """A transport-level failure: connection refused, reset, or lost."""


class CallTimeout(CommFailure):
    """A remote invocation did not complete within its deadline."""


class ConnectionClosed(CommFailure):
    """The connection was closed (or orderly closing) before any byte
    of the request went on the wire — e.g. the idle sweep reaped it
    between the cache lookup and the send.  Unlike a generic
    :class:`CommFailure`, retrying on a fresh connection is safe:
    the peer never saw the call."""


class ServerBusy(NetObjError):
    """The peer shed this request under admission control.

    Deliberately *not* a :class:`CommFailure`: the connection is
    healthy, the peer simply refused the work.  Idempotent callers
    (``@reads`` methods, lease acquires, seqno-guarded CLEAN batches)
    retry automatically after a jittered backoff; everyone else sees
    the error and decides for themselves.

    Attributes
    ----------
    reason:
        Which budget was exhausted (``"queue full"``, ``"rate limit"``,
        ``"shutting down"``...).
    retry_after:
        The peer's backoff hint, in seconds.
    """

    def __init__(self, reason: str = "server busy",
                 retry_after: float = 0.05):
        super().__init__(f"server busy: {reason}")
        self.reason = reason
        self.retry_after = retry_after


class NoSuchObjectError(NetObjError):
    """A wireRep did not resolve to an object at its owner.

    This is the error a client observes when it invokes (or sends a
    dirty call for) an object that the owner has already reclaimed --
    the situation the distributed collector exists to prevent for live
    references.
    """


class NoSuchMethodError(NetObjError):
    """The target object has no such remote method."""


class NarrowingError(NetObjError):
    """No registered stub type matches the received typecode chain."""


class NameServiceError(NetObjError):
    """The agent (name server) could not satisfy a request."""


class SpaceShutdownError(NetObjError):
    """The local space has been shut down; no further calls possible."""


class RemoteError(NetObjError):
    """An exception was raised by the remote method implementation.

    Attributes
    ----------
    kind:
        The remote exception class name (e.g. ``"ValueError"``).
    message:
        The remote exception message.
    remote_traceback:
        The formatted traceback captured at the owner, for diagnostics.
    """

    def __init__(self, kind: str, message: str, remote_traceback: str = ""):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
        self.remote_traceback = remote_traceback


#: Fault kinds translated back into our exception types at the caller.
_FAULT_KINDS = {
    "NoSuchObjectError": NoSuchObjectError,
    "NoSuchMethodError": NoSuchMethodError,
    "NameServiceError": NameServiceError,
    "NarrowingError": NarrowingError,
    "UnmarshalError": UnmarshalError,
    "CommFailure": CommFailure,
}


def exception_for_fault(kind: str, message: str,
                        remote_traceback: str = "") -> Exception:
    """The exception a caller raises for a failure that crossed the
    wire as ``kind``/``message`` (a FAULT reply, a STREAM_END fault):
    our own error types come back as themselves, anything else as
    :class:`RemoteError`.  ``ServerBusy`` is deliberately not among
    them: it promises the call did not run, which only a BUSY frame
    (or a refused STREAM_OPEN) can say — a FAULT of that kind is a
    shed the remote method itself ran into."""
    known = _FAULT_KINDS.get(kind)
    if known is not None:
        return known(message)
    return RemoteError(kind, message, remote_traceback)
