"""Call futures: the pipelined half of the RPC runtime.

A :class:`CallFuture` is one awaited reply slot in a connection's
pending table.  Because every connection already multiplexes calls by
``call_id``, hundreds of futures can be in flight on one channel
without parking hundreds of threads — the reader thread completes each
future as its reply frame arrives, and waiters (if any) block only in
``result()``.

The completion discipline mirrors the old ``_PendingCall`` exactly:
reply/failure fields and the event are set *under* the connection's
pending lock, so a caller that holds the lock and finds the slot gone
from the table owns it exclusively.  That is what makes the blocking
path's slot recycling safe, and what makes a timed-out ``result()``
able to abandon the call atomically (a late reply to an abandoned id
is dropped silently by the reader).

Done callbacks run outside the lock — on the reader thread for a
future completed by a reply, or on the calling thread when the future
was already done at registration time.  Callbacks must be quick and
must not block; a callback that raises is logged and swallowed.

:class:`RemoteFuture` wraps a CallFuture for the public API: its
``result()`` decodes the reply (unpickling the value, translating
faults back into exceptions) on the *waiter's* thread, preserving the
rule that pickles are never decoded on the reader thread.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, List, Optional

from repro.errors import CallTimeout
from repro.transport.reactor import runtime_wait

logger = logging.getLogger("repro.rpc.futures")

_UNSET = object()


class CallFuture:
    """One in-flight call awaiting its reply frame.

    Created by ``Connection.call_buffer_async``; completed by the
    connection's reader thread (reply or connection failure), by a
    timed-out ``result()``/``exception()`` (which abandons the call),
    or by :meth:`cancel`.
    """

    __slots__ = ("_connection", "call_id", "_event", "_reply", "_failure",
                 "_callbacks")

    def __init__(self, connection, call_id: int):
        self._connection = connection
        self.call_id = call_id
        self._event = threading.Event()
        self._reply = None
        self._failure: Optional[Exception] = None
        self._callbacks: Optional[List[Callable]] = None

    # -- introspection -------------------------------------------------------

    def done(self) -> bool:
        """True once a reply, failure or abandonment has landed."""
        return self._event.is_set()

    # -- completion (package-private; pending lock held) ---------------------

    def _complete(self, reply, failure) -> Optional[List[Callable]]:
        """Fill the slot and wake waiters.  MUST be called with the
        connection's pending lock held and the slot already popped from
        the pending table; returns the callbacks for the caller to run
        after releasing the lock."""
        self._reply = reply
        self._failure = failure
        self._event.set()
        callbacks = self._callbacks
        self._callbacks = None
        return callbacks

    def _run_callbacks(self, callbacks: Optional[List[Callable]]) -> None:
        if not callbacks:
            return
        for callback in callbacks:
            try:
                callback(self)
            except Exception:  # noqa: BLE001 - callbacks must not kill the reader
                logger.exception("call-future done callback failed")

    def _reset(self) -> None:
        """Recycle support (blocking path only; see Connection)."""
        self._event.clear()
        self._reply = None
        self._failure = None
        self._callbacks = None

    # -- waiting -------------------------------------------------------------

    def _await(self, timeout: Optional[float]) -> None:
        """Wait for completion; a timeout *abandons* the call — the
        slot leaves the pending table, a late reply is dropped, and the
        future completes with :class:`CallTimeout`."""
        event = self._event
        if event.is_set():
            return
        runtime_wait()
        if event.wait(timeout):
            return
        connection = self._connection
        with connection._pending_lock:
            connection._pending.pop(self.call_id, None)
            if self._event.is_set():
                return  # completer won the race; use its outcome
            callbacks = self._complete(
                None,
                CallTimeout(
                    f"no reply to call {self.call_id} within {timeout:.1f}s"
                ),
            )
        self._run_callbacks(callbacks)

    def result(self, timeout: Optional[float] = None):
        """The reply message, blocking up to ``timeout`` seconds.

        Raises the call's failure (CommFailure on connection loss,
        CallTimeout after a timed-out wait — which also abandons the
        call: no reply will ever be delivered to this future).
        """
        self._await(timeout)
        if self._failure is not None:
            raise self._failure
        return self._reply

    def exception(self, timeout: Optional[float] = None) -> Optional[Exception]:
        """The call's failure, or None if it completed with a reply.
        A timed-out wait abandons the call and returns the timeout."""
        self._await(timeout)
        return self._failure

    def add_done_callback(self, callback: Callable[["CallFuture"], None]) -> None:
        """Run ``callback(self)`` on completion — immediately (on the
        calling thread) if already done, else on the completing thread
        (usually the connection reader; keep it quick)."""
        with self._connection._pending_lock:
            if not self._event.is_set():
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(callback)
                return
        self._run_callbacks([callback])

    def cancel(self, failure: Optional[Exception] = None) -> bool:
        """Abandon the call: drop the pending slot so a late reply is
        discarded, and complete with ``failure`` (default CallTimeout).
        Returns False if the future was already done."""
        connection = self._connection
        with connection._pending_lock:
            connection._pending.pop(self.call_id, None)
            if self._event.is_set():
                return False
            callbacks = self._complete(
                None,
                failure if failure is not None
                else CallTimeout(f"call {self.call_id} cancelled"),
            )
        self._run_callbacks(callbacks)
        return True

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return f"<CallFuture call_id={self.call_id} ({state})>"


class RemoteFuture:
    """Public future for one asynchronous remote method invocation.

    Wraps the connection-level :class:`CallFuture`; ``decode`` is the
    space-supplied closure that turns the raw reply message into the
    call's return value (raising the remote exception for faults).
    Decoding happens lazily, once, on the first thread that asks —
    never on the connection reader.
    """

    __slots__ = ("_inner", "_decode", "_value", "_decode_lock")

    def __init__(self, inner: CallFuture, decode: Callable):
        self._inner = inner
        self._decode = decode
        self._value = _UNSET
        self._decode_lock = threading.Lock()

    def done(self) -> bool:
        return self._inner.done()

    def result(self, timeout: Optional[float] = None):
        """The remote method's return value; raises its exception.

        Blocks up to ``timeout`` seconds; a timed-out wait abandons the
        call (see :meth:`CallFuture.result`).
        """
        reply = self._inner.result(timeout)
        with self._decode_lock:
            if self._value is _UNSET:
                self._value = self._decode(reply)
        return self._value

    def exception(self, timeout: Optional[float] = None) -> Optional[Exception]:
        """The exception the call would raise, or None on success."""
        failure = self._inner.exception(timeout)
        if failure is not None:
            return failure
        try:
            self.result(0)
        except Exception as exc:  # noqa: BLE001 - the remote fault, decoded
            return exc
        return None

    def add_done_callback(
        self, callback: Callable[["RemoteFuture"], None]
    ) -> None:
        """Run ``callback(self)`` once the reply (or failure) lands.
        The callback receives this RemoteFuture; calling ``result()``
        inside it will not block."""
        self._inner.add_done_callback(lambda _inner: callback(self))

    def cancel(self, failure: Optional[Exception] = None) -> bool:
        return self._inner.cancel(failure)

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return f"<RemoteFuture call_id={self._inner.call_id} ({state})>"
