"""Transport abstractions shared by all implementations."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional

from repro.errors import CommFailure
from repro.wire.framing import FRAME_HEADER_SIZE


class Channel(ABC):
    """A bidirectional, frame-oriented connection between two spaces.

    ``send`` either accepts the whole frame for transmission or raises
    :class:`~repro.errors.CommFailure`; frames are never split or
    merged.  Success means *accepted*, not delivered: an
    implementation may coalesce frames queued by concurrent senders
    into one write (see the TCP channel's cork), in which case a
    transmission failure after ``send`` returned surfaces only through
    the channel closing — and, one level up, through connection
    teardown failing every pending call.  Callers of one-way messages
    with no reply must not treat a returned ``send`` as proof of
    delivery.  ``recv`` blocks for the next frame and returns ``None``
    on orderly end-of-stream.  Both directions may be used from
    multiple threads; implementations serialise sends internally.

    Payloads may be any bytes-like object (``bytes``, ``bytearray``,
    ``memoryview``); the hot path hands channels reusable buffers, so
    an implementation that retains a payload past the ``send`` call
    must copy it.
    """

    #: Every frame accepted arrives exactly once and in the order
    #: sent.  True of every real transport; the simulated network may
    #: reorder and drop, and the bulk-data plane — whose chunks carry
    #: no sequence numbers — stays off such a channel.
    ordered: bool = True
    #: Admission control's cap on buffered unsent output bytes (the
    #: reactor-mode write backlog).  ``None`` = unbounded.  Set by the
    #: owning connection at registration; transports that buffer
    #: output (tcp cork, shm cork) enforce it by aborting the channel
    #: with :class:`~repro.errors.CommFailure` — a peer that will not
    #: read its replies cannot be shed politely.
    write_backlog_limit: Optional[int] = None
    #: Invoked (once, no args) when the backlog cap trips, before the
    #: channel closes — lets admission control count the shed.
    on_backlog_overflow: Optional[Callable[[], None]] = None

    @abstractmethod
    def send(self, payload) -> None: ...

    def send_framed(self, frame: bytearray) -> None:
        """Send a complete frame built in place: 4-byte length header
        (already patched by :func:`repro.wire.framing.finish_frame`)
        followed by the payload.

        The caller may reuse ``frame`` as soon as this returns.  Stream
        transports override this to hand the socket the single buffer;
        the default strips the header and copies the payload out — the
        one payload-sized allocation a datagram-style transport needs
        to decouple the receiver from the sender's buffer reuse.
        """
        self.send(bytes(memoryview(frame)[FRAME_HEADER_SIZE:]))

    def send_vector(self, head: bytearray, body) -> None:
        """Send one frame given as two pieces: ``head`` (length prefix
        patched by ``finish_frame(head, len(body))``, then the message
        envelope) and ``body``, the bulk payload.  The bulk-data plane
        sends its chunks this way so that megabytes are not copied
        behind a five-byte header.  Never refused by
        ``write_backlog_limit``: stream chunks are bounded by their
        credit window, and an admitted stream is not shed.

        The caller may reuse both pieces as soon as this returns.  The
        default, for datagram-style transports, makes the one copy
        such a transport needs anyway.
        """
        self.send(b"".join((memoryview(head)[FRAME_HEADER_SIZE:], body)))

    def on_drained(self, callback: Callable[[], None]) -> bool:
        """Ask for one ``callback()`` — on the transport's I/O thread,
        so it must not block — when locally buffered output has
        reached the wire.  False, and nothing registered, when there
        is no backlog now (always, for unbuffered transports): the
        caller just carries on sending.  A channel that closes with a
        backlog drops the callback; whoever sends next gets the
        :class:`~repro.errors.CommFailure`."""
        return False

    @abstractmethod
    def recv(self, timeout: Optional[float] = None) -> Optional[bytes]: ...

    @abstractmethod
    def close(self) -> None: ...

    # -- orderly shutdown ----------------------------------------------------
    #
    # ``flush`` + ``half_close`` let a connection end a conversation
    # without destroying frames still in transit: flush waits for
    # locally buffered output (a nonblocking transport's write backlog)
    # to reach the wire, half_close then signals end-of-stream to the
    # peer while leaving the receive direction open so the peer's final
    # frames — and its answering end-of-stream — still arrive.  The
    # defaults fit unbuffered transports, where ``send`` returning
    # already implies delivery to the peer's inbox and no separate
    # write direction exists to close by itself.

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Wait until locally buffered output has been handed to the
        wire; True on success, False on timeout."""
        return True

    def half_close(self) -> None:
        """Stop sending; keep receiving until the peer closes too."""
        self.close()

    @property
    @abstractmethod
    def closed(self) -> bool: ...


class SelectableChannel(Channel):
    """A channel a :class:`~repro.transport.reactor.Reactor` can own
    directly: it exposes a kernel-pollable file descriptor plus
    nonblocking event hooks, so one selector thread can serve every
    such channel in a space.

    Lifecycle: the reactor calls :meth:`attach_reactor` once (switching
    the descriptor to nonblocking mode), registers :meth:`fileno` for
    readable events, and from then on invokes :meth:`handle_readable` /
    :meth:`handle_writable` **only on the thread holding the loop**.  The
    channel asks for writable events via ``reactor.request_write`` when
    a nonblocking send leaves a backlog, and reports ``wants_write``
    when polled so the reactor can drop write interest once drained.
    Channels without a real descriptor (queues, the simulated network)
    are instead bridged by :class:`~repro.transport.reactor.ChannelPump`.
    """

    @abstractmethod
    def fileno(self) -> int: ...

    @abstractmethod
    def attach_reactor(self, reactor, sink) -> None:
        """Go nonblocking; deliver decoded frames to ``sink``."""

    @abstractmethod
    def handle_readable(self, ready) -> None:
        """Drain readable bytes.  Append each complete frame to the
        loop's ``ready`` deque as ``(sink.on_frame, payload)``, and
        end-of-stream or an error as ``(sink.on_closed, failure)``,
        once.  The loop makes those calls; this one never does."""

    @abstractmethod
    def handle_writable(self) -> bool:
        """Flush backlog; return True while write interest is still
        needed."""

    @abstractmethod
    def wants_write(self) -> bool: ...


class Listener(ABC):
    """An open listening endpoint; ``endpoint`` is its concrete address
    (e.g. with the ephemeral TCP port filled in)."""

    endpoint: str

    @abstractmethod
    def close(self) -> None: ...


OnConnect = Callable[[Channel], None]


class Transport(ABC):
    """Factory for listeners and outgoing channels of one scheme."""

    scheme: str

    @abstractmethod
    def listen(self, endpoint: str, on_connect: OnConnect) -> Listener: ...

    @abstractmethod
    def connect(self, endpoint: str) -> Channel: ...


class TransportRegistry:
    """Maps endpoint schemes (``tcp``, ``inproc``, ``sim``) to transports."""

    def __init__(self) -> None:
        self._by_scheme: Dict[str, Transport] = {}

    def add(self, transport: Transport) -> None:
        self._by_scheme[transport.scheme] = transport

    def __contains__(self, scheme: str) -> bool:
        return scheme in self._by_scheme

    def for_endpoint(self, endpoint: str) -> Transport:
        scheme = split_endpoint(endpoint)[0]
        transport = self._by_scheme.get(scheme)
        if transport is None:
            raise CommFailure(
                f"no transport for scheme {scheme!r} "
                f"(have: {sorted(self._by_scheme)})"
            )
        return transport

    def connect(self, endpoint: str) -> Channel:
        return self.for_endpoint(endpoint).connect(endpoint)

    def listen(self, endpoint: str, on_connect: OnConnect) -> Listener:
        return self.for_endpoint(endpoint).listen(endpoint, on_connect)


def split_endpoint(endpoint: str) -> "tuple[str, str]":
    """``"tcp://host:1234"`` → ``("tcp", "host:1234")``."""
    scheme, sep, rest = endpoint.partition("://")
    if not sep or not scheme:
        raise CommFailure(f"malformed endpoint {endpoint!r}")
    return scheme, rest
