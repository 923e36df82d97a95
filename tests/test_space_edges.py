"""Edge cases of the Space runtime: shutdown, timeouts, bad targets,
connection loss, marshal-context plumbing."""

import threading
import time

import pytest

from repro import (
    CallTimeout,
    CommFailure,
    MarshalError,
    NetObj,
    NoSuchObjectError,
    Space,
    SpaceShutdownError,
    UnmarshalError,
)
from repro.core.marshalctx import MarshalContext, decode_ref, encode_ref
from repro.wire.ids import fresh_space_id
from repro.wire.wirerep import WireRep
from tests.helpers import Counter


class Sleeper(NetObj):
    def nap(self, seconds: float) -> float:
        time.sleep(seconds)
        return seconds


class TestTrackShutdownRace:
    def test_track_after_shutdown_closes_connection(self):
        """A dial (or accept) that completes its handshake after
        shutdown snapshotted ``_connections`` must not leave a live
        untracked connection behind — ``_track`` closes it itself."""
        from repro.rpc.connection import Connection
        from repro.rpc.dispatcher import Dispatcher
        from repro.transport.inprocess import channel_pair

        space = Space("track-race")
        space.shutdown()
        chan_a, chan_b = channel_pair()
        dispatcher = Dispatcher()
        holder = {}

        def accept():
            holder["peer"] = Connection(
                chan_b, fresh_space_id("peer"), dispatcher,
                lambda c, m: None, outbound=False,
            )

        thread = threading.Thread(target=accept, daemon=True)
        thread.start()
        connection = Connection(
            chan_a, space.space_id, space.dispatcher,
            space._handle_request, on_close=space._on_conn_close,
            outbound=True,
        )
        thread.join(timeout=5)
        space._track(connection)
        assert connection.closed
        assert connection not in space._connections
        assert space.connection_to(holder["peer"].peer_id) is None


class TestTwoPhaseConnections:
    def test_first_request_finds_its_connection_tracked_and_gauged(self):
        """A connection delivers nothing until it is tracked and its
        admission gauge is attached: the first request served on each
        of 50 fresh connections already finds it in ``_connections``
        and ``_conns_by_peer`` (the table the pinger reads), gauged.
        ``Space._serve`` is where every request is served, on a worker
        or on the reactor loop that read it."""
        server = Space("two-phase", listen=["tcp://127.0.0.1:0"], shm="off")
        client = Space("dialer", shm="off")
        first_seen = {}
        lock = threading.Lock()
        real_handle = server._serve

        def spy(connection, message):
            with lock:
                if connection not in first_seen:
                    first_seen[connection] = (
                        connection in server._connections,
                        connection in server._conns_by_peer.get(
                            connection.peer_id, ()),
                        connection._gauge is not None,
                    )
            real_handle(connection, message)

        server._serve = spy
        try:
            server.serve("counter", Counter())
            endpoint = server.endpoints[0]
            counter = client.import_object(endpoint, "counter")
            for expected in range(1, 51):
                assert counter.increment() == expected
                client.cache.peek(endpoint).close()
            with lock:
                outcomes = list(first_seen.values())
            assert len(outcomes) >= 50
            assert all(all(outcome) for outcome in outcomes), [
                outcome for outcome in outcomes if not all(outcome)]
        finally:
            client.shutdown()
            server.shutdown()


class TestRefPayloadCodec:
    def test_round_trip(self):
        rep = WireRep(fresh_space_id("o"), 12)
        payload = encode_ref(rep, 7, ("tcp://a:1", "tcp://b:2"), ("T1", "T2"))
        decoded = decode_ref(payload)
        assert decoded == (rep, 7, ("tcp://a:1", "tcp://b:2"), ("T1", "T2"))

    def test_trailing_bytes_rejected(self):
        rep = WireRep(fresh_space_id(), 1)
        payload = encode_ref(rep, 1, (), ())
        with pytest.raises(UnmarshalError):
            decode_ref(payload + b"x")

    def test_truncated_rejected(self):
        rep = WireRep(fresh_space_id(), 1)
        payload = encode_ref(rep, 1, ("ep",), ("T",))
        for cut in range(1, len(payload)):
            with pytest.raises(UnmarshalError):
                decode_ref(payload[:cut])


class TestMarshalContextEdges:
    def test_unmarshal_without_connection_rejected(self, request):
        with Space("lonely") as space:
            context = MarshalContext(space, connection=None)
            rep = WireRep(fresh_space_id("o"), 1)
            with pytest.raises(UnmarshalError):
                context.unmarshal(encode_ref(rep, 1, ("ep",), ("T",)))

    def test_marshal_without_endpoint_rejected(self):
        """A space with no listener cannot export concrete objects —
        nobody could reach it for the dirty call."""
        with Space("hermit") as space:
            context = MarshalContext(space, connection=None)
            with pytest.raises(MarshalError):
                context.marshal(Counter())

    def test_marshal_surrogate_does_not_need_local_endpoint(self, request):
        endpoint = f"inproc://mc-{request.node.name}"
        with Space("server", listen=[endpoint]) as server, \
                Space("client") as client:  # no listener!
            server.serve("c", Counter())
            counter = client.import_object(endpoint, "c")
            context = MarshalContext(client, connection=None)
            payload = context.marshal(counter)
            rep, copy_id, endpoints, chain = decode_ref(payload)
            assert rep.owner == server.space_id
            assert endpoints == (endpoint,)
            assert copy_id >= 1
            client.transient.release(copy_id)  # undo the pin


class _PeerOnly:
    """The one thing a marshal context reads of its connection."""

    def __init__(self, peer_id):
        self.peer_id = peer_id


class TestCopyAck:
    def test_only_the_receiving_peer_releases_a_copy(self, request):
        """A pin records the peer its copy travels to.  A COPY_ACK from
        any other space leaves the pin and the owner's transient entry
        in place; the receiver's own ack releases both, and takes the
        entry from the pinned object, whatever target the frame
        names."""
        from repro.rpc import messages

        with Space("owner", listen=[f"inproc://ack-{request.node.name}"]) \
                as owner:
            receiver, stranger = fresh_space_id("rx"), fresh_space_id("x")
            obj = Counter()
            payload = MarshalContext(owner, _PeerOnly(receiver)).marshal(obj)
            wirerep, copy_id, _endpoints, _chain = decode_ref(payload)
            entry = owner.object_table.exported_entry_for(obj)
            assert copy_id in entry.tdirty

            owner._apply_copy_ack(stranger, messages.CopyAck(wirerep, copy_id))
            assert len(owner.transient) == 1
            assert copy_id in entry.tdirty

            wrong = WireRep(owner.space_id, wirerep.index + 1000)
            owner._apply_copy_ack(receiver, messages.CopyAck(wrong, copy_id))
            assert len(owner.transient) == 0
            assert copy_id not in entry.tdirty
            # Nothing else held the export: it is dropped.
            assert owner.object_table.exported_entry_for(obj) is None


class TestBadTargets:
    def test_call_on_reclaimed_object(self, request):
        """Invoking through a forged/stale wireRep yields
        NoSuchObjectError from the owner."""
        endpoint = f"inproc://bad-{request.node.name}"
        with Space("server", listen=[endpoint]) as server, \
                Space("client") as client:
            server.serve("c", Counter())
            counter = client.import_object(endpoint, "c")
            # Forge a call to an index that does not exist.
            bogus = WireRep(server.space_id, 424242)
            with pytest.raises(NoSuchObjectError):
                client._invoke_remote(
                    bogus, (endpoint,), "value", (), {}
                )
            assert counter.value() == 0  # the real one still works

    def test_call_to_non_owner(self, request):
        """A call routed to a space that does not own the target."""
        endpoint_a = f"inproc://noa-{request.node.name}"
        endpoint_b = f"inproc://nob-{request.node.name}"
        with Space("a", listen=[endpoint_a]) as space_a, \
                Space("b", listen=[endpoint_b]) as space_b, \
                Space("client") as client:
            space_a.serve("c", Counter())
            counter = client.import_object(endpoint_a, "c")
            with pytest.raises(NoSuchObjectError):
                client._invoke_remote(
                    counter._wirerep, (endpoint_b,), "value", (), {}
                )


class TestTimeoutsAndShutdown:
    def test_call_timeout(self, request):
        endpoint = f"inproc://to-{request.node.name}"
        server = Space("server", listen=[endpoint])
        client = Space("client", call_timeout=0.2)
        try:
            server.serve("sleeper", Sleeper())
            sleeper = client.import_object(endpoint, "sleeper")
            with pytest.raises(CallTimeout):
                sleeper.nap(2.0)
        finally:
            client.shutdown()
            server.shutdown()

    def test_shutdown_is_idempotent(self, request):
        space = Space("s", listen=[f"inproc://sd-{request.node.name}"])
        space.shutdown()
        space.shutdown()

    def test_calls_after_shutdown_fail(self, request):
        endpoint = f"inproc://sd2-{request.node.name}"
        with Space("server", listen=[endpoint]) as server:
            server.serve("c", Counter())
            client = Space("client")
            counter = client.import_object(endpoint, "c")
            client.shutdown()
            with pytest.raises(SpaceShutdownError):
                counter.value()
            with pytest.raises(SpaceShutdownError):
                client.import_object(endpoint, "c")

    def test_server_death_fails_inflight_call(self, request):
        endpoint = f"inproc://sd3-{request.node.name}"
        server = Space("server", listen=[endpoint])
        client = Space("client")
        try:
            server.serve("sleeper", Sleeper())
            sleeper = client.import_object(endpoint, "sleeper")
            failures = []

            def call():
                try:
                    sleeper.nap(5.0)
                except (CommFailure, SpaceShutdownError) as exc:
                    failures.append(exc)

            thread = threading.Thread(target=call, daemon=True)
            thread.start()
            time.sleep(0.2)
            server.shutdown()
            thread.join(timeout=5)
            assert len(failures) == 1
        finally:
            client.shutdown()
            server.shutdown()

    def test_reconnect_after_connection_drop(self, request):
        """Breaking the cached connection only costs a redial."""
        endpoint = f"inproc://rc-{request.node.name}"
        with Space("server", listen=[endpoint]) as server, \
                Space("client") as client:
            server.serve("c", Counter())
            counter = client.import_object(endpoint, "c")
            assert counter.increment() == 1
            # Kill the cached connection behind the client's back.
            connection = client.cache.peek(endpoint)
            assert connection is not None
            connection.close()
            time.sleep(0.1)
            assert counter.increment() == 2  # transparently redialed
            second = client.cache.peek(endpoint)
            assert second is not None and second is not connection


class TestListenerManagement:
    def test_add_listener_later(self, request):
        with Space("grower") as space:
            assert space.endpoints == []
            actual = space.add_listener("tcp://127.0.0.1:0")
            assert actual.startswith("tcp://127.0.0.1:")
            assert space.endpoints == [actual]

    def test_multiple_listeners_both_reachable(self, request):
        ep1 = f"inproc://m1-{request.node.name}"
        with Space("multi", listen=[ep1, "tcp://127.0.0.1:0"]) as server, \
                Space("client") as client:
            server.serve("c", Counter())
            via_inproc = client.import_object(server.endpoints[0], "c")
            via_tcp = client.import_object(server.endpoints[1], "c")
            via_inproc.increment()
            assert via_tcp.value() == 1
            # Same object table entry: one surrogate, whichever route.
            assert via_inproc is via_tcp
