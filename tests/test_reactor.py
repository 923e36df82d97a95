"""The reactor core: resumable framing, timers, thread accounting,
pump bridging, orderly shutdown, and connection-cache idle reaping.

The tentpole claim under test: a space serves *all* its connections
from one selector thread, so 128 inbound TCP connections cost a
handful of resident I/O threads, not 128 — while the RPC semantics
(delivery order, teardown, call/reply matching) stay exactly what the
reader-per-connection design provided.
"""

from __future__ import annotations

import struct
import threading
import time
from collections import deque

import pytest

from repro import NetObj, Space, async_call
from repro.errors import ConnectionClosed, ProtocolError
from repro.sim.network import NetworkModel
from repro.transport.inprocess import channel_pair
from repro.transport.reactor import ChannelPump, Reactor
from repro.transport.simulated import SimTransport
from repro.wire.framing import MAX_FRAME_SIZE, FrameAssembler, pack_frame
from tests.conftest import io_threads
from tests.helpers import Counter, Echo, handshake_idle_socket, wait_until


def drip(assembler: FrameAssembler, stream: bytes, step: int):
    """Feed ``stream`` through the assembler ``step`` bytes at a time,
    the way a nonblocking socket would: copy into ``next_buffer``,
    report via ``advance``, collect completed payloads."""
    out = []
    view = memoryview(stream)
    offset = 0
    while offset < len(stream):
        target = assembler.next_buffer()
        count = min(step, len(target), len(stream) - offset)
        target[:count] = view[offset:offset + count]
        offset += count
        payload = assembler.advance(count)
        if payload is not None:
            out.append(bytes(payload))
    return out


class TestFrameAssembler:
    # step 1: every read is one byte (partial feeds); 1 << 20: every
    # read gets all the assembler asks for (a bulk feed).
    @pytest.mark.parametrize("step", [1, 2, 3, 7, 1024, 1 << 20])
    def test_reassembles_across_arbitrary_chunking(self, step):
        frames = [b"alpha", b"", b"b" * 300, b"\x00\x01\x02", b"last"]
        stream = b"".join(pack_frame(frame) for frame in frames)
        assembler = FrameAssembler()
        assert drip(assembler, stream, step) == frames
        assert not assembler.mid_frame

    def test_mid_frame_flag_tracks_partial_state(self):
        assembler = FrameAssembler()
        assert not assembler.mid_frame
        stream = pack_frame(b"hello")
        assembler.next_buffer()[:2] = stream[:2]
        assert assembler.advance(2) is None
        assert assembler.mid_frame  # two header bytes in
        remainder = drip(assembler, stream[2:], 1)
        assert remainder == [b"hello"]
        assert not assembler.mid_frame

    def test_zero_length_frame_completes_without_payload(self):
        assembler = FrameAssembler()
        assert drip(assembler, pack_frame(b""), 4) == [b""]

    def test_oversized_announcement_raises(self):
        assembler = FrameAssembler()
        header = struct.pack("!I", MAX_FRAME_SIZE + 1)
        assembler.next_buffer()[:4] = header
        with pytest.raises(ProtocolError):
            assembler.advance(4)

    def test_oversized_prefix_fed_bytewise_raises_on_its_last_byte(self):
        assembler = FrameAssembler()
        header = struct.pack("!I", 2**31)
        for i in range(3):
            assembler.next_buffer()[:1] = header[i:i + 1]
            assert assembler.advance(1) is None
        assembler.next_buffer()[:1] = header[3:]
        with pytest.raises(ProtocolError):
            assembler.advance(1)


class TestReactorCore:
    def test_call_soon_runs_on_reactor_thread(self):
        reactor = Reactor("unit")
        reactor.start()
        try:
            seen = []
            done = threading.Event()

            def probe():
                seen.append(threading.current_thread().name)
                done.set()

            assert reactor.call_soon(probe)
            assert done.wait(5)
            assert seen == ["reactor-unit"]
        finally:
            reactor.stop()
        # A stopped reactor refuses new work instead of queueing it.
        assert reactor.call_soon(lambda: None) is False

    def test_timer_repeats_until_cancelled(self):
        reactor = Reactor("timer-unit")
        reactor.start()
        try:
            fired = []
            timer = reactor.add_timer(0.02, lambda: fired.append(1))
            assert wait_until(lambda: len(fired) >= 3, timeout=5)
            timer.cancel()
            settled = len(fired)
            time.sleep(0.2)
            # At most one tick could have been in flight at cancel.
            assert len(fired) <= settled + 1
        finally:
            reactor.stop()

    def test_pump_bridges_blocking_channel(self):
        a, b = channel_pair()
        frames = []
        closures = []

        class Sink:
            def on_frame(self, payload):
                frames.append(bytes(payload))

            def on_closed(self, failure):
                closures.append(failure)

        ChannelPump(b, Sink(), name="unit").start()
        a.send(b"one")
        a.send(b"two")
        assert wait_until(lambda: len(frames) == 2)
        assert frames == [b"one", b"two"]
        a.close()
        assert wait_until(lambda: len(closures) == 1)
        assert closures[0] is None  # clean end-of-stream


class _LoopStub:
    """What a reactor-mode SocketChannel reads of its reactor."""

    def __init__(self):
        self.frames_in = 0

    def forget(self, channel, and_then=None):
        return False


class TestSocketReadBuffer:
    """One ``recv_into`` per readable event, every complete frame cut
    out of the buffer; a frame bigger than the buffer received in its
    own payload."""

    def channel(self):
        import socket

        from repro.transport.tcp import SocketChannel

        with socket.create_server(("127.0.0.1", 0)) as listener:
            peer = socket.create_connection(listener.getsockname())
            mine, _addr = listener.accept()
        channel = SocketChannel(mine)
        loop = _LoopStub()
        frames, ends = [], []

        class Sink:
            def on_frame(self, payload):
                frames.append(bytes(payload))

            def on_closed(self, failure):
                ends.append(failure)

        channel.attach_reactor(loop, Sink())
        return channel, peer, loop, frames, ends

    @staticmethod
    def readable(channel) -> None:
        """One readable event, its deliveries made as the loop would."""
        ready = deque()
        channel.handle_readable(ready)
        for callback, argument in ready:
            callback(argument)

    def drain(self, channel, expected, frames):
        """Readable events until ``expected`` frames arrived (loopback
        bytes may take a moment to land)."""
        for _ in range(2000):
            if len(frames) >= expected:
                return
            self.readable(channel)
            time.sleep(0.001)
        raise AssertionError(f"{len(frames)} of {expected} frames")

    def test_cuts_every_frame_and_receives_big_ones_in_place(self):
        from repro.transport.tcp import RECV_BUFFER_SIZE

        channel, peer, loop, frames, ends = self.channel()
        try:
            # "d" fills the buffer exactly, header included.
            sent = [b"a", b"", b"b" * 300, b"c" * (3 * RECV_BUFFER_SIZE),
                    b"d" * (RECV_BUFFER_SIZE - 4), b"e" * 10]
            stream = b"".join(pack_frame(frame) for frame in sent)
            # The first event finds the first three frames and part of
            # the big one; the rest arrives in uneven pieces.
            peer.sendall(stream[:400])
            self.drain(channel, 3, frames)
            assert frames == sent[:3]
            for start in range(400, len(stream), 5000):
                peer.sendall(stream[start:start + 5000])
            self.drain(channel, len(sent), frames)
            assert frames == sent
            assert loop.frames_in == len(sent)
            peer.close()
            assert wait_until(lambda: self.readable(channel) or ends)
            assert ends == [None]
        finally:
            peer.close()
            channel.close()

    def test_truncated_frame_is_an_abortive_close(self):
        channel, peer, loop, frames, ends = self.channel()
        try:
            peer.sendall(pack_frame(b"whole") + pack_frame(b"cut")[:5])
            peer.close()
            assert wait_until(lambda: self.readable(channel) or ends)
            assert frames == [b"whole"]
            assert len(ends) == 1 and ends[0] is not None
        finally:
            peer.close()
            channel.close()


def _tcp_pair():
    """A reactor-ready socket channel and a blocking sender to it."""
    import socket

    from repro.transport.tcp import SocketChannel

    with socket.create_server(("127.0.0.1", 0)) as listener:
        peer = socket.create_connection(listener.getsockname())
        mine, _addr = listener.accept()
    return SocketChannel(mine), peer.sendall, peer.close


def _shm_pair():
    """A reactor-ready shm channel and a blocking sender to it."""
    import os
    import tempfile

    from repro.transport.shm import ShmTransport

    path = os.path.join(tempfile.gettempdir(),
                        f"repro-handoff-{os.getpid()}-{id(object())}.sock")
    accepted = []
    listener = ShmTransport().listen(f"shm://{path}", accepted.append)
    dialer = ShmTransport().connect(listener.endpoint)
    assert wait_until(lambda: accepted)

    def send(stream: bytes) -> None:
        for frame in _unpack(stream):
            dialer.send(frame)

    def close() -> None:
        dialer.close()
        listener.close()

    return accepted[0], send, close


def _unpack(stream: bytes):
    while stream:
        (length,) = struct.unpack_from("!I", stream)
        yield stream[4:4 + length]
        stream = stream[4 + length:]


class TestLoopHandOff:
    @pytest.mark.parametrize("pair", [_tcp_pair, _shm_pair],
                             ids=["tcp", "shm"])
    def test_frames_read_before_a_hand_off_reach_the_next_holder(self, pair):
        """The frame being served passes the loop on and keeps its
        thread in user code; the frames read with it are delivered, in
        order, by the next holder meanwhile, with no new bytes from
        the peer to wake it."""
        from repro.transport.reactor import runtime_wait

        channel, send, close = pair()
        reactor = Reactor(name="handoff")
        reactor.start()
        frames, release = [], threading.Event()

        class Sink:
            def on_frame(self, payload):
                frames.append(bytes(payload))
                if payload == b"first":
                    runtime_wait()
                    release.wait(10)

            def on_closed(self, failure):
                pass

        try:
            reactor.register(channel, Sink())
            sent = [b"first", b"second", b"third"]
            send(b"".join(pack_frame(frame) for frame in sent))
            assert wait_until(lambda: len(frames) == 3, timeout=5), frames
            assert frames == sent
            assert reactor.loop_handoffs == 1
            release.set()
            send(pack_frame(b"later"))
            assert wait_until(lambda: len(frames) == 4, timeout=5)
            assert frames == sent + [b"later"]
        finally:
            release.set()
            close()
            channel.close()
            reactor.stop()


    def test_a_finished_request_leaves_no_pass_hook_behind(self):
        """A runtime wait on the loop after a request was served there
        passes the loop on without calling that request's hook."""
        from repro.transport.reactor import runtime_wait

        reactor = Reactor(name="hook")
        reactor.start()
        passed = []
        try:
            reactor.call_soon(lambda: reactor.serve(
                lambda: None, on_pass=lambda: passed.append("request")))
            reactor.call_soon(runtime_wait)
            assert wait_until(lambda: reactor.loop_handoffs == 1, timeout=5)
            assert passed == []
        finally:
            reactor.stop()


class TestWriteBackpressure:
    def test_cork_drains_on_writable_events(self):
        """Force genuine kernel backpressure: a burst far larger than a
        shrunken send buffer must cork (not block the sender, not drop
        bytes) and the reactor must drain it on writable events —
        byte-exact and in order — with no sender-thread involvement."""
        import socket

        from repro.transport.tcp import SocketChannel

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        left = socket.create_connection(listener.getsockname(), timeout=10)
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        right, _ = listener.accept()
        listener.close()
        sender = SocketChannel(left)

        class Sink:
            def on_frame(self, payload):
                pass

            def on_closed(self, failure):
                pass

        reactor = Reactor("backpressure")
        reactor.start()
        try:
            reactor.register(sender, Sink(), name="sender")
            # The peer reads nothing yet, so only the first fraction of
            # this burst fits in the kernel buffer.
            payloads = [bytes([i]) * 65536 for i in range(8)]
            for payload in payloads:
                sender.send(payload)
            assert sender.frames_coalesced > 0  # later frames joined the backlog
            assert not sender.flush(timeout=0.1)  # backlog really pending
            # Drain the peer; the reactor flushes the cork as the
            # kernel signals writability.
            expected = sum(len(p) + 4 for p in payloads)
            received = bytearray()
            right.settimeout(10)
            while len(received) < expected:
                chunk = right.recv(65536)
                assert chunk, "sender went quiet mid-backlog"
                received += chunk
            assert sender.flush(timeout=5)
            assert sender.coalesced_flushes >= 1
            # Byte-exact, ordered reassembly of everything that corked.
            assert drip(FrameAssembler(), bytes(received), 65536) == payloads
        finally:
            sender.close()
            right.close()
            reactor.stop()


    def test_two_piece_frames_cork_drain_and_notify(self):
        """``send_vector`` under backpressure: the unsent tail of a
        header + payload frame corks like any other (byte-exact, in
        order, even past the backlog cap that would disconnect a
        one-piece sender), and ``on_drained`` fires once the backlog
        has reached the kernel — never when there is none."""
        import socket

        from repro.transport.tcp import SocketChannel
        from repro.wire.framing import finish_frame, new_frame

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        left = socket.create_connection(listener.getsockname(), timeout=10)
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        right, _ = listener.accept()
        listener.close()
        sender = SocketChannel(left)
        sender.write_backlog_limit = 100_000  # far below what we cork

        class Sink:
            def on_frame(self, payload):
                pass

            def on_closed(self, failure):
                pass

        reactor = Reactor("vector")
        reactor.start()
        try:
            reactor.register(sender, Sink(), name="sender")
            drained = threading.Event()
            assert sender.on_drained(drained.set) is False  # no backlog
            bodies = [bytes([i]) * 300_000 for i in range(4)]
            for index, body in enumerate(bodies):
                head = new_frame()
                head += b"h%d" % index
                sender.send_vector(finish_frame(head, len(body)), body)
            assert sender.on_drained(drained.set) is True
            assert not drained.is_set()
            expected = sum(len(body) + 6 for body in bodies)
            received = bytearray()
            right.settimeout(10)
            while len(received) < expected:
                chunk = right.recv(65536)
                assert chunk, "sender went quiet mid-backlog"
                received += chunk
            assert drained.wait(5)
            assert drip(FrameAssembler(), bytes(received), 65536) == [
                b"h%d" % index + body for index, body in enumerate(bodies)
            ]
        finally:
            sender.close()
            right.close()
            reactor.stop()


class TestThreadAccounting:
    def test_128_connections_need_few_io_threads(self):
        """The acceptance criterion: 128 inbound TCP connections on
        one space leave a handful of resident I/O threads — one per
        reactor shard, one per listener accept socket (SO_REUSEPORT
        shards included) and the shm side door's accept thread —
        where reader-per-connection needed 128+."""
        baseline = io_threads()
        with Space("fan-in", listen=["tcp://127.0.0.1:0"]) as server:
            server.serve("counter", Counter())
            endpoint = server.endpoints[0]
            socks = [handshake_idle_socket(endpoint) for _ in range(128)]
            try:
                assert wait_until(
                    lambda: server.reactor.active_connections >= 128,
                    timeout=10,
                )
                resident = {t for t in io_threads() if t.is_alive()}
                new_io = resident - baseline
                listener_sockets = sum(
                    listener.shards for listener in server._listeners
                )
                bound = server.reactor_shards + listener_sockets + 1
                assert len(new_io) <= bound, sorted(t.name for t in new_io)
                assert bound <= 9  # min(4, cpus) shards: never 128-ish
            finally:
                for sock in socks:
                    sock.close()


class TestPumpOverSim:
    def test_jittered_network_delivery_and_teardown(self):
        """Spaces over the simulated network (no selectable fds) run
        through pump bridges: multi-millisecond jittered, non-FIFO
        delivery must not cross-wire pipelined replies, and shutdown
        must drain every pump."""
        transport = SimTransport(
            NetworkModel(latency=0.002, jitter=0.004, seed=11)
        )
        server = Space("pump-owner", listen=["sim://pump-owner"],
                       transports=[transport])
        client = Space("pump-client", transports=[transport])
        try:
            server.serve("echo", Echo())
            echo = client.import_object("sim://pump-owner", "echo")
            # Sequential calls arrive in order.
            for i in range(20):
                assert echo.echo(i) == i
            # Pipelined calls under jitter: every future gets its own
            # reply (call-id matching survives reordered delivery).
            futures = [async_call(echo.echo, i) for i in range(100)]
            assert [f.result(30) for f in futures] == list(range(100))
            assert client.reactor.active_connections >= 1
            assert client.stats()["reactor"]["frames_in"] >= 120
        finally:
            client.shutdown()
            server.shutdown()
            transport.shutdown()
        assert wait_until(lambda: client.reactor.active_connections == 0)
        assert wait_until(lambda: server.reactor.active_connections == 0)


class TestOrderlyShutdown:
    def test_client_shutdown_reads_orderly_at_server(self):
        with Space("osd-srv", listen=["tcp://127.0.0.1:0"]) as server:
            server.serve("echo", Echo())
            client = Space("osd-cli")
            echo = client.import_object(server.endpoints[0], "echo")
            assert echo.echo("x") == "x"
            with server._conn_lock:
                server_conns = list(server._connections)
            assert len(server_conns) == 1
            client.shutdown()
            assert wait_until(lambda: server_conns[0].closed)
            assert server_conns[0].orderly

    def test_server_shutdown_reads_orderly_at_client(self):
        server = Space("osd-srv2", listen=["tcp://127.0.0.1:0"])
        server.serve("echo", Echo())
        with Space("osd-cli2") as client:
            echo = client.import_object(server.endpoints[0], "echo")
            assert echo.echo("x") == "x"
            client_conn = client.cache.peek(server.endpoints[0])
            assert client_conn is not None
            server.shutdown()
            assert wait_until(lambda: client_conn.closed)
            assert client_conn.orderly


class SlowEcho(NetObj):
    def nap(self, seconds: float) -> str:
        time.sleep(seconds)
        return "rested"


class TestIdleReaping:
    def test_idle_connection_reaped_then_redialled(self):
        with Space("ttl-srv", listen=["tcp://127.0.0.1:0"]) as server, \
                Space("ttl-cli", conn_idle_ttl=0.15) as client:
            server.serve("echo", Echo())
            endpoint = server.endpoints[0]
            agent = client.import_object(endpoint)
            echo = agent.get("echo")
            assert echo.echo(1) == 1
            assert len(client.cache) == 1
            dials = client.cache.stats()["dials"]
            # A held reference keeps its owner's connection (the owner
            # may ping over it); once the last one is cleaned, the
            # connection idles out.
            del agent, echo
            assert wait_until(lambda: len(client.cache) == 0, timeout=10)
            assert client.cache.stats()["idle_reaped"] >= 1
            assert wait_until(
                lambda: client.reactor.active_connections == 0
            )
            # The next import and call redial transparently.
            assert client.import_object(endpoint, "echo").echo(2) == 2
            assert client.cache.stats()["dials"] == dials + 1

    def test_failed_send_does_not_pin_connection(self):
        """A call whose *send* fails (oversize frame -> ProtocolError)
        must unregister its pending slot — a leaked slot looks like a
        call in flight and pins the connection against reaping."""
        with Space("pin-srv", listen=["tcp://127.0.0.1:0"]) as server, \
                Space("pin-cli") as client:
            server.serve("echo", Echo())
            endpoint = server.endpoints[0]
            agent = client.import_object(endpoint)
            echo = agent.get("echo")
            client.cache.idle_ttl = 5.0  # swept manually below
            with pytest.raises(ProtocolError):
                echo.echo(b"y" * (MAX_FRAME_SIZE + 1))
            connection = client.cache.peek(endpoint)
            assert connection is not None
            assert not connection._pending  # the slot was unregistered
            assert echo.echo("usable") == "usable"
            del agent, echo  # a held reference would keep it too
            assert wait_until(
                lambda: not client.dgc_client.holds_refs(server.space_id))
            client.cache._last_used[endpoint] -= 100.0
            # A leaked slot would make the sweep skip this connection.
            assert client.cache.sweep_idle() == 1
            assert client.cache.stats()["idle_reaped"] >= 1

    def test_call_retries_when_reap_wins_pre_send_race(self):
        """The residual reaping race: the caller already holds the
        connection (cache lookup done) when the sweep orderly-closes
        it — e.g. mid-marshal of a huge argument.  The request never
        went on the wire, so the space must retry on a fresh dial
        instead of surfacing CommFailure."""
        with Space("race2-srv", listen=["tcp://127.0.0.1:0"]) as server, \
                Space("race2-cli") as client:
            server.serve("echo", Echo())
            endpoint = server.endpoints[0]
            agent = client.import_object(endpoint)
            echo = agent.get("echo")
            assert echo.echo(1) == 1
            stale = client.cache.peek(endpoint)
            assert stale is not None
            stale.begin_close()  # what sweep_idle does to a candidate
            with pytest.raises(ConnectionClosed):
                stale.call_buffer(stale.next_call_id(),
                                  stale.new_send_buffer())
            # Hand the caller the just-closed connection once, the way
            # a sweep racing the marshal would.
            real_get, handed = client.cache.get, []

            def stale_once(ep):
                if not handed:
                    handed.append(ep)
                    return stale
                return real_get(ep)

            client.cache.get = stale_once
            try:
                assert echo.echo(2) == 2  # retried, not CommFailure
            finally:
                client.cache.get = real_get
            assert handed == [endpoint]

    def test_sweep_skips_connections_with_calls_in_flight(self):
        """The eviction-vs-in-flight race, forced deterministically:
        an aged connection with a pending call must survive the sweep
        untouched; the same connection once idle must reap orderly."""
        with Space("race-srv", listen=["tcp://127.0.0.1:0"]) as server, \
                Space("race-cli") as client:
            server.serve("sleeper", SlowEcho())
            endpoint = server.endpoints[0]
            agent = client.import_object(endpoint)
            sleeper = agent.get("sleeper")
            client.cache.idle_ttl = 5.0  # swept manually below
            connection = client.cache.peek(endpoint)
            assert connection is not None

            future = async_call(sleeper.nap, 0.8)
            # Only the call in flight may keep the connection: a held
            # reference would keep it too.
            del agent, sleeper
            assert wait_until(
                lambda: not client.dgc_client.holds_refs(server.space_id))
            assert len(connection._pending) == 1
            client.cache._last_used[endpoint] -= 100.0  # well past TTL
            assert client.cache.sweep_idle() == 0
            assert client.cache.peek(endpoint) is connection
            assert future.result(10) == "rested"

            assert wait_until(lambda: not connection._pending)
            client.cache._last_used[endpoint] -= 100.0
            assert client.cache.sweep_idle() == 1
            assert client.cache.peek(endpoint) is None
            assert wait_until(lambda: connection.closed)
            assert connection.orderly


class TestSpaceStats:
    def test_stats_aggregates_every_subsystem(self):
        with Space("st-srv", listen=["tcp://127.0.0.1:0"]) as server, \
                Space("st-cli") as client:
            server.serve("echo", Echo())
            echo = client.import_object(server.endpoints[0], "echo")
            assert echo.echo("x") == "x"
            stats = client.stats()
            assert set(stats) == {
                "admission", "naming", "gc", "dispatcher", "cache",
                "reactor", "marshal", "leases", "fastlane", "hotpath",
                "streams",
            }
            assert stats["naming"]["mode"] == "single"
            # Replies are never charged against admission budgets, so
            # the *server* admits the call frames this test sent.
            assert stats["admission"]["shed"] == 0
            assert server.stats()["admission"]["admitted"] >= 1
            assert set(stats["fastlane"]) == {
                "methods_bound", "fastlane_calls", "fastlane_fallbacks",
                "inline_dispatches", "inline_demotions",
            }
            assert stats["fastlane"]["methods_bound"] >= 1
            assert stats["hotpath"]["enabled"] is False
            assert stats["reactor"]["frames_in"] >= 1
            assert stats["reactor"]["frames_out"] >= 1
            assert stats["reactor"]["active_connections"] >= 1
            assert stats["reactor"]["wakeups"] >= 1
            assert stats["cache"]["connections"] == 1
            assert stats["cache"]["dials"] == 1
            assert stats["gc"]["surrogates"] >= 1
            assert stats["dispatcher"]["tasks_failed"] == 0
