"""The shared-memory ring transport.

Three layers of coverage: the raw channel (rings, doorbell, blocking
mode, big frames vs. small rings), the failure semantics the satellite
demands (peer process dies mid-frame → CommFailure, stale rendezvous
socket → silent TCP fallback), and the Space-level auto-upgrade
(loopback TCP endpoints transparently ride shm; ``shm="off"`` opts
out).
"""

from __future__ import annotations

import os
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro import Space
from repro.core.netobj import NetObj
from repro.errors import CommFailure
from repro.transport.shm import ShmTransport, rendezvous_path
from repro.wire.framing import pack_frame


class Echo(NetObj):
    def echo(self, value):
        return value


def _unique_endpoint() -> str:
    path = os.path.join(
        tempfile.gettempdir(), f"repro-shm-test-{os.getpid()}-{id(object())}.sock"
    )
    return f"shm://{path}"


class _Collector:
    """on_connect sink that parks accepted channels for the test."""

    def __init__(self):
        self.channels = []
        self.ready = threading.Event()

    def __call__(self, channel):
        self.channels.append(channel)
        self.ready.set()


class TestRawChannel:
    def test_round_trip_both_directions(self):
        transport = ShmTransport()
        accepted = _Collector()
        listener = transport.listen(_unique_endpoint(), accepted)
        dialer = transport.connect(listener.endpoint)
        try:
            assert accepted.ready.wait(5)
            server = accepted.channels[0]
            dialer.send(b"ping")
            assert server.recv(timeout=5) == b"ping"
            server.send(b"pong")
            assert dialer.recv(timeout=5) == b"pong"
        finally:
            dialer.close()
            for channel in accepted.channels:
                channel.close()
            listener.close()

    def test_many_frames_in_order(self):
        transport = ShmTransport()
        accepted = _Collector()
        listener = transport.listen(_unique_endpoint(), accepted)
        dialer = transport.connect(listener.endpoint)
        try:
            assert accepted.ready.wait(5)
            server = accepted.channels[0]
            for i in range(200):
                dialer.send(b"frame-%d" % i)
            for i in range(200):
                assert server.recv(timeout=5) == b"frame-%d" % i
        finally:
            dialer.close()
            for channel in accepted.channels:
                channel.close()
            listener.close()

    def test_frame_larger_than_ring(self):
        """A frame bigger than the ring streams through in chunks:
        the producer spins for space while the consumer drains."""
        transport = ShmTransport(capacity=4096)
        accepted = _Collector()
        listener = transport.listen(_unique_endpoint(), accepted)
        dialer = transport.connect(listener.endpoint)
        payload = bytes(range(256)) * 256  # 64 KiB through a 4 KiB ring
        try:
            assert accepted.ready.wait(5)
            server = accepted.channels[0]
            received = []
            reader = threading.Thread(
                target=lambda: received.append(server.recv(timeout=10))
            )
            reader.start()
            dialer.send(payload)
            reader.join(timeout=10)
            assert not reader.is_alive()
            assert bytes(received[0]) == payload
        finally:
            dialer.close()
            for channel in accepted.channels:
                channel.close()
            listener.close()

    def test_clean_eof_between_frames(self):
        transport = ShmTransport()
        accepted = _Collector()
        listener = transport.listen(_unique_endpoint(), accepted)
        dialer = transport.connect(listener.endpoint)
        try:
            assert accepted.ready.wait(5)
            server = accepted.channels[0]
            dialer.send(b"last words")
            dialer.close()
            # Frames already in shared memory survive the close.
            assert server.recv(timeout=5) == b"last words"
            assert server.recv(timeout=5) is None
        finally:
            for channel in accepted.channels:
                channel.close()
            listener.close()

    def test_listener_unlinks_rendezvous_socket(self):
        transport = ShmTransport()
        endpoint = _unique_endpoint()
        listener = transport.listen(endpoint, _Collector())
        path = endpoint[len("shm://"):]
        assert os.path.exists(path)
        listener.close()
        assert not os.path.exists(path)

    def test_backing_file_is_unlinked_after_setup(self):
        """The dialer unlinks the segment the moment the listener has
        mapped it, so a later crash leaks no files."""
        transport = ShmTransport()
        accepted = _Collector()
        listener = transport.listen(_unique_endpoint(), accepted)
        before = set(os.listdir(tempfile.gettempdir()))
        dialer = transport.connect(listener.endpoint)
        try:
            leftover = {
                name for name in os.listdir(tempfile.gettempdir())
                if name.startswith("repro-shm-seg-") and name not in before
            }
            assert not leftover
        finally:
            dialer.close()
            for channel in accepted.channels:
                channel.close()
            listener.close()


#: The cross-process flood: frame size, and frames each way (1 GiB).
FLOOD_FRAME = 64 * 1024
FLOOD_FRAMES = 16 * 1024


class _FloodSink:
    """Reactor sink checking that frame *n* is the *n*-th to arrive."""

    def __init__(self, expect: int):
        self.expect = expect
        self.count = 0
        self.bad = []
        self.done = threading.Event()

    def on_frame(self, payload) -> None:
        seq = self.count
        if (len(payload) != FLOOD_FRAME
                or payload[:8] != seq.to_bytes(8, "big")
                or payload[-1] != seq & 0xFF):
            self.bad.append(seq)
        self.count += 1
        if self.count == self.expect:
            self.done.set()

    def on_closed(self, failure) -> None:
        self.done.set()


def flood(channel, frames: int = FLOOD_FRAMES, timeout: float = 120.0) -> str:
    """Send ``frames`` numbered frames through ``channel`` while
    receiving as many, in reactor mode (corked sends, doorbells, the
    ``need_space`` flag — the state a torn cursor wedged).  Returns
    what went wrong, or ``""``.  Both processes of the test run this."""
    from repro.transport.reactor import Reactor

    reactor = Reactor("flood")
    reactor.start()
    sink = _FloodSink(frames)
    try:
        reactor.register(channel, sink)
        body = bytearray(FLOOD_FRAME)
        for seq in range(frames):
            body[:8] = seq.to_bytes(8, "big")
            body[-1] = seq & 0xFF
            channel.send(body)
            if not channel.flush(timeout):
                return f"send wedged at frame {seq} of {frames}"
        if not sink.done.wait(timeout):
            return f"receive wedged at frame {sink.count} of {frames}"
        if sink.count != frames or sink.bad:
            return f"got {sink.count} frames, bad ones: {sink.bad[:5]}"
        return ""
    finally:
        reactor.stop()


class TestCrossProcess:
    def test_a_gibibyte_each_way_through_a_one_mebibyte_ring(self):
        """Both ends of every other test here share one interpreter
        lock, so neither can catch the other half-way through a cursor
        store.  Two processes can: with cursors packed byte by byte a
        peer read ``tail - head`` as 10 951 893 417 on a 1 MiB ring,
        set ``need_space`` and wedged every later frame."""
        transport = ShmTransport(capacity=1 << 20)
        accepted = _Collector()
        listener = transport.listen(_unique_endpoint(), accepted)
        script = (
            "import sys\n"
            "from repro.transport.shm import ShmTransport\n"
            "from tests.test_shm_transport import flood\n"
            "channel = ShmTransport(capacity=1 << 20).connect(sys.argv[1])\n"
            "problem = flood(channel)\n"
            "sys.stdout.write(problem or 'OK')\n"
            "sys.stdout.flush()\n"
            "sys.stdin.read()\n"  # hold the ring until the parent is done
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        peer = subprocess.Popen(
            [sys.executable, "-c", script, listener.endpoint], env=env,
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            assert accepted.ready.wait(30), "peer never connected"
            assert flood(accepted.channels[0]) == ""
            out, _ = peer.communicate(b"", timeout=150)
            assert out == b"OK" and peer.returncode == 0
        finally:
            if peer.poll() is None:
                peer.kill()
                peer.wait()
            for channel in accepted.channels:
                channel.close()
            listener.close()


class TestPeerDeath:
    def test_peer_dies_mid_frame_blocking_recv(self):
        """A peer that vanishes after half a frame must surface
        CommFailure, not a clean EOF and not a hang."""
        transport = ShmTransport()
        accepted = _Collector()
        listener = transport.listen(_unique_endpoint(), accepted)
        dialer = transport.connect(listener.endpoint)
        try:
            assert accepted.ready.wait(5)
            server = accepted.channels[0]
            # Half a frame: a header announcing 100 bytes, 10 present.
            partial = struct.pack("!I", 100) + b"x" * 10
            assert dialer._out.produce(partial) == len(partial)
            # Die abruptly: no Bye, no flush — just a dropped doorbell.
            dialer._bell.shutdown(socket.SHUT_RDWR)
            with pytest.raises(CommFailure):
                server.recv(timeout=5)
        finally:
            dialer.close()
            for channel in accepted.channels:
                channel.close()
            listener.close()

    def test_peer_process_dies_mid_frame(self):
        """The real thing: the dialing *process* exits uncleanly with
        a partial frame in the ring."""
        transport = ShmTransport()
        accepted = _Collector()
        listener = transport.listen(_unique_endpoint(), accepted)
        path = listener.endpoint[len("shm://"):]
        script = (
            "import os, struct, sys\n"
            "from repro.transport.shm import ShmTransport\n"
            f"ch = ShmTransport().connect('shm://{path}')\n"
            "ch._out.produce(struct.pack('!I', 100) + b'y' * 10)\n"
            "ch._ring_bell(b'\\x01')\n"
            "os._exit(1)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        try:
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, cwd=os.path.dirname(
                    os.path.dirname(os.path.abspath(__file__))
                ), timeout=30,
            )
            assert proc.returncode == 1
            assert accepted.ready.wait(5)
            server = accepted.channels[0]
            with pytest.raises(CommFailure):
                server.recv(timeout=5)
        finally:
            for channel in accepted.channels:
                channel.close()
            listener.close()

    def test_reactor_mode_teardown_on_abrupt_peer_death(self):
        """Space-level: the surviving connection tears down (and is
        evicted) when its shm peer drops mid-frame."""
        with Space("shm-die-srv", listen=["tcp://127.0.0.1:0"]) as server, \
                Space("shm-die-cli") as client:
            server.serve("echo", Echo())
            echo = client.import_object(server.endpoints[0], "echo")
            assert echo.echo("up") == "up"
            assert client.cache.stats()["upgraded_dials"] == 1
            connection = client.cache.peek(server.endpoints[0])
            channel = connection._channel
            # Server-side abrupt death: half a frame, then a dead bell.
            server_conn = next(iter(server._connections))
            server_channel = server_conn._channel
            server_channel._out.produce(struct.pack("!I", 100) + b"z" * 10)
            server_channel._bell.shutdown(socket.SHUT_RDWR)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and not connection.closed:
                time.sleep(0.02)
            assert connection.closed
            assert channel.closed


class TestSpaceUpgrade:
    def test_loopback_tcp_upgrades_to_shm(self):
        with Space("up-srv", listen=["tcp://127.0.0.1:0"]) as server, \
                Space("up-cli") as client:
            server.serve("echo", Echo())
            echo = client.import_object(server.endpoints[0], "echo")
            assert echo.echo([1, 2, 3]) == [1, 2, 3]
            stats = client.cache.stats()
            assert stats["upgraded_dials"] == 1
            # The cache stays keyed by the *original* endpoint.
            assert client.cache.peek(server.endpoints[0]) is not None
            # The shm side door never appears in advertised endpoints.
            assert all(e.startswith("tcp://") for e in server.endpoints)
            assert all(
                e.startswith("tcp://") for e in server.public_endpoints
            )

    def test_shm_off_stays_on_tcp(self):
        with Space("off-srv", listen=["tcp://127.0.0.1:0"], shm="off") \
                as server, Space("off-cli", shm="off") as client:
            server.serve("echo", Echo())
            echo = client.import_object(server.endpoints[0], "echo")
            assert echo.echo("tcp") == "tcp"
            assert client.cache.stats()["upgraded_dials"] == 0
            assert server._shm_listeners == []

    def test_stale_rendezvous_falls_back_to_tcp(self):
        """A crashed space's leftover rendezvous socket must not make
        its endpoint undialable: the upgrade attempt fails and the
        cache silently dials the real TCP address."""
        with Space("stale-srv", listen=["tcp://127.0.0.1:0"], shm="off") \
                as server, Space("stale-cli") as client:
            server.serve("echo", Echo())
            port = int(server.endpoints[0].rpartition(":")[2])
            path = rendezvous_path(port)
            stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            stale.bind(path)
            stale.close()  # path exists, nobody listens
            try:
                echo = client.import_object(server.endpoints[0], "echo")
                assert echo.echo("fallback") == "fallback"
                assert client.cache.stats()["upgraded_dials"] == 0
            finally:
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def test_upgraded_traffic_counts_on_reactor(self):
        """Frames over the upgraded channel flow through the reactor
        like any selectable channel (no pump bridge)."""
        with Space("cnt-srv", listen=["tcp://127.0.0.1:0"]) as server, \
                Space("cnt-cli") as client:
            server.serve("echo", Echo())
            echo = client.import_object(server.endpoints[0], "echo")
            for i in range(10):
                assert echo.echo(i) == i
            stats = client.stats()["reactor"]
            assert stats["frames_in"] >= 10
            assert stats["active_connections"] == 1
