"""Tests for surrogate streams (reader/writer marshaling): the local
adapters, the RPC refill/flush path, and the bulk-data plane that
surrogates of a remote owner ride."""

import gc
import hashlib
import io
import math
import sys
import threading
import time

import pytest

from repro import CommFailure, NetObj, RemoteError, Space, Surrogate
from repro.errors import NoSuchMethodError, ProtocolError, ServerBusy
from repro.rpc import messages
from repro.rpc.connection import Connection
from repro.rpc.messages import STREAM_READ
from repro.rpc.streamplane import chunk_for, window_for
from repro.sim.network import NetworkModel
from repro.transport.simulated import SimTransport
from repro.streams import (
    DEFAULT_CHUNK,
    ReaderStream,
    WriterStream,
    as_file,
    export_reader,
    export_writer,
)
from repro.wire import WireRep, framing
from tests.helpers import wait_until


class StreamServer(NetObj):
    """Hands out reader/writer stream objects for named buffers."""

    def __init__(self):
        self.buffers = {}

    def open_read(self, name: str) -> ReaderStream:
        return export_reader(io.BytesIO(self.buffers[name]))

    def open_write(self, name: str) -> WriterStream:
        sink = io.BytesIO()
        original_close = sink.close

        def close_and_store():
            self.buffers[name] = sink.getvalue()
            original_close()

        sink.close = close_and_store
        return export_writer(sink)


@pytest.fixture()
def stream_spaces(request):
    endpoint = f"inproc://streams-{request.node.name}"
    server = Space("server", listen=[endpoint])
    client = Space("client")
    server.serve("streams", StreamServer())
    yield server, client, endpoint
    client.shutdown()
    server.shutdown()


class TestLocalAdapters:
    def test_reader_round_trip(self):
        stream = export_reader(io.BytesIO(b"hello stream"))
        fileobj = as_file(stream)
        assert fileobj.read() == b"hello stream"

    def test_writer_round_trip(self):
        sink = io.BytesIO()
        fileobj = as_file(export_writer(sink))
        fileobj.write(b"payload")
        fileobj.flush()
        assert sink.getvalue() == b"payload"

    def test_buffered_small_reads(self):
        stream = export_reader(io.BytesIO(bytes(range(256)) * 100))
        fileobj = as_file(stream, buffer_size=1024)
        assert fileobj.read(3) == b"\x00\x01\x02"
        assert fileobj.read(2) == b"\x03\x04"

    def test_seek(self):
        fileobj = as_file(export_reader(io.BytesIO(b"0123456789")))
        fileobj.seek(5)
        assert fileobj.read(2) == b"56"

    def test_not_a_stream(self):
        with pytest.raises(TypeError):
            as_file(42)


class TestRemoteStreams:
    def test_remote_write_then_read(self, stream_spaces):
        server, client, endpoint = stream_spaces
        remote = client.import_object(endpoint, "streams")

        writer = remote.open_write("doc")
        assert isinstance(writer, Surrogate)
        out = as_file(writer)
        payload = bytes(range(256)) * 300  # ~77 KiB, crosses buffers
        out.write(payload)
        out.close()

        reader = remote.open_read("doc")
        assert isinstance(reader, Surrogate)
        inp = as_file(reader)
        assert inp.read() == payload

    def test_small_reads_are_batched(self, stream_spaces):
        """The buffer turns many small reads into few remote calls."""
        server, client, endpoint = stream_spaces
        remote = client.import_object(endpoint, "streams")
        writer = as_file(remote.open_write("blob"))
        writer.write(b"x" * 10000)
        writer.close()

        reader_surrogate = remote.open_read("blob")
        calls = {"n": 0}
        original = reader_surrogate.read

        def counting_read(size):
            calls["n"] += 1
            return original(size)

        # Count remote refills through a wrapper object.
        class CountingStream:
            read = staticmethod(counting_read)
            seekable = staticmethod(reader_surrogate.seekable)
            seek = staticmethod(reader_surrogate.seek)
            close = staticmethod(reader_surrogate.close)

        fileobj = as_file(CountingStream(), buffer_size=4096)
        total = 0
        while True:
            chunk = fileobj.read(100)  # 100 tiny application reads
            if not chunk:
                break
            total += len(chunk)
        assert total == 10000
        assert calls["n"] <= 5, "buffering failed to batch remote reads"

    def test_remote_seek(self, stream_spaces):
        server, client, endpoint = stream_spaces
        remote = client.import_object(endpoint, "streams")
        writer = as_file(remote.open_write("s"))
        writer.write(b"abcdefghij")
        writer.close()
        reader = as_file(remote.open_read("s"), buffer_size=4)
        reader.seek(6)
        assert reader.read(3) == b"ghi"

    def test_stream_lifetime_is_gc_managed(self, stream_spaces):
        """Dropping the client's stream surrogate lets the collector
        retire the concrete stream object at the server."""
        import gc
        import time

        server, client, endpoint = stream_spaces
        remote = client.import_object(endpoint, "streams")
        writer = as_file(remote.open_write("temp"))
        writer.write(b"data")
        writer.close()

        reader = remote.open_read("temp")
        exported_before = server.stats()["gc"]["exported"]
        del reader
        gc.collect()
        client.cleanup_daemon.wait_idle()
        deadline = time.time() + 5
        while (time.time() < deadline
               and server.stats()["gc"]["exported"] >= exported_before):
            time.sleep(0.02)
        assert server.stats()["gc"]["exported"] < exported_before


# -- the RPC refill/flush path ------------------------------------------------------

class RecordingReader:
    """A concrete reader (duck-typed, same space) that notes the size
    of every refill asked of it."""

    def __init__(self, data: bytes):
        self._file = io.BytesIO(data)
        self.reads = []

    def read(self, size):
        self.reads.append(size)
        return self._file.read(size)

    def seekable(self):
        return True

    def seek(self, offset, whence=io.SEEK_SET):
        return self._file.seek(offset, whence)

    def close(self):
        self._file.close()


class TestRpcPath:
    def test_read_all_refills_in_buffer_size_units(self):
        """``read()`` of 4 MiB is 64 refills of 64 KiB and the one that
        finds the end — not the 512 that RawIOBase's 8 KiB made."""
        size = 4 * 1024 * 1024
        stream = RecordingReader(bytes(range(256)) * (size // 256))
        data = as_file(stream).read()
        assert len(data) == size and data[:256] == bytes(range(256))
        assert len(stream.reads) <= math.ceil(size / DEFAULT_CHUNK) + 1
        assert set(stream.reads) == {DEFAULT_CHUNK}

    def test_large_read_into_refills_in_buffer_size_units(self):
        stream = RecordingReader(b"z" * 300_000)
        fileobj = as_file(stream, buffer_size=10_000)
        assert fileobj.read(250_000) == b"z" * 250_000
        assert max(stream.reads) <= 10_000

    def test_write_is_split_without_copying_the_whole_payload(self):
        """One ``write`` of many windows reaches the stream in
        window-sized pieces, in order."""
        pieces = []

        class Sink:
            def write(self, data):
                pieces.append(bytes(data))
                return len(data)

            def flush(self):
                pass

            def close(self):
                pass

        payload = bytes(range(251)) * 4000  # ~1 MB, prime period
        fileobj = as_file(Sink(), buffer_size=1024)
        fileobj.write(payload)
        fileobj.close()
        assert b"".join(pieces) == payload
        assert max(len(piece) for piece in pieces) <= window_for(1024)


# -- the bulk-data plane ---------------------------------------------------------------

def pattern(size: int, salt: int = 0) -> bytes:
    """``size`` bytes in which every position is recognisable (a
    misplaced or repeated chunk changes the digest *and* the bytes at
    any offset a test looks at)."""
    words = (size + 7) // 8
    return b"".join(
        (index * 2654435761 + salt).to_bytes(8, "big")
        for index in range(words)
    )[:size]


class CountingFile(io.RawIOBase):
    """An owner-side file that counts what the pump reads from it and
    can be told to fail."""

    def __init__(self, data: bytes, fail_after=None):
        super().__init__()
        self._data = memoryview(data)
        self._pos = 0
        self.bytes_read = 0
        self.fail_after = fail_after

    def readable(self):
        return True

    def seekable(self):
        return True

    def seek(self, offset, whence=io.SEEK_SET):
        base = {io.SEEK_SET: 0, io.SEEK_CUR: self._pos,
                io.SEEK_END: len(self._data)}[whence]
        self._pos = base + offset
        return self._pos

    def readinto(self, buffer):
        if self.fail_after is not None and self.bytes_read >= self.fail_after:
            raise ValueError("disk on fire")
        chunk = self._data[self._pos:self._pos + len(buffer)]
        buffer[:len(chunk)] = chunk
        self._pos += len(chunk)
        self.bytes_read += len(chunk)
        return len(chunk)


class Depot(NetObj):
    """Serves named blobs as reader streams and collects uploads."""

    def __init__(self):
        self.blobs = {}
        self.files = {}
        self.uploads = {}

    def open_read(self, name: str) -> ReaderStream:
        self.files[name] = CountingFile(self.blobs[name])
        return export_reader(self.files[name])

    def open_failing(self, name: str, fail_after: int) -> ReaderStream:
        self.files[name] = CountingFile(self.blobs[name], fail_after)
        return export_reader(self.files[name])

    def open_write(self, name: str) -> WriterStream:
        self.uploads[name] = sink = UploadSink()
        return export_writer(sink)

    def uploaded(self, name: str) -> str:
        return hashlib.sha256(self.uploads[name].data).hexdigest()


class UploadSink(io.RawIOBase):
    def __init__(self):
        super().__init__()
        self.data = bytearray()
        self.flushed_at = -1

    def writable(self):
        return True

    def write(self, data):
        if self.closed:
            raise ValueError("write to closed file")
        self.data += data
        return len(data)

    def flush(self):
        if not self.closed:
            self.flushed_at = len(self.data)


@pytest.fixture(params=["inproc", "tcp", "shm"])
def plane(request):
    """An owner and client over a pumped transport, sockets, and the
    shm ring a loopback dial upgrades to; the owner's dispatcher has
    two workers, so a pump that blocked one would show."""
    listen = (f"inproc://plane-{request.node.name}"
              if request.param == "inproc" else "tcp://127.0.0.1:0")
    shm = "auto" if request.param == "shm" else "off"
    server = Space("owner", listen=[listen], shm=shm,
                   dispatcher_max_workers=2)
    client = Space("client", shm=shm, call_timeout=10.0)
    depot = Depot()
    server.serve("depot", depot)
    remote = client.import_object(server.endpoints[0], "depot")
    assert client.cache.stats()["upgraded_dials"] == (request.param == "shm")
    yield server, client, depot, remote
    client.shutdown()
    server.shutdown()


def streams_of(space):
    return space.stats()["streams"]


class TestStreamPlane:
    def test_engages_for_a_surrogate_and_moves_bytes_exactly(self, plane):
        server, client, depot, remote = plane
        blob = depot.blobs["doc"] = pattern(3_000_000)
        before = client.stats()["reactor"]["frames_out"]
        with as_file(remote.open_read("doc")) as reader:
            assert reader.read() == blob
        mine, theirs = streams_of(client), streams_of(server)
        assert mine["opened"] == 1 and theirs["opened"] == 1
        assert mine["bytes_in"] == theirs["bytes_out"] == len(blob)
        assert mine["chunks_in"] == theirs["chunks_out"] >= 3
        assert mine["fallbacks"] == 0
        assert mine["active"] == 0 and theirs["active"] == 0
        # The client's frames are credits, not requests: far fewer than
        # the 46 refill calls of 64 KiB this transfer used to be.
        assert client.stats()["reactor"]["frames_out"] - before <= 12

        with as_file(remote.open_write("up")) as writer:
            writer.write(blob)
        assert remote.uploaded("up") == hashlib.sha256(blob).hexdigest()
        assert streams_of(client)["bytes_out"] == len(blob)

    def test_close_returns_after_the_owner_flushed_every_byte(self, plane):
        server, client, depot, remote = plane
        blob = pattern(700_000, salt=5)
        writer = as_file(remote.open_write("sync"), buffer_size=4096)
        for start in range(0, len(blob), 1000):  # many small writes
            writer.write(blob[start:start + 1000])
        writer.close()
        # No settling: close() itself is the synchronisation point.
        sink = depot.uploads["sync"]
        assert bytes(sink.data) == blob
        assert sink.flushed_at == len(blob) and sink.closed

    def test_small_reads_and_small_buffers(self, plane):
        server, client, depot, remote = plane
        blob = depot.blobs["s"] = pattern(10_000)
        reader = as_file(remote.open_read("s"), buffer_size=16)
        got = bytearray()
        while True:
            piece = reader.read(7)
            if not piece:
                break
            got += piece
        assert bytes(got) == blob
        assert reader.read() == b""  # at the end, and it stays there
        reader.close()

    def test_eight_streams_share_one_connection_and_two_workers(self, plane):
        """Four downloads and four uploads at once, through one
        connection, against an owner whose dispatcher has two workers:
        pumps and drainers yield instead of blocking, every stream's
        bytes stay its own and in order."""
        server, client, depot, remote = plane
        blobs = {f"b{i}": pattern(1_200_000 + 4099 * i, salt=i)
                 for i in range(8)}
        depot.blobs.update(blobs)
        failures = []

        def download(name):
            with as_file(remote.open_read(name), buffer_size=2048) as f:
                if f.read() != blobs[name]:
                    failures.append(f"{name}: wrong bytes down")

        def upload(name):
            with as_file(remote.open_write(name), buffer_size=2048) as f:
                f.write(blobs[name])
            want = hashlib.sha256(blobs[name]).hexdigest()
            if remote.uploaded(name) != want:
                failures.append(f"{name}: wrong bytes up")

        def guarded(work, name):
            try:
                work(name)
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(f"{name}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(
                target=guarded,
                args=(download if i % 2 else upload, f"b{i}"))
            for i in range(8)
        ]
        # Frequent thread switches: widen every window in which a
        # credit, a chunk and a pump deciding to return could race.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "deadlock"
        assert failures == []
        assert len(client._connections) == 1
        assert streams_of(server)["opened"] == 8
        assert server.stats()["dispatcher"]["max_workers"] == 2

    def test_seek_discards_the_read_ahead(self, plane):
        server, client, depot, remote = plane
        blob = depot.blobs["big"] = pattern(2_000_000)
        reader = as_file(remote.open_read("big"), buffer_size=1024)
        assert reader.read(100) == blob[:100]
        # The owner has pumped a window ahead by now; all of it is moot.
        assert wait_until(lambda: depot.files["big"].bytes_read
                          >= window_for(1024))
        reader.seek(1_500_000)
        assert reader.read(64) == blob[1_500_000:1_500_064]
        reader.seek(3000, io.SEEK_CUR)  # relative to *our* position
        assert reader.tell() == 1_503_064
        assert reader.read(10) == blob[1_503_064:1_503_074]
        reader.seek(-5, io.SEEK_END)
        assert reader.read() == blob[-5:]
        reader.seek(0)
        assert reader.read() == blob
        reader.close()
        assert streams_of(server)["cancelled"] >= 3
        assert streams_of(server)["active"] == 0

    def test_early_close_stops_the_pump_and_frees_the_stream(self, plane):
        server, client, depot, remote = plane
        depot.blobs["huge"] = pattern(8_000_000)
        baseline = server.stats()["gc"]["exported"]
        reader = as_file(remote.open_read("huge"), buffer_size=1024)
        assert len(reader.read(1)) == 1
        reader.close()
        owner_file = depot.files["huge"]
        assert owner_file.closed
        # One window at most was ever read: the pump stopped with us.
        assert owner_file.bytes_read <= window_for(1024) + chunk_for(
            window_for(1024))
        assert streams_of(server)["active"] == 0
        del reader
        assert wait_until(
            lambda: server.stats()["gc"]["exported"] == baseline)

    def test_dropped_reader_is_cancelled_and_collected(self, plane):
        server, client, depot, remote = plane
        depot.blobs["orphan"] = pattern(8_000_000)
        baseline = server.stats()["gc"]["exported"]
        reader = as_file(remote.open_read("orphan"), buffer_size=1024)
        assert len(reader.read(1)) == 1
        del reader  # no close(): the file object's finaliser must do it
        gc.collect()
        assert wait_until(lambda: depot.files["orphan"].closed)
        assert wait_until(lambda: streams_of(server)["active"] == 0)
        assert wait_until(
            lambda: server.stats()["gc"]["exported"] == baseline)
        assert streams_of(client)["active"] == 0

    def test_owner_read_failure_reaches_the_reader(self, plane):
        server, client, depot, remote = plane
        depot.blobs["bad"] = pattern(1_000_000)
        reader = as_file(remote.open_failing("bad", 200_000),
                         buffer_size=1024)
        with pytest.raises(RemoteError) as caught:
            reader.read()
        assert caught.value.kind == "ValueError"
        assert "disk on fire" in caught.value.message
        reader.close()
        assert streams_of(server)["active"] == 0

    def test_owner_write_failure_reaches_the_writer(self, plane):
        server, client, depot, remote = plane
        writer = as_file(remote.open_write("doomed"), buffer_size=1024)
        writer.write(b"x" * 5000)
        depot.uploads["doomed"].close()  # writes now raise ValueError
        with pytest.raises(RemoteError) as caught:
            for _ in range(200):
                writer.write(b"y" * 5000)
        assert caught.value.kind == "ValueError"
        with pytest.raises(RemoteError):
            writer.close()  # the failure is not swallowed by close
        assert writer.closed
        assert streams_of(server)["active"] == 0

    def test_slow_consumer_holds_the_owner_to_one_window(self, plane):
        server, client, depot, remote = plane
        blob = depot.blobs["slow"] = pattern(4_000_000)
        buffer_size = 1024
        window = window_for(buffer_size)
        reader = as_file(remote.open_read("slow"), buffer_size=buffer_size)
        consumed = 0
        owner_file = None
        for step in (1, 5000, 70_000, 300_000):
            assert reader.read(step) == blob[consumed:consumed + step]
            consumed += step
            owner_file = owner_file or depot.files["slow"]
            time.sleep(0.15)  # the pump has all the time it wants
            ahead = owner_file.bytes_read - consumed
            assert 0 <= ahead <= window + buffer_size, (step, ahead)
        assert streams_of(server)["credit_stalls"] >= 1
        assert reader.read() == blob[consumed:]
        reader.close()

    def test_open_on_a_non_stream_is_refused(self, plane):
        server, client, depot, remote = plane
        connection = next(iter(client._connections))
        inbound = connection.streams.open(
            STREAM_READ, remote._wirerep, window_for(1024), 5.0)
        with pytest.raises(NoSuchMethodError):
            inbound.readinto(bytearray(10))
        assert streams_of(client)["active"] == 0

    def test_open_is_shed_with_busy_when_the_queue_is_full(self, plane):
        server, client, depot, remote = plane
        depot.blobs["b"] = pattern(1000)
        reader = as_file(remote.open_read("b"))
        server.dispatcher.max_queued = 0  # every request is refused now
        try:
            with pytest.raises(ServerBusy):
                reader.read()
        finally:
            server.dispatcher.max_queued = 4096
        assert server.stats()["admission"]["shed_queue"] >= 1
        assert reader.read() == depot.blobs["b"]  # a fresh stream works
        reader.close()

    def test_write_larger_than_the_frame_limit(self, plane, monkeypatch):
        """A single ``write`` beyond MAX_FRAME_SIZE used to be one
        frame and a ProtocolError; on the plane it is a run of chunks."""
        server, client, depot, remote = plane
        monkeypatch.setattr(framing, "MAX_FRAME_SIZE", 1 << 20)
        payload = pattern(3 * (1 << 20) + 17)
        with as_file(remote.open_write("big"), buffer_size=4096) as writer:
            assert writer.write(payload) == len(payload)
        assert bytes(depot.uploads["big"].data) == payload


class TestIdleReaping:
    def test_an_open_stream_keeps_its_connection_from_the_reaper(self):
        """A long transfer makes no calls; the idle sweep must count
        its stream as use of the connection."""
        server = Space("owner", listen=["tcp://127.0.0.1:0"], shm="off")
        client = Space("client", shm="off", conn_idle_ttl=0.2)
        try:
            depot = Depot()
            server.serve("depot", depot)
            remote = client.import_object(server.endpoints[0], "depot")
            blob = depot.blobs["b"] = pattern(2_000_000)
            reader = as_file(remote.open_read("b"), buffer_size=1024)
            assert reader.read(10) == blob[:10]
            connection = next(iter(client._connections))
            time.sleep(0.8)  # several sweeps, no calls, stream open
            assert not connection.closed and not connection.closing
            assert reader.read() == blob[10:]
            reader.close()
            # ... and once nothing is open or held the reaper does its
            # job (a held reference keeps the owner's connection).
            del reader, remote
            assert wait_until(lambda: connection.closed)
        finally:
            client.shutdown()
            server.shutdown()


class TestPeerDeath:
    @pytest.fixture()
    def pair(self):
        server = Space("owner", listen=["tcp://127.0.0.1:0"], shm="off")
        client = Space("client", shm="off", call_timeout=5.0)
        depot = Depot()
        server.serve("depot", depot)
        remote = client.import_object(server.endpoints[0], "depot")
        yield server, client, depot, remote
        client.shutdown()
        server.shutdown()

    @staticmethod
    def kill(server):
        for connection in list(server._connections):
            connection.close(notify_peer=False)

    def test_read_and_close_fail_with_comm_failure(self, pair):
        server, client, depot, remote = pair
        depot.blobs["b"] = pattern(4_000_000)
        reader = as_file(remote.open_read("b"), buffer_size=1024)
        assert len(reader.read(10)) == 10
        self.kill(server)
        server.shutdown()
        with pytest.raises(CommFailure):
            reader.read()  # what was buffered runs out, then the failure
        with pytest.raises(CommFailure):
            reader.close()
        assert streams_of(client)["active"] == 0

    def test_write_and_close_fail_with_comm_failure(self, pair):
        server, client, depot, remote = pair
        writer = as_file(remote.open_write("w"), buffer_size=1024)
        writer.write(b"a" * 100_000)
        self.kill(server)
        server.shutdown()
        with pytest.raises(CommFailure):
            for _ in range(100):
                writer.write(b"b" * 100_000)
        with pytest.raises(CommFailure):
            writer.close()
        assert streams_of(client)["active"] == 0


class TestUnorderedChannel:
    """Channels that may reorder frames keep streams on remote calls."""

    def test_a_reordering_network_keeps_streams_on_remote_calls(self):
        """Stream chunks carry no sequence numbers, so a channel that
        may reorder frames (the jittered simulated network) is not
        offered to the plane; calls match replies by id and cope."""
        transport = SimTransport(
            NetworkModel(latency=0.0005, jitter=0.002, seed=3))
        server = Space("owner", listen=["sim://owner"],
                       transports=[transport])
        client = Space("client", transports=[transport])
        try:
            depot = Depot()
            server.serve("depot", depot)
            remote = client.import_object("sim://owner", "depot")
            assert not next(iter(client._connections)).carries_streams
            blob = depot.blobs["doc"] = pattern(300_000)
            with as_file(remote.open_read("doc")) as reader:
                assert reader.read() == blob
            assert streams_of(client)["opened"] == 0
            assert streams_of(client)["fallbacks"] == 1
        finally:
            client.shutdown()
            server.shutdown()
            transport.shutdown()

    def test_write_larger_than_the_frame_limit_on_the_rpc_path(
            self, monkeypatch):
        # The RPC path an unordered channel takes, forced over tcp.
        monkeypatch.setattr(Connection, "carries_streams", False)
        server = Space("owner", listen=["tcp://127.0.0.1:0"], shm="off")
        client = Space("client", shm="off")
        try:
            depot = Depot()
            server.serve("depot", depot)
            remote = client.import_object(server.endpoints[0], "depot")
            monkeypatch.setattr(framing, "MAX_FRAME_SIZE", 1 << 20)
            payload = pattern(3 * (1 << 20) + 17)
            with as_file(remote.open_write("big"),
                         buffer_size=4096) as writer:
                assert writer.write(payload) == len(payload)
            assert bytes(depot.uploads["big"].data) == payload
            assert streams_of(client)["opened"] == 0
        finally:
            client.shutdown()
            server.shutdown()


class TestPlaneProtocol:
    """The plane against a peer that speaks the frames by hand —
    including one that breaks the credit rules."""

    @pytest.fixture()
    def wired(self):
        """Connection ``a`` opens streams; ``b`` serves them from the
        ``objects`` a test registers by stream target index."""
        from tests.test_rpc import connected_pair

        objects = {}
        seen = []

        def serve(conn, message):
            seen.append(message)
            if type(message) is messages.StreamOpen:
                conn.streams.start(message.stream_id,
                                   objects[message.target.index])
            elif type(message) is messages.Ping:
                conn.send(messages.PingAck(message.call_id))

        conn_a, conn_b, _id_a, id_b = connected_pair(handle_b=serve)
        yield conn_a, conn_b, objects, seen, id_b
        conn_a.close()

    def test_ids_are_odd_from_the_dialer_even_from_the_acceptor(self, wired):
        conn_a, conn_b, objects, seen, id_b = wired
        objects[1] = export_reader(io.BytesIO(b"abc"))
        first = conn_a.streams.open(STREAM_READ, WireRep(id_b, 1), 64, 5.0)
        second = conn_a.streams.open(STREAM_READ, WireRep(id_b, 1), 64, 5.0)
        back = conn_b.streams.open(STREAM_READ, WireRep(id_b, 1), 64, 5.0)
        assert (first.stream_id, second.stream_id) == (1, 3)
        assert back.stream_id == 2
        assert first.readall() == b"abc"

    def test_a_writer_sending_beyond_its_credit_is_ended(self, wired):
        conn_a, conn_b, objects, seen, id_b = wired
        sink = objects[1] = UploadSink()
        release = threading.Event()
        sink.write = lambda data: release.wait(10) and len(data)
        outbound = conn_a.streams.open(
            messages.STREAM_WRITE, WireRep(id_b, 1), 100, 5.0)
        for _ in range(3):  # 150 bytes against a window of 100
            conn_a.send_stream_data(outbound.stream_id, b"x" * 50)
        release.set()
        with pytest.raises(RemoteError) as caught:
            outbound.finish()
        assert caught.value.kind == "ProtocolError"
        assert "beyond its credit" in caught.value.message
        assert conn_b.streams.active == 0

    def test_an_owner_sending_beyond_its_credit_fails_the_reader(self, wired):
        conn_a, conn_b, objects, seen, id_b = wired
        objects[1] = export_reader(io.BytesIO(b""))
        inbound = conn_a.streams.open(STREAM_READ, WireRep(id_b, 1), 100, 5.0)
        for _ in range(3):
            conn_b.send_stream_data(inbound.stream_id, b"y" * 50)
        with pytest.raises(ProtocolError):
            while inbound.readinto(bytearray(10)):
                pass
        assert conn_a.streams.active == 0

    def test_a_duplicate_open_does_not_rebind_a_live_stream(self, wired):
        conn_a, conn_b, objects, seen, id_b = wired
        sink = objects[1] = UploadSink()
        objects[2] = UploadSink()
        outbound = conn_a.streams.open(
            messages.STREAM_WRITE, WireRep(id_b, 1), 1000, 5.0)
        conn_a.send(messages.StreamOpen(
            outbound.stream_id, WireRep(id_b, 2), messages.STREAM_WRITE, 1000))
        outbound.write(memoryview(b"to the first sink"))
        outbound.finish()
        assert bytes(sink.data) == b"to the first sink"
        assert not objects[2].data
        assert sum(type(m) is messages.StreamOpen for m in seen) == 1

    def test_frames_for_unknown_streams_are_ignored(self, wired):
        conn_a, conn_b, objects, seen, id_b = wired
        conn_a.send_stream_data(99, b"stray chunk")
        conn_a.send(messages.StreamCredit(99, 10))
        conn_a.send(messages.StreamEnd(99, messages.END_CANCEL))
        reply = conn_a.call(messages.Ping(conn_a.next_call_id()), timeout=5)
        assert isinstance(reply, messages.PingAck)  # still in business


class TestWarmWorker:
    """``StreamTable.run``: the worker that finished a step is handed
    the connection's next one — if, and only if, it is idle."""

    @pytest.fixture()
    def table(self):
        from repro.rpc.dispatcher import Dispatcher
        from repro.rpc.streamplane import StreamStats, StreamTable

        dispatcher = Dispatcher("warm-test")
        table = StreamTable(None, dispatcher, StreamStats(), outbound=True)
        yield table
        table.fail_all(CommFailure("test over"))
        dispatcher.shutdown()

    @staticmethod
    def step(log, gate=None):
        def run():
            log.append(threading.current_thread())
            if gate is not None:
                assert gate.wait(10)
        return run

    def test_successive_steps_reuse_the_parked_worker(self, table):
        log = []
        for done in range(1, 6):
            assert table.run(self.step(log))
            assert wait_until(lambda: len(log) == done and table._parked)
        assert len(set(log)) == 1

    def test_a_busy_worker_is_not_waited_for(self, table):
        log, gate = [], threading.Event()
        assert table.run(self.step(log, gate))      # holds its worker
        assert wait_until(lambda: len(log) == 1)
        assert table.run(self.step(log))            # goes to the pool
        assert wait_until(lambda: len(log) == 2)
        assert log[0] is not log[1]
        gate.set()

    def test_the_parked_worker_leaves_after_a_moment_or_at_teardown(
            self, table, monkeypatch):
        from repro.rpc import streamplane

        log = []
        monkeypatch.setattr(streamplane, "WARM_SECONDS", 0.05)
        assert table.run(self.step(log))
        assert wait_until(lambda: len(log) == 1 and table._parked)
        assert wait_until(lambda: not table._parked, timeout=2)
        monkeypatch.setattr(streamplane, "WARM_SECONDS", 30.0)
        assert table.run(self.step(log))
        assert wait_until(lambda: len(log) == 2 and table._parked)
        table.fail_all(CommFailure("gone"))
        assert wait_until(lambda: not table._parked, timeout=2)
