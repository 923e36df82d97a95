"""Unit tests for the RPC layer: messages, dispatcher, connections, cache."""

import json
import queue
import re
import threading
import time
from pathlib import Path

import pytest

from repro.errors import CallTimeout, CommFailure, ProtocolError, UnmarshalError
from repro.rpc import messages
from repro.rpc.cache import ConnectionCache
from repro.rpc.connection import Connection
from repro.rpc.dispatcher import Dispatcher
from repro.transport.inprocess import channel_pair
from repro.wire import protocol
from repro.wire.ids import SpaceID, fresh_space_id
from repro.wire.wirerep import WireRep


#: The wire bytes of every corpus frame, as hex.  Generated by the
#: hand-written codecs the spec compiler replaced, so every frame must
#: stay byte-identical; regenerate only with a protocol bump:
#: ``PYTHONPATH=src python -m tests.test_rpc``.
_GOLDEN_PATH = Path(__file__).with_name("messages_golden.json")

_OWNER = SpaceID(0x0123456789ABCDEF, 0xFEDCBA9876543210, "owner")
_PEER = SpaceID(0x1111111111111111, 0x2222222222222222, "peer")


def message_corpus():
    """Named example frames: every frame class at least once, with
    multi-byte varints, empty and non-ASCII strings, empty trailing
    payloads and the ``StreamEnd`` defaults."""
    m = messages
    rep, far = WireRep(_OWNER, 7), WireRep(_PEER, 300)
    return [
        ("hello", m.Hello(_PEER, "peer", 7, 7)),
        ("hello-newer", m.Hello(_PEER, "p\u00e9er", 7, 130)),
        ("hello-ack", m.HelloAck(_OWNER, "owner", 7, 7)),
        ("bye", m.Bye()),
        ("bind-call", m.BindCall(3, 1, rep, "deposit", b"\x00\x01\x02")),
        ("bind-call-empty", m.BindCall(4, 2, rep, "", b"")),
        ("bind-call-wide", m.BindCall(70000, 300, far, "d\u00e9p\u00f4t", b"x")),
        ("bound-call", m.BoundCall(5, 1, b"\x00\x01")),
        ("bound-call-wide", m.BoundCall(2 ** 40, 127, b"")),
        ("fast-call", m.FastCall(123456, 7, b"\x00")),
        ("result", m.Result(3, b"\x07")),
        ("result-empty", m.Result(0, b"")),
        ("fast-result", m.FastResult(123456, b"\x00")),
        ("fault", m.Fault(3, "ValueError", "bad amount", "Traceback ...")),
        ("fault-empty", m.Fault(9, "", "", "")),
        ("busy", m.Busy(5, "queue full", 50)),
        ("dirty", m.Dirty(9, rep, 12)),
        ("dirty-ack", m.DirtyAck(9, True)),
        ("dirty-ack-error", m.DirtyAck(9, False, "no such object")),
        ("copy-ack", m.CopyAck(rep, 55)),
        ("ping", m.Ping(77)),
        ("ping-ack", m.PingAck(77)),
        ("clean-batch", m.CleanBatch(12, ((rep, 15, False), (far, 16, True)))),
        ("clean-batch-one", m.CleanBatch(14, ((rep, 300, True),))),
        ("clean-batch-empty", m.CleanBatch(13, ())),
        ("clean-batch-ack", m.CleanBatchAck(12, 2)),
        ("lease-req", m.LeaseReq(20, rep, 5000)),
        ("lease-grant", m.LeaseGrant(20, True, 21, 4500, 3, "", b"snap")),
        ("lease-denied", m.LeaseGrant(22, False, 0, 0, 0, "unleasable", b"")),
        ("lease-renew", m.LeaseRenew(23, rep, 21, 5000)),
        ("lease-release", m.LeaseRelease(rep, 21)),
        ("lease-invalidate", m.LeaseInvalidate(24, far, 21, 4)),
        ("lease-invalidate-ack", m.LeaseInvalidateAck(24)),
        ("stream-open-read", m.StreamOpen(1, rep, m.STREAM_READ, 1 << 21)),
        ("stream-open-write", m.StreamOpen(2, far, m.STREAM_WRITE, 0)),
        ("stream-data", m.StreamData(1, b"chunk \x00 bytes")),
        ("stream-data-empty", m.StreamData(3, b"")),
        ("stream-credit", m.StreamCredit(1, 524288)),
        ("stream-end-ok", m.StreamEnd(1, m.END_OK, 8 << 20)),
        ("stream-end-fault", m.StreamEnd(1, m.END_FAULT, 5, "OSError", "disk full")),
        ("stream-end-defaults", m.StreamEnd(2 ** 40 + 1, m.END_CANCEL)),
    ]


_CORPUS = dict(message_corpus())


class TestMessageCodecs:
    def examples(self):
        return list(_CORPUS.values())

    def test_corpus_covers_every_frame_class(self):
        assert {type(m) for m in self.examples()} == set(
            messages.FRAMES.values())
        golden = json.loads(_GOLDEN_PATH.read_text())
        assert sorted(golden) == sorted(_CORPUS)

    @pytest.mark.parametrize("name", sorted(_CORPUS))
    def test_encoding_is_pinned(self, name):
        golden = json.loads(_GOLDEN_PATH.read_text())[name]
        message = _CORPUS[name]
        assert message.encode().hex() == golden
        out = bytearray(b"head")
        message.encode_into(out)
        assert out[4:].hex() == golden

    def test_encode_prefix_is_the_envelope(self):
        for message in self.examples():
            spec = type(message).fields
            if not spec:
                continue  # the hand-written HELLO pair, or BYE
            trailing = b""
            if spec[-1][1] == messages.TRAILING:
                trailing = getattr(message, spec[-1][0])
                spec = spec[:-1]
            out = bytearray()
            type(message).encode_prefix(
                out, *[getattr(message, field[0]) for field in spec])
            assert bytes(out) + trailing == message.encode(), message

    def test_round_trip_all(self):
        for message in self.examples():
            decoded = messages.decode(message.encode())
            assert decoded == message, message

    def test_round_trip_via_memoryview(self):
        # The receive path decodes memoryview slices of the frame
        # buffer; every codec must accept them like bytes.
        for message in self.examples():
            decoded = messages.decode(memoryview(message.encode()))
            assert decoded == message, message

    def test_every_proper_prefix_is_rejected(self):
        """A cut frame raises — unless all that is missing is trailing
        payload, or a HELLO's trailing ``max_version`` (the oldest
        peers' form, which announces ``version``)."""
        for message in self.examples():
            encoded = message.encode()
            for cut in range(len(encoded)):
                try:
                    decoded = messages.decode(encoded[:cut])
                except (UnmarshalError, ProtocolError):
                    continue
                assert type(decoded) is type(message), (message, cut)
                if isinstance(message, messages.Hello):
                    assert decoded.max_version == decoded.version
                    assert decoded == type(message)(
                        message.space_id, message.nickname,
                        message.version, message.version)
                else:
                    assert message.fields[-1][1] == messages.TRAILING
                    assert decoded.encode() == encoded[:cut], (message, cut)

    def test_bad_enum_bytes_are_rejected(self):
        opened = bytearray(messages.StreamOpen(
            1, WireRep(_OWNER, 7), messages.STREAM_READ, 5).encode())
        opened[-2] = 2  # the direction byte, before a one-byte credit
        with pytest.raises(UnmarshalError):
            messages.decode(bytes(opened))
        ended = bytearray(messages.StreamEnd(1, messages.END_OK).encode())
        ended[2] = 3  # the status byte
        with pytest.raises(UnmarshalError):
            messages.decode(memoryview(ended))

    def test_reply_tags_have_call_ids(self):
        for message in self.examples():
            if message.tag in messages.REPLY_TAGS:
                assert hasattr(message, "call_id")

    def test_empty_frame_rejected(self):
        with pytest.raises(ProtocolError):
            messages.decode(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolError):
            messages.decode(b"\xee")

    @pytest.mark.parametrize("tag", [0x10, 0x22, 0x23])
    def test_retired_tags_are_unknown(self, tag):
        assert protocol.tag_name(tag) == f"UNKNOWN(0x{tag:02x})"
        with pytest.raises(ProtocolError):
            messages.decode(bytes([tag, 1, 0]))

    def test_hello_carries_nickname(self):
        sid = fresh_space_id("alpha")
        decoded = messages.decode(messages.Hello(sid, "alpha").encode())
        assert decoded.space_id == sid
        assert decoded.space_id.nickname == "alpha"


class TestProtocolDocument:
    """PROTOCOL.md section 3's message table against the frame specs,
    so the two cannot drift."""

    _TOKEN = re.compile(r"\b(varint|str|WireRep|u8|trailing)\b")

    def rows(self):
        """``(tag, name, layout)`` of every row of the table."""
        text = (Path(__file__).parents[1] / "PROTOCOL.md").read_text()
        lines = iter(text.split("## 3. Messages", 1)[1].splitlines())
        for line in lines:
            if line.startswith("| tag | name | layout"):
                break
        next(lines)  # the |---| rule
        rows = []
        for line in lines:
            if not line.startswith("|"):
                break
            tag, name, layout = [cell.strip() for cell in line.split("|")[1:4]]
            rows.append((int(tag, 16), name, layout))
        return rows

    def test_live_rows_are_the_registered_frames(self):
        live = {tag: name for tag, name, _ in self.rows()
                if name != "*retired*"}
        assert live == {tag: protocol.tag_name(tag)
                        for tag in messages.FRAMES}

    def test_retired_rows_are_unregistered(self):
        rows = self.rows()
        retired = {tag for tag, name, _ in rows if name == "*retired*"}
        assert retired == {0x10, 0x22, 0x23}
        assert len(rows) == len({tag for tag, _, _ in rows})
        assert not retired & set(messages.FRAMES)

    def test_layouts_match_the_specs(self):
        kind_tokens = {
            messages.UINT: ["varint"], messages.STR: ["str"],
            messages.FLAG: ["u8"], messages.WIREREP: ["WireRep"],
            messages.ENTRIES: ["varint", "WireRep", "varint", "u8"],
            messages.TRAILING: ["trailing"],
        }
        for tag, name, layout in self.rows():
            cls = messages.FRAMES.get(tag)
            if cls is None or issubclass(cls, messages.Hello):
                continue  # retired, or the hand-written HELLO pair
            expected = []
            for field in cls.fields:
                kind = field[1]
                expected += (["u8"] if isinstance(kind, frozenset)
                             else kind_tokens[kind])
            assert self._TOKEN.findall(layout) == expected, name


class TestDispatcher:
    def test_runs_tasks(self):
        dispatcher = Dispatcher()
        done = threading.Event()
        dispatcher.submit(done.set)
        assert done.wait(5)
        dispatcher.shutdown()

    def test_blocked_task_does_not_stall_others(self):
        dispatcher = Dispatcher()
        release = threading.Event()
        second_ran = threading.Event()
        dispatcher.submit(lambda: release.wait(10))
        dispatcher.submit(second_ran.set)
        assert second_ran.wait(5)
        release.set()
        dispatcher.shutdown()

    def test_many_concurrent_blockers(self):
        dispatcher = Dispatcher(max_workers=64)
        release = threading.Event()
        started = []
        lock = threading.Lock()

        def blocker():
            with lock:
                started.append(1)
            release.wait(10)

        for _ in range(32):
            dispatcher.submit(blocker)
        deadline = time.time() + 5
        while time.time() < deadline and len(started) < 32:
            time.sleep(0.01)
        assert len(started) == 32
        release.set()
        dispatcher.shutdown()

    def test_shutdown_drops_new_tasks(self):
        dispatcher = Dispatcher()
        dispatcher.shutdown()
        ran = threading.Event()
        dispatcher.submit(ran.set)
        assert not ran.wait(0.2)

    def test_task_exception_contained(self, capsys):
        dispatcher = Dispatcher()
        done = threading.Event()
        dispatcher.submit(lambda: 1 / 0)
        dispatcher.submit(done.set)
        assert done.wait(5)
        dispatcher.shutdown()


class _ScriptedQueue:
    """Wraps a dispatcher's task queue so a test can park the lone
    worker inside its idle-timeout window and release it on cue —
    making the submit-vs-retire race deterministic instead of a
    one-in-a-million timing accident."""

    def __init__(self, real, park_on_call, parked, fire_timeout):
        self._real = real
        self._park_on_call = park_on_call
        self._parked = parked
        self._fire_timeout = fire_timeout
        self._calls = 0

    def put(self, item):
        self._real.put(item)

    def empty(self):
        return self._real.empty()

    def get_nowait(self):
        # Deny the fast path so every dequeue goes through the scripted
        # ``get`` below and the call numbering stays deterministic.
        raise queue.Empty

    def get(self, timeout=None):
        self._calls += 1
        if self._calls == self._park_on_call:
            self._parked.set()
            self._fire_timeout.wait(5)
            raise queue.Empty
        return self._real.get(timeout=timeout)


class _StealScript:
    """Task-queue wrapper that routes every dequeue to the first worker
    thread it sees (so that worker "steals" tasks whose submit spawned
    someone else), while the second worker parks on ``b_release`` and
    then simulates an idle timeout without ever touching the queue."""

    def __init__(self, real):
        self._real = real
        self._first = None
        self._first_lock = threading.Lock()
        self.b_parked = threading.Event()
        self.b_release = threading.Event()

    def put(self, item):
        self._real.put(item)

    def empty(self):
        return self._real.empty()

    def get_nowait(self):
        # Deny the fast path so the thread routing in ``get`` sees
        # every dequeue.
        raise queue.Empty

    def get(self, timeout=None):
        me = threading.current_thread()
        with self._first_lock:
            if self._first is None:
                self._first = me
            first = self._first is me
        if first:
            return self._real.get(timeout=timeout)
        self.b_parked.set()
        self.b_release.wait(10)
        raise queue.Empty


class TestDispatcherSpawnRace:
    """The submit/idle-timeout race: ``submit`` sees an idle worker and
    skips spawning, but that worker times out concurrently.  Both
    interleavings must leave someone to run the task."""

    def _park_lone_worker(self, dispatcher):
        parked = threading.Event()
        fire_timeout = threading.Event()
        scripted = _ScriptedQueue(
            dispatcher._tasks, park_on_call=2,
            parked=parked, fire_timeout=fire_timeout,
        )
        dispatcher._tasks = scripted
        primed = threading.Event()
        dispatcher.submit(primed.set)  # spawns the worker (get #1)
        assert primed.wait(5)
        assert parked.wait(5)  # worker is now inside get #2
        return scripted, fire_timeout

    def test_task_enqueued_before_worker_retires_still_runs(self):
        # Window 1: the task is on the queue by the time the timed-out
        # worker reaches the lock, so the worker must notice and stay.
        dispatcher = Dispatcher(idle_timeout=5.0)
        _scripted, fire_timeout = self._park_lone_worker(dispatcher)
        ran = threading.Event()
        dispatcher.submit(ran.set)  # sees idle == 1, does not spawn
        fire_timeout.set()  # worker's get raises Empty *after* the put
        assert ran.wait(5), "task stranded: idle worker retired past it"
        dispatcher.shutdown()

    def test_task_after_all_workers_retired_spawns_fresh(self):
        # Window 2 of the old design (worker retires between submit's
        # idle check and its put) is gone: the claim and the put are
        # one atomic step under the pool lock.  What remains is the
        # plain sequential case — a fully retired pool must spawn.
        dispatcher = Dispatcher(idle_timeout=0.05)
        primed = threading.Event()
        dispatcher.submit(primed.set)
        assert primed.wait(5)
        deadline = time.time() + 5
        while time.time() < deadline and dispatcher._workers > 0:
            time.sleep(0.01)
        assert dispatcher._workers == 0, "worker failed to idle out"
        ran = threading.Event()
        dispatcher.submit(ran.set)
        assert ran.wait(5), "task stranded: no worker and none spawned"
        dispatcher.shutdown()

    def test_stolen_spawn_task_does_not_leak_idle_count(self):
        # Regression: a task that triggered a spawn is dequeued ("stolen")
        # by a pre-existing worker that had just gone idle, while the
        # freshly spawned worker parks without ever running anything and
        # then idles out.  The old per-thread ``counted`` flag leaked a
        # phantom idle worker here: with all workers retired, a later
        # submit "claimed" the phantom instead of spawning, stranding
        # its task forever.
        dispatcher = Dispatcher(idle_timeout=0.05)
        real = dispatcher._tasks
        script = _StealScript(real)
        dispatcher._tasks = script
        release = threading.Event()
        stolen_ran = threading.Event()
        dispatcher.submit(lambda: release.wait(10))  # spawns worker A
        dispatcher.submit(stolen_ran.set)  # spawn-destined: spawns worker B
        release.set()  # A finishes, steals the spawn-destined task
        assert stolen_ran.wait(5)
        assert script.b_parked.wait(5)  # B is parked, never ran a task
        script.b_release.set()  # B "times out" and retires
        deadline = time.time() + 5
        while time.time() < deadline and dispatcher._workers > 0:
            time.sleep(0.01)
        assert dispatcher._workers == 0, "workers failed to idle out"
        dispatcher._tasks = real
        ran = threading.Event()
        dispatcher.submit(ran.set)
        assert ran.wait(5), "task stranded: submit claimed a phantom idle worker"
        dispatcher.shutdown()

    def test_burst_submit_spawns_one_worker_per_task(self):
        # A burst of submits must not queue behind the one parked idle
        # worker: the submitter claims it once, then spawns for every
        # further task while the first is still waking up.
        dispatcher = Dispatcher()
        primed = threading.Event()
        dispatcher.submit(primed.set)  # leaves exactly one idle worker
        assert primed.wait(5)
        release = threading.Event()
        started = []
        lock = threading.Lock()

        def blocker():
            with lock:
                started.append(1)
            release.wait(10)

        for _ in range(8):
            dispatcher.submit(blocker)
        deadline = time.time() + 5
        while time.time() < deadline and len(started) < 8:
            time.sleep(0.01)
        assert len(started) == 8, f"only {len(started)}/8 tasks running"
        release.set()
        dispatcher.shutdown()


def connected_pair(handle_a=None, handle_b=None, on_close_a=None, on_close_b=None):
    """Two handshaken Connections over an in-process channel pair."""
    chan_a, chan_b = channel_pair()
    id_a = fresh_space_id("a")
    id_b = fresh_space_id("b")
    dispatcher = Dispatcher()
    default = lambda conn, msg: None  # noqa: E731
    result = {}

    def make_b():
        result["b"] = Connection(
            chan_b, id_b, dispatcher, handle_b or default,
            on_close=on_close_b, outbound=False,
        )

    thread = threading.Thread(target=make_b, daemon=True)
    thread.start()
    conn_a = Connection(
        chan_a, id_a, dispatcher, handle_a or default,
        on_close=on_close_a, outbound=True,
    )
    thread.join(timeout=5)
    assert "b" in result
    return conn_a, result["b"], id_a, id_b


class TestConnection:
    def test_handshake_exchanges_identities(self):
        conn_a, conn_b, id_a, id_b = connected_pair()
        assert conn_a.peer_id == id_b
        assert conn_b.peer_id == id_a
        conn_a.close()

    def test_call_and_reply(self):
        def serve(conn, msg):
            assert isinstance(msg, messages.BoundCall)
            # args_pickle arrives as a zero-copy memoryview slice.
            conn.send(messages.Result(msg.call_id, bytes(msg.args_pickle) * 2))

        conn_a, _conn_b, _a, _b = connected_pair(handle_b=serve)
        reply = conn_a.call(messages.BoundCall(conn_a.next_call_id(), 1, b"xy"))
        assert isinstance(reply, messages.Result)
        assert reply.result_pickle == b"xyxy"
        conn_a.close()

    def test_concurrent_calls_match_replies(self):
        def serve(conn, msg):
            time.sleep(0.01 if msg.args_pickle == b"slow" else 0)
            conn.send(messages.Result(msg.call_id, msg.args_pickle))

        conn_a, _b, _x, _y = connected_pair(handle_b=serve)
        outputs = {}

        def invoke(tagname):
            reply = conn_a.call(
                messages.BoundCall(conn_a.next_call_id(), 1, tagname)
            )
            outputs[tagname] = reply.result_pickle

        threads = [
            threading.Thread(target=invoke, args=(name,))
            for name in (b"slow", b"fast1", b"fast2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert outputs == {b"slow": b"slow", b"fast1": b"fast1", b"fast2": b"fast2"}
        conn_a.close()

    def test_call_timeout(self):
        conn_a, _b, _x, _y = connected_pair()  # peer never replies
        with pytest.raises(CallTimeout):
            conn_a.call(
                messages.BoundCall(conn_a.next_call_id(), 1, b""),
                timeout=0.1,
            )
        conn_a.close()

    def test_peer_close_fails_pending_calls(self):
        conn_a, conn_b, _x, _y = connected_pair()
        failures = []

        def invoke():
            try:
                conn_a.call(messages.BoundCall(conn_a.next_call_id(), 1, b""))
            except CommFailure as exc:
                failures.append(exc)

        thread = threading.Thread(target=invoke, daemon=True)
        thread.start()
        time.sleep(0.05)
        conn_b.close()
        thread.join(timeout=5)
        assert len(failures) == 1

    def test_on_close_called_once(self):
        closes = []
        conn_a, conn_b, _x, _y = connected_pair(on_close_a=closes.append)
        conn_b.close()
        time.sleep(0.1)
        conn_a.close()
        assert closes == [conn_a]

    def test_send_after_close(self):
        conn_a, _b, _x, _y = connected_pair()
        conn_a.close()
        with pytest.raises(CommFailure):
            conn_a.send(messages.Ping(1))

    def test_undecodable_frame_drops_connection(self):
        chan_a, chan_b = channel_pair()
        dispatcher = Dispatcher()
        holder = {}

        def make_b():
            holder["b"] = Connection(
                chan_b, fresh_space_id("b"), dispatcher,
                lambda c, m: None, outbound=False,
            )

        thread = threading.Thread(target=make_b, daemon=True)
        thread.start()
        _conn_a = Connection(  # held so the reader side stays alive
            chan_a, fresh_space_id("a"), dispatcher,
            lambda c, m: None, outbound=True,
        )
        thread.join(timeout=5)
        chan_a.send(b"\xee garbage")
        deadline = time.time() + 5
        while time.time() < deadline and not holder["b"].closed:
            time.sleep(0.01)
        assert holder["b"].closed


class _CountingChannel:
    """Channel wrapper recording every frame buffer by identity, to
    assert the send path's copy discipline at the Connection layer."""

    def __init__(self, inner):
        self._inner = inner
        self.framed_buffers = []

    def send(self, payload):
        self._inner.send(payload)

    def send_framed(self, frame):
        self.framed_buffers.append(frame)
        # Mimic the default Channel.send_framed: one copy, header off.
        self._inner.send(bytes(memoryview(frame)[4:]))

    def recv(self, timeout=None):
        return self._inner.recv(timeout=timeout)

    def flush(self, timeout=None):
        return self._inner.flush(timeout)

    def half_close(self):
        self._inner.half_close()

    def close(self):
        self._inner.close()

    @property
    def closed(self):
        return self._inner.closed


class TestSendCopyDiscipline:
    def test_steady_state_sends_reuse_one_pooled_buffer(self):
        """Every message must travel in the connection's pooled frame
        buffer: after warmup, N sends hand the channel the same
        bytearray N times — zero buffer allocations per message."""
        chan_a, chan_b = channel_pair()
        counting = _CountingChannel(chan_a)
        dispatcher = Dispatcher()
        holder = {}

        def make_b():
            holder["b"] = Connection(
                chan_b, fresh_space_id("b"), dispatcher,
                lambda c, m: None, outbound=False,
            )

        thread = threading.Thread(target=make_b, daemon=True)
        thread.start()
        conn_a = Connection(
            counting, fresh_space_id("a"), dispatcher,
            lambda c, m: None, outbound=True,
        )
        thread.join(timeout=5)

        counting.framed_buffers.clear()  # drop the handshake frames
        for i in range(10):
            conn_a.send(messages.Ping(i))
        assert len(counting.framed_buffers) == 10
        first = counting.framed_buffers[0]
        assert all(frame is first for frame in counting.framed_buffers)
        assert isinstance(first, bytearray)
        conn_a.close()


class TestConnectionCache:
    def make_cache(self):
        created = []

        class FakeConn:
            closing = False

            def __init__(self):
                self.closed = False

            def close(self):
                self.closed = True

        def connect(endpoint):
            conn = FakeConn()
            created.append((endpoint, conn))
            return conn

        return ConnectionCache(connect), created

    def test_reuses_connection(self):
        cache, created = self.make_cache()
        first = cache.get("tcp://x:1")
        second = cache.get("tcp://x:1")
        assert first is second
        assert len(created) == 1

    def test_distinct_endpoints_distinct_connections(self):
        cache, created = self.make_cache()
        assert cache.get("tcp://x:1") is not cache.get("tcp://y:2")
        assert len(created) == 2

    def test_closed_connection_redialed(self):
        cache, created = self.make_cache()
        first = cache.get("tcp://x:1")
        first.closed = True
        second = cache.get("tcp://x:1")
        assert second is not first
        assert len(created) == 2

    def test_evict(self):
        cache, _created = self.make_cache()
        conn = cache.get("tcp://x:1")
        cache.evict(conn)
        assert cache.peek("tcp://x:1") is None

    def test_close_all_then_get_raises(self):
        from repro.errors import SpaceShutdownError

        cache, created = self.make_cache()
        conn = cache.get("tcp://x:1")
        cache.close_all()
        assert conn.closed
        with pytest.raises(SpaceShutdownError):
            cache.get("tcp://x:1")

    def test_evict_drops_endpoint_lock(self):
        cache, _created = self.make_cache()
        conn = cache.get("tcp://x:1")
        assert "tcp://x:1" in cache._locks
        cache.evict(conn)
        assert "tcp://x:1" not in cache._locks

    def test_endpoint_churn_bounds_lock_table(self):
        # A long-lived space contacting many transient peers must not
        # accumulate one lock entry per endpoint ever seen.
        cache, _created = self.make_cache()
        for i in range(200):
            conn = cache.get(f"tcp://peer-{i}:1")
            cache.evict(conn)
        assert len(cache) == 0
        assert len(cache._locks) == 0

    def test_failed_dials_do_not_grow_lock_table(self):
        def connect(endpoint):
            raise CommFailure("unreachable")

        cache = ConnectionCache(connect)
        for i in range(200):
            with pytest.raises(CommFailure):
                cache.get(f"tcp://down-{i}:1")
        assert len(cache._locks) == 0

    def test_close_all_clears_locks(self):
        cache, _created = self.make_cache()
        cache.get("tcp://x:1")
        cache.get("tcp://y:2")
        cache.close_all()
        assert len(cache._locks) == 0

    def test_connection_closed_during_dial_not_cached(self):
        """A connection that dies between handshake and cache insert
        has already run its on_close hook — eviction can never fire
        for it, so caching it would wedge the endpoint behind a dead
        entry that only a second dial-and-race could clear."""

        class FakeConn:
            closing = False

            def __init__(self):
                self.closed = True  # died before the cache saw it

            def close(self):
                self.closed = True

        cache = ConnectionCache(lambda endpoint: FakeConn())
        with pytest.raises(CommFailure):
            cache.get("tcp://x:1")
        assert cache.peek("tcp://x:1") is None
        assert len(cache._locks) == 0  # endpoint not wedged
        # The endpoint stays dialable: a later successful dial caches.

        class LiveConn:
            closed = False
            closing = False

            def close(self):
                self.closed = True

        cache._connect = lambda endpoint: LiveConn()
        assert cache.get("tcp://x:1") is cache.get("tcp://x:1")

    def test_concurrent_get_single_dial(self):
        dialing = threading.Event()
        proceed = threading.Event()
        created = []

        class FakeConn:
            closed = False
            closing = False

            def close(self):
                self.closed = True

        def connect(endpoint):
            dialing.set()
            proceed.wait(5)
            conn = FakeConn()
            created.append(conn)
            return conn

        cache = ConnectionCache(connect)
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(cache.get("e://1")))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        assert dialing.wait(5)
        proceed.set()
        for t in threads:
            t.join(timeout=5)
        assert len(created) == 1
        assert all(r is results[0] for r in results)


class TestHandshakeEdges:
    def test_newer_peer_negotiates_down(self):
        from repro.wire import protocol
        from repro.wire.varint import write_uvarint

        chan_a, chan_b = channel_pair()
        dispatcher = Dispatcher()
        # A hypothetical future peer announces a higher version; the
        # acceptor should speak its own version, not reject.
        sid = fresh_space_id("future-peer")
        frame = bytearray([0x01])
        write_uvarint(frame, protocol.PROTOCOL_VERSION + 7)
        frame += sid.to_bytes()
        write_uvarint(frame, 0)  # empty nickname
        chan_a.send(bytes(frame))
        conn = Connection(
            chan_b, fresh_space_id("b"), dispatcher,
            lambda c, m: None, outbound=False,
        )
        try:
            assert conn.peer_id == sid
            ack = messages.decode(memoryview(chan_a.recv(timeout=5)))
            assert ack.version == ack.max_version == protocol.PROTOCOL_VERSION
        finally:
            conn.close()

    @staticmethod
    def _old_peer_frame(tag, sid, version, max_version=None):
        """A HELLO/HELLO_ACK as an older peer sends it: ``version`` in
        the legacy field, then ``max_version`` as the trailing field —
        or, from a genuine v2 peer, no trailing field at all."""
        from repro.wire.varint import write_uvarint

        frame = bytearray([tag])
        write_uvarint(frame, version)
        frame += sid.to_bytes()
        write_uvarint(frame, 0)  # empty nickname
        if max_version is not None:
            write_uvarint(frame, max_version)
        return bytes(frame)

    @pytest.mark.parametrize("hello", [(2, 6), (2, None), (7, 7)],
                             ids=["max6", "genuine-v2", "v7"])
    @pytest.mark.parametrize("outbound", [True, False],
                             ids=["dial", "accept"])
    def test_below_floor_peer_fails_fast(self, outbound, hello):
        """A peer whose announced max is below our version — a HELLO
        carrying max 6, a genuine v2 HELLO with no trailing field, or a
        v7 peer that still sends unit CLEAN frames —
        is refused with ProtocolError during the handshake, in either
        dial direction, well inside the handshake timeout.  The
        acceptor answers HELLO_ACK before closing, so a rejected
        dialer fails fast with its own version error."""
        from repro.wire import protocol

        chan_a, chan_b = channel_pair()
        dispatcher = Dispatcher()
        old = self._old_peer_frame(0x02 if outbound else 0x01,
                                   fresh_space_id("old-peer"), *hello)
        if outbound:
            def old_acceptor():
                chan_a.recv(timeout=5)
                chan_a.send(old)

            threading.Thread(target=old_acceptor, daemon=True).start()
        else:
            chan_a.send(old)
        started = time.monotonic()
        with pytest.raises(ProtocolError):
            Connection(
                chan_b, fresh_space_id("b"), dispatcher,
                lambda c, m: None, outbound=outbound, handshake_timeout=10,
            )
        assert time.monotonic() - started < 5
        if not outbound:
            frame = chan_a.recv(timeout=5)
            assert frame is not None, "acceptor closed without replying"
            ack = messages.decode(memoryview(frame))
            assert isinstance(ack, messages.HelloAck)
            assert ack.version == ack.max_version == protocol.PROTOCOL_VERSION

    def test_garbage_during_handshake_rejected(self):
        chan_a, chan_b = channel_pair()
        dispatcher = Dispatcher()
        chan_a.send(b"\xff not a hello")
        with pytest.raises((ProtocolError, Exception)):
            Connection(
                chan_b, fresh_space_id("b"), dispatcher,
                lambda c, m: None, outbound=False,
            )

    def test_wrong_message_type_during_handshake(self):
        chan_a, chan_b = channel_pair()
        dispatcher = Dispatcher()
        chan_a.send(messages.Ping(1).encode())
        with pytest.raises(ProtocolError):
            Connection(
                chan_b, fresh_space_id("b"), dispatcher,
                lambda c, m: None, outbound=False,
            )

    def test_peer_disappears_during_handshake(self):
        from repro.errors import CommFailure as CF

        chan_a, chan_b = channel_pair()
        dispatcher = Dispatcher()
        chan_a.close()
        with pytest.raises(CF):
            Connection(
                chan_b, fresh_space_id("b"), dispatcher,
                lambda c, m: None, outbound=False,
            )


if __name__ == "__main__":
    _GOLDEN_PATH.write_text(json.dumps(
        {name: message.encode().hex() for name, message in message_corpus()},
        indent=1, sort_keys=True) + "\n")
