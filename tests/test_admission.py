"""The bounded ingress pipeline: BUSY shedding, credit gauges, read
throttling, bounded write backlogs and draining shutdown.

Covers the wire story (the BUSY frame, and that only BUSY means
"shed": a shed a remote method itself ran into comes back as a remote
error), the admission gauges at unit level (inflight budget
pause/resume, token-bucket rate policing, bulkhead quotas) and the
per-object bulkhead end to end, the bounded dispatcher (queue-full
refusal, discard-drain shutdown with on_shed hooks), the capped TCP
write backlog against a never-reading peer, the bounded in-process
pipes, and the endpoint health demotion in the ConnectionCache.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro import NetObj, Space
from repro.errors import CommFailure, RemoteError, ServerBusy
from repro.rpc import messages
from repro.rpc.admission import (
    AdmissionConfig, AdmissionController, busy_backoff, retry_busy,
)
from repro.rpc.cache import ConnectionCache
from repro.rpc.dispatcher import Dispatcher
from repro.transport.inprocess import channel_pair
from repro.wire import protocol
from tests.helpers import wait_until


class Echo(NetObj):
    def echo(self, value):
        return value


class Sleeper(NetObj):
    def nap(self, seconds: float) -> str:
        time.sleep(seconds)
        return "woke"


class Front(NetObj):
    """Counts its runs, then calls through to a backend."""

    def __init__(self, backend):
        self.backend = backend
        self.ran = 0

    def transfer(self) -> str:
        self.ran += 1
        return self.backend.echo("moved")


class Gate(NetObj):
    """Holds callers while closed; records how many were inside at once."""

    def __init__(self):
        self.open = threading.Event()
        self.open.set()
        self.entered = threading.Event()
        self._lock = threading.Lock()
        self.inside = 0
        self.peak = 0

    def hold(self) -> str:
        with self._lock:
            self.inside += 1
            self.peak = max(self.peak, self.inside)
        self.entered.set()
        self.open.wait(10)
        with self._lock:
            self.inside -= 1
        return "done"


class Blocker(NetObj):
    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def wait(self) -> str:
        self.entered.set()
        self.release.wait(10)
        return "done"


def _pair(tag: str, server_kwargs=None, client_kwargs=None):
    server = Space(f"adm-srv-{tag}", listen=["tcp://127.0.0.1:0"],
                   shm="off", **(server_kwargs or {}))
    client = Space(f"adm-cli-{tag}", shm="off", **(client_kwargs or {}))
    return server, client, server.endpoints[0]


class TestBusyWire:
    def test_busy_frame_round_trips(self):
        frame = messages.Busy(7, "queue full", 50)
        decoded = messages.decode(memoryview(frame.encode()))
        assert decoded == frame
        assert decoded.reason == "queue full"
        assert decoded.retry_after_ms == 50

    def test_busy_is_a_reply_and_gated_at_v6(self):
        # BUSY completes pending futures (a reply tag), and every peer
        # of the one protocol version decodes it.
        assert protocol.BUSY in messages.REPLY_TAGS
        assert protocol.tag_name(protocol.BUSY) == "BUSY"
        assert protocol.PROTOCOL_VERSION == 8

    def test_server_busy_exception_carries_hints(self):
        exc = ServerBusy("rate limit", 0.25)
        assert exc.reason == "rate limit"
        assert exc.retry_after == 0.25
        assert not isinstance(exc, CommFailure)  # connection is healthy


class TestGaugeUnit:
    def make(self, **kwargs):
        controller = AdmissionController(AdmissionConfig(**kwargs))
        events = []
        gauge = controller.attach(
            lambda: events.append("pause"), lambda: events.append("resume")
        )
        return controller, gauge, events

    def test_inflight_budget_pauses_then_low_water_resumes(self):
        controller, gauge, events = self.make(
            max_inflight_frames=4, max_inflight_bytes=None, resume_ratio=0.5
        )
        for _ in range(4):
            assert gauge.admit(100) is None
        assert events == ["pause"]  # at budget: reads stop, nothing sheds
        gauge.release(100)          # 3 left: still above 0.5 * 4
        assert events == ["pause"]
        gauge.release(100)          # 2 left: at the low-water mark
        assert events == ["pause", "resume"]
        stats = controller.stats()
        assert stats["read_pauses"] == 1
        assert stats["read_resumes"] == 1
        assert stats["admitted"] == 4
        assert stats["shed"] == 0

    def test_byte_budget_pauses_like_the_frame_budget(self):
        _, gauge, events = self.make(
            max_inflight_frames=None, max_inflight_bytes=1000
        )
        assert gauge.admit(600) is None
        assert events == []
        assert gauge.admit(600) is None
        assert events == ["pause"]
        gauge.release(600)
        gauge.release(600)
        assert events == ["pause", "resume"]

    def test_rate_policing_sheds_and_refills(self):
        _, gauge, _ = self.make(rate=1000.0, burst=2)
        assert gauge.admit(1) is None
        assert gauge.admit(1) is None
        assert gauge.admit(1) == "rate limit"   # burst spent
        time.sleep(0.01)                        # ~10 tokens refill
        assert gauge.admit(1) is None

    def test_closed_gauge_never_resumes(self):
        _, gauge, events = self.make(max_inflight_frames=1)
        gauge.admit(1)
        assert events == ["pause"]
        gauge.close()
        gauge.release(1)
        assert events == ["pause"]  # teardown won the race; stay silent

    def test_bulkhead_quota_is_per_key(self):
        controller = AdmissionController(AdmissionConfig(bulkhead_quota=2))
        assert controller.bulkhead_enter("a")
        assert controller.bulkhead_enter("a")
        assert not controller.bulkhead_enter("a")   # quota spent
        assert controller.bulkhead_enter("b")       # other targets fine
        controller.bulkhead_leave("a")
        assert controller.bulkhead_enter("a")

    def test_backoff_is_jittered_and_capped(self):
        for attempt in range(8):
            delay = busy_backoff(0.05, attempt)
            assert 0.0 < delay < 1.5
        assert busy_backoff(100.0, 0) <= 1.5  # stale hints cannot stall

    def test_retry_busy_retries_then_raises(self):
        calls = []

        def flaky():
            calls.append(1)
            raise ServerBusy("queue full", 0.001)

        with pytest.raises(ServerBusy):
            retry_busy(flaky, attempts=3)
        assert len(calls) == 3

        attempts = []

        def recovers():
            attempts.append(1)
            if len(attempts) < 2:
                raise ServerBusy("queue full", 0.001)
            return "ok"

        assert retry_busy(recovers, attempts=3) == "ok"


class TestDispatcherBounds:
    def test_max_queued_refuses_and_discard_fires_on_shed(self):
        pool = Dispatcher("bounded", max_workers=1, max_queued=2)
        started, release = threading.Event(), threading.Event()

        def occupy():
            started.set()
            release.wait(10)

        try:
            assert pool.submit(occupy)
            assert started.wait(5)      # the only worker is now pinned
            shed = []

            def make_task(i):
                def task():
                    pass
                task.on_shed = lambda: shed.append(i)
                return task

            assert pool.submit(make_task(1))
            assert pool.submit(make_task(2))
            assert not pool.submit(make_task(3))   # cap reached: refused
            assert pool.stats()["shed_submits"] == 1
            discarded = pool.shutdown(discard_pending=True)
            assert discarded == 2
            assert sorted(shed) == [1, 2]
            assert pool.stats()["discarded_tasks"] == 2
        finally:
            release.set()

    def test_shard_overflow_spills_to_shared_queue(self):
        pool = Dispatcher("spill", max_workers=1, shards=2,
                          shard_queue_max=1)
        started, release = threading.Event(), threading.Event()
        try:
            assert pool.submit(lambda: (started.set(), release.wait(10)))
            assert started.wait(5)
            assert pool.submit(lambda: None, shard=0)
            assert pool.submit(lambda: None, shard=0)  # deque full: spills
            assert pool.stats()["shard_spills"] == 1
        finally:
            release.set()
            pool.shutdown(discard_pending=True)


class TestBoundedInprocPipes:
    def test_sender_fails_when_peer_stops_reading(self):
        a, b = channel_pair(capacity=4, send_timeout=0.05)
        try:
            for i in range(4):
                a.send(b"frame")
            with pytest.raises(CommFailure, match="backlog exceeded"):
                a.send(b"one too many")
        finally:
            a.close()
            b.close()

    def test_draining_peer_unblocks_the_sender(self):
        a, b = channel_pair(capacity=2, send_timeout=5.0)
        try:
            a.send(b"one")
            a.send(b"two")
            drained = threading.Event()

            def drain():
                assert b.recv(timeout=5) == b"one"
                drained.set()

            thread = threading.Thread(target=drain, daemon=True)
            thread.start()
            a.send(b"three")    # parks briefly, then the drain frees it
            assert drained.wait(5)
            thread.join(5)
        finally:
            a.close()
            b.close()

    def test_close_bypasses_the_bound(self):
        a, b = channel_pair(capacity=1, send_timeout=0.05)
        a.send(b"fill")
        a.close()   # must not block behind the full pipe
        b.close()


class TestWriteBacklogCap:
    def test_never_reading_peer_is_disconnected_at_the_cap(self):
        """A capped reactor-mode cork: once the kernel buffer and the
        cap are both full, the sender gets CommFailure, the overflow
        hook fires, and the channel is closed (slow-consumer
        disconnect) instead of buffering without bound."""
        from repro.transport.reactor import Reactor
        from repro.transport.tcp import SocketChannel

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        left = socket.create_connection(listener.getsockname(), timeout=10)
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        right, _ = listener.accept()
        listener.close()
        sender = SocketChannel(left)
        sender.write_backlog_limit = 64 * 1024
        overflows = []
        sender.on_backlog_overflow = lambda: overflows.append(1)

        class Sink:
            def on_frame(self, payload):
                pass

            def on_closed(self, failure):
                pass

        reactor = Reactor("backlog-cap")
        reactor.start()
        try:
            reactor.register(sender, Sink(), name="sender")
            payload = b"x" * 8192
            with pytest.raises(CommFailure, match="write backlog"):
                # Never more than (SNDBUF + cap) / 8 KiB sends needed.
                for _ in range(64):
                    sender.send(payload)
            assert overflows == [1]
            assert sender.closed
        finally:
            sender.close()
            right.close()
            reactor.stop()


class TestEndToEndShedding:
    def test_queue_full_server_answers_busy(self):
        # max_queued=0: every dispatched request is refused at the
        # global cap, so the client's import sheds deterministically.
        server, client, endpoint = _pair(
            "qfull",
            server_kwargs={"admission": AdmissionConfig(max_queued=0)},
        )
        with server, client:
            with pytest.raises(ServerBusy) as excinfo:
                client.import_object(endpoint, "anything")
            assert excinfo.value.retry_after == pytest.approx(0.05)
            stats = server.stats()["admission"]
            assert stats["shed_queue"] >= 1
            assert stats["shed"] >= 1
            assert server.dispatcher.stats()["shed_submits"] >= 1
            # The client observed the sheds on its admission account.
            assert client.stats()["admission"]["busy_received"] >= 1

    def test_a_nested_shed_is_a_remote_error(self):
        """ServerBusy promises the call did not run.  A method that ran
        and then met a busy backend must not pass that promise on: its
        caller gets RemoteError kind "ServerBusy" — no busy_received,
        no endpoint strike, nothing for retry_busy to retry."""
        backend = Space("adm-backend", listen=["tcp://127.0.0.1:0"],
                        shm="off")
        front, client, endpoint = _pair("nested")
        with backend, front, client:
            backend.serve("echo", Echo())
            impl = Front(front.import_object(backend.endpoints[0], "echo"))
            front.serve("front", impl)
            remote = client.import_object(endpoint, "front")
            backend.dispatcher.max_queued = 0   # the backend sheds all calls
            with pytest.raises(RemoteError) as excinfo:
                retry_busy(remote.transfer)
            assert excinfo.value.kind == "ServerBusy"
            assert impl.ran == 1
            assert client.stats()["admission"]["busy_received"] == 0
            assert endpoint not in client.cache._busy_strikes
            # The front itself was shed, and knows it.
            assert front.stats()["admission"]["busy_received"] >= 1

    def test_bulkhead_quota_holds_one_object_across_connections(self):
        """``bulkhead_quota`` is per target object: two clients with
        warmed (bound) method ids share the object's one slot, while a
        second object on the same server is unaffected."""
        from repro import async_call

        hot, cold = Gate(), Gate()
        server, client_a, endpoint = _pair(
            "bulkhead",
            server_kwargs={"admission": AdmissionConfig(bulkhead_quota=1)},
        )
        client_b = Space("adm-cli-bulkhead-b", shm="off")
        with server, client_a, client_b:
            server.serve("hot", hot)
            server.serve("cold", cold)
            hot_a = client_a.import_object(endpoint, "hot")
            hot_b = client_b.import_object(endpoint, "hot")
            cold_b = client_b.import_object(endpoint, "cold")
            for gate in (hot_a, hot_b, cold_b):
                assert gate.hold() == "done"    # binds the method id
                # The reply leaves before the worker frees the object's
                # slot; the next warm-up call must not race that.
                assert wait_until(lambda: not server.admission._bulkhead)
            hot.open.clear()
            hot.entered.clear()
            running = async_call(hot_a.hold)
            try:
                assert hot.entered.wait(10)
                with pytest.raises(ServerBusy, match="target quota"):
                    async_call(hot_b.hold).result(5)
                assert cold_b.hold() == "done"
            finally:
                hot.open.set()
            assert running.result(10) == "done"
            assert hot.peak == 1
            assert server.stats()["admission"]["shed_bulkhead"] == 1

    def test_inflight_budget_throttles_reads_not_calls(self):
        # A tiny inflight budget against a pipelined burst: every call
        # still completes (backpressure, not shedding) and the server
        # records pause/resume transitions.
        from repro import async_call

        server, client, endpoint = _pair(
            "throttle",
            server_kwargs={
                "admission": AdmissionConfig(
                    max_inflight_frames=2, max_queued=None,
                    shard_queue_max=None,
                ),
            },
        )
        with server, client:
            server.serve("sleepy", Sleeper())
            sleepy = client.import_object(endpoint, "sleepy")
            futures = [async_call(sleepy.nap, 0.02) for _ in range(12)]
            assert all(f.result(30) == "woke" for f in futures)
            stats = server.stats()["admission"]
            assert stats["read_pauses"] >= 1
            assert stats["read_resumes"] >= 1
            assert stats["shed"] == 0
            # Quiesced: no connection still has its reads paused.
            assert wait_until(
                lambda: server.reactor.stats()["paused_reads"] == 0
            )

    def test_shutdown_discards_queued_tasks_with_busy(self):
        # One worker, one running call, more queued: shutdown must not
        # run the backlog — queued callers get BUSY (ServerBusy), the
        # running call's worker is left to finish.
        from repro import async_call

        blocker = Blocker()
        server, client, endpoint = _pair(
            "drain", server_kwargs={"dispatcher_max_workers": 1},
        )
        with client:
            try:
                server.serve("blocker", blocker)
                surrogate = client.import_object(endpoint, "blocker")
                first = async_call(surrogate.wait)
                assert blocker.entered.wait(10)   # worker pinned
                queued = [async_call(surrogate.wait) for _ in range(3)]
                assert wait_until(
                    lambda: server.dispatcher.stats()["queued"] >= 3
                )
                server.shutdown()
                outcomes = []
                for future in queued:
                    try:
                        future.result(10)
                        outcomes.append("done")
                    except ServerBusy as busy:
                        # A straggler that reaches the closed dispatcher
                        # sheds as "queue full"; everything drained from
                        # the backlog sheds as "shutting down".
                        assert busy.reason in (
                            "shutting down", "queue full",
                        )
                        outcomes.append("busy")
                    except CommFailure:
                        outcomes.append("comm")
                # The discard drain answered before teardown: at least
                # one queued caller saw an explicit BUSY, none hung.
                assert outcomes.count("busy") >= 1
                assert server.dispatcher.stats()["discarded_tasks"] >= 1
                assert (
                    server.stats()["admission"]["shed_shutdown"] >= 1
                )
            finally:
                blocker.release.set()
                server.shutdown()
                first.cancel()


class TestUngaugedRefusal:
    def test_refused_submit_sheds_even_without_a_gauge(self):
        """Regression: a frame that reaches the dispatcher with no
        gauge (admission off) must still get a BUSY when the pool
        refuses it — dropping it silently strands the caller until its
        call timeout."""
        from repro.rpc.connection import Connection
        from repro.wire.ids import fresh_space_id

        chan_a, chan_b = channel_pair()
        refusing = Dispatcher("refuse-all", max_queued=0)
        accepting = Dispatcher("client-side")
        result = {}

        def make_b():
            result["b"] = Connection(
                chan_b, fresh_space_id("b"), refusing,
                lambda conn, msg: None, outbound=False,
            )
            result["b"].start()

        thread = threading.Thread(target=make_b, daemon=True)
        thread.start()
        conn_a = Connection(
            chan_a, fresh_space_id("a"), accepting,
            lambda conn, msg: None, outbound=True,
        )
        conn_a.start()
        thread.join(5)
        try:
            assert result["b"]._gauge is None
            call = messages.BoundCall(conn_a.next_call_id(), 1, b"")
            with pytest.raises(ServerBusy, match="queue full"):
                conn_a.call(call, timeout=5)
        finally:
            conn_a.close()
            result["b"].close()
            refusing.shutdown()
            accepting.shutdown()


class TestGCPlaneExemption:
    """The control plane (DIRTY/CLEAN/CLEAN_BATCH/PING/COPY_ACK/
    LEASE_RELEASE) is bounded by the inflight gauge but never
    *refused*: a shed dirty breaks reference-listing safety, a shed
    ping makes a live peer look dead, and a shed one-way frame strands
    the state it hands back."""

    def test_dispatcher_force_bypasses_queue_cap_not_shutdown(self):
        pool = Dispatcher("force-test", max_queued=0)
        try:
            ran = threading.Event()
            assert not pool.submit(lambda: None)       # cap refuses
            assert pool.submit(ran.set, force=True)    # force admits
            assert ran.wait(5)
        finally:
            pool.shutdown()
        assert not pool.submit(lambda: None, force=True)  # never past shutdown

    def test_unpoliced_admit_skips_the_token_bucket(self):
        controller = AdmissionController(AdmissionConfig(rate=1000.0, burst=1))
        gauge = controller.attach(lambda: None, lambda: None)
        assert gauge.admit(1) is None
        assert gauge.admit(1) == "rate limit"           # burst spent
        assert gauge.admit(1, police=False) is None     # GC plane: charged,
        gauge.release(1)                                # never refused
        assert gauge.admit(1) == "rate limit"           # and no token burned

    def test_ping_is_forced_past_a_full_queue(self):
        """End to end over a real channel pair: with ``max_queued=0``
        every call-plane request sheds, but a PING still answers —
        the pinger must never mistake a busy space for a dead one."""
        from repro.rpc.connection import Connection
        from repro.wire.ids import fresh_space_id

        chan_a, chan_b = channel_pair()
        refusing = Dispatcher("refuse-calls", max_queued=0)
        accepting = Dispatcher("client-side")
        result = {}

        def handler(conn, msg):
            if isinstance(msg, messages.Ping):
                conn.send(messages.PingAck(msg.call_id))

        def make_b():
            result["b"] = Connection(
                chan_b, fresh_space_id("b"), refusing, handler,
                outbound=False,
            )
            result["b"].start()

        thread = threading.Thread(target=make_b, daemon=True)
        thread.start()
        conn_a = Connection(
            chan_a, fresh_space_id("a"), accepting,
            lambda conn, msg: None, outbound=True,
        )
        conn_a.start()
        thread.join(5)
        try:
            reply = conn_a.call(
                messages.Ping(conn_a.next_call_id()), timeout=5)
            assert isinstance(reply, messages.PingAck)
            call = messages.BoundCall(conn_a.next_call_id(), 1, b"")
            with pytest.raises(ServerBusy, match="queue full"):
                conn_a.call(call, timeout=5)
        finally:
            conn_a.close()
            result["b"].close()
            refusing.shutdown()
            accepting.shutdown()

    def test_copy_ack_is_forced_past_a_full_queue(self):
        """A COPY_ACK reaching a saturated owner is queued, not shed:
        the frame is one-way, so a refusal would be silent and — with
        no transient TTL configured — pin the copy's export forever."""
        from repro import async_call
        from tests.helpers import Registry, settle

        blocker = Blocker()
        owner, holder, endpoint = _pair(
            "copyack",
            server_kwargs={"dispatcher_max_workers": 1,
                           "admission": AdmissionConfig(max_queued=1)},
            client_kwargs={"listen": ["tcp://127.0.0.1:0"]},
        )
        with owner, holder:
            owner.serve("blocker", blocker)
            holder.serve("registry", Registry())
            sink = owner.import_object(holder.endpoints[0], "registry")
            gate = holder.import_object(endpoint, "blocker")
            token = Echo()
            assert sink.hold(token) == 1   # dirty + ack, owner idle
            settle(holder, owner)          # no collector traffic queued
            assert len(owner.transient) == 0
            assert owner.dispatcher.stats()["queued"] == 0
            exported0 = owner.gc_stats()["exported"]
            # Saturate: the one worker pinned, the one queue slot taken.
            running = async_call(gate.wait)
            assert blocker.entered.wait(10)
            queued = async_call(gate.wait)
            assert wait_until(
                lambda: owner.dispatcher.stats()["queued"] >= 1)
            # The holder already has the surrogate, so this second copy
            # is acked at once — into the full queue.
            assert sink.hold(token) == 2
            blocker.release.set()
            assert running.result(10) == "done"
            assert queued.result(10) == "done"
            assert wait_until(lambda: len(owner.transient) == 0)
            del token
            assert sink.drop_all() == 2
            settle(holder, owner)
            assert wait_until(
                lambda: owner.gc_stats()["exported"] == exported0 - 1)


class TestEndpointHealth:
    def test_strikes_demote_and_success_heals(self):
        cache = ConnectionCache(connect=lambda ep: None)
        cache.busy_strike_limit = 2
        endpoints = ["tcp://a:1", "tcp://b:1"]
        assert cache.healthy_order(endpoints) == endpoints
        cache.note_busy("tcp://a:1")
        assert cache.healthy_order(endpoints) == endpoints  # below limit
        cache.note_busy("tcp://a:1")
        assert cache.healthy_order(endpoints) == [
            "tcp://b:1", "tcp://a:1",
        ]
        assert cache.stats()["busy_endpoints"] == 1
        assert cache.stats()["busy_demotions"] == 1
        cache.note_ok("tcp://a:1")
        assert cache.healthy_order(endpoints) == endpoints
        assert cache.stats()["busy_endpoints"] == 0

    def test_none_endpoint_is_ignored(self):
        cache = ConnectionCache(connect=lambda ep: None)
        cache.note_busy(None)   # accepted connections have no endpoint
        cache.note_ok(None)
        assert cache.stats()["busy_endpoints"] == 0

    def test_strike_limit_follows_admission_config(self):
        space = Space("adm-knob", admission=AdmissionConfig(busy_strikes=7))
        try:
            assert space.cache.busy_strike_limit == 7
        finally:
            space.shutdown()

    def test_admission_off_disables_the_pipeline(self):
        space = Space("adm-off", admission="off")
        try:
            assert space.admission is None
            assert space.stats()["admission"] == {"enabled": False}
            assert space.dispatcher.max_queued is None
        finally:
            space.shutdown()
