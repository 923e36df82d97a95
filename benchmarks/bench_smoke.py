"""Smoke benchmarks: the hot path at tiny iteration counts.

CI runs this module on every PR (see .github/workflows/ci.yml) so a
hot-path regression — a reintroduced copy, a broken fast path, a
stalled dispatcher — fails mechanically within seconds instead of
surfacing as a mysteriously slower E1/E3 table three PRs later.

These are *sanity* gates, not measurements: iteration counts are tiny
and the assertions are loose enough to pass on a loaded CI runner.
The real numbers come from the full E1..E8 suite and from
``measure_hotpath.py``.
"""

import os
import threading
import time

import pytest

from repro import Space
from repro.marshal import dumps, loads
from repro.transport.reactor import default_reactor_shards
from repro.transport.tcp import TcpTransport
from benchmarks.bench_concurrency import handshake_idle_socket, io_thread_count
from benchmarks.conftest import Echo, _machine_stamp

#: Deliberately tiny: the whole module must finish in a few seconds.
SMOKE_CALLS = 50
SMOKE_PAYLOAD = 64 * 1024

#: Generous wall-clock ceilings (seconds) — an order of magnitude above
#: expected cost, tight enough to catch a stall or an O(n) blowup.
NULL_CALL_BUDGET = 5.0
THROUGHPUT_BUDGET = 5.0


def _timed_calls(fn, count=SMOKE_CALLS):
    fn()  # warm: dials the connection, primes the pools
    start = time.perf_counter()
    for _ in range(count):
        fn()
    return time.perf_counter() - start


class TestSmokeNullCall:
    def test_inproc(self, inproc_pair, report):
        server, client = inproc_pair
        echo = client.import_object(server.endpoints[0], "echo")
        elapsed = _timed_calls(echo.nothing)
        per_call_us = elapsed / SMOKE_CALLS * 1e6
        report("smoke", f"null call inproc : {per_call_us:9.1f} us",
               smoke_null_inproc_ns=per_call_us * 1e3)
        assert elapsed < NULL_CALL_BUDGET

    def test_tcp(self, tcp_pair, report):
        server, client = tcp_pair
        echo = client.import_object(server.endpoints[0], "echo")
        elapsed = _timed_calls(echo.nothing)
        per_call_us = elapsed / SMOKE_CALLS * 1e6
        report("smoke", f"null call tcp    : {per_call_us:9.1f} us",
               smoke_null_tcp_ns=per_call_us * 1e3)
        assert elapsed < NULL_CALL_BUDGET

    def test_fast_lane_engaged(self, tcp_pair, report):
        """Mechanical regression gate: a run of null calls on a scalar
        method must actually ride the fast lane — one CALL_BIND, then
        CALL_FAST frames with zero pickle fallbacks — and end up
        loop-served: once the method's first worker runs prove it
        fast, the server serves it on the reactor loop that reads it.
        This catches a silently broken fast path on any hardware; the
        *speed* gate below only binds where the cores exist to show
        it."""
        server, client = tcp_pair
        echo = client.import_object(server.endpoints[0], "echo")
        echo.nothing()  # bind call
        fast0 = client.fastlane_calls
        inline0 = server.stats()["fastlane"]["inline_dispatches"]
        for _ in range(SMOKE_CALLS):
            echo.nothing()
        fast = client.fastlane_calls - fast0
        inlined = server.stats()["fastlane"]["inline_dispatches"] - inline0
        assert fast >= SMOKE_CALLS, client.stats()["fastlane"]
        # The run must end loop-served; the exact count may fall short
        # of SMOKE_CALLS on a loaded runner (a preemption mid-call can
        # legitimately send the method back to the workers for a few
        # runs — that is the measurement doing its job).
        assert inlined >= 1, server.stats()["fastlane"]
        assert client.fastlane_fallbacks == 0
        report("smoke",
               f"fast lane gate: {fast} typed calls, {inlined} inline",
               smoke_fastlane_calls=fast,
               smoke_inline_dispatches=inlined)

    def test_null_call_overhead_vs_raw(self, tcp_pair, report):
        """E1 acceptance gate in miniature: a same-machine netobj null
        call must land within x3 of a raw framed echo on the same
        transport.  The strict ratio only binds with >= 4 cores — on
        fewer, the client-side thread handoff (caller -> client
        reactor) serialises through one CPU and scheduler latency, not
        the object layer, dominates; single-core CI keeps a loose
        sanity ceiling."""
        transport = TcpTransport()

        def raw_echo_server(channel):
            while True:
                frame = channel.recv()
                if frame is None:
                    return
                channel.send(frame)

        listener = transport.listen(
            "tcp://127.0.0.1:0", lambda chan: raw_echo_server(chan)
        )
        raw_chan = transport.connect(listener.endpoint)

        def raw_call():
            raw_chan.send(b"\x00")
            raw_chan.recv(timeout=5)

        try:
            raw_s = _timed_calls(raw_call, count=200) / 200
        finally:
            raw_chan.close()
            listener.close()

        server, client = tcp_pair
        echo = client.import_object(server.endpoints[0], "echo")
        netobj_s = _timed_calls(echo.nothing, count=200) / 200
        ratio = netobj_s / raw_s
        report("smoke",
               f"null call vs raw : x{ratio:.1f} "
               f"({netobj_s * 1e6:.1f} us vs {raw_s * 1e6:.1f} us raw)",
               smoke_null_overhead_vs_raw_x=round(ratio, 2))
        assert ratio < 20
        if (os.cpu_count() or 1) >= 4:
            assert ratio <= 3.0, (
                f"null-call overhead regressed to x{ratio:.1f} raw"
            )


class TestBenchStampHygiene:
    def test_ci_numbers_come_from_committed_code(self):
        """A BENCH_*.json stamped from a dirty worktree names a commit
        whose code never produced those numbers.  Local runs may
        iterate dirty; CI runs must not."""
        stamp = _machine_stamp()
        if os.environ.get("CI"):
            assert stamp["dirty"] is not True, (
                "refusing to record benchmark numbers from a dirty "
                f"worktree in CI: {stamp}"
            )


class TestSmokeThroughput:
    def test_tcp_64k_echo(self, tcp_pair, report):
        server, client = tcp_pair
        echo = client.import_object(server.endpoints[0], "echo")
        payload = b"\xab" * SMOKE_PAYLOAD
        echo.echo(payload)  # warm
        start = time.perf_counter()
        for _ in range(SMOKE_CALLS):
            result = echo.echo(payload)
        elapsed = time.perf_counter() - start
        assert result == payload
        rate = 2 * SMOKE_PAYLOAD * SMOKE_CALLS / elapsed / 1e6
        report("smoke", f"throughput 64KiB : {rate:9.1f} MB/s",
               smoke_throughput_64KiB_mbps=rate)
        assert elapsed < THROUGHPUT_BUDGET


class TestSmokeBulkStream:
    def test_bulk_stream_gate(self, report):
        """Bulk-data plane gate, against an owner in another process:
        ``as_file`` on a surrogate must ride stream frames (a counter
        says so), beat the same transfer on the RPC refill path (one
        remote ``read`` per 64 KiB buffer, what ``as_file`` keeps for
        channels that may reorder frames), and cost the owner a window
        of memory — not the transfer — however long the download."""
        import io

        from benchmarks.bench_throughput import MiB, download
        from benchmarks.bulk_owner import BulkOwner
        from repro.streams import DEFAULT_CHUNK, _SurrogateRawReader, as_file

        def rpc_file(stream):
            return io.BufferedReader(
                _SurrogateRawReader(stream, DEFAULT_CHUNK),
                buffer_size=DEFAULT_CHUNK,
            )

        scratch = bytearray(MiB)
        with BulkOwner(shm="off") as owner:
            client = Space("smoke-bulk", shm="off")
            try:
                depot = client.import_object(owner.endpoint, "depot")
                for open_file in (as_file, rpc_file):
                    download(depot, 4 * MiB, scratch, open_file)  # warm
                opened = client.stats()["streams"]["opened"]
                calls_s = min(download(depot, 32 * MiB, scratch, rpc_file)
                              for _ in range(3))
                rpc_opened = client.stats()["streams"]["opened"] - opened
                plane_s = min(download(depot, 32 * MiB, scratch)
                              for _ in range(3))
                depot.rss(True)
                before = depot.rss()["rss"]
                download(depot, 256 * MiB, scratch)
                grew = depot.rss()["peak"] - before
                engaged = client.stats()["streams"]
            finally:
                client.shutdown()
        ratio = calls_s / plane_s
        report(
            "smoke",
            f"bulk stream 32MiB: {32 * MiB / plane_s / 1e6:8.0f} MB/s on "
            f"the plane, x{ratio:.1f} the RPC path; owner rss "
            f"+{grew:.1f} MiB over 256 MiB",
            smoke_bulk_plane_mbps=32 * MiB / plane_s / 1e6,
            smoke_bulk_rpc_mbps=32 * MiB / calls_s / 1e6,
            smoke_bulk_owner_rss_growth_MiB=grew,
        )
        assert engaged["opened"] >= 5 and engaged["fallbacks"] == 0
        assert engaged["bytes_in"] >= (4 + 3 * 32 + 256) * MiB
        assert rpc_opened == 0
        # Measured x2.3-2.7 on two cores against the *fixed* 64 KiB
        # refill (x20 against the 8 KiB refill it replaced); losing
        # the read-ahead, or a copy per chunk, falls under this.
        assert ratio >= 1.5, (plane_s, calls_s)
        assert grew <= 16.0, grew


class TestSmokeFanIn:
    def test_many_idle_connections_few_io_threads(self, report):
        """Reactor gate: 32 idle inbound connections must not spawn 32
        reader threads.  A tiny replica of E8's fan-in row — breaking
        the shared-selector path fails here in under a second."""
        idle = 32
        with Space("smoke-fan-in", listen=["tcp://127.0.0.1:0"]) as server:
            socks = [
                handshake_idle_socket(server.endpoints[0])
                for _ in range(idle)
            ]
            try:
                deadline = time.monotonic() + 5.0
                while (server.reactor.active_connections < idle
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert server.reactor.active_connections >= idle
                threads = io_thread_count()
            finally:
                for sock in socks:
                    sock.close()
        report("smoke", f"fan-in {idle} idle conns: {threads} I/O threads",
               smoke_fan_in_io_threads=threads)
        # O(shards), never O(connections): one reactor and one accept
        # thread per shard, plus the shm side door and slack.
        assert threads <= 2 * default_reactor_shards() + 2


class TestSmokeMulticore:
    def test_four_shard_fan_in_no_deadlock(self, report):
        """Multicore gate: a 4-shard server under concurrent fan-in
        must (a) finish every call — no cross-shard deadlock between
        reactor threads, shard deques and stealing workers — and (b)
        keep resident thread counts O(shards + clients), not
        O(calls)."""
        shards, nclients, calls = 4, 8, 25
        with Space("smoke-mc", listen=["tcp://127.0.0.1:0"],
                   reactor_shards=shards, shm="off") as server:
            server.serve("echo", Echo())
            clients = [
                Space(f"smoke-mc-c{i}", reactor_shards=1, shm="off")
                for i in range(nclients)
            ]
            try:
                echoes = [
                    client.import_object(server.endpoints[0], "echo")
                    for client in clients
                ]
                failures = []

                def caller(echo, seed):
                    try:
                        for i in range(calls):
                            assert echo.echo(seed * calls + i) \
                                == seed * calls + i
                    except Exception as exc:  # noqa: BLE001 - gate
                        failures.append(exc)

                threads = [
                    threading.Thread(target=caller, args=(echo, seed))
                    for seed, echo in enumerate(echoes)
                ]
                start = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                elapsed = time.perf_counter() - start
                hung = [t for t in threads if t.is_alive()]
                assert not hung, "cross-shard deadlock: callers hung"
                assert not failures, failures[:3]
                io_threads = io_thread_count()
                stats = server.stats()
                spread = [
                    s["active_connections"]
                    for s in stats["reactor"]["per_shard"]
                ]
            finally:
                for client in clients:
                    client.shutdown()
        # Thread bound: server = shards reactors + shards accept
        # threads; each client = one reactor; plus slack for threads
        # mid-teardown.
        assert io_threads <= 2 * shards + nclients + 2
        assert sum(spread) == nclients
        assert stats["dispatcher"]["workers"] <= server.dispatcher.max_workers
        rate = nclients * calls / elapsed
        report("smoke",
               f"multicore {shards}-shard fan-in: {rate:9.0f} calls/s, "
               f"conns/shard {spread}, {io_threads} I/O threads",
               smoke_multicore_calls_per_s=round(rate),
               smoke_multicore_io_threads=io_threads)


class TestSmokeLeases:
    def test_read_lease_hit_rate_and_thread_hygiene(self, report):
        """Lease gate (E10 in miniature): a ``@reads`` method served
        under a read lease must actually hit the replica, and leave no
        timer/helper threads behind — the lease layer is advertised as
        thread-free.  Counts, not timings: a holder's own write sends
        one LEASE_RELEASE and draws no invalidation, while a second
        holder receives exactly one."""
        import gc

        from repro import NetObj, reads

        class Dial(NetObj):
            def __init__(self):
                self.n = 0

            @reads
            def read(self):
                return self.n

            def write(self):
                self.n += 1
                return self.n

        threads_before = threading.active_count()
        with Space("smoke-lease-owner", listen=["tcp://127.0.0.1:0"],
                   shm="off") as server:
            server.serve("dial", Dial())
            releases = []
            apply_release = server._apply_lease_release
            server._apply_lease_release = lambda peer, message: (
                releases.append(peer), apply_release(peer, message))
            with Space("smoke-lease-client", shm="off") as client, \
                    Space("smoke-lease-other", shm="off") as other:
                dial = client.import_object(server.endpoints[0], "dial")
                watcher = other.import_object(server.endpoints[0], "dial")
                assert dial.read() == 0 and watcher.read() == 0
                for _ in range(SMOKE_CALLS):
                    assert dial.read() == 0
                # The bootstrap agent leases go with their cleans.
                gc.collect()
                assert client.cleanup_daemon.wait_idle(10)
                assert other.cleanup_daemon.wait_idle(10)
                releases.clear()
                sent_before = server.lease_stats()["invalidations_sent"]
                assert dial.write() == 1
                assert dial.read() == 1 and watcher.read() == 1
                invalidations = (server.lease_stats()["invalidations_sent"]
                                 - sent_before)
                holder = client.lease_stats()
                watched = other.lease_stats()
        hits = holder["lease_hits"]
        assert hits >= SMOKE_CALLS, holder
        assert releases == [client.space_id]
        assert invalidations == 1
        assert holder["invalidations_received"] == 0
        assert watched["invalidations_received"] == 1
        # No thread growth: leases ride the existing reactor and
        # dispatcher; expiry is lazy (checked on read), not timed.
        deadline = time.monotonic() + 5.0
        while (threading.active_count() > threads_before
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert threading.active_count() <= threads_before
        report("smoke",
               f"lease gate: {hits} replica hits, a holder's write: "
               f"{len(releases)} release, {invalidations} invalidation "
               "(to the other holder), no thread growth",
               smoke_lease_hits=hits)


class TestSmokeFailover:
    def test_mesh_bootstrap_survives_replica_kill(self, report):
        """Naming-mesh gate (E11 in miniature): with a 3-replica mesh,
        killing one replica must not cost a client its bootstrap — a
        fresh :class:`ReplicatedAgent` discovers the survivors and
        resolves a name within its retry budget — and the mesh must
        not leak threads (gossip rides the reactor timer and the
        dispatcher, never its own thread)."""
        from repro import GcConfig
        from repro.naming.discovery import ReplicatedAgent
        from repro.naming.mesh import MeshAgent, MeshConfig

        threads_before = threading.active_count()
        spaces, agents, seeds = [], [], []
        client = Space("smoke-mesh-cli", shm="off",
                       gc=GcConfig(ping_interval=None))
        try:
            for rid in (1, 2, 3):
                agent = MeshAgent(rid, config=MeshConfig(
                    gossip_interval=0.1, election_timeout=0.5,
                ))
                space = Space(
                    f"smoke-mesh-r{rid}", listen=["tcp://127.0.0.1:0"],
                    gc=GcConfig(ping_interval=None), agent=agent,
                    shm="off",
                )
                agent.activate(join=list(seeds))
                seeds.append(space.endpoints[0])
                spaces.append(space)
                agents.append(agent)
            agents[0].put("svc", "value")
            deadline = time.monotonic() + 10
            while (not all("svc" in a.list() for a in agents)
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert all("svc" in a.list() for a in agents)

            spaces[1].shutdown()    # kill one replica
            start = time.perf_counter()
            agent = ReplicatedAgent(client, seeds, backoff=0.02)
            assert agent.get("svc") == "value"
            elapsed = time.perf_counter() - start
            assert elapsed < 10, "bootstrap blew the retry budget"
        finally:
            client.shutdown()
            for space in spaces:
                space.shutdown()
        deadline = time.monotonic() + 5.0
        while (threading.active_count() > threads_before
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert threading.active_count() <= threads_before, (
            "naming mesh leaked threads"
        )
        report("smoke",
               f"failover gate: bootstrap with 1/3 replicas dead in "
               f"{elapsed * 1000:6.1f} ms, no thread growth",
               smoke_failover_bootstrap_ms=round(elapsed * 1000, 1))


class TestSmokeMarshal:
    @pytest.mark.parametrize("value", [
        list(range(100)),
        "x" * 1000,
        b"\x00" * SMOKE_PAYLOAD,
        {"nested": [(1, 2.5), {"deep": None}], "flags": {True, False}},
    ], ids=["ints", "str-1k", "bytes-64k", "nested"])
    def test_round_trip(self, value):
        assert loads(dumps(value)) == value

    def test_struct_plan_gate(self, report):
        """Hardware-independent marshal gate: netbench's 200-record
        batch as registered structs must not round-trip slower than
        the same field values as plain dicts and tuples (sharing and
        the cycle kept) through the same pooled codecs — a struct plan
        that loses to the generic containers it replaces is broken."""
        from repro.marshal import MarshalPool, global_registry
        from tests.marshal_corpus import netbench_batch

        structs = netbench_batch()
        accounts = {}
        plain = []
        for record in structs:
            account = record.account
            shared = accounts.setdefault(
                id(account), (account.number, account.holder, account.limits))
            plain.append({
                "serial": record.serial, "title": record.title,
                "score": record.score, "tags": record.tags,
                "account": shared, "blob": record.blob, "peer": None,
            })
        plain[0]["peer"], plain[-1]["peer"] = plain[-1], plain[0]

        pool = MarshalPool(global_registry)
        pickler = pool.acquire_pickler()
        unpickler = pool.acquire_unpickler()

        def round_trip(value):
            start = time.perf_counter()
            result = unpickler.loads(pickler.dumps(value))
            elapsed = time.perf_counter() - start
            assert len(result) == len(value)
            return elapsed

        as_structs = as_plain = float("inf")
        for _ in range(15):  # interleaved, so a slow spell hits both
            as_structs = min(as_structs, round_trip(structs))
            as_plain = min(as_plain, round_trip(plain))
        ratio = as_structs / as_plain
        report(
            "smoke",
            f"struct plan gate: 200 records {as_structs * 1e3:5.2f} ms as "
            f"structs, {as_plain * 1e3:5.2f} ms as dicts/tuples "
            f"(x{ratio:.2f})",
            smoke_struct_roundtrip_ms=as_structs * 1e3,
            smoke_plain_roundtrip_ms=as_plain * 1e3,
        )
        assert ratio <= 1.3, (as_structs, as_plain)
