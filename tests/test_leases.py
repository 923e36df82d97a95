"""Read leases: grants, cached hits, write invalidation, expiry racing
CLEAN, holder crash and the codec."""

import gc
import threading
import time

import pytest

import repro
from repro import NetObj, reads
from repro.core.leases import LeaseCache, LeaseTable
from repro.core.netobj import reads_method_set
from repro.dgc.config import GcConfig
from repro.marshal.snapshot import build_replica, snapshot_state
from repro.rpc import messages
from repro.wire.ids import fresh_space_id
from repro.wire.wirerep import WireRep

from tests.helpers import settle, wait_until


class Gauge(NetObj):
    """Read-mostly network object: one leased read, one write."""

    def __init__(self, start: int = 0):
        self.n = start
        self.reads_served = 0  # bumped only when *this* copy runs get()

    @reads
    def get(self) -> int:
        self.reads_served += 1
        return self.n

    @reads
    def parity(self) -> int:
        return self.n % 2

    def incr(self, by: int = 1) -> int:
        self.n += by
        return self.n


class GaugeFactory(NetObj):
    """Mints gauges so client crashes can reclaim them (crash test)."""

    def __init__(self):
        self.minted = []

    def make(self, start: int = 0) -> Gauge:
        gauge = Gauge(start)
        self.minted.append(gauge)
        return gauge

    def live_count(self) -> int:
        import weakref

        refs = [weakref.ref(g) for g in self.minted]
        self.minted = []
        gc.collect()
        self.minted = [r() for r in refs if r() is not None]
        return len(self.minted)


def _pair(name, server_kwargs=None, client_kwargs=None):
    server = repro.Space(f"srv-{name}", **(server_kwargs or {}))
    endpoint = server.add_listener(f"inproc://lease-{name}")
    client = repro.Space(f"cli-{name}", **(client_kwargs or {}))
    return server, client, endpoint


def _check_holder_write(name, write):
    """Two spaces hold a lease on one gauge and one of them writes
    through ``write``.  Its LEASE_RELEASE rides ahead of the call
    (release-before-write), so the owner invalidates only the other
    holder — and both read the new state once the write returned."""
    server, writer, endpoint = _pair(name)
    reader = repro.Space(f"rdr-{name}")
    with server, writer, reader:
        server.serve("gauge", Gauge(0))
        w = writer.import_object(endpoint, "gauge")
        r = reader.import_object(endpoint, "gauge")
        assert w.get() == 0 and r.get() == 0      # both hold a lease
        settle(server, writer, reader)            # bootstrap leases gone
        before = server.lease_stats()
        assert write(w) == 5
        after = server.lease_stats()
        assert after["invalidations_sent"] - before["invalidations_sent"] == 1
        # The writer's release, and the reader's lease retired on its ack.
        assert after["leases_released"] - before["leases_released"] == 2
        assert writer.lease_stats()["invalidations_received"] == 0
        assert reader.lease_stats()["invalidations_received"] == 1
        assert w.get() == 5 and r.get() == 5


class TestLeaseBasics:
    def test_reads_are_served_from_the_replica(self, request):
        server, client, endpoint = _pair(request.node.name)
        with server, client:
            impl = Gauge(7)
            server.serve("gauge", impl)
            gauge = client.import_object(endpoint, "gauge")
            assert gauge.get() == 7          # miss -> grant -> replica
            for _ in range(100):
                assert gauge.get() == 7      # all from the cached replica
            # The owner's copy never executed a single read: even the
            # miss ran against the freshly built replica.
            assert impl.reads_served == 0
            owner = server.lease_stats()
            holder = client.lease_stats()
            # Two leases: the agent (import_object's get() is a leased
            # read since the naming mesh PR) and the gauge itself.
            assert owner["leases_granted"] == 2
            assert holder["lease_requests"] == 2
            assert holder["lease_hits"] >= 100
            # The agent lease dies with the bootstrap surrogate (its
            # clean releases it); only the gauge lease is still held.
            assert holder["held_leases"] >= 1

    def test_stats_exposes_the_lease_counters(self, request):
        server, client, endpoint = _pair(request.node.name)
        with server, client:
            for space in (server, client):
                leases = space.stats()["leases"]
                for key in ("leases_granted", "lease_hits",
                            "invalidations_sent", "expired_leases"):
                    assert key in leases, key

    def test_write_refreshes_every_reader(self, request):
        _check_holder_write(request.node.name, lambda w: w.incr(5))

    def test_async_write_refreshes_every_reader(self, request):
        _check_holder_write(
            request.node.name, lambda w: repro.async_call(w.incr, 5).result(10)
        )

    def test_lost_release_still_invalidates_before_the_write_returns(
            self, request):
        """FIFO buys the saving, never the safety: with the writer's
        LEASE_RELEASE lost (as if it rode a connection that died), the
        owner invalidates the writer's lease before the write returns
        and the writer acks an id it no longer holds — a stale id it
        does not keep.  Delivered late, the release retires nothing."""
        server, client, endpoint = _pair(request.node.name)
        with server, client:
            impl = Gauge(0)
            server.serve("gauge", impl)
            gauge = client.import_object(endpoint, "gauge")
            assert gauge.get() == 0
            settle(server, client)
            connection = client.cache.get(endpoint)
            lost = []
            send = connection.send

            def lossy_send(message):
                if isinstance(message, messages.LeaseRelease):
                    lost.append(message)
                else:
                    send(message)

            connection.send = lossy_send
            owner0 = server.lease_stats()
            holder0 = client.lease_stats()
            assert gauge.incr(3) == 3
            assert len(lost) == 1
            owner = server.lease_stats()
            holder = client.lease_stats()
            assert owner["invalidations_sent"] \
                - owner0["invalidations_sent"] == 1
            assert holder["invalidations_received"] \
                - holder0["invalidations_received"] == 1
            assert client.lease_cache._dead_ids == {}
            assert gauge.get() == 3          # re-leased, post-write state
            send(lost[0])                    # the late release
            connection.call(messages.Ping(connection.next_call_id()))
            entry = server.object_table.exported_entry_for(impl)
            assert client.space_id in entry.leases   # the re-grant lives
            assert gauge.get() == 3

    def test_expired_lease_is_renewed(self, request):
        gc_config = GcConfig(lease_ttl=0.15)
        server, client, endpoint = _pair(
            request.node.name,
            server_kwargs={"gc": gc_config},
            client_kwargs={"gc": gc_config},
        )
        with server, client:
            server.serve("gauge", Gauge(3))
            gauge = client.import_object(endpoint, "gauge")
            assert gauge.get() == 3
            time.sleep(0.3)                  # both clocks ran out
            assert gauge.get() == 3          # renewed, not stale-served
            holder = client.lease_stats()
            assert holder["replica_expiries"] >= 1
            # agent + gauge + the gauge renewal after expiry
            assert server.lease_stats()["leases_granted"] == 3

    def test_leases_off_knob_client_side(self, request):
        server, client, endpoint = _pair(
            request.node.name, client_kwargs={"leases": "off"}
        )
        with server, client:
            server.serve("gauge", Gauge(9))
            gauge = client.import_object(endpoint, "gauge")
            assert all(gauge.get() == 9 for _ in range(5))
            assert client.lease_stats()["lease_requests"] == 0
            assert server.lease_stats()["leases_granted"] == 0

    def test_leases_off_knob_owner_side(self, request):
        server, client, endpoint = _pair(
            request.node.name, server_kwargs={"leases": "off"}
        )
        with server, client:
            server.serve("gauge", Gauge(4))
            gauge = client.import_object(endpoint, "gauge")
            # The owner denies; reads still work over plain RPC.
            assert all(gauge.get() == 4 for _ in range(5))
            assert server.lease_stats()["leases_granted"] == 0
            assert server.lease_stats()["leases_denied"] >= 1
            assert client.lease_stats()["lease_hits"] == 0


class TestInvalidationRaces:
    def test_read_after_write_is_never_stale(self, request):
        """The bound the protocol sells: once a writer's call returns,
        no reader anywhere may observe pre-write cached state."""
        server, writer, endpoint = _pair(request.node.name)
        reader = repro.Space(f"rdr-{request.node.name}")
        with server, writer, reader:
            server.serve("gauge", Gauge(0))
            w = writer.import_object(endpoint, "gauge")
            r = reader.import_object(endpoint, "gauge")
            for expected in range(1, 25):
                assert r.get() >= expected - 1   # keeps a lease warm
                assert w.incr() == expected
                # incr() returned, so the invalidation was acked (or
                # the lease provably expired): the read cannot lag.
                assert r.get() >= expected

    def test_concurrent_readers_and_writer(self, request):
        server, writer, endpoint = _pair(request.node.name)
        readers = [repro.Space(f"rdr{i}-{request.node.name}")
                   for i in range(3)]
        try:
            with server, writer:
                server.serve("gauge", Gauge(0))
                w = writer.import_object(endpoint, "gauge")
                surrogates = [s.import_object(endpoint, "gauge")
                              for s in readers]
                stop = threading.Event()
                failures = []
                completed = [0]   # writes that have *returned*

                def read_loop(surrogate):
                    while not stop.is_set():
                        # The protocol's exact bound: a read started
                        # after write k returned must see >= k (reads
                        # racing an in-flight write may see either
                        # side of it).
                        epoch = completed[0]
                        value = surrogate.get()
                        if value < epoch:
                            failures.append((epoch, value))
                            return

                threads = [threading.Thread(target=read_loop, args=(s,),
                                            daemon=True)
                           for s in surrogates]
                for thread in threads:
                    thread.start()
                for n in range(1, 31):
                    w.incr()
                    completed[0] = n
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
                assert not failures
                assert w.get() == 30
        finally:
            for space in readers:
                space.shutdown()

    def test_write_during_grant_is_atomic(self):
        """Unit-level check of the grant critical section: the snapshot
        and the registration are one atomic step with respect to
        ``begin_write``'s collect, so a write either invalidates the
        registered lease or the snapshot already has the new state."""
        from repro.core.objtable import ObjectTable

        owner_id = fresh_space_id("owner")
        holder = fresh_space_id("holder")
        table = ObjectTable(owner_id)
        entry = table.export(Gauge(1))
        entry.pdirty.add(holder)
        leases = LeaseTable(max_ttl=5.0)
        seen_versions = []
        with leases.lock:
            lease = leases.grant(entry, holder, 1.0,
                                 lambda l: seen_versions.append(l.version))
        live = leases.begin_write(entry)
        assert live == [lease]               # the write saw the lease
        assert entry.lease_version == seen_versions[0] + 1
        leases.retire(entry, holder, lease)
        assert entry.leases == {}
        # A second grant after the write carries the bumped version.
        with leases.lock:
            regrant = leases.grant(entry, holder, 1.0, lambda l: None)
        assert regrant.version == entry.lease_version

    def test_stale_retire_cannot_kill_a_regrant(self):
        from repro.core.objtable import ObjectTable

        owner_id = fresh_space_id("owner")
        holder = fresh_space_id("holder")
        entry = ObjectTable(owner_id).export(Gauge(0))
        entry.pdirty.add(holder)
        leases = LeaseTable(max_ttl=5.0)
        with leases.lock:
            first = leases.grant(entry, holder, 1.0, lambda l: None)
        with leases.lock:
            second = leases.grant(entry, holder, 1.0, lambda l: None)
        # A writer still holding the *first* lease's handle retires it
        # late; the fresh lease must survive.
        assert leases.retire(entry, holder, first) is None
        assert entry.leases[holder] is second


class TestExpiryAndClean:
    def test_clean_retires_the_lease_early(self, request):
        server, client, endpoint = _pair(request.node.name)
        with server, client:
            impl = Gauge(2)
            server.serve("gauge", impl)
            gauge = client.import_object(endpoint, "gauge")
            assert gauge.get() == 2
            entry = server.object_table.exported_entry_for(impl)
            assert len(entry.leases) == 1
            del gauge
            gc.collect()
            assert client.cleanup_daemon.wait_idle(10)
            settle(server, client)
            # LEASE_RELEASE rode ahead of the CLEAN; no deadline wait.
            assert entry.leases == {}
            assert client.space_id not in entry.pdirty
            assert server.lease_stats()["leases_released"] >= 1
            assert client.lease_stats()["held_leases"] == 0

    def test_expiry_concurrent_with_clean(self, request):
        """An already-expired lease and an arriving CLEAN must both
        retire cleanly — no double-free, no leaked entry."""
        gc_config = GcConfig(lease_ttl=0.05)
        server, client, endpoint = _pair(
            request.node.name,
            server_kwargs={"gc": gc_config},
            client_kwargs={"gc": gc_config},
        )
        with server, client:
            impl = Gauge(1)
            server.serve("gauge", impl)
            gauge = client.import_object(endpoint, "gauge")
            assert gauge.get() == 1
            entry = server.object_table.exported_entry_for(impl)
            time.sleep(0.2)                  # lease dead on both clocks
            del gauge
            gc.collect()
            assert client.cleanup_daemon.wait_idle(10)
            settle(server, client)
            assert entry.leases == {}
            assert client.space_id not in entry.pdirty
            owner = server.lease_stats()
            assert owner["expired_leases"] + owner["leases_released"] >= 1

    def test_holder_crash_purges_the_lease(self, request):
        gc_config = GcConfig(ping_interval=0.05, ping_timeout=0.2,
                             ping_max_failures=2)
        owner = repro.Space(
            f"own-{request.node.name}",
            listen=[f"inproc://leasecrash-{request.node.name}"],
            gc=gc_config,
        )
        client = repro.Space(f"cli-{request.node.name}", gc=gc_config)
        try:
            factory_impl = GaugeFactory()
            owner.serve("factory", factory_impl)
            factory = client.import_object(owner.endpoints[0], "factory")
            gauge = factory.make(6)
            assert gauge.get() == 6          # lease held at the crash
            # agent bootstrap lease + the gauge lease
            assert owner.lease_stats()["leases_granted"] == 2
            client.shutdown()                # crash: no cleans, no release
            assert wait_until(lambda: factory_impl.live_count() == 0,
                              timeout=10)
            assert owner.pinger.clients_purged >= 1
            stats = owner.lease_stats()
            assert stats["leases_released"] + stats["expired_leases"] >= 1
        finally:
            client.shutdown()
            owner.shutdown()


class TestLeaseCacheUnit:
    def test_invalidation_overtaking_the_grant_kills_it(self):
        cache = LeaseCache()
        rep = WireRep(fresh_space_id("owner"), 3)
        cache.invalidate(rep, 17)            # arrives before registration
        assert cache.register(rep, 17, object(), time.monotonic() + 5, 1) \
            is False
        assert cache.replica_for(rep) is None
        # A later, different grant is unaffected.
        assert cache.register(rep, 18, "replica", time.monotonic() + 5, 2)
        assert cache.replica_for(rep) == "replica"

    def test_stale_invalidations_cannot_evict_a_live_race(self):
        """Invalidations of leases this cache already processed (a
        replica that expired here first, one released ahead of a
        write) are not remembered, so however many arrive they cannot
        push out the entry that matters: an invalidation that overtook
        a grant still being unpickled."""
        cache = LeaseCache()
        stale = WireRep(fresh_space_id("owner"), 1)
        racing = WireRep(stale.owner, 2)
        assert cache.register(stale, 1000, "replica", time.monotonic() + 5, 1)
        assert cache.begin_acquire(racing)
        for lease_id in range(256):
            cache.invalidate(stale, lease_id)
        cache.invalidate(racing, 2000)       # overtakes its own grant
        for lease_id in range(256, 512):
            cache.invalidate(stale, lease_id)
        assert cache.register(racing, 2000, object(),
                              time.monotonic() + 5, 2) is False
        cache.end_acquire(racing)
        assert cache.replica_for(racing) is None
        assert cache.replica_for(stale) == "replica"
        assert cache._dead_ids == {}

    def test_forgotten_references_cannot_evict_a_live_race(self):
        """Ids arriving after their reference was forgotten are
        pruned at the bound; a wireRep with a grant in flight keeps
        its entry."""
        cache = LeaseCache()
        owner = fresh_space_id("owner")
        racing = WireRep(owner, 0)
        assert cache.begin_acquire(racing)
        cache.invalidate(racing, 7)
        for index in range(1, 600):
            cache.invalidate(WireRep(owner, index), 1)
        assert len(cache._dead_ids) <= 256
        assert cache.register(racing, 7, object(),
                              time.monotonic() + 5, 1) is False
        cache.end_acquire(racing)

    def test_invalidation_of_a_held_lease_drops_it(self):
        cache = LeaseCache()
        rep = WireRep(fresh_space_id("owner"), 1)
        assert cache.register(rep, 1, "replica", time.monotonic() + 5, 1)
        cache.invalidate(rep, 1)
        assert cache.replica_for(rep) is None
        assert cache.stats()["invalidations_received"] == 1

    def test_expired_replica_is_not_served(self):
        cache = LeaseCache()
        rep = WireRep(fresh_space_id("owner"), 2)
        assert cache.register(rep, 1, "replica", time.monotonic() - 0.01, 1)
        assert cache.replica_for(rep) is None
        assert cache.stats()["replica_expiries"] == 1
        assert cache.held_count() == 0

    def test_out_of_order_grant_is_refused(self):
        """Two concurrent acquisitions can register out of order; the
        owner only remembers the newest lease, so installing the older
        one would leave a replica no invalidation can ever name."""
        cache = LeaseCache()
        rep = WireRep(fresh_space_id("owner"), 4)
        assert cache.register(rep, 9, "newest", time.monotonic() + 5, 2)
        assert cache.register(rep, 5, "stale", time.monotonic() + 5, 1) \
            is False
        assert cache.replica_for(rep) == "newest"
        assert cache.last_lease_id(rep) == 9

    def test_single_flight_acquire_guard(self):
        cache = LeaseCache()
        rep = WireRep(fresh_space_id("owner"), 5)
        assert cache.begin_acquire(rep)
        assert cache.begin_acquire(rep) is False
        cache.end_acquire(rep)
        assert cache.begin_acquire(rep)
        cache.end_acquire(rep)

    def test_unleasable_marking(self):
        cache = LeaseCache()
        assert cache.leasable("tc-x")
        cache.mark_unleasable("tc-x")
        assert not cache.leasable("tc-x")
        assert cache.leasable("tc-y")


class TestReadsDeclaration:
    def test_decorator_and_registry_name_sets(self):
        assert reads_method_set(Gauge) == frozenset({"get", "parity"})

    def test_lease_reads_class_attribute(self):
        class Legacy(NetObj):
            _lease_reads_ = ("peek",)

            def peek(self):
                return 1

            def poke(self):
                return 2

        assert reads_method_set(Legacy) == frozenset({"peek"})

    def test_non_remote_names_are_ignored(self):
        class Odd(NetObj):
            _lease_reads_ = ("missing", "_private")

            def visible(self):
                return 0

        assert reads_method_set(Odd) == frozenset()

    def test_plain_class_has_no_reads(self):
        class Plain(NetObj):
            def method(self):
                return 0

        assert reads_method_set(Plain) == frozenset()


class TestSnapshotUnit:
    def test_default_snapshot_round_trips_state(self):
        gauge = Gauge(41)
        state = snapshot_state(gauge)
        assert state == {"n": 41, "reads_served": 0}
        replica = build_replica(Gauge, state)
        assert isinstance(replica, Gauge)
        assert replica.get() == 41

    def test_lease_state_hooks(self):
        class Hooked(NetObj):
            def __init__(self):
                self.public = 1
                self.secret = "do not ship"

            def __lease_state__(self):
                return {"public": self.public}

            def __set_lease_state__(self, state):
                self.public = state["public"]
                self.secret = None

        state = snapshot_state(Hooked())
        assert state == {"public": 1}
        replica = build_replica(Hooked, state)
        assert replica.public == 1
        assert replica.secret is None


class TestLeaseCodecs:
    def examples(self):
        rep = WireRep(fresh_space_id("owner"), 7)
        return [
            messages.LeaseReq(3, rep, 5000),
            messages.LeaseRenew(4, rep, 17, 5000),
            messages.LeaseGrant(3, True, 17, 4500, 2, "", b"\x01\x02"),
            messages.LeaseGrant(5, False, 0, 0, 0, "unleasable", b""),
            messages.LeaseRelease(rep, 17),
            messages.LeaseInvalidate(6, rep, 17, 3),
            messages.LeaseInvalidateAck(6),
        ]

    def test_round_trip_all(self):
        for message in self.examples():
            decoded = messages.decode(message.encode())
            assert decoded == message, message

    def test_round_trip_via_memoryview(self):
        for message in self.examples():
            decoded = messages.decode(memoryview(message.encode()))
            assert decoded == message, message

    def test_grant_prefix_matches_the_class_codec(self):
        out = bytearray()
        messages.encode_lease_grant_prefix(out, 9, 21, 4500, 3)
        out += b"\xaa\xbb"
        decoded = messages.decode(bytes(out))
        assert decoded == messages.LeaseGrant(9, True, 21, 4500, 3, "",
                                              b"\xaa\xbb")

    def test_replies_route_by_tag(self):
        from repro.wire import protocol

        assert protocol.LEASE_GRANT in messages.REPLY_TAGS
        assert protocol.LEASE_INVALIDATE_ACK in messages.REPLY_TAGS
        assert protocol.LEASE_REQ not in messages.REPLY_TAGS
        assert protocol.LEASE_RELEASE not in messages.REPLY_TAGS
