"""Owner-side liveness as periodic work on the reactor's timer.

The pinger and the transient sweep own no thread: shard 0's timer
schedules each run, a dispatcher worker does it, and a tick that finds
the previous run still going skips.  A ping round probes every client
at once and waits for all the replies against one ``ping_timeout``
deadline.  A reference a client holds keeps its connection to the
owner out of the idle reaper, so the owner's pings always have a way
to reach a live client.
"""

import threading
import time

from repro import GcConfig, NetObj, Space
from repro.dgc.pinger import Pinger
from repro.sim.network import NetworkModel
from repro.transport.simulated import SimTransport
from repro.wire import protocol
from tests.helpers import Counter, wait_until


class Factory(NetObj):
    def make(self, start: int = 0) -> Counter:
        return Counter(start)


def silent_clients(count, gc_config):
    """An owner and ``count`` clients whose PING_ACKs are all lost:
    alive and connected, but silent to the owner's pinger."""
    transport = SimTransport(NetworkModel(
        latency=0.0005, drop_probability=1.0,
        drop_tags=frozenset({protocol.PING_ACK}), seed=11,
    ))
    owner = Space("owner", listen=["sim://owner"], transports=[transport],
                  gc=gc_config, reactor_shards=1)
    owner.serve("factory", Factory())
    clients = [
        Space(f"client{i}", transports=[transport], reactor_shards=1)
        for i in range(count)
    ]
    held = [client.import_object("sim://owner", "factory")
            for client in clients]
    return transport, owner, clients, held


def shut_down(transport, owner, clients):
    for client in clients:
        client.shutdown()
    owner.shutdown()
    transport.shutdown()


class TestHeldReferenceKeepsConnection:
    def test_idle_reaper_spares_a_connection_the_pinger_needs(self):
        """A client that holds a reference but makes no call for many
        idle periods is still alive: the owner must not purge it."""
        owner = Space("owner", listen=["tcp://127.0.0.1:0"], shm="off",
                      gc=GcConfig(ping_interval=0.1, ping_max_failures=2))
        client = Space("client", shm="off", conn_idle_ttl=0.2)
        try:
            owner.serve("factory", Factory())
            factory = client.import_object(owner.endpoints[0], "factory")
            counter = factory.make(5)
            time.sleep(1.5)  # seven idle periods, fifteen ping rounds
            assert counter.value() == 5
            assert factory.make(1).value() == 1
            assert owner.stats()["gc"]["clients_purged"] == 0
            assert client.stats()["cache"]["idle_reaped"] == 0
        finally:
            client.shutdown()
            owner.shutdown()


class Napper(NetObj):
    def nap(self, seconds: float) -> int:
        time.sleep(seconds)
        return 1


class TestBusyClient:
    def test_a_busy_pool_does_not_get_a_live_client_purged(self):
        """A client whose only dispatcher worker is busy for longer
        than the owner's purge deadline still answers pings: a PING is
        served on the reactor loop that reads it, never queued behind
        user code.  The client is not purged, and its reference still
        works afterwards."""
        owner = Space("owner", listen=["tcp://127.0.0.1:0"], shm="off",
                      gc=GcConfig(ping_interval=0.1, ping_timeout=0.2,
                                  ping_max_failures=2))
        client = Space("client", listen=["tcp://127.0.0.1:0"], shm="off",
                       dispatcher_max_workers=1)
        third = Space("third", shm="off")
        with owner, client, third:
            owner.serve("counter", Counter())
            client.serve("napper", Napper())
            counter = client.import_object(owner.endpoints[0], "counter")
            assert counter.increment() == 1
            napper = third.import_object(client.endpoints[0], "napper")
            napping = threading.Thread(target=napper.nap, args=(1.5,))
            napping.start()
            napping.join(10)
            assert not napping.is_alive()
            assert owner.stats()["gc"]["clients_purged"] == 0
            assert counter.increment() == 2
            # The client was pinged all along, not merely left alone.
            assert owner.stats()["gc"]["pings_sent"] >= 5


class TestPingRounds:
    def test_silent_clients_are_purged_in_one_timeout_per_round(self):
        """Six silent clients cost one ``ping_timeout`` per round, not
        six, so all are purged within ``ping_max_failures`` rounds."""
        config = GcConfig(ping_interval=0.1, ping_timeout=0.3,
                          ping_max_failures=2)
        transport, owner, clients, _held = silent_clients(6, config)
        try:
            assert len(owner.dgc_owner.clients()) == 6
            start = time.monotonic()
            bound = config.ping_max_failures * (
                config.ping_interval + config.ping_timeout) + 0.5
            assert wait_until(lambda: owner.pinger.clients_purged == 6,
                              timeout=10)
            assert time.monotonic() - start <= bound
            assert not owner.dgc_owner.clients()
        finally:
            shut_down(transport, owner, clients)

    def test_a_slow_round_is_never_overlapped(self, monkeypatch):
        """With ``ping_timeout`` longer than ``ping_interval``, ticks
        that find a round in flight skip instead of starting another."""
        active, overlaps, rounds = [0], [0], [0]
        lock = threading.Lock()
        real_round = Pinger.round

        def counted_round(self):
            with lock:
                active[0] += 1
                rounds[0] += 1
                if active[0] > 1:
                    overlaps[0] += 1
            try:
                real_round(self)
            finally:
                with lock:
                    active[0] -= 1

        monkeypatch.setattr(Pinger, "round", counted_round)
        config = GcConfig(ping_interval=0.05, ping_timeout=0.3,
                          ping_max_failures=100)
        transport, owner, clients, _held = silent_clients(1, config)
        try:
            assert wait_until(lambda: rounds[0] >= 3, timeout=10)
            sent = owner.stats()["gc"]["pings_sent"]
            time.sleep(0.6)
            # Two more rounds at most: each one waits out the timeout.
            assert owner.stats()["gc"]["pings_sent"] - sent <= 3
            assert overlaps[0] == 0
        finally:
            shut_down(transport, owner, clients)

    def test_a_round_overlapping_shutdown_purges_nothing(self):
        """Shutdown closes every connection and so fails every ping in
        flight; those failures are ours, not the client's."""
        config = GcConfig(ping_interval=0.05, ping_timeout=1.0,
                          ping_max_failures=1)
        transport, owner, clients, _held = silent_clients(1, config)
        try:
            assert wait_until(lambda: owner.pinger.pings_sent >= 1)
            owner.shutdown()
            time.sleep(0.2)
            assert owner.pinger.clients_purged == 0
            assert len(owner.dgc_owner.clients()) == 1
        finally:
            shut_down(transport, owner, clients)


class TestThreadCensus:
    def test_collector_timers_start_no_threads(self):
        """With both collector timers on, an idle owner runs its
        cleanup demon, its reactor shards and its accept threads, plus
        dispatcher workers; shutdown takes all of them back."""
        baseline = set(threading.enumerate())
        owner = Space("census", listen=["tcp://127.0.0.1:0"],
                      reactor_shards=2,
                      gc=GcConfig(ping_interval=0.5, transient_ttl=5.0))
        try:
            time.sleep(0.7)  # past the first tick of both timers
            names = sorted(
                thread.name for thread in set(threading.enumerate())
                - baseline if not thread.name.endswith("-worker")
            )
            assert not [name for name in names
                        if name.startswith(("gc-pinger", "gc-sweeper"))]
            # gc-cleanup, the reactor shards, one tcp-accept thread per
            # listening socket and the shm side door's accept thread.
            expected = (1 + owner.reactor_shards + owner._listeners[0].shards
                        + len(owner._shm_listeners))
            assert len(names) == expected, names
            gc_stats = owner.stats()["gc"]
            assert gc_stats["transients_expired"] == 0
            assert gc_stats["pings_sent"] == 0  # no clients to ping
        finally:
            owner.shutdown()
        assert wait_until(
            lambda: set(threading.enumerate()) <= baseline, timeout=1.0)
