"""E6 — fault tolerance: message loss, retries, crashed clients.

The paper's §2.3/§2.4 claims, measured:

* clean calls lost by the network are retried (same sequence number)
  until they land — the owner still reclaims the object;
* a crashed client is detected by the pinger and purged from every
  dirty set, after which its objects are reclaimed;
* sequence numbers make duplicated/late clean traffic harmless.

The lossy network is the simulated transport with a seeded drop
probability, so these runs are deterministic.
"""

import gc as pygc
import time
import weakref

import pytest

from repro import GcConfig, NetObj, Space
from repro.sim.network import NetworkModel
from repro.transport.simulated import SimTransport


class Vault(NetObj):
    def __init__(self):
        self.issued = []

    def issue(self):
        token = Token()
        self.issued.append(weakref.ref(token))
        return token

    def live(self) -> int:
        pygc.collect()
        return sum(1 for ref in self.issued if ref() is not None)


class Token(NetObj):
    def poke(self) -> bool:
        return True


def wait_for(predicate, timeout=15.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        pygc.collect()
        time.sleep(0.02)
    return predicate()


def lossy_spaces(drop_probability: float, seed: int,
                 gc: GcConfig = None):
    from repro.wire import protocol

    # Loss confined to clean/clean_ack frames: the collector retries
    # those (§2.3); mutator calls carry no retry and would only add
    # noise to the experiment.
    transport = SimTransport(NetworkModel(
        latency=0.0005, drop_probability=drop_probability, seed=seed,
        drop_tags=frozenset({protocol.CLEAN_BATCH, protocol.CLEAN_BATCH_ACK}),
    ))
    server = Space("owner", listen=["sim://owner"],
                   transports=[transport], gc=gc or GcConfig(
                       gc_call_timeout=0.3, clean_retry_interval=0.02,
                       clean_max_retries=100,
                   ))
    client = Space("client", listen=["sim://client"],
                   transports=[transport], gc=gc or GcConfig(
                       gc_call_timeout=0.3, clean_retry_interval=0.02,
                       clean_max_retries=100,
                   ))
    return transport, server, client


class TestLossyCleanCalls:
    @pytest.mark.benchmark(group="E6-fault-tolerance")
    @pytest.mark.parametrize("drop", [0.0, 0.2, 0.4])
    def test_reclamation_survives_loss(self, benchmark, report, drop):
        """Clean/ack traffic dropped with probability ``drop``; the
        object must still be reclaimed, via retries."""

        def run():
            transport, server, client = lossy_spaces(drop, seed=1234)
            try:
                vault_impl = Vault()
                server.serve("vault", vault_impl)
                vault = client.import_object("sim://owner", "vault")
                token = vault.issue()
                assert token.poke()
                assert vault_impl.live() == 1
                del token
                pygc.collect()
                reclaimed = wait_for(lambda: vault_impl.live() == 0)
                retries = client.cleanup_daemon.retries
                return reclaimed, retries
            finally:
                client.shutdown()
                server.shutdown()
                transport.shutdown()

        reclaimed, retries = benchmark.pedantic(run, rounds=1, iterations=1)
        assert reclaimed, f"object never reclaimed at drop={drop}"
        report("E6 fault tolerance",
               f"drop={drop:.0%}: reclaimed=True, clean retries={retries}")
        if drop == 0.0:
            assert retries == 0


class TestCrashedClient:
    @pytest.mark.benchmark(group="E6-fault-tolerance")
    def test_pinger_purges_dead_client(self, benchmark, report):
        gc_config = GcConfig(ping_interval=0.05, ping_timeout=0.3,
                             ping_max_failures=2)

        def run():
            server = Space("owner", listen=["inproc://e6-owner"],
                           gc=gc_config)
            client = Space("client")
            try:
                vault_impl = Vault()
                server.serve("vault", vault_impl)
                vault = client.import_object("inproc://e6-owner", "vault")
                token = vault.issue()
                assert token.poke()
                start = time.time()
                client.shutdown()  # crash: no clean calls
                assert wait_for(lambda: vault_impl.live() == 0)
                return time.time() - start, server.pinger.clients_purged
            finally:
                client.shutdown()
                server.shutdown()

        elapsed, purged = benchmark.pedantic(run, rounds=1, iterations=1)
        assert purged >= 1
        report("E6 fault tolerance",
               f"crashed client purged in {elapsed * 1000:.0f} ms "
               f"(ping interval 50 ms, 2 failures allowed)")

    @pytest.mark.benchmark(group="E6-fault-tolerance")
    def test_live_client_never_purged_under_load(self, benchmark, report):
        gc_config = GcConfig(ping_interval=0.05, ping_timeout=1.0,
                             ping_max_failures=2)

        def run():
            server = Space("owner", listen=["inproc://e6-owner-2"],
                           gc=gc_config)
            client = Space("client")
            try:
                vault_impl = Vault()
                server.serve("vault", vault_impl)
                vault = client.import_object("inproc://e6-owner-2", "vault")
                token = vault.issue()
                for _ in range(20):
                    assert token.poke()
                    time.sleep(0.02)
                return server.pinger.clients_purged, vault_impl.live()
            finally:
                client.shutdown()
                server.shutdown()

        purged, live = benchmark.pedantic(run, rounds=1, iterations=1)
        assert purged == 0
        assert live == 1
        report("E6 fault tolerance",
               "live client survived 8+ ping rounds: purges=0")


class TestTransientPinExpiry:
    @pytest.mark.benchmark(group="E6-fault-tolerance")
    def test_lost_copy_ack_recovered_by_ttl(self, benchmark, report):
        """The gap Birrell left open: a receiver that never
        acknowledges a copy pins the sender's transient entry forever.
        Our transient_ttl extension bounds the leak; measured: time
        from loss to reclamation."""
        from repro.wire import protocol

        gc_config = GcConfig(transient_ttl=0.2)

        def run():
            transport = SimTransport(NetworkModel(
                latency=0.0005, drop_probability=1.0,
                drop_tags=frozenset({protocol.COPY_ACK}), seed=5,
            ))
            server = Space("owner", listen=["sim://owner"],
                           transports=[transport], gc=gc_config)
            client = Space("client", listen=["sim://client"],
                           transports=[transport], gc=gc_config)
            try:
                vault_impl = Vault()
                server.serve("vault", vault_impl)
                vault = client.import_object("sim://owner", "vault")
                token = vault.issue()
                assert token.poke()
                start = time.time()
                del token
                pygc.collect()
                client.cleanup_daemon.wait_idle()
                ok = wait_for(lambda: vault_impl.live() == 0)
                return ok, time.time() - start, server.transient.expired_total
            finally:
                client.shutdown()
                server.shutdown()
                transport.shutdown()

        ok, elapsed, expired = benchmark.pedantic(run, rounds=1, iterations=1)
        assert ok and expired >= 1
        report("E6 fault tolerance",
               f"lost copy_ack: pin expired and object reclaimed in "
               f"{elapsed * 1000:.0f} ms (ttl 200 ms)")


class TestSequenceNumbers:
    @pytest.mark.benchmark(group="E6-fault-tolerance")
    def test_duplicate_and_stale_calls_harmless(self, benchmark, report):
        """Replay a client's clean/dirty traffic out of order at the
        owner table level: stale operations are ignored."""
        from repro.core.objtable import ObjectTable
        from repro.dgc.owner import DgcOwner
        from repro.wire.ids import fresh_space_id

        def run():
            table = ObjectTable(fresh_space_id("owner"))
            owner = DgcOwner(table)
            client_a = fresh_space_id("a")
            client_b = fresh_space_id("b")
            entry = table.export(object())
            rep = table.wirerep_for(entry)
            owner.handle_dirty(client_b, rep, 1)   # keeps the entry live
            # A's in-order life, then replayed/late traffic from A.
            owner.handle_dirty(client_a, rep, 1)
            owner.handle_clean(client_a, rep, 2, strong=False)
            owner.handle_clean(client_a, rep, 2, strong=False)  # dup
            owner.handle_dirty(client_a, rep, 1)                # late
            resurrection = client_a in owner.dirty_set(rep.index)
            # Finally B leaves; the object must drop despite the replays.
            owner.handle_clean(client_b, rep, 2, strong=False)
            return (owner.stale_calls_ignored, resurrection,
                    table.exported_entry(rep.index))

        stale, resurrection, entry = benchmark.pedantic(
            run, rounds=1, iterations=1
        )
        assert not resurrection, "late dirty resurrected the client!"
        assert entry is None
        assert stale == 2
        report("E6 fault tolerance",
               f"seqno guard: {stale} stale/duplicate calls ignored, "
               "no resurrection, entry reclaimed")
