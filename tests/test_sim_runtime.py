"""The full runtime over the simulated network: latency, jitter,
reordering and GC-under-churn.

The simulated transport delivers frames through the event scheduler,
so these tests exercise the threaded runtime under conditions loopback
TCP never produces: multi-millisecond delays, jittered (reordered)
delivery, and deterministic loss.
"""

import gc as pygc
import threading
import weakref

import pytest

from repro import GcConfig, NetObj, Space
from repro.sim.network import NetworkModel
from repro.transport.simulated import SimTransport
from tests.helpers import wait_until


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


def sim_spaces(model: NetworkModel, names=("owner", "client")):
    transport = SimTransport(model)
    spaces = [
        Space(name, listen=[f"sim://{name}"], transports=[transport],
              gc=GcConfig(gc_call_timeout=5.0, clean_retry_interval=0.02))
        for name in names
    ]
    return transport, spaces


class TestBasicOverSim:
    def test_calls_work_with_latency(self):
        transport, (server, client) = sim_spaces(NetworkModel(latency=0.002))
        try:
            server.serve("vault", Vault())
            vault = client.import_object("sim://owner", "vault")
            token = vault.issue()
            assert token.poke()
        finally:
            client.shutdown()
            server.shutdown()
            transport.shutdown()

    def test_virtual_time_advances_per_call(self):
        transport, (server, client) = sim_spaces(NetworkModel(latency=0.01))
        try:
            server.serve("vault", Vault())
            vault = client.import_object("sim://owner", "vault")
            before = transport.clock.now()
            vault.live()
            after = transport.clock.now()
            # One request + one reply = at least 2 one-way latencies
            # (tolerance for float accumulation in the virtual clock).
            assert after - before >= 0.02 - 1e-9
        finally:
            client.shutdown()
            server.shutdown()
            transport.shutdown()


class TestGcUnderJitter:
    """Jitter + non-FIFO delivery: the conditions under which message
    reordering happens and the ccitnil machinery earns its keep."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_churn_with_reordering(self, seed):
        model = NetworkModel(latency=0.001, jitter=0.005, seed=seed)
        transport, (server, client) = sim_spaces(model)
        try:
            vault_impl = Vault()
            server.serve("vault", vault_impl)
            vault = client.import_object("sim://owner", "vault")
            for _ in range(10):
                token = vault.issue()
                assert token.poke()
                del token
                pygc.collect()
            assert wait_until(lambda: vault_impl.live() == 0, timeout=15)
            stats = server.stats()["gc"]
            assert stats["objects_dropped"] >= 10
        finally:
            client.shutdown()
            server.shutdown()
            transport.shutdown()

    def test_concurrent_churn_two_clients(self):
        model = NetworkModel(latency=0.001, jitter=0.003, seed=3)
        transport, (server, c1, c2) = sim_spaces(
            model, names=("owner", "c1", "c2")
        )
        try:
            vault_impl = Vault()
            server.serve("vault", vault_impl)
            errors = []

            def churn(space):
                try:
                    vault = space.import_object("sim://owner", "vault")
                    for _ in range(8):
                        token = vault.issue()
                        assert token.poke()
                        del token
                        pygc.collect()
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=churn, args=(space,))
                for space in (c1, c2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert wait_until(lambda: vault_impl.live() == 0, timeout=20)
        finally:
            c2.shutdown()
            c1.shutdown()
            server.shutdown()
            transport.shutdown()


class TestWireAccounting:
    def test_gc_traffic_observable(self):
        from repro.wire import protocol

        transport, (server, client) = sim_spaces(
            NetworkModel(latency=0.0005)
        )
        try:
            vault_impl = Vault()
            server.serve("vault", vault_impl)
            vault = client.import_object("sim://owner", "vault")
            token = vault.issue()
            assert token.poke()
            del token
            pygc.collect()
            assert wait_until(lambda: vault_impl.live() == 0)
            tags = transport.stats.by_tag
            assert tags.get(protocol.DIRTY, 0) >= 2       # agent + token
            assert tags.get(protocol.CLEAN, 0) >= 1
            assert tags.get(protocol.COPY_ACK, 0) >= 1
            # Invocations ride the bound-call frames; the call family
            # together is observable.
            calls = sum(tags.get(tag, 0) for tag in (
                protocol.CALL_BIND, protocol.CALL_BOUND, protocol.CALL_FAST,
            ))
            assert calls >= 2                             # issue + poke
            # The bootstrap ``get`` itself rides the lease layer now.
            assert tags.get(protocol.LEASE_REQ, 0) >= 1
        finally:
            client.shutdown()
            server.shutdown()
            transport.shutdown()
