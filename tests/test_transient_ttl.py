"""Tests for transient-pin expiry (the lost-copy_ack gap).

Birrell's presentation never says what happens when a copy
acknowledgement is lost — the sender's transient dirty entry pins the
object forever.  ``GcConfig.transient_ttl`` bounds that leak; these
tests demonstrate both the leak (TTL disabled) and the recovery.
"""

import gc as pygc
import time
import weakref

from repro import GcConfig, NetObj, Space
from repro.sim.network import NetworkModel
from repro.transport.simulated import SimTransport
from repro.wire import protocol
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


def ack_dropping_spaces(gc_config):
    """All COPY_ACK frames are lost; everything else flows."""
    transport = SimTransport(NetworkModel(
        latency=0.0005, drop_probability=1.0,
        drop_tags=frozenset({protocol.COPY_ACK}), seed=9,
    ))
    server = Space("owner", listen=["sim://owner"],
                   transports=[transport], gc=gc_config)
    client = Space("client", listen=["sim://client"],
                   transports=[transport], gc=gc_config)
    return transport, server, client


class TestTransientLeak:
    def test_lost_ack_leaks_without_ttl(self):
        gc_config = GcConfig()  # transient_ttl=None: paper behaviour
        transport, server, client = ack_dropping_spaces(gc_config)
        try:
            vault_impl = Vault()
            server.serve("vault", vault_impl)
            vault = client.import_object("sim://owner", "vault")
            token = vault.issue()
            assert token.poke()
            del token
            pygc.collect()
            client.cleanup_daemon.wait_idle()
            time.sleep(0.5)
            pygc.collect()
            # The client cleaned up properly, but the owner's pin for
            # the unacknowledged result copy keeps the token alive.
            assert vault_impl.live() == 1
            assert server.stats()["gc"]["transient_pins"] >= 1
        finally:
            client.shutdown()
            server.shutdown()
            transport.shutdown()

    def test_ttl_recovers_the_leak(self):
        gc_config = GcConfig(transient_ttl=0.3)
        transport, server, client = ack_dropping_spaces(gc_config)
        try:
            vault_impl = Vault()
            server.serve("vault", vault_impl)
            vault = client.import_object("sim://owner", "vault")
            token = vault.issue()
            assert token.poke()
            del token
            pygc.collect()
            client.cleanup_daemon.wait_idle()
            assert wait_until(lambda: vault_impl.live() == 0, timeout=10)
            assert server.stats()["gc"]["transient_pins"] == 0
            assert server.transient.expired_total >= 1
        finally:
            client.shutdown()
            server.shutdown()
            transport.shutdown()

    def test_ttl_does_not_break_normal_transfers(self, request):
        """With acks flowing normally, expiry never fires early enough
        to matter and semantics are unchanged."""
        gc_config = GcConfig(transient_ttl=30.0)
        endpoint = f"inproc://ttl-{request.node.name}"
        with Space("owner", listen=[endpoint], gc=gc_config) as server, \
                Space("client", gc=gc_config) as client:
            vault_impl = Vault()
            server.serve("vault", vault_impl)
            vault = client.import_object(endpoint, "vault")
            token = vault.issue()
            assert token.poke()
            assert wait_until(
                lambda: server.stats()["gc"]["transient_pins"] == 0
            )
            assert server.transient.expired_total == 0
            assert vault_impl.live() == 1  # still pinned by the client

    def test_expire_unit(self):
        from repro.dgc.client import TransientTable

        table = TransientTable()
        first = table.pin("a")
        time.sleep(0.05)
        second = table.pin("b")
        expired = table.expire(ttl=0.03)
        assert [copy_id for copy_id, _obj in expired] == [first]
        assert len(table) == 1
        assert table.release(second) == "b"
