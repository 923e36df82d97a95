"""Batched collector traffic: CLEAN_BATCH frames, resurrected entries,
and the pipelined dirty prefetch."""

import gc
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

import repro
from repro.core.netobj import NetObj
from repro.dgc.config import GcConfig
from repro.dgc.daemon import CleanupDaemon

from tests.helpers import settle, wait_until


@repro.register_struct(name="gcbatch.Crate")
@dataclass
class Crate:
    """A registered struct that carries references."""
    label: str
    top: object
    rest: list


class Factory(NetObj):
    """Mints fresh network objects so a single reply carries many
    references (exercising both prefetch and batched cleans)."""

    def make(self, count: int):
        return [Token() for _ in range(count)]

    def make_crated(self, count: int):
        """One fresh reference, then ``count - 1`` more inside a struct
        (and inside a list inside that struct)."""
        return [Token(), Crate("c", Token(),
                               [Token() for _ in range(count - 2)])]

    def make_after(self, known, count: int):
        """A reference the caller already holds, then fresh ones."""
        return (known, [Token() for _ in range(count)])

    def echo(self, value):
        return value


class Token(NetObj):
    def ping(self) -> str:
        return "pong"


def _pair(name):
    server = repro.Space(f"srv-{name}")
    endpoint = server.add_listener(f"inproc://gcbatch-{name}")
    server.serve("factory", Factory())
    client = repro.Space(f"cli-{name}")
    return server, client, endpoint


class TestCleanBatching:
    def test_mass_reclamation_uses_batch_frames(self, request):
        server, client, endpoint = _pair(request.node.name)
        with server, client:
            factory = client.import_object(endpoint, "factory")
            tokens = factory.make(40)
            assert [t.ping() for t in tokens] == ["pong"] * 40
            exported = server.stats()["gc"]["exported"]
            assert exported >= 41  # 40 tokens + the factory
            del tokens
            gc.collect()
            assert client.cleanup_daemon.wait_idle(10)
            settle(server, client)
            stats = client.stats()["gc"]
            assert stats["clean_batches_sent"] >= 1
            assert wait_until(
                lambda: server.stats()["gc"]["exported"] == exported - 40
            )

    def test_live_entries_cancel_out_of_batches(self, request):
        """A queue item whose entry is alive again (resurrected or
        never collected) must drop out at begin_clean, even when it
        rides the same drained batch as genuine cleans."""
        server, client, endpoint = _pair(request.node.name)
        with server, client:
            factory = client.import_object(endpoint, "factory")
            tokens = factory.make(10)
            keep = tokens[:3]
            exported = server.stats()["gc"]["exported"]
            del tokens
            gc.collect()
            # Poison the queue with the still-live references; the
            # daemon must claim only the genuinely dead ones.
            for token in keep:
                client.cleanup_daemon.enqueue(token._wirerep)
            assert client.cleanup_daemon.wait_idle(10)
            settle(server, client)
            assert [t.ping() for t in keep] == ["pong"] * 3
            assert wait_until(
                lambda: server.stats()["gc"]["exported"] == exported - 7
            )


class _FakeClient:
    """Scripted DgcClient for deterministic daemon batching tests."""

    def __init__(self, claims):
        self.claims = claims
        self.batches = []
        self.units = []
        self.finished = []

    def attach_daemon(self, daemon):
        pass

    def begin_clean(self, wirerep):
        return self.claims[wirerep]

    def send_clean_batch(self, endpoints, claims):
        self.batches.append((endpoints, list(claims)))

    def send_clean(self, entry, seqno, strong):
        self.units.append((entry, seqno, strong))

    def finish_clean(self, entry, delivered):
        self.finished.append((entry, delivered))


class TestDaemonBatching:
    def _daemon(self, fake):
        return CleanupDaemon(fake, GcConfig(), name="t-gc-batch")

    def test_batch_excludes_cancelled_claims_and_groups_by_owner(self):
        entry_a = SimpleNamespace(endpoints=("e://owner-1",))
        entry_b = SimpleNamespace(endpoints=("e://owner-1",))
        entry_c = SimpleNamespace(endpoints=("e://owner-2",))
        fake = _FakeClient({
            "w-a": (entry_a, 5, False),
            "w-resurrected": None,  # cancelled between enqueue and drain
            "w-b": (entry_b, 9, True),
            "w-c": (entry_c, 2, False),
        })
        daemon = self._daemon(fake)
        try:
            daemon._process_batch(["w-a", "w-resurrected", "w-b", "w-c"])
        finally:
            daemon.stop()
        # Owner 1 got one batch of two; owner 2's singleton stayed a
        # unit clean; the cancelled claim appears nowhere.
        assert fake.batches == [
            (("e://owner-1",), [(entry_a, 5, False), (entry_b, 9, True)])
        ]
        assert fake.units == [(entry_c, 2, False)]
        assert sorted(fake.finished, key=lambda pair: id(pair[0])) == sorted(
            [(entry_a, True), (entry_b, True), (entry_c, True)],
            key=lambda pair: id(pair[0]),
        )

    def test_all_claims_cancelled_sends_nothing(self):
        fake = _FakeClient({"w-1": None, "w-2": None})
        daemon = self._daemon(fake)
        try:
            daemon._process_batch(["w-1", "w-2"])
        finally:
            daemon.stop()
        assert fake.batches == []
        assert fake.units == []
        assert fake.finished == []


class TestDirtyPrefetch:
    def test_multi_ref_reply_pipelines_dirty_calls(self, request):
        server, client, endpoint = _pair(request.node.name)
        with server, client:
            factory = client.import_object(endpoint, "factory")
            before = client.stats()["gc"]["dirty_calls_sent"]
            tokens = factory.make(25)
            after = client.stats()["gc"]["dirty_calls_sent"]
            # One dirty call per new reference — the prefetch must not
            # duplicate the sequential decode's registration.
            assert after - before == 25
            assert [t.ping() for t in tokens] == ["pong"] * 25
            assert client.stats()["gc"]["ref_entries"] >= 25


class _Probe:
    """Counts structural scans (process-wide) and the dirty calls
    ``space`` sent as futures."""

    def __init__(self, monkeypatch, space):
        from repro.marshal import unpickler

        self.scans = 0
        self.async_dirties = 0
        real_scan = unpickler.scan_netobj_payloads
        real_async = space._gc_dirty_async

        def scan(data, offset=0):
            self.scans += 1
            return real_scan(data, offset)

        def dirty_async(*args):
            self.async_dirties += 1
            return real_async(*args)

        monkeypatch.setattr(unpickler, "scan_netobj_payloads", scan)
        monkeypatch.setattr(space, "_gc_dirty_async", dirty_async)


class TestLazyPrescan:
    """The scan for references runs when the decoder meets one that
    needs a dirty call — never up front, never for a pickle without."""

    def test_reference_free_pickles_are_never_scanned(self, request,
                                                      monkeypatch):
        server, client, endpoint = _pair(request.node.name)
        with server, client:
            factory = client.import_object(endpoint, "factory")
            probe = _Probe(monkeypatch, client)  # scans: both spaces'
            payload = {"rows": [("name-%d" % i, i, b"x" * 40)
                                for i in range(50)]}
            for _ in range(5):
                assert factory.echo(payload) == payload
            assert probe.scans == 0
            token = factory.make(1)[0]
            assert probe.scans == 1  # the fresh token; nothing follows it
            # A reference its receiver already knows costs no scan:
            # the owner gets its own object back, the client its token.
            assert factory.echo([token, payload])[0] is token
            assert probe.scans == 1

    @pytest.mark.parametrize("count", [3, 12])
    def test_references_nested_in_a_struct_are_pipelined(
            self, request, monkeypatch, count):
        server, client, endpoint = _pair(request.node.name)
        with server, client:
            factory = client.import_object(endpoint, "factory")
            probe = _Probe(monkeypatch, client)
            before = client.stats()["gc"]["dirty_calls_sent"]
            first, crate = factory.make_crated(count)
            tokens = [first, crate.top, *crate.rest]
            assert len(tokens) == count
            # One scan, at the first reference; everything after it
            # went out as futures ahead of the one synchronous dirty.
            assert probe.scans == 1
            assert probe.async_dirties == count - 1
            assert client.stats()["gc"]["dirty_calls_sent"] - before == count
            assert [t.ping() for t in tokens] == ["pong"] * count

    def test_known_first_reference_then_fresh_ones(self, request,
                                                   monkeypatch):
        server, client, endpoint = _pair(request.node.name)
        with server, client:
            factory = client.import_object(endpoint, "factory")
            known = factory.make(1)[0]
            probe = _Probe(monkeypatch, client)
            before = client.stats()["gc"]["dirty_calls_sent"]
            same, fresh = factory.make_after(known, 4)
            assert same is known
            # The known reference needed no dirty call, so the scan
            # started at the first fresh one and covered the other 3.
            assert probe.scans == 1
            assert probe.async_dirties == 3
            assert client.stats()["gc"]["dirty_calls_sent"] - before == 4
            assert [t.ping() for t in fresh] == ["pong"] * 4

    def test_corrupt_tail_defeats_the_scan_not_the_error(self, request,
                                                          monkeypatch):
        from repro.errors import UnmarshalError
        from repro.rpc import messages

        server, client, endpoint = _pair(request.node.name)
        with server, client:
            client.import_object(endpoint, "factory")
            outbound = client.cache.get(endpoint)
            inbound = server.connection_to(client.space_id)
            pickler = server._marshal.acquire_pickler(
                server._codec_ctx(inbound))
            pickle = pickler.dumps([Token(), Token(), Token()])
            probe = _Probe(monkeypatch, client)
            with pytest.raises(UnmarshalError):
                client._decode_reply(
                    outbound, messages.Result(1, pickle[:-5] + b"\xfe" * 5))
            # The scan ran (the first reference was fresh), found the
            # tail malformed and prefetched nothing; the sequential
            # decode then reported the corruption.
            assert probe.scans == 1
            assert probe.async_dirties == 0
