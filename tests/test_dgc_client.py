"""Unit tests for the client-side reference state machine.

These drive :class:`DgcClient` against a scripted fake owner, with a
manual daemon, so every interleaving the formalisation worries about
(blocked deserialisation, ccitnil, resurrection, failed dirty calls)
is exercised deterministically.
"""

import gc
import threading
import time

import pytest

from repro.core.objtable import ObjectTable
from repro.core.typecodes import global_types, typechain
from repro.dgc.client import DgcClient
from repro.dgc.config import GcConfig
from repro.dgc.daemon import CleanupDaemon
from repro.dgc.states import RefState
from repro.errors import CommFailure, NarrowingError, NoSuchObjectError
from repro.wire.ids import fresh_space_id
from repro.wire.wirerep import WireRep
from tests.helpers import Counter, wait_until

CHAIN = tuple(typechain(Counter))
ENDPOINTS = ("fake://owner",)


class FakeOwner:
    """Scripted owner: records GC calls, can block or fail them."""

    def __init__(self):
        self.log = []
        self.lock = threading.Lock()
        self.dirty_gate = threading.Event()
        self.dirty_gate.set()
        self.clean_gate = threading.Event()
        self.clean_gate.set()
        self.fail_dirty_with = None
        self.fail_clean_times = 0

    def gc_request(self, endpoints, kind, *, target=None, seqno=0,
                   entries=()):
        if kind == "dirty":
            self.dirty_gate.wait(5)
            with self.lock:
                self.log.append(("dirty", target, seqno))
                if self.fail_dirty_with is not None:
                    failure = self.fail_dirty_with
                    self.fail_dirty_with = None
                    raise failure
        else:
            self.clean_gate.wait(5)
            with self.lock:
                for target, seqno, strong in entries:
                    self.log.append(("clean", target, seqno, strong))
                if self.fail_clean_times > 0:
                    self.fail_clean_times -= 1
                    raise CommFailure("clean lost")

    def calls(self, kind):
        with self.lock:
            return [entry for entry in self.log if entry[0] == kind]


class ManualDaemon:
    """Records enqueues; the test pumps the clean cycle by hand."""

    def __init__(self, client):
        self.client = client
        self.items = []

    def enqueue(self, wirerep):
        self.items.append(wirerep)

    def pump(self, delivered=True):
        """Process all queued cleans, as the real daemon would."""
        processed = 0
        while self.items:
            wirerep = self.items.pop(0)
            claim = self.client.begin_clean(wirerep)
            if claim is None:
                continue
            entry = claim[0]
            try:
                self.client.send_clean_batch(entry.endpoints, [claim])
                ok = True
            except CommFailure:
                ok = delivered  # emulate retries succeeding or not
            self.client.finish_clean(entry, ok)
            processed += 1
        return processed


@pytest.fixture()
def harness():
    owner_space = fresh_space_id("owner")
    table = ObjectTable(fresh_space_id("client"))
    fake = FakeOwner()
    config = GcConfig(gc_call_timeout=2.0, clean_retry_interval=0.01)
    client = DgcClient(table, global_types, fake.gc_request,
                       lambda *a, **k: None, config)
    daemon = ManualDaemon(client)
    client.attach_daemon(daemon)
    rep = WireRep(owner_space, 5)
    return fake, client, daemon, rep, table


class TestAcquire:
    def test_first_acquire_dirties_then_ok(self, harness):
        fake, client, daemon, rep, table = harness
        surrogate = client.acquire_ref(rep, ENDPOINTS, CHAIN)
        assert surrogate is not None
        assert fake.calls("dirty") == [("dirty", rep, 1)]
        assert client.state_of(rep) is RefState.OK
        assert table.lookup_surrogate(rep) is surrogate

    def test_second_acquire_reuses_surrogate(self, harness):
        fake, client, daemon, rep, table = harness
        first = client.acquire_ref(rep, ENDPOINTS, CHAIN)
        second = client.acquire_ref(rep, ENDPOINTS, CHAIN)
        assert first is second
        assert len(fake.calls("dirty")) == 1

    def test_unknown_typechain_fails_before_dirty(self, harness):
        fake, client, daemon, rep, table = harness
        with pytest.raises(NarrowingError):
            client.acquire_ref(rep, ENDPOINTS, ("ghost.Type",))
        assert not fake.calls("dirty")

    def test_concurrent_acquire_single_dirty(self, harness):
        fake, client, daemon, rep, table = harness
        fake.dirty_gate.clear()
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    client.acquire_ref(rep, ENDPOINTS, CHAIN)
                )
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.1)
        assert client.state_of(rep) is RefState.NIL  # blocked deserialisation
        fake.dirty_gate.set()
        for thread in threads:
            thread.join(timeout=5)
        assert len(results) == 4
        assert all(r is results[0] for r in results)
        assert len(fake.calls("dirty")) == 1


class TestCleanCycle:
    def test_dead_surrogate_triggers_clean_and_removal(self, harness):
        fake, client, daemon, rep, table = harness
        surrogate = client.acquire_ref(rep, ENDPOINTS, CHAIN)
        del surrogate
        gc.collect()
        assert daemon.items == [rep]
        assert daemon.pump() == 1
        assert fake.calls("clean") == [("clean", rep, 2, False)]
        assert client.state_of(rep) is RefState.NONEXISTENT
        assert client.entry(rep) is None
        assert table.lookup_surrogate(rep) is None

    def test_clean_uses_next_seqno(self, harness):
        fake, client, daemon, rep, table = harness
        surrogate = client.acquire_ref(rep, ENDPOINTS, CHAIN)
        del surrogate
        gc.collect()
        daemon.pump()
        (_, _, dirty_seq) = fake.calls("dirty")[0]
        (_, _, clean_seq, _) = fake.calls("clean")[0]
        assert clean_seq > dirty_seq

    def test_full_relife_cycle(self, harness):
        """⊥ → nil → OK → ccit → ⊥ → nil → OK, seqnos reset per entry."""
        fake, client, daemon, rep, table = harness
        first = client.acquire_ref(rep, ENDPOINTS, CHAIN)
        del first
        gc.collect()
        daemon.pump()
        second = client.acquire_ref(rep, ENDPOINTS, CHAIN)
        assert second is not None
        # Fresh entry, so its dirty seqno restarts at 1 — correct
        # because the owner forgot us (clean emptied the dirty set).
        assert fake.calls("dirty") == [("dirty", rep, 1), ("dirty", rep, 1)]


class TestResurrection:
    def test_copy_after_death_before_clean_cancels_clean(self, harness):
        """Note 4: the scheduled clean is cancelled, no new dirty call."""
        fake, client, daemon, rep, table = harness
        surrogate = client.acquire_ref(rep, ENDPOINTS, CHAIN)
        del surrogate
        gc.collect()
        assert daemon.items == [rep]  # clean scheduled, not yet sent
        fresh = client.acquire_ref(rep, ENDPOINTS, CHAIN)
        assert fresh is not None
        assert client.resurrections == 1
        assert len(fake.calls("dirty")) == 1  # no second dirty call
        assert daemon.pump() == 0  # the clean was cancelled
        assert not fake.calls("clean")
        assert client.state_of(rep) is RefState.OK

    def test_stale_finalizer_ignored_after_resurrection(self, harness):
        fake, client, daemon, rep, table = harness
        surrogate = client.acquire_ref(rep, ENDPOINTS, CHAIN)
        del surrogate
        gc.collect()
        fresh = client.acquire_ref(rep, ENDPOINTS, CHAIN)
        # The old surrogate's finalizer already ran; nothing further
        # may schedule a clean while the new surrogate lives.
        gc.collect()
        daemon.items.clear()
        gc.collect()
        assert daemon.items == []
        assert fresh is not None


class TestCcitnil:
    def test_copy_during_clean_in_transit(self, harness):
        """The load-bearing state: a copy arrives while clean is in
        transit.  The dirty call must wait for the clean ack."""
        fake, client, daemon, rep, table = harness
        surrogate = client.acquire_ref(rep, ENDPOINTS, CHAIN)
        del surrogate
        gc.collect()

        fake.clean_gate.clear()  # hold the clean call "in transit"
        pump_done = threading.Event()
        thread = threading.Thread(
            target=lambda: (daemon.pump(), pump_done.set()), daemon=True
        )
        thread.start()
        assert wait_until(lambda: client.state_of(rep) is RefState.CCIT)

        acquired = []
        acquirer = threading.Thread(
            target=lambda: acquired.append(
                client.acquire_ref(rep, ENDPOINTS, CHAIN)
            ),
            daemon=True,
        )
        acquirer.start()
        assert wait_until(lambda: client.state_of(rep) is RefState.CCITNIL)
        assert not fake.calls("clean")  # still parked at the gate
        assert len(fake.calls("dirty")) == 1  # dirty postponed!

        fake.clean_gate.set()
        assert pump_done.wait(5)
        acquirer.join(timeout=5)
        assert acquired and acquired[0] is not None
        assert client.state_of(rep) is RefState.OK
        # Protocol order on the wire: dirty(1), clean(2), dirty(3).
        assert fake.log == [
            ("dirty", rep, 1),
            ("clean", rep, 2, False),
            ("dirty", rep, 3),
        ]


class TestDirtyFailure:
    def test_failed_dirty_schedules_strong_clean(self, harness):
        fake, client, daemon, rep, table = harness
        fake.fail_dirty_with = CommFailure("owner unreachable")
        with pytest.raises(CommFailure):
            client.acquire_ref(rep, ENDPOINTS, CHAIN)
        assert client.state_of(rep) is RefState.CCIT
        assert daemon.items == [rep]
        daemon.pump()
        cleans = fake.calls("clean")
        assert len(cleans) == 1
        _, _, seqno, strong = cleans[0]
        assert strong is True
        assert seqno == 2  # outranks the failed dirty's seqno 1
        assert client.entry(rep) is None

    def test_failed_dirty_fails_waiters_too(self, harness):
        fake, client, daemon, rep, table = harness
        fake.dirty_gate.clear()
        failures = []

        def try_acquire():
            try:
                client.acquire_ref(rep, ENDPOINTS, CHAIN)
            except CommFailure as exc:
                failures.append(exc)

        threads = [threading.Thread(target=try_acquire) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)
        fake.fail_dirty_with = CommFailure("owner unreachable")
        fake.dirty_gate.set()
        for thread in threads:
            thread.join(timeout=5)
        assert len(failures) == 3

    def test_no_such_object_propagates(self, harness):
        fake, client, daemon, rep, table = harness
        fake.fail_dirty_with = NoSuchObjectError("object reclaimed")
        with pytest.raises(NoSuchObjectError):
            client.acquire_ref(rep, ENDPOINTS, CHAIN)

    def test_recovery_after_failed_dirty(self, harness):
        """After the strong clean completes, the reference can be
        imported again from scratch."""
        fake, client, daemon, rep, table = harness
        fake.fail_dirty_with = CommFailure("glitch")
        with pytest.raises(CommFailure):
            client.acquire_ref(rep, ENDPOINTS, CHAIN)
        daemon.pump()
        surrogate = client.acquire_ref(rep, ENDPOINTS, CHAIN)
        assert surrogate is not None
        assert client.state_of(rep) is RefState.OK


class TestRealDaemon:
    """The actual CleanupDaemon thread against the fake owner."""

    def make(self, fake, retries=5):
        table = ObjectTable(fresh_space_id("client"))
        config = GcConfig(gc_call_timeout=2.0, clean_retry_interval=0.01,
                          clean_max_retries=retries)
        client = DgcClient(table, global_types, fake.gc_request,
                           lambda *a, **k: None, config)
        daemon = CleanupDaemon(client, config)
        return client, daemon

    def test_end_to_end_clean(self):
        fake = FakeOwner()
        client, daemon = self.make(fake)
        rep = WireRep(fresh_space_id("owner"), 1)
        surrogate = client.acquire_ref(rep, ENDPOINTS, CHAIN)
        del surrogate
        gc.collect()
        assert wait_until(lambda: client.entry(rep) is None)
        assert len(fake.calls("clean")) == 1
        daemon.stop()

    def test_clean_retries_same_seqno(self):
        fake = FakeOwner()
        fake.fail_clean_times = 3
        client, daemon = self.make(fake)
        rep = WireRep(fresh_space_id("owner"), 1)
        surrogate = client.acquire_ref(rep, ENDPOINTS, CHAIN)
        del surrogate
        gc.collect()
        assert wait_until(lambda: len(fake.calls("clean")) == 4)
        seqnos = {entry[2] for entry in fake.calls("clean")}
        assert seqnos == {2}, "retries must keep the same sequence number"
        assert wait_until(lambda: client.entry(rep) is None)
        assert daemon.retries == 3
        daemon.stop()

    def test_clean_gives_up_after_max_retries(self):
        fake = FakeOwner()
        fake.fail_clean_times = 1000
        client, daemon = self.make(fake, retries=3)
        rep = WireRep(fresh_space_id("owner"), 1)
        surrogate = client.acquire_ref(rep, ENDPOINTS, CHAIN)
        del surrogate
        gc.collect()
        assert wait_until(lambda: daemon.cleans_abandoned == 1)
        assert client.entry(rep) is None  # dropped despite no ack
        daemon.stop()
