"""Client-side collector state: the reference life cycle.

Each imported reference has a :class:`RefEntry` implementing the
five-state machine of :mod:`repro.dgc.states`.  The rules enforced
here are the ones the formalisation proved necessary:

* a new reference is unusable (NIL) until its dirty call is
  acknowledged; threads deserialising further copies block;
* a copy received while a clean call is in transit parks the entry in
  CCITNIL — the fresh dirty call is *postponed* until the clean's
  acknowledgement, so the two can never be reordered at the owner;
* copy acknowledgements to the reference's sender are deferred until
  after the dirty ack (the naive-counting race fix);
* a copy received after the surrogate died but before its clean call
  was sent cancels the clean and resurrects the entry (Note 4 of the
  formalisation), saving a clean/dirty round trip.

The entry also carries the per-reference sequence number whose
monotonicity the owner relies on.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from typing import Callable, Dict, Optional, Tuple

from repro.dgc.config import GcConfig
from repro.dgc.states import RefState
from repro.errors import CommFailure, NarrowingError, NetObjError
from repro.wire.wirerep import WireRep

#: ``gc_request(endpoints, kind, **fields) -> reply`` — provided by the
#: space; ``kind`` is "dirty" or "clean_batch".
GcRequest = Callable[..., object]


class RefEntry:
    """Collector state for one remote reference at this space."""

    __slots__ = (
        "wirerep", "endpoints", "chain", "typecode", "state", "cond",
        "surrogate_ref", "generation", "dirty_in_progress",
        "clean_scheduled", "strong_pending", "seqno", "epoch",
        "last_failure",
    )

    def __init__(self, wirerep: WireRep, endpoints: Tuple[str, ...],
                 chain: Tuple[str, ...], typecode: str):
        self.wirerep = wirerep
        self.endpoints = endpoints
        self.chain = chain
        self.typecode = typecode
        self.state = RefState.NONEXISTENT
        self.cond = threading.Condition()
        self.surrogate_ref: Optional[weakref.ref] = None
        self.generation = 0
        self.dirty_in_progress = False
        self.clean_scheduled = False
        self.strong_pending = False
        self.seqno = 0
        self.epoch = 0
        self.last_failure: Optional[Exception] = None


class TransientTable:
    """Sender-side transient dirty entries.

    While a reference copy is in flight, the sender pins the local
    instance (surrogate or concrete object) here; the pin is released
    by the receiver's copy acknowledgement.  For surrogates the strong
    reference itself is the pin — the local collector cannot reclaim
    the surrogate, so the owner keeps the sender in the dirty set.

    A lost copy_ack (receiver crashed mid-transfer) would pin forever;
    :meth:`expire` — driven by the space's sweeper when
    ``GcConfig.transient_ttl`` is set — bounds that leak.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pins: Dict[int, object] = {}
        self._created: Dict[int, float] = {}
        self._ids = itertools.count(1)
        self.expired_total = 0

    def pin(self, obj: object) -> int:
        with self._lock:
            copy_id = next(self._ids)
            self._pins[copy_id] = obj
            self._created[copy_id] = time.monotonic()
            return copy_id

    def release(self, copy_id: int) -> Optional[object]:
        with self._lock:
            self._created.pop(copy_id, None)
            return self._pins.pop(copy_id, None)

    def expire(self, ttl: float) -> "list[tuple[int, object]]":
        """Release every pin older than ``ttl`` seconds; returns the
        (copy_id, pinned object) pairs so the caller can unwind any
        owner-side transient entries."""
        cutoff = time.monotonic() - ttl
        expired = []
        with self._lock:
            for copy_id, created in list(self._created.items()):
                if created < cutoff:
                    expired.append((copy_id, self._pins.pop(copy_id)))
                    del self._created[copy_id]
                    self.expired_total += 1
        return expired

    def __len__(self) -> int:
        with self._lock:
            return len(self._pins)


class DgcClient:
    """The client half of the collector for one space."""

    def __init__(self, table, types, gc_request: GcRequest,
                 invoker, config: GcConfig):
        self._table = table          # ObjectTable
        self._types = types          # TypeRegistry
        self._gc_request = gc_request
        self._invoker = invoker      # Surrogate constructor hook
        self._config = config
        self._entries: Dict[WireRep, RefEntry] = {}
        self._lock = threading.Lock()
        self._daemon = None          # attached by the space (CleanupDaemon)
        # Statistics for tests and benchmarks.
        self.dirty_calls_sent = 0
        self.clean_calls_sent = 0
        self.resurrections = 0

    def attach_daemon(self, daemon) -> None:
        self._daemon = daemon

    # -- lookup -------------------------------------------------------------------

    def entry(self, wirerep: WireRep) -> Optional[RefEntry]:
        with self._lock:
            return self._entries.get(wirerep)

    def entry_count(self) -> int:
        with self._lock:
            return len(self._entries)

    def state_of(self, wirerep: WireRep) -> RefState:
        entry = self.entry(wirerep)
        return entry.state if entry is not None else RefState.NONEXISTENT

    def _entry_for(self, wirerep: WireRep, endpoints: Tuple[str, ...],
                   chain: Tuple[str, ...]) -> RefEntry:
        with self._lock:
            entry = self._entries.get(wirerep)
            if entry is None:
                # Narrow eagerly so a client without stubs fails before
                # any dirty traffic reaches the owner.
                typecode = self._types.narrow(chain)
                entry = RefEntry(wirerep, endpoints, chain, typecode)
                self._entries[wirerep] = entry
            return entry

    def _remove_entry(self, entry: RefEntry) -> None:
        with self._lock:
            current = self._entries.get(entry.wirerep)
            if current is entry:
                del self._entries[entry.wirerep]
        self._table.forget_surrogate(entry.wirerep)

    # -- the receive-copy path -----------------------------------------------------

    def acquire_ref(self, wirerep: WireRep, endpoints: Tuple[str, ...],
                    chain: Tuple[str, ...],
                    before_dirty: Optional[Callable[[], None]] = None):
        """Make ``wirerep`` usable here and return its surrogate.

        This is the unmarshal-side of a reference copy: it blocks the
        deserialising thread until the reference is registered with
        its owner (or raises if that proves impossible).  If that takes
        a dirty call of our own, ``before_dirty`` runs first (no lock
        held): the caller's chance to put the dirty calls of the
        message's *other* new references on the wire ahead of the one
        this thread is about to wait for (:meth:`prefetch_refs`).
        """
        entry = self._entry_for(wirerep, endpoints, chain)
        deadline = time.monotonic() + 3 * self._config.gc_call_timeout
        while True:
            if time.monotonic() > deadline:
                raise CommFailure(
                    f"timed out making {wirerep} usable "
                    f"(state {entry.state.name})"
                )
            claimed_seqno = None
            with entry.cond:
                state = entry.state
                if state is RefState.OK:
                    surrogate = (
                        entry.surrogate_ref()
                        if entry.surrogate_ref is not None else None
                    )
                    if surrogate is not None:
                        return surrogate
                    # The surrogate died but the owner still lists us:
                    # cancel any pending clean and resurrect in place.
                    # (An entry that never had a surrogate — a prefetch
                    # completed its dirty call first — is not a
                    # resurrection, just the first materialisation.)
                    if entry.clean_scheduled:
                        entry.clean_scheduled = False
                        entry.strong_pending = False
                    if entry.generation:
                        self.resurrections += 1
                    return self._new_surrogate(entry)
                if state is RefState.NONEXISTENT or (
                    state is RefState.NIL and not entry.dirty_in_progress
                ):
                    entry.state = RefState.NIL
                    entry.dirty_in_progress = True
                    entry.seqno += 1
                    claimed_seqno = entry.seqno
                elif state is RefState.NIL:
                    self._wait(entry)
                    continue
                else:  # CCIT or CCITNIL: park until the clean resolves
                    entry.state = RefState.CCITNIL
                    self._wait(entry)
                    continue
            # We claimed the dirty call; perform it outside the lock.
            return self._perform_dirty(entry, claimed_seqno, before_dirty)

    def _wait(self, entry: RefEntry) -> None:
        """Wait for a state change; raise if this life cycle failed."""
        epoch = entry.epoch
        entry.cond.wait(self._config.gc_call_timeout)
        if entry.epoch != epoch and entry.last_failure is not None:
            raise CommFailure(
                f"reference {entry.wirerep} unusable: {entry.last_failure}"
            )

    def _perform_dirty(self, entry: RefEntry, seqno: int, before_dirty=None):
        try:
            if before_dirty is not None:
                before_dirty()
            self.dirty_calls_sent += 1
            self._gc_request(entry.endpoints, "dirty",
                             target=entry.wirerep, seqno=seqno)
        except NetObjError as failure:
            self._dirty_failed(entry, failure)
            raise
        with entry.cond:
            entry.dirty_in_progress = False
            entry.state = RefState.OK
            surrogate = self._new_surrogate(entry)
            entry.cond.notify_all()
            return surrogate

    def _dirty_failed(self, entry: RefEntry, failure: Exception) -> None:
        """A dirty call (synchronous or prefetched) failed.

        §2.3: the owner *may* have seen the dirty call, so a strong
        clean must chase it; no surrogate is created, and any threads
        parked on the entry are failed through the epoch bump.
        """
        with entry.cond:
            entry.dirty_in_progress = False
            entry.state = RefState.CCIT
            entry.clean_scheduled = True
            entry.strong_pending = True
            entry.seqno += 1          # the clean outranks the dirty
            entry.epoch += 1
            entry.last_failure = failure
            entry.cond.notify_all()
        if self._daemon is not None:
            self._daemon.enqueue(entry.wirerep)

    # -- pipelined dirty prefetch ---------------------------------------------------

    def prefetch_refs(self, refs, dirty_async) -> int:
        """Issue the dirty calls for several incoming references as
        pipelined futures, collapsing k dirty round trips into ~1.

        ``refs`` yields ``(wirerep, endpoints, chain)`` triples scanned
        out of a not-yet-decoded message; ``dirty_async(endpoints,
        target, seqno, on_done)`` sends one dirty call without blocking
        and later invokes ``on_done(failure_or_None)`` exactly once
        (it may raise for an immediate send failure).

        Each claimed entry goes NIL with ``dirty_in_progress`` set —
        exactly the state the sequential decode's :meth:`acquire_ref`
        knows how to wait on — and the completion callback performs the
        NIL→OK (or failure) transition.  Surrogates are still built by
        the decoding thread, never here.  Returns the number of dirty
        calls issued; references already known, owned by us, or
        unclaimable in their current state are skipped silently.
        """
        issued = 0
        for wirerep, endpoints, chain in refs:
            try:
                entry = self._entry_for(wirerep, endpoints, chain)
            except NarrowingError:
                continue  # the sequential decode will raise properly
            with entry.cond:
                state = entry.state
                if not (state is RefState.NONEXISTENT or
                        (state is RefState.NIL and
                         not entry.dirty_in_progress)):
                    continue
                entry.state = RefState.NIL
                entry.dirty_in_progress = True
                entry.seqno += 1
                seqno = entry.seqno
            self.dirty_calls_sent += 1
            try:
                dirty_async(
                    entry.endpoints, wirerep, seqno,
                    lambda failure, entry=entry:
                        self._finish_prefetch(entry, failure),
                )
            except NetObjError as failure:
                self._dirty_failed(entry, failure)
                continue
            issued += 1
        return issued

    def _finish_prefetch(self, entry: RefEntry,
                         failure: Optional[Exception]) -> None:
        """Completion of a prefetched dirty call (reader thread)."""
        if failure is not None:
            self._dirty_failed(entry, failure)
            return
        with entry.cond:
            entry.dirty_in_progress = False
            if entry.state is RefState.NIL:
                entry.state = RefState.OK
            entry.cond.notify_all()

    def _new_surrogate(self, entry: RefEntry):
        """Build, register and track a fresh surrogate (cond held)."""
        surrogate_cls = self._types.surrogate_class(entry.typecode)
        surrogate = surrogate_cls(
            self._invoker, entry.wirerep, entry.endpoints, entry.chain
        )
        entry.generation += 1
        entry.surrogate_ref = weakref.ref(surrogate)
        weakref.finalize(
            surrogate, self._on_surrogate_dead, entry.wirerep, entry.generation
        )
        self._table.register_surrogate(entry.wirerep, surrogate)
        return surrogate

    # -- local collection of surrogates ----------------------------------------------

    def _on_surrogate_dead(self, wirerep: WireRep, generation: int) -> None:
        """Finalizer: the local collector reclaimed a surrogate."""
        entry = self.entry(wirerep)
        if entry is None:
            return
        with entry.cond:
            if entry.generation != generation:
                return  # a newer surrogate exists; stale notification
            if entry.state is not RefState.OK or entry.clean_scheduled:
                return
            entry.clean_scheduled = True
        if self._daemon is not None:
            self._daemon.enqueue(wirerep)

    # -- the clean cycle (driven by the cleanup daemon) --------------------------------

    def begin_clean(self, wirerep: WireRep):
        """Daemon step 1: claim the scheduled clean call.

        Returns ``(entry, seqno, strong)`` or None when the clean was
        cancelled (resurrection) or is otherwise moot.
        """
        entry = self.entry(wirerep)
        if entry is None:
            return None
        with entry.cond:
            if not entry.clean_scheduled:
                return None
            if entry.state in (RefState.NONEXISTENT, RefState.NIL):
                entry.clean_scheduled = False
                return None
            if entry.state is RefState.OK:
                alive = (
                    entry.surrogate_ref is not None
                    and entry.surrogate_ref() is not None
                )
                if alive:
                    entry.clean_scheduled = False
                    return None
                entry.state = RefState.CCIT
                entry.seqno += 1
            # (a failed dirty call arrives here already in CCIT with
            #  its seqno pre-bumped; CCITNIL keeps its bump too)
            entry.clean_scheduled = False
            strong = entry.strong_pending
            entry.strong_pending = False
            return entry, entry.seqno, strong

    def send_clean_batch(self, endpoints, claims) -> None:
        """Daemon step 2: one attempt at delivering the claimed cleans
        bound for one owner — a lone clean is a batch of one (may
        raise CommFailure).
        """
        self.clean_calls_sent += len(claims)
        self._gc_request(
            endpoints, "clean_batch",
            entries=tuple(
                (entry.wirerep, seqno, strong)
                for entry, seqno, strong in claims
            ),
        )

    def finish_clean(self, entry: RefEntry, delivered: bool) -> None:
        """Daemon step 3: apply the clean acknowledgement (or give up).

        ``delivered`` False means every retry failed and the owner is
        presumed dead; the entry is discarded either way, except that
        a CCITNIL entry (fresh copy waiting) returns to NIL so the
        postponed dirty call can finally run.
        """
        with entry.cond:
            if entry.state is RefState.CCITNIL and delivered:
                entry.state = RefState.NIL
                entry.cond.notify_all()
                return
            if entry.state is RefState.CCITNIL:
                # Owner unreachable: fail the parked waiters too.
                entry.epoch += 1
                entry.last_failure = CommFailure(
                    f"owner of {entry.wirerep} unreachable during clean"
                )
                entry.cond.notify_all()
            entry.state = RefState.NONEXISTENT
        self._remove_entry(entry)

    # -- diagnostics ---------------------------------------------------------------

    def live_surrogates(self) -> int:
        with self._lock:
            entries = list(self._entries.values())
        count = 0
        for entry in entries:
            ref = entry.surrogate_ref
            if ref is not None and ref() is not None:
                count += 1
        return count
