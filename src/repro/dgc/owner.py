"""Owner-side collector state: dirty sets and sequence numbers.

The owner applies a clean or dirty call only if its sequence number
exceeds the largest already seen from that client for that object
(``seqno(O, P)`` in the paper), making reordered and duplicated calls
harmless.  When an object's permanent and transient dirty entries are
all gone, its table entry is dropped — from that point the concrete
object's lifetime is purely a local matter.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Set

from repro.core.objtable import ExportedEntry, ObjectTable
from repro.wire.ids import SpaceID
from repro.wire.wirerep import WireRep


class DgcOwner:
    """Owner-side collector operations over one space's object table."""
    def __init__(self, table: ObjectTable,
                 on_drop: Optional[Callable[[ExportedEntry], None]] = None):
        self._table = table
        self._lock = threading.RLock()
        self._on_drop = on_drop
        #: Optional hook ``(entry, client)`` retiring what the client
        #: holds through the reference — its read lease, its method
        #: bindings — when it leaves the dirty set (CLEAN or purge):
        #: both imply dirty-set membership, so departure retires them.
        #: Called strictly *outside* this collector's lock: the lease
        #: lock orders before it (the grant path pickles snapshots
        #: under the lease lock, which can take this lock via
        #: record_copy_sent), so calling it under our lock would be the
        #: textbook ABBA deadlock.
        self.retire_holder: Optional[
            Callable[[ExportedEntry, SpaceID], None]] = None
        # Statistics read by tests and the GC benchmarks.
        self.dirty_calls_seen = 0
        self.clean_calls_seen = 0
        self.stale_calls_ignored = 0
        self.objects_dropped = 0

    # -- incoming GC calls ------------------------------------------------------

    def handle_dirty(self, client: SpaceID, target: WireRep,
                     seqno: int) -> "tuple[bool, str]":
        """Apply a dirty call; returns (ok, error)."""
        with self._lock:
            self.dirty_calls_seen += 1
            entry = self._table.exported_entry(target.index)
            if entry is None:
                # The object is gone.  A correct client cannot observe
                # this for a live reference (safety theorem); it occurs
                # only for retried/late traffic after a purge.
                return False, f"no such object: {target}"
            if seqno > entry.seqnos.get(client, 0):
                entry.seqnos[client] = seqno
                entry.pdirty.add(client)
            else:
                self.stale_calls_ignored += 1
            return True, ""

    def handle_clean(self, client: SpaceID, target: WireRep, seqno: int,
                     strong: bool) -> None:
        """Apply a clean call.  Cleaning an unknown object is a no-op
        (the paper: "if it is not in the set, the clean call is a
        no-op"), which makes clean retries idempotent."""
        departed = None
        with self._lock:
            self.clean_calls_seen += 1
            entry = self._table.exported_entry(target.index)
            if entry is None:
                return
            if seqno > entry.seqnos.get(client, 0):
                entry.seqnos[client] = seqno
                entry.pdirty.discard(client)
                departed = entry
                self._maybe_drop(entry)
            else:
                self.stale_calls_ignored += 1
        if departed is not None and self.retire_holder is not None:
            self.retire_holder(departed, client)

    # -- transient entries for owner-sent copies ---------------------------------

    def record_copy_sent(self, entry: ExportedEntry, copy_id: int) -> None:
        """The owner is transmitting its object: hold it in the dirty
        table until the receiver acknowledges (the §2.1 race fix)."""
        with self._lock:
            entry.tdirty.add(copy_id)

    def handle_copy_ack(self, target: WireRep, copy_id: int) -> None:
        with self._lock:
            entry = self._table.exported_entry(target.index)
            if entry is None:
                return
            entry.tdirty.discard(copy_id)
            self._maybe_drop(entry)

    def release_copy(self, target: WireRep, copy_id: int) -> None:
        """Give up on an unacknowledged copy (receiver presumed dead)."""
        self.handle_copy_ack(target, copy_id)

    # -- client death ------------------------------------------------------------

    def purge_client(self, client: SpaceID) -> int:
        """Remove a presumed-dead client from every dirty set (§2.4).

        Returns the number of entries it was removed from.
        """
        departed = []
        with self._lock:
            for entry in self._table.exported_entries():
                if client in entry.pdirty:
                    entry.pdirty.discard(client)
                    departed.append(entry)
                    self._maybe_drop(entry)
        if self.retire_holder is not None:
            for entry in departed:
                self.retire_holder(entry, client)
        return len(departed)

    def clients(self) -> Set[SpaceID]:
        """Every space currently present in some dirty set."""
        with self._lock:
            result: Set[SpaceID] = set()
            for entry in self._table.exported_entries():
                result |= entry.pdirty
            return result

    def dirty_set(self, index: int) -> Set[SpaceID]:
        with self._lock:
            entry = self._table.exported_entry(index)
            return set(entry.pdirty) if entry is not None else set()

    # -- internals ---------------------------------------------------------------

    def _maybe_drop(self, entry: ExportedEntry) -> None:
        if entry.collectable():
            self._table.drop_exported(entry.index)
            self.objects_dropped += 1
            if self._on_drop is not None:
                self._on_drop(entry)
