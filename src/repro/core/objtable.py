"""The per-space object table.

From the paper: *"Each process maintains an object table, which maps a
wireRep w(a) to the local instance of the corresponding network object,
if there is one.  For the owner of an object, the table contains a
pointer to the concrete object.  A concrete object must be in the table
whenever another process has a surrogate for it."*

The owner half lives here (index allocation plus the strong reference
that makes the dirty tables a GC root); the imported half — surrogates
and their reference-state machine — is owned by
:class:`repro.dgc.client.DgcClient`, which registers surrogates here so
unmarshaling can find them.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Dict, Optional

from repro.wire.ids import SpaceID
from repro.wire.wirerep import SPECIAL_OBJECT_INDEX, WireRep


class ExportedEntry:
    """Owner-side table entry: the concrete object plus GC bookkeeping.

    ``pdirty`` is the paper's dirty set: client SpaceIDs believed to
    hold surrogates.  ``seqnos`` retains the largest clean/dirty
    sequence number seen per client even after the client leaves the
    set, so a late, reordered dirty call cannot resurrect the entry.
    ``tdirty`` counts in-flight copies of this object sent *by the
    owner* (the transient dirty entries holding it alive during
    transmission).  ``pinned`` marks the special object, which is never
    dropped.

    ``leases`` maps holder SpaceID → live :class:`repro.core.leases.Lease`
    (read leases) and ``lease_version`` counts write-path
    invocations, versioning the snapshots shipped with grants.  A lease
    holder is always a member of ``pdirty`` (grants require it, CLEAN
    and purge retire it), so leases never extend an entry's lifetime —
    ``collectable()`` deliberately ignores them, and dropping the entry
    discards them.
    """

    # ``__weakref__``: method bindings reference their entry weakly
    # (a strong reference would pin the object against the collector
    # for the life of the peer's connection — see space._MethodBinding).
    __slots__ = ("obj", "index", "pdirty", "seqnos", "tdirty", "pinned",
                 "leases", "lease_version", "__weakref__")

    def __init__(self, obj, index: int, pinned: bool = False):
        self.obj = obj
        self.index = index
        self.pdirty: set = set()          # SpaceIDs holding surrogates
        self.seqnos: Dict[SpaceID, int] = {}
        self.tdirty: set = set()          # copy_ids in flight from owner
        self.pinned = pinned
        self.leases: dict = {}            # holder SpaceID -> Lease
        self.lease_version = 0

    def collectable(self) -> bool:
        return not self.pinned and not self.pdirty and not self.tdirty


class ObjectTable:
    """The per-space wireRep → local instance map (owner + client halves)."""
    def __init__(self, space_id: SpaceID):
        self.space_id = space_id
        self._lock = threading.RLock()
        self._exported: Dict[int, ExportedEntry] = {}
        self._export_index_by_id: Dict[int, int] = {}
        self._indices = itertools.count(SPECIAL_OBJECT_INDEX + 1)
        self._surrogates: "Dict[WireRep, weakref.ref]" = {}

    # -- owner side -----------------------------------------------------------

    def export(self, obj, pinned: bool = False) -> ExportedEntry:
        """Ensure ``obj`` has a table entry; returns it (idempotent)."""
        with self._lock:
            index = self._export_index_by_id.get(id(obj))
            if index is not None:
                return self._exported[index]
            index = SPECIAL_OBJECT_INDEX if pinned else next(self._indices)
            entry = ExportedEntry(obj, index, pinned)
            self._exported[index] = entry
            self._export_index_by_id[id(obj)] = index
            return entry

    def exported_entry(self, index: int) -> Optional[ExportedEntry]:
        with self._lock:
            return self._exported.get(index)

    def exported_entry_for(self, obj) -> Optional[ExportedEntry]:
        """The live entry for ``obj``, if it is currently exported."""
        with self._lock:
            index = self._export_index_by_id.get(id(obj))
            return self._exported.get(index) if index is not None else None

    def drop_exported(self, index: int) -> None:
        """Remove a collectable entry (dirty tables empty)."""
        with self._lock:
            entry = self._exported.pop(index, None)
            if entry is not None:
                self._export_index_by_id.pop(id(entry.obj), None)

    def exported_count(self) -> int:
        with self._lock:
            return len(self._exported)

    def exported_entries(self):
        with self._lock:
            return list(self._exported.values())

    def wirerep_for(self, entry: ExportedEntry) -> WireRep:
        return WireRep(self.space_id, entry.index)

    # -- client side ----------------------------------------------------------

    def register_surrogate(self, wirerep: WireRep, surrogate) -> None:
        with self._lock:
            self._surrogates[wirerep] = weakref.ref(surrogate)

    def lookup_surrogate(self, wirerep: WireRep):
        """The live surrogate for ``wirerep``, or None."""
        with self._lock:
            ref = self._surrogates.get(wirerep)
            return ref() if ref is not None else None

    def forget_surrogate(self, wirerep: WireRep) -> None:
        with self._lock:
            self._surrogates.pop(wirerep, None)

    def surrogate_count(self) -> int:
        with self._lock:
            return sum(1 for r in self._surrogates.values() if r() is not None)
