"""Read leases: owner-granted cached object state.

The paper's invocation model charges every remote read a full RPC.
For read-mostly objects this module adds the classic lease
optimisation on top of the existing surrogate machinery: the owner
grants a client a *time-bounded read lease* together with a snapshot
of the object's lease-safe state; the client rebuilds a local replica
and serves ``@reads`` methods from it with zero network traffic until
the lease expires or the owner invalidates it on a write.

Two halves, mirroring the dirty/clean split of the collector:

* :class:`LeaseTable` — the owner half.  Leases live on the object's
  :class:`~repro.core.objtable.ExportedEntry` (``entry.leases``), so an
  entry drop discards them; this class owns the single lease lock, the
  id counter and the owner-side counters.  The core invariant is
  *lease holders ⊆ pdirty*: a grant requires the holder to be in the
  entry's dirty set, and both CLEAN and the pinger's purge retire the
  holder's lease — so under the formal GC model leases add no new
  liveness edges and can never leak a dirty-set entry.

* :class:`LeaseCache` — the client half: held replicas keyed by
  wireRep, plus the bookkeeping that makes the asynchronous protocol
  safe (dead-id set for invalidations racing grant registration, the
  unleasable set for types that cannot replicate client-side).

Clock discipline: the *holder* starts its expiry clock when it sends
the request, the *owner* when it grants — so the holder's deadline is
always strictly earlier than the owner's.  A writer that cannot reach
a holder may therefore simply wait out the owner-side deadline and be
certain the replica is no longer being served.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, Optional, Set

from repro.wire.ids import SpaceID
from repro.wire.wirerep import WireRep


class Lease:
    """One owner-side lease: who holds it, until when, at what version."""

    __slots__ = ("lease_id", "holder", "deadline", "version")

    def __init__(self, lease_id: int, holder: SpaceID, deadline: float,
                 version: int):
        self.lease_id = lease_id
        self.holder = holder
        self.deadline = deadline
        self.version = version

    def remaining(self, now: Optional[float] = None) -> float:
        return self.deadline - (time.monotonic() if now is None else now)

    def __repr__(self) -> str:
        return (f"Lease(id={self.lease_id}, holder={self.holder}, "
                f"remaining={self.remaining():.3f}s, v{self.version})")


class LeaseTable:
    """Owner half: grant, retire and collect leases on exported entries.

    All mutation of ``entry.leases`` happens under this table's single
    lock.  Lock order is *lease lock → DgcOwner lock* only: the grant
    path pickles a snapshot under the lease lock (which may record
    reference copies, taking the owner lock), so the collector must
    never call in here while holding its own lock — DgcOwner retires
    leases after releasing it.  The frame-delivering thread takes the
    lock too (LEASE_RELEASE), so it is never held across a network wait.
    """

    def __init__(self, max_ttl: float):
        self.max_ttl = max_ttl
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.leases_granted = 0
        self.leases_denied = 0
        self.leases_released = 0
        self.invalidations_sent = 0
        self.expired_leases = 0

    @property
    def lock(self) -> threading.Lock:
        """The lease lock — grant/collect critical sections run under it."""
        return self._lock

    def grant(self, entry, holder: SpaceID, requested_ttl: float,
              snapshot) -> Lease:
        """Register a lease for ``holder`` on ``entry``.

        Caller MUST hold :attr:`lock` and have verified ``holder in
        entry.pdirty``.  ``snapshot(lease)`` runs inside the critical
        section — the pickled state and the registered lease are atomic
        with respect to writes (a write either sees the lease and
        invalidates it, or the snapshot captures the post-write state).
        If it raises, nothing is registered.  Replaces any prior lease
        the holder had (counted as expired or released accordingly).
        """
        prior = entry.leases.get(holder)
        if prior is not None:
            if prior.remaining() <= 0:
                self.expired_leases += 1
            else:
                self.leases_released += 1
        ttl = min(requested_ttl, self.max_ttl)
        lease = Lease(next(self._ids), holder,
                      time.monotonic() + ttl, entry.lease_version)
        snapshot(lease)
        entry.leases[holder] = lease
        self.leases_granted += 1
        return lease

    def retire(self, entry, holder: SpaceID,
               lease: Optional[Lease] = None) -> Optional[Lease]:
        """Drop ``holder``'s lease on ``entry`` (CLEAN, purge, release,
        or post-invalidation).  With ``lease`` given, retires only that
        exact lease — a stale retirement cannot kill a re-grant."""
        with self._lock:
            current = entry.leases.get(holder)
            if current is None:
                return None
            if lease is not None and current is not lease:
                return None
            del entry.leases[holder]
            if current.remaining() <= 0:
                self.expired_leases += 1
            else:
                self.leases_released += 1
            return current

    def retire_by_id(self, entry, holder: SpaceID, lease_id: int) -> None:
        """Retire by wire identity (LEASE_RELEASE carries the id)."""
        with self._lock:
            current = entry.leases.get(holder)
            if current is not None and current.lease_id == lease_id:
                del entry.leases[holder]
                if current.remaining() <= 0:
                    self.expired_leases += 1
                else:
                    self.leases_released += 1

    def begin_write(self, entry) -> "list[Lease]":
        """Write-path collect: bump the entry's lease version and take
        every outstanding lease.  Expired ones are retired on the spot
        (their holders already stopped serving the replica — holder
        clocks run ahead of ours); live ones are returned for the
        caller to invalidate, and stay registered until the writer
        confirms the ack (or waits out the deadline) via
        :meth:`retire`."""
        with self._lock:
            entry.lease_version += 1
            if not entry.leases:
                return []
            live = []
            now = time.monotonic()
            for holder, lease in list(entry.leases.items()):
                if lease.remaining(now) <= 0:
                    del entry.leases[holder]
                    self.expired_leases += 1
                else:
                    live.append(lease)
            self.invalidations_sent += len(live)
            return live

    def stats(self) -> dict:
        with self._lock:
            return {
                "leases_granted": self.leases_granted,
                "leases_denied": self.leases_denied,
                "leases_released": self.leases_released,
                "invalidations_sent": self.invalidations_sent,
                "expired_leases": self.expired_leases,
            }


class HeldLease:
    """One client-side lease: the local replica and its expiry."""

    __slots__ = ("lease_id", "replica", "deadline", "version")

    def __init__(self, lease_id: int, replica, deadline: float, version: int):
        self.lease_id = lease_id
        self.replica = replica
        self.deadline = deadline
        self.version = version


#: WireReps with dead ids beyond which those with no grant in flight
#: are pruned.
_DEAD_IDS_MAX = 256


class LeaseCache:
    """Client half: replicas held under lease, keyed by wireRep.

    Thread-safe.  The subtle part is the *invalidate-before-grant*
    race: the owner's LEASE_INVALIDATE is dispatched by a worker thread
    and may overtake the requester thread that is still unpickling the
    grant's snapshot.  An invalidation for a lease we do not hold yet
    is therefore remembered by id, and :meth:`register` refuses a grant
    whose id is already dead.  Acquisition is single-flight per wireRep
    and owner ids are monotone, so only ids newer than the last grant
    processed can still register, and the next grant forgets them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._held: Dict[WireRep, HeldLease] = {}
        #: Newest grant id processed (registered or refused) per wireRep.
        self._last_ids: Dict[WireRep, int] = {}
        self._dead_ids: Dict[WireRep, Set[int]] = {}
        self._acquiring: Set[WireRep] = set()
        self._no_lease: set = set()       # typecodes that cannot replicate
        self.lease_requests = 0
        self.lease_hits = 0
        self.lease_misses = 0
        self.invalidations_received = 0
        self.replica_expiries = 0

    def replica_for(self, wirerep: WireRep):
        """The live replica for ``wirerep``, or None (counts hit/miss).

        An expired entry is dropped here — client-side expiry needs no
        timer thread because every read passes through this check.
        """
        with self._lock:
            held = self._held.get(wirerep)
            if held is None:
                self.lease_misses += 1
                return None
            if held.deadline <= time.monotonic():
                del self._held[wirerep]
                self.replica_expiries += 1
                self.lease_misses += 1
                return None
            self.lease_hits += 1
            return held.replica

    def register(self, wirerep: WireRep, lease_id: int, replica,
                 deadline: float, version: int) -> bool:
        """Install a granted lease; False if it was already invalidated
        (the invalidation overtook the grant) or superseded.

        Owner lease ids are monotone, and a fresh grant replaces the
        holder's prior lease in the owner's table — so a grant whose id
        is not strictly newer than what we hold is one the owner has
        already forgotten.  Installing it would leave us serving a
        replica no future invalidation can name; refuse it instead.
        """
        with self._lock:
            if self._last_ids.get(wirerep, 0) < lease_id:
                self._last_ids[wirerep] = lease_id
            if lease_id in self._dead_ids.pop(wirerep, ()):
                return False
            held = self._held.get(wirerep)
            if held is not None and held.lease_id >= lease_id:
                return False
            self._held[wirerep] = HeldLease(lease_id, replica, deadline,
                                            version)
            return True

    def begin_acquire(self, wirerep: WireRep) -> bool:
        """Single-flight guard: True if this thread should go ask the
        owner for a lease on ``wirerep``; False while another thread's
        request is already in flight (the caller falls back to one RPC
        and hits the fresh replica on its next read).  Pair every True
        with :meth:`end_acquire`."""
        with self._lock:
            if wirerep in self._acquiring:
                return False
            self._acquiring.add(wirerep)
            return True

    def end_acquire(self, wirerep: WireRep) -> None:
        with self._lock:
            self._acquiring.discard(wirerep)

    def invalidate(self, wirerep: WireRep, lease_id: int) -> None:
        """Owner-sent invalidation: drop the replica if we hold that
        lease, else remember the id so a late grant registration dies
        (unless the id's grant was already processed here)."""
        with self._lock:
            self.invalidations_received += 1
            held = self._held.get(wirerep)
            if held is not None and held.lease_id == lease_id:
                del self._held[wirerep]
            elif lease_id > self._last_ids.get(wirerep, 0):
                dead = self._dead_ids
                if wirerep not in dead and len(dead) >= _DEAD_IDS_MAX:
                    # Only a wireRep with a grant in flight can use its
                    # ids; the rest outlived a forgotten reference.
                    self._dead_ids = dead = {
                        rep: ids for rep, ids in dead.items()
                        if rep in self._acquiring
                    }
                dead.setdefault(wirerep, set()).add(lease_id)

    def drop(self, wirerep: WireRep) -> Optional[HeldLease]:
        """Stop serving the replica for ``wirerep``; returns what was
        held so the caller can send LEASE_RELEASE.  Dead ids stay: an
        acquisition may be in flight on another thread."""
        with self._lock:
            return self._held.pop(wirerep, None)

    def forget(self, wirerep: WireRep) -> Optional[HeldLease]:
        """:meth:`drop` for a reference about to be cleaned: all of
        its state goes."""
        with self._lock:
            self._last_ids.pop(wirerep, None)
            self._dead_ids.pop(wirerep, None)
            return self._held.pop(wirerep, None)

    def last_lease_id(self, wirerep: WireRep) -> Optional[int]:
        """The most recent lease id seen for ``wirerep`` (for RENEW)."""
        with self._lock:
            return self._last_ids.get(wirerep)

    def mark_unleasable(self, typecode: str) -> None:
        with self._lock:
            self._no_lease.add(typecode)

    def leasable(self, typecode: str) -> bool:
        with self._lock:
            return typecode not in self._no_lease

    def held_count(self) -> int:
        with self._lock:
            now = time.monotonic()
            return sum(1 for h in self._held.values() if h.deadline > now)

    def stats(self) -> dict:
        with self._lock:
            return {
                "lease_requests": self.lease_requests,
                "lease_hits": self.lease_hits,
                "lease_misses": self.lease_misses,
                "invalidations_received": self.invalidations_received,
                "replica_expiries": self.replica_expiries,
                "held_leases": len(self._held),
            }
