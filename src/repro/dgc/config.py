"""Tunables of the distributed collector."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class GcConfig:
    """Collector timing knobs.

    The defaults favour correctness tests on a single machine; the
    fault-tolerance benchmarks shrink the intervals to make crashes
    and retries observable in milliseconds of wall time.
    """

    #: Deadline for one dirty/clean RPC.
    gc_call_timeout: float = 10.0
    #: Pause between clean-call retries after a communication failure.
    clean_retry_interval: float = 0.1
    #: Clean-call attempts before presuming the owner dead.
    clean_max_retries: int = 20
    #: Period of the owner's client-liveness probe; None disables it.
    ping_interval: Optional[float] = None
    #: Deadline for one ping.
    ping_timeout: float = 1.0
    #: Consecutive ping failures after which a client is presumed dead
    #: and purged from every dirty set.
    ping_max_failures: int = 2
    #: Lifetime of a transient dirty entry (a pinned in-flight copy)
    #: before the sender gives up waiting for the receiver's
    #: copy acknowledgement.  Birrell's presentation leaves lost
    #: copy_acks unhandled (the formalisation calls this out); the
    #: expiry bounds the resulting pin leak when a receiver dies
    #: mid-transfer.  None (default) preserves the original behaviour.
    transient_ttl: Optional[float] = None
    #: Sweep period for expired transient entries.
    transient_sweep_interval: float = 1.0
    #: Upper bound on clean calls shipped to one owner in a single
    #: CLEAN_BATCH frame.  1 disables batching: every clean goes out
    #: as a batch of one.
    clean_batch_max: int = 64
    #: Owner-side cap on a read lease's lifetime, in
    #: seconds; also the TTL clients request by default.  The owner
    #: grants min(requested, cap).  Short enough that an unreachable
    #: holder delays a writer by at most this long.
    lease_ttl: float = 5.0
    #: Extra wait (seconds) on top of a lease's remaining lifetime when
    #: a writer awaits invalidation acks — absorbs scheduling jitter so
    #: a live-but-slow holder acks instead of being expired.
    lease_invalidate_slack: float = 0.1
