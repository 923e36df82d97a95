"""The cleaning daemon.

From the paper: the wireRep of a collected surrogate "is put on a
queue of objects to be processed later by a cleaning demon.  This
demon is responsible for sending clean calls to the owner. [...] When
a clean call fails, the cleanup demon merely leaves the request on its
queue, keeping the same sequence number.  The clean call will be
repeated until it succeeds, or until the owner's termination is
detected."

One daemon thread per space drains the queue; each item runs the
three-step clean cycle on :class:`~repro.dgc.client.DgcClient`
(claim → send with retries at the *same* sequence number → apply).
"""

from __future__ import annotations

import logging
import queue
import threading
from repro.dgc.client import DgcClient
from repro.dgc.config import GcConfig
from repro.errors import NetObjError
from repro.wire.wirerep import WireRep

logger = logging.getLogger("repro.dgc.daemon")

_STOP = object()


class CleanupDaemon:
    """The per-space cleaning-demon thread (see module docstring)."""
    def __init__(self, client: DgcClient, config: GcConfig,
                 name: str = "gc-cleanup"):
        self._client = client
        self._config = config
        self._queue: "queue.Queue" = queue.Queue()
        self._stop_event = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._thread.start()
        client.attach_daemon(self)
        # Statistics.
        self.cleans_completed = 0
        self.cleans_abandoned = 0
        self.cleans_failed = 0
        self.retries = 0

    def enqueue(self, wirerep: WireRep) -> None:
        self._idle.clear()
        self._queue.put(wirerep)

    def stop(self) -> None:
        self._stop_event.set()
        self._queue.put(_STOP)
        self._thread.join(timeout=5)

    def wait_idle(self, timeout: float = 10.0) -> bool:
        """Block until the queue has fully drained (for tests)."""
        return self._idle.wait(timeout)

    # -- worker -------------------------------------------------------------------

    def _run(self) -> None:
        limit = max(1, self._config.clean_batch_max)
        while not self._stop_event.is_set():
            item = self._queue.get()
            if item is _STOP:
                return
            # Drain whatever else is already queued (up to the batch
            # bound) so one collector pass over many surrogates turns
            # into a handful of frames instead of one frame each.
            batch = [item]
            saw_stop = False
            while len(batch) < limit:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    saw_stop = True
                    break
                batch.append(extra)
            try:
                self._process_batch(batch)
            except Exception:  # noqa: BLE001 - daemon must survive anything
                self.cleans_failed += len(batch)
                logger.exception("cleanup daemon: batch of %d dropped",
                                 len(batch))
            finally:
                if self._queue.empty():
                    self._idle.set()
            if saw_stop:
                return

    def _process(self, wirerep: WireRep) -> None:
        """Run the clean cycle for a single queue item (tests)."""
        self._process_batch([wirerep])

    def _process_batch(self, wirereps: "list[WireRep]") -> None:
        # Step 1: claim each scheduled clean.  Cancelled (resurrected)
        # or moot entries drop out here, exactly as in the unit path.
        claims = []
        for wirerep in wirereps:
            claim = self._client.begin_clean(wirerep)
            if claim is not None:
                claims.append(claim)
        if not claims:
            return
        # Step 2+3 per owner: entries bound for the same endpoints ride
        # one CLEAN_BATCH frame (a singleton is a batch of one).
        groups: "dict[tuple, list]" = {}
        for claim in claims:
            groups.setdefault(claim[0].endpoints, []).append(claim)
        for endpoints, group in groups.items():
            try:
                self._deliver(endpoints, group)
            except Exception:  # noqa: BLE001 - a bad group must not strand the rest
                self.cleans_failed += len(group)
                logger.exception(
                    "cleanup daemon: clean group of %d for %r dropped",
                    len(group), endpoints,
                )

    def _deliver(self, endpoints, group) -> None:
        """Send one owner's claimed cleans, with retries at the *same*
        sequence numbers, then apply the outcome to each entry."""
        delivered = False
        for _attempt in range(self._config.clean_max_retries):
            if self._stop_event.is_set():
                break
            try:
                self._client.send_clean_batch(endpoints, group)
                delivered = True
                break
            except NetObjError:
                self.retries += 1
                if self._stop_event.wait(self._config.clean_retry_interval):
                    break
        if delivered:
            self.cleans_completed += len(group)
        else:
            self.cleans_abandoned += len(group)
        for entry, _seqno, _strong in group:
            self._client.finish_clean(entry, delivered)
