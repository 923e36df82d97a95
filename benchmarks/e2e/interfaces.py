"""Everything the harness and the owner process must agree on.

Both processes import this module, so every benchmark ``NetObj`` and
marshaled struct has the same qualified name on both sides — classes
defined in a script's ``__main__`` fail cross-process with
``NarrowingError: no registered stubs``.

The owner process receives only what the harness generated from the
seed (blobs, catalog contents): nothing in here draws random numbers.

:class:`OwnerProcess` is the harness-side handle on the child: it
spawns ``owner.py``, waits for the ready line, and stops and reaps the
child on every exit path.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro import NetObj, reads, register_struct
from repro.streams import ReaderStream, WriterStream, export_reader, export_writer

HERE = Path(__file__).resolve().parent

#: Leased objects served for ``leased_mix_open``.
CATALOGS = 64


# -- marshaled structs (pickle_graph) -----------------------------------------

@register_struct
@dataclass
class Account:
    """Shared sub-object: many records point at one account."""
    number: int
    holder: str
    limits: dict


@register_struct
@dataclass
class Record:
    """One row of the ``pickle_graph`` batch."""
    serial: int
    title: str
    score: float
    tags: list
    account: Account
    blob: bytes
    peer: Optional["Record"]  # the batch's last record points at its first


# -- network objects ---------------------------------------------------------------

class Echo(NetObj):
    """``small_calls`` and ``pickle_graph``.  No ``@quick`` methods:
    every call crosses the dispatcher, as an ordinary service's would."""

    def nothing(self) -> None:
        return None

    def add10(self, a: int, b: int, c: int, d: int, e: int,
              f: int, g: int, h: int, i: int, j: int) -> int:
        return a + b + c + d + e + f + g + h + i + j

    def echo(self, value):
        return value


class Catalog(NetObj):
    """One leased object of ``leased_mix_open``.

    ``__lease_state__`` ships a plain dict so the snapshot always
    marshals: an object whose state fails to snapshot is silently
    denied its lease and every read becomes two round trips.
    """

    def __init__(self, values: Dict[int, int]):
        self._values = dict(values)
        self._lock = threading.Lock()

    def __lease_state__(self) -> dict:
        with self._lock:
            return {"_values": dict(self._values)}

    def __set_lease_state__(self, state: dict) -> None:
        self._values = state["_values"]

    @reads
    def lookup(self, key: int) -> int:
        return self._values[key]

    def update(self, key: int, value: int) -> int:
        """Monotone per key: concurrent updates may land in any order,
        the largest version wins, so a reader can check staleness."""
        with self._lock:
            if value > self._values[key]:
                self._values[key] = value
            return self._values[key]


class CatalogIndex(NetObj):
    """Hands all catalogs to a client in one call."""

    def __init__(self):
        self._catalogs: List[Catalog] = []

    def populate(self, contents: list) -> int:
        self._catalogs = [Catalog(values) for values in contents]
        return len(self._catalogs)

    def catalogs(self) -> list:
        return list(self._catalogs)


class Session(NetObj):
    """The fresh network object of ``ref_churn``."""

    def __init__(self, serial: int):
        self.serial = serial
        self.touches = 0

    def touch(self) -> int:
        self.touches += 1
        return self.serial


class Directory(NetObj):
    """``ref_churn``: sessions are held only by the collector's dirty
    sets, so a session is freed exactly when its last remote reference
    is cleaned.  A weak reference per live session watches that."""

    def __init__(self):
        self._lock = threading.Lock()
        self._serial = 0
        self._alive: Dict[int, weakref.ref] = {}

    def open_session(self) -> Session:
        with self._lock:
            self._serial += 1
            serial = self._serial
        session = Session(serial)
        # The entry leaves with the session, so the table holds live
        # sessions only.  (dict.pop is atomic; no lock in a finalizer.)
        self._alive[serial] = weakref.ref(
            session, lambda _ref: self._alive.pop(serial, None)
        )
        return session

    def close(self, session: Session) -> int:
        """The reference comes home as the concrete object."""
        return session.touches

    def reclaimed(self, serial: int) -> bool:
        return serial not in self._alive

    def live_sessions(self) -> int:
        return len(self._alive)


class BlobStore(NetObj):
    """``bulk_stream``: downloads read a blob the harness uploaded at
    set-up; uploads are kept and hashed only when the digest is asked
    for, so hashing stays out of the timed transfer."""

    def __init__(self):
        self._blob = b""
        self._sink = _Sink()

    def put(self, blob: bytes) -> int:
        self._blob = blob
        return len(blob)

    def open_download(self) -> ReaderStream:
        return export_reader(io.BytesIO(self._blob))

    def open_upload(self) -> WriterStream:
        self._sink = _Sink()
        return export_writer(self._sink)

    def upload_digest(self) -> str:
        return hashlib.sha256(self._sink.data).hexdigest()


class _Sink(io.RawIOBase):
    """Write-only file whose content survives ``close``."""

    def __init__(self):
        super().__init__()
        self.data = bytearray()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.data += data
        return len(data)


def process_usage() -> dict:
    """CPU seconds so far and peak resident set of this process.

    The peak is ``VmHWM``, not ``ru_maxrss``: a spawned child's
    ``ru_maxrss`` starts at its *parent's* resident set, so the owner
    would report the harness's memory.
    """
    used = resource.getrusage(resource.RUSAGE_SELF)
    peak_kib = used.ru_maxrss
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    peak_kib = int(line.split()[1])
                    break
    except OSError:
        pass  # no procfs: ru_maxrss is the best there is
    return {
        "cpu_s": used.ru_utime + used.ru_stime,
        "peak_rss_KiB": peak_kib,
    }


class Control(NetObj):
    """The owner's public counters, fetched from outside."""

    def __init__(self, space):
        self._space = space

    def stats(self) -> dict:
        return self._space.stats()

    def gc_stats(self) -> dict:
        return self._space.gc_stats()

    def usage(self) -> dict:
        return process_usage()

    def serve_scratch(self, name: str) -> None:
        """``naming.put_us``: one ``serve`` + ``unserve`` at the owner."""
        self._space.serve(name, Echo())
        self._space.unserve(name)


# -- the owner process, seen from the harness ---------------------------------

def plan_cpus() -> tuple:
    """``(harness_cpu, owner_cpu)`` from the CPUs this process may use,
    or ``(None, None)`` with fewer than two.

    Where the scheduler places two ping-ponging processes decides a
    null call's cost by a factor of two on this kind of VM (same core:
    ~100 us; two cores: ~230 us), and it moves them apart about two
    seconds into a run.  Pinning each side to its own CPU from the
    start measures the placement a deployed owner has — it does not
    share a core with its clients — and holds it for the whole run.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None, None
    if len(allowed) < 2:
        return None, None
    return allowed[0], allowed[1]


def pin(cpu: Optional[int]) -> None:
    """Pin the calling process (all threads it starts later) to ``cpu``."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


class OwnerProcess:
    """The owner ``Space`` in a child process.

    ``with OwnerProcess(env, cpu) as owner:`` yields after the child
    printed its ready line; ``owner.ready`` holds the endpoints.  The
    child exits when its stdin closes, so it cannot outlive the
    harness; ``stop`` also kills and reaps it if it lingers.
    """

    def __init__(self, env: Dict[str, str], cpu: Optional[int]):
        self.env = env
        self.cpu = cpu
        self.ready: dict = {}
        self._proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "OwnerProcess":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def pid(self) -> int:
        return self._proc.pid

    def start(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "owner.py"),
             "--cpu", str(-1 if self.cpu is None else self.cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env,
        )
        try:
            line = self._proc.stdout.readline()
            if not line:
                raise RuntimeError("owner process exited before it was ready")
            self.ready = json.loads(line)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
            proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        finally:
            proc.stdout.close()
