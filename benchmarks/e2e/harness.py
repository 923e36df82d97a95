"""Load-generator plumbing shared by every workload.

A *client* is one caller thread's view of the owner: its own ``Space``
(so two callers are two connections), the surrogates it drives, and
the control object through which the owner's public counters are read.
The closed and open loops here only time calls and collect samples;
what a call is, and whether its result is right, is the workload's
business (``workloads.py``).
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro import Space

from interfaces import HERE, OwnerProcess, process_usage

#: Where span files and the run's temporary files go.  Inside the
#: checkout: the benchmark writes nowhere else.
OUT_DIR = Path(os.environ.get("NETBENCH_OUT", HERE / "out"))

#: A Unix socket path holds 107 bytes; the longest socket name parked
#: in the temp dir takes about 30.
_SOCKET_DIR_LIMIT = 75


def _run_tmp() -> Path:
    return OUT_DIR / f"t{os.getpid()}"


def run_environment() -> Dict[str, str]:
    """The owner's environment.  ``TMPDIR`` of both processes points at
    a directory in the checkout, so the shm rendezvous sockets and ring
    files the library parks in the temp dir stay inside it — unless the
    checkout's path is too long for a socket, when the system temp dir
    is left in place."""
    env = dict(os.environ)
    tmp = _run_tmp()
    if len(str(tmp)) <= _SOCKET_DIR_LIMIT:
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = None  # make this process read TMPDIR again
    return env


def remove_run_tmp() -> None:
    shutil.rmtree(_run_tmp(), ignore_errors=True)


# -- samples ---------------------------------------------------------------------

def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class Window:
    """Everything one measured window produced."""
    #: ``perf_counter`` when the window began, and how long it lasted.
    started: float = 0.0
    seconds: float = 0.0
    #: Per completed operation: kind index, start and end (perf_counter).
    kinds: List[int] = field(default_factory=list)
    starts: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    #: Latency of each operation in seconds.  Closed loop: end - start.
    #: Open loop: end - due time.
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    cpu_s: float = 0.0
    owner_peak_rss_KiB: int = 0
    #: stats() of the owner and (summed) of the clients, after - before.
    owner_delta: dict = field(default_factory=dict)
    client_delta: dict = field(default_factory=dict)
    owner_after: dict = field(default_factory=dict)
    client_after: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    #: The windows a merged run is made of (empty for a single window).
    parts: List["Window"] = field(default_factory=list)

    def note_failure(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    @property
    def completed(self) -> int:
        return len(self.ends)

    def ops_per_s(self) -> float:
        return (self.completed - self.failed) / self.seconds

    def latencies_of(self, kind: Optional[int]) -> List[float]:
        """Latencies of one kind of operation; ``None`` is every kind."""
        if kind is None:
            return self.latencies
        return [latency for k, latency in zip(self.kinds, self.latencies)
                if k == kind]

    def series(self) -> dict:
        """Completions per second, bucket by bucket.

        Buckets of about a second tile one measured window exactly,
        from its start to its end.  An operation counts in each bucket
        for the share of its duration it spent there, so a workload
        that finishes ten transfers a second still has a per-second
        rate, and every operation is counted in full.  A run's windows
        are judged as one series, each window's buckets after the
        previous window's: what happens between two windows (counter
        snapshots, a drain, ``ref_churn`` waiting for quiescence) is in
        no bucket.
        """
        if self.parts:
            each = [part.series() for part in self.parts]
            return {"bucket_s": each[0]["bucket_s"],
                    "ops_per_s": [rate for one in each
                                  for rate in one["ops_per_s"]]}
        count = max(1, int(self.seconds))
        width = self.seconds / count
        buckets = [0.0] * count
        for start, end in zip(self.starts, self.ends):
            low = (start - self.started) / width
            high = (end - self.started) / width
            first, last = int(low), min(count - 1, int(high))
            if first == last:
                buckets[first] += 1.0
                continue
            for index in range(first, last + 1):
                buckets[index] += (
                    (min(high, index + 1) - max(low, index)) / (high - low))
        return {"bucket_s": width,
                "ops_per_s": [done / width for done in buckets]}

    def halves_differ_by(self) -> float:
        """Distance between the medians of the first and the second
        half of the throughput series, as a share of the larger."""
        series = self.series()["ops_per_s"]
        if len(series) < 2:
            return 0.0
        half = len(series) // 2
        first, second = median(series[:half]), median(series[-half:])
        return abs(first - second) / max(first, second)

    def unstable(self) -> bool:
        return self.halves_differ_by() > 0.10


def merged(windows: Sequence[Window]) -> Window:
    """The windows of one run as one: samples concatenated, counters
    summed.  ``extra`` is the workload's to merge."""
    out = Window(started=windows[0].started, parts=list(windows))
    for window in windows:
        out.seconds += window.seconds
        out.kinds += window.kinds
        out.starts += window.starts
        out.ends += window.ends
        out.latencies += window.latencies
        out.attempted += window.attempted
        out.failed += window.failed
        out.errors = (out.errors + window.errors)[:5]
        out.cpu_s += window.cpu_s
        out.owner_peak_rss_KiB = max(out.owner_peak_rss_KiB,
                                     window.owner_peak_rss_KiB)
    out.owner_delta = numeric_sum([w.owner_delta for w in windows])
    out.client_delta = numeric_sum([w.client_delta for w in windows])
    out.owner_after = windows[-1].owner_after
    out.client_after = windows[-1].client_after
    return out


# -- counters --------------------------------------------------------------------

def numeric_delta(after: dict, before: dict) -> dict:
    """``after - before`` over every numeric leaf both snapshots have."""
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = numeric_delta(value, before.get(key, {}))
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        else:
            out[key] = value - before.get(key, 0)
    return out


def numeric_sum(snapshots: Sequence[dict]) -> dict:
    out: dict = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if isinstance(value, dict):
                out[key] = numeric_sum([out.get(key, {}), value])
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            else:
                out[key] = out.get(key, 0) + value
    return out


# -- clients ---------------------------------------------------------------------

class Client:
    """One caller's ``Space`` and the surrogates it imported."""

    def __init__(self, index: int, endpoint: str):
        self.index = index
        self.endpoint = endpoint
        # shm="off" on both sides: every workload measures tcp.
        self.space = Space(f"caller-{index}", shm="off", call_timeout=20.0)

    def lookup(self, name: str):
        return self.space.import_object(self.endpoint, name)

    def close(self) -> None:
        self.space.shutdown()


class Rig:
    """An owner process plus the clients of one workload, set up and
    torn down together."""

    def __init__(self, workload, env: Dict[str, str], owner_cpu: Optional[int]):
        self.workload = workload
        self.owner = OwnerProcess(env, owner_cpu)
        self.clients: List[Client] = []
        self.control = None
        self.setup_s = 0.0

    def __enter__(self) -> "Rig":
        started = time.perf_counter()
        try:
            self.owner.start()
            endpoint = self.owner.ready["endpoint"]
            for index in range(self.workload.callers):
                self.clients.append(Client(index, endpoint))
            self.workload.attach(self.clients)
            # Set-up ends at the first verified operation.
            self.setup_s = time.perf_counter() - started
            self.control = self.clients[0].lookup("control")
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self.control = None
        for client in self.clients:
            try:
                client.close()
            except Exception:  # noqa: BLE001 - teardown must reach the child
                pass
        self.clients = []
        self.owner.stop()

    # -- measurement windows --------------------------------------------------

    def measure(self, run: Callable[[Window], None]) -> Window:
        """Run one window with counter and CPU snapshots around it.
        The clients' own counters are read innermost, so the control
        calls made here are outside their deltas."""
        window = Window()
        owner_before = self.control.stats()
        usage_before = self.control.usage()
        client_before = numeric_sum([c.space.stats() for c in self.clients])
        cpu_before = process_usage()["cpu_s"]
        window.started = time.perf_counter()
        run(window)
        window.seconds = time.perf_counter() - window.started
        cpu_after = process_usage()["cpu_s"]
        window.client_after = numeric_sum(
            [c.space.stats() for c in self.clients]
        )
        usage_after = self.control.usage()
        window.owner_after = self.control.stats()
        window.owner_delta = numeric_delta(window.owner_after, owner_before)
        window.client_delta = numeric_delta(window.client_after, client_before)
        window.cpu_s = (cpu_after - cpu_before
                        + usage_after["cpu_s"] - usage_before["cpu_s"])
        window.owner_peak_rss_KiB = usage_after["peak_rss_KiB"]
        return window


# -- the closed loop ----------------------------------------------------------------

def closed_loop(per_caller_ops: List[list], seconds: float,
                window: Window, tracer=None) -> None:
    """Each caller issues its next operation when the previous one
    returned, for ``seconds`` seconds.  An operation is a tuple: kind
    index, the call that is timed, and the check of its result, which
    is not."""
    results = [None] * len(per_caller_ops)
    start_gate = threading.Barrier(len(per_caller_ops))

    def caller(index: int, ops: list) -> None:
        kinds: List[int] = []
        starts: List[float] = []
        ends: List[float] = []
        failures: List[str] = []
        clock = time.perf_counter
        current = tracer.current if tracer is not None else None
        count = len(ops)
        position = 0
        start_gate.wait()
        stop_at = clock() + seconds
        while True:
            kind, call, check = ops[position]
            position += 1
            if position == count:
                position = 0
            if current is not None:
                current[index] = len(ends)
            begun = clock()
            try:
                value = call()
                ended = clock()
                if not check(value):
                    failures.append(f"wrong result from op kind {kind}")
            except Exception as exc:  # noqa: BLE001 - a failed op is a sample
                ended = clock()
                failures.append(f"{type(exc).__name__}: {exc}")
            kinds.append(kind)
            starts.append(begun)
            ends.append(ended)
            if ended >= stop_at:
                break
        results[index] = (kinds, starts, ends, failures)

    threads = [
        threading.Thread(target=caller, args=(index, ops),
                         name=f"caller-{index}")
        for index, ops in enumerate(per_caller_ops)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for index, (kinds, starts, ends, failures) in enumerate(results):
        if tracer is not None:
            tracer.add_roots(index, kinds, starts, ends)
        window.kinds += kinds
        window.starts += starts
        window.ends += ends
        window.latencies += [e - s for s, e in zip(starts, ends)]
        window.attempted += len(ends)
        for message in failures:
            window.note_failure(message)
