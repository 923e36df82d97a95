"""The five workloads: what each generates from the seed, what one
operation is, and how its result is checked.

Why each exists, and what it bypasses, is in ``BENCHMARK.json`` in one
line and in the README at length.
"""

from __future__ import annotations

import gc
import hashlib
import random
import string
import time
from functools import partial
from typing import Dict, List

from repro import async_call
from repro.streams import as_file

from harness import Client, Window, closed_loop, median, percentile, ratio
from interfaces import CATALOGS, Account, Record

#: Seconds every workload runs before its measured window, so that
#: method bindings, dispatcher workers and caches exist.
WARMUP_S = 2.0


class Workload:
    """Base: a closed loop of ``callers`` threads over tcp."""

    name = ""
    callers = 2
    kinds: List[str] = []
    #: The kind whose latencies are ``op_p50_us`` (``None``: every
    #: kind), and the kind that is ``second_op_p50_us``.
    primary_kind = None
    second_kind = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.loop = f"closed, {self.callers} caller(s)"
        self.rng = random.Random(f"{self.name}:{seed}")
        self.clients: List[Client] = []
        #: The rate ladder of a traced run; closed loops have none.
        self.rungs: List[dict] = []

    def attach(self, clients: List[Client]) -> None:
        """Import what the workload drives, seed the owner with the
        generated inputs and verify one operation."""
        raise NotImplementedError

    def ops(self, client: Client, tracer) -> list:
        """The cycle of operations one caller repeats."""
        raise NotImplementedError

    def run(self, rig, seconds: float, tracer=None, part: int = 0) -> Window:
        """One measured window; ``part`` numbers the windows of a run."""
        def window_body(window: Window) -> None:
            closed_loop(
                [self.ops(client, tracer) for client in self.clients],
                seconds, window, tracer,
            )
        return rig.measure(window_body)

    def warm_up(self, seconds: float) -> None:
        closed_loop([self.ops(client, None) for client in self.clients],
                    seconds, Window())

    def checks(self, window: Window) -> List[str]:
        """Mechanism-engaged checks: the reasons this window does not
        measure what the workload is for (empty when it does)."""
        return []

    def second_latencies(self, window: Window) -> List[float]:
        """Samples of the workload's second operation, in seconds."""
        return window.latencies_of(self.second_kind)

    def payload_bytes_per_op(self) -> float:
        """Application payload moved by one operation, both directions."""
        return 0.0

    def merge_extra(self, extras: List[dict]) -> dict:
        """``Window.extra`` of a run's windows, as one."""
        return {}

    def diagnostics(self, window: Window) -> dict:
        """Workload-specific numbers for the report; not bounded."""
        return {}

    def layer_metrics(self, window: Window,
                      rung_seconds: float) -> Dict[str, float]:
        """Per-layer metrics only this workload exercises, from one of
        its windows.  Called while the rig is up: the open loop runs
        its rate ladder here, ``rung_seconds`` a rung."""
        return {}


# -- small_calls -------------------------------------------------------------------

def _letters(rng: random.Random, length: int) -> str:
    return "".join(rng.choices(string.ascii_lowercase, k=length))


def small_dict(rng: random.Random) -> dict:
    """The 20 % pickle-lane argument of ``small_calls``."""
    return {
        "id": rng.randrange(1 << 20, 1 << 21),
        "name": _letters(rng, 8),
        "tags": [_letters(rng, 4) for _ in range(3)],
        "ratio": rng.random(),
        "ok": rng.random() < 0.5,
    }


def ten_ints(rng: random.Random) -> tuple:
    return tuple(rng.randrange(-(1 << 31), 1 << 31) for _ in range(10))


class SmallCalls(Workload):
    name = "small_calls"
    #: One caller, not the two the issue asked for: two callers and
    #: their two reactor threads contending for one interpreter made
    #: throughput swing 12-19 % between runs of one commit, one caller
    #: 3 %, and this is the workload small gains are claimed on.
    callers = 1
    kinds = ["null", "typed10", "dict"]
    #: The pickle-lane fifth of the mix; the rest rides the fast lane.
    second_kind = 2
    #: Operations in one caller's cycle.
    CYCLE = 2000

    def attach(self, clients: List[Client]) -> None:
        self.clients = clients
        for client in clients:
            client.echo = client.lookup("echo")
            if client.echo.add10(*range(10)) != 45:
                raise AssertionError("add10 returned a wrong sum")

    def ops(self, client: Client, tracer) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{client.index}")
        echo = client.echo
        is_none = lambda value: value is None
        cycle = []
        for _ in range(self.CYCLE):
            draw = rng.random()
            if draw < 0.5:
                cycle.append((0, echo.nothing, is_none))
            elif draw < 0.8:
                args = ten_ints(rng)
                cycle.append((1, partial(echo.add10, *args),
                              sum(args).__eq__))
            else:
                value = small_dict(rng)
                cycle.append((2, partial(echo.echo, value), value.__eq__))
        return cycle

    def checks(self, window: Window) -> List[str]:
        problems = []
        fast = window.client_delta["fastlane"]
        if fast["fastlane_calls"] <= 0:
            problems.append("no call rode the fast lane")
        gc_delta = window.client_delta["gc"]
        if gc_delta["dirty_calls_sent"] or gc_delta["clean_calls_sent"]:
            problems.append("collector traffic during small_calls")
        return problems


# -- pickle_graph ------------------------------------------------------------------

#: Records in one batch, and accounts they share.
BATCH_RECORDS = 200
BATCH_ACCOUNTS = 10


def record_batch(rng: random.Random) -> List[Record]:
    """200 records over 10 shared accounts; the last record points at
    the first and the first at the last (one cycle).  Every field has a
    fixed encoded width, so each seed pickles to the same size."""
    accounts = [
        Account(rng.randrange(1 << 20, 1 << 21), _letters(rng, 12),
                {"daily": rng.randrange(1 << 13, 1 << 14),
                 "currency": _letters(rng, 3)})
        for _ in range(BATCH_ACCOUNTS)
    ]
    records = [
        Record(
            serial=rng.randrange(1 << 20, 1 << 21),
            title=_letters(rng, 24),
            score=rng.random(),
            tags=[_letters(rng, 6) for _ in range(3)],
            account=accounts[index % BATCH_ACCOUNTS],
            blob=rng.randbytes(96),
            peer=None,
        )
        for index in range(BATCH_RECORDS)
    ]
    records[-1].peer = records[0]
    records[0].peer = records[-1]
    return records


def batch_fingerprint(records) -> tuple:
    """Values and shape of a batch, without recursing into the cycle:
    scalar fields, which account object each record shares, and where
    each ``peer`` points."""
    position = {id(record): index for index, record in enumerate(records)}
    accounts: Dict[int, int] = {}
    rows = []
    for record in records:
        account = record.account
        slot = accounts.setdefault(id(account), len(accounts))
        rows.append((
            record.serial, record.title, record.score, tuple(record.tags),
            slot, account.number, account.holder,
            tuple(sorted(account.limits.items())), record.blob,
            None if record.peer is None else position.get(id(record.peer)),
        ))
    return tuple(rows)


class PickleGraph(Workload):
    name = "pickle_graph"
    kinds = ["echo_batch"]

    def __init__(self, seed: int):
        super().__init__(seed)
        self.batch = record_batch(self.rng)
        self.fingerprint = batch_fingerprint(self.batch)
        from repro.marshal import dumps
        self.pickled_size = len(dumps(self.batch))

    def _same(self, result) -> bool:
        return (isinstance(result, list)
                and len(result) == len(self.batch)
                and batch_fingerprint(result) == self.fingerprint)

    def attach(self, clients: List[Client]) -> None:
        self.clients = clients
        for client in clients:
            client.echo = client.lookup("echo")
            if not self._same(client.echo.echo(self.batch)):
                raise AssertionError("batch echo came back different")

    def ops(self, client: Client, tracer) -> list:
        return [(0, partial(client.echo.echo, self.batch), self._same)]

    def payload_bytes_per_op(self) -> float:
        return 2.0 * self.pickled_size

    def layer_metrics(self, window: Window,
                      rung_seconds: float) -> Dict[str, float]:
        return {"marshal.goodput_MBps":
                self.payload_bytes_per_op() * window.ops_per_s() / 1e6}


# -- bulk_stream -------------------------------------------------------------------

BLOB_BYTES = 8 * 1024 * 1024


class BulkStream(Workload):
    """One caller moving 8 MiB blobs through surrogate streams, a
    download and an upload in turn, each an operation of its own.

    Over tcp, not the shm ring two same-machine spaces upgrade to by
    default: at the seed commit the ring wedges about once in fifty
    runs of this workload (its cursors are packed with ``struct "<Q"``,
    which CPython stores byte by byte, so the peer process can read a
    torn cursor; the sender then waits for room for ever), and a
    benchmark's workloads must be ones on which no operation fails.
    The shm ring is still measured raw, by the transport probes.
    """

    name = "bulk_stream"
    callers = 1
    kinds = ["download", "upload"]
    #: Latency is the download's, the slow direction at the seed
    #: commit; the upload is the second operation.  A median over both
    #: would sit between two distributions a factor of ten apart.
    primary_kind = 0
    second_kind = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.download_blob = self.rng.randbytes(BLOB_BYTES)
        self.upload_blob = self.rng.randbytes(BLOB_BYTES)
        self.download_digest = hashlib.sha256(self.download_blob).hexdigest()
        self.upload_digest = hashlib.sha256(self.upload_blob).hexdigest()

    def attach(self, clients: List[Client]) -> None:
        self.clients = clients
        client = clients[0]
        client.blobs = client.lookup("blobs")
        if client.blobs.put(self.download_blob) != BLOB_BYTES:
            raise AssertionError("blob store took a different size")
        if not self._downloaded(self._download(client, None)):
            raise AssertionError("first download came back different")
        if not self._uploaded(self._upload(client, None)):
            raise AssertionError("first upload arrived different")

    def _download(self, client: Client, tracer) -> bytes:
        if tracer is None:
            with as_file(client.blobs.open_download()) as stream:
                return stream.read()
        with tracer.span(client.index, "streams.open_download"):
            reader = client.blobs.open_download()
        with tracer.span(client.index, "streams.read"):
            stream = as_file(reader)
            data = stream.read()
        with tracer.span(client.index, "streams.close_reader"):
            stream.close()
        return data

    def _upload(self, client: Client, tracer) -> Client:
        if tracer is None:
            with as_file(client.blobs.open_upload()) as stream:
                stream.write(self.upload_blob)
            return client
        with tracer.span(client.index, "streams.open_upload"):
            writer = client.blobs.open_upload()
        with tracer.span(client.index, "streams.write"):
            stream = as_file(writer)
            stream.write(self.upload_blob)
        with tracer.span(client.index, "streams.close_writer"):
            stream.close()
        return client

    def _downloaded(self, data: bytes) -> bool:
        return hashlib.sha256(data).hexdigest() == self.download_digest

    def _uploaded(self, client: Client) -> bool:
        """Untimed: the owner hashes what it received."""
        return client.blobs.upload_digest() == self.upload_digest

    def ops(self, client: Client, tracer) -> list:
        return [
            (0, partial(self._download, client, tracer), self._downloaded),
            (1, partial(self._upload, client, tracer), self._uploaded),
        ]

    def payload_bytes_per_op(self) -> float:
        return float(BLOB_BYTES)

    def diagnostics(self, window: Window) -> dict:
        return {
            direction + "_MBps":
                BLOB_BYTES / median(window.latencies_of(kind)) / 1e6
            for kind, direction in enumerate(self.kinds)
        }

    def layer_metrics(self, window: Window,
                      rung_seconds: float) -> Dict[str, float]:
        rates = self.diagnostics(window)
        moved_mib = window.completed * BLOB_BYTES / (1 << 20)
        return {
            "streams.read_MBps": rates["download_MBps"],
            "streams.write_MBps": rates["upload_MBps"],
            "streams.rpcs_per_MiB": ratio(
                window.client_delta["reactor"]["frames_out"], moved_mib),
        }


# -- ref_churn ---------------------------------------------------------------------

class RefChurn(Workload):
    name = "ref_churn"
    kinds = ["session"]
    #: One operation in this many is followed by a reclaim probe.
    PROBE_EVERY = 64

    def __init__(self, seed: int):
        super().__init__(seed)
        self.reclaim_s: List[float] = []
        #: Remote calls the workload itself made in the window (the
        #: rest of the clients' frames are the collector's).
        self.calls_issued = [0, 0]
        self.baseline_exported = 0

    def attach(self, clients: List[Client]) -> None:
        self.clients = clients
        for client in clients:
            client.directory = client.lookup("directory")
            client.since_probe = 0
            if not self._verified(self._session(client, None)):
                raise AssertionError("session round trip failed")
        control = clients[0].lookup("control")
        self._quiesce(clients[0].directory)
        self.baseline_exported = control.gc_stats()["exported"]

    @staticmethod
    def _quiesce(directory, timeout: float = 10.0) -> bool:
        deadline = time.perf_counter() + timeout
        while directory.live_sessions():
            if time.perf_counter() > deadline:
                return False
            gc.collect()
            time.sleep(0.01)
        return True

    def _session(self, client: Client, tracer) -> tuple:
        """One operation: a fresh object out, one call through it, back
        as an argument, dropped."""
        directory = client.directory
        if tracer is None:
            session = directory.open_session()
            serial = session.touch()
            touches = directory.close(session)
        else:
            with tracer.span(client.index, "core.import_fresh_object"):
                session = directory.open_session()
            with tracer.span(client.index, "rpc.call_through_surrogate"):
                serial = session.touch()
            with tracer.span(client.index, "core.pass_reference_home"):
                touches = directory.close(session)
        del session  # the last reference: the surrogate dies here
        return touches, serial, time.perf_counter(), client

    def _verified(self, value: tuple) -> bool:
        """Untimed: check the result and, one operation in
        ``PROBE_EVERY``, wait until the owner has freed the session."""
        touches, serial, dropped, client = value
        self.calls_issued[client.index] += 3
        client.since_probe += 1
        if client.since_probe >= self.PROBE_EVERY:
            client.since_probe = 0
            deadline = dropped + 5.0
            polls = 1
            while not client.directory.reclaimed(serial):
                polls += 1
                if time.perf_counter() > deadline:
                    return False
            self.reclaim_s.append(time.perf_counter() - dropped)
            self.calls_issued[client.index] += polls
        return touches == 1 and serial > 0

    def ops(self, client: Client, tracer) -> list:
        return [(0, partial(self._session, client, tracer), self._verified)]

    def run(self, rig, seconds: float, tracer=None, part: int = 0) -> Window:
        self.reclaim_s = []
        self.calls_issued = [0, 0]
        window = super().run(rig, seconds, tracer, part)
        window.extra["calls_issued"] = sum(self.calls_issued)
        quiet = self._quiesce(self.clients[0].directory)
        exported = rig.control.gc_stats()["exported"]
        window.extra["leaked_exports"] = (
            exported - self.baseline_exported if quiet
            else self.clients[0].directory.live_sessions()
        )
        window.extra["reclaim_s"] = sorted(self.reclaim_s)
        return window

    def merge_extra(self, extras: List[dict]) -> dict:
        return {
            "calls_issued": sum(e["calls_issued"] for e in extras),
            "leaked_exports": sum(e["leaked_exports"] for e in extras),
            "reclaim_s": sorted(s for e in extras for s in e["reclaim_s"]),
        }

    def second_latencies(self, window: Window) -> List[float]:
        """Last reference dropped -> the owner has freed the session."""
        return window.extra["reclaim_s"]

    def diagnostics(self, window: Window) -> dict:
        reclaim = window.extra["reclaim_s"]
        return {
            "reclaim_samples": len(reclaim),
            "reclaim_p50_ms": 1e3 * percentile(reclaim, 50),
            "leaked_exports": window.extra["leaked_exports"],
        }

    def layer_metrics(self, window: Window,
                      rung_seconds: float) -> Dict[str, float]:
        client = window.client_delta
        refs = window.completed
        dirty = client["gc"]["dirty_calls_sent"]
        # The clients send nothing but the workload's own calls and the
        # collector's frames: one dirty call and (by protocol) one copy
        # acknowledgement per reference received.  What is left carried
        # cleans; batching them is what makes it fall below 100.
        clean_frames = (client["reactor"]["frames_out"]
                        - window.extra["calls_issued"] - dirty - refs)
        return {
            "dgc.dirty_calls_per_ref": ratio(dirty, refs),
            "dgc.clean_frames_per_100_refs": 100.0 * ratio(clean_frames, refs),
            "dgc.leaked_exports": window.extra["leaked_exports"],
            "dgc.reclaim_p50_ms":
                1e3 * percentile(window.extra["reclaim_s"], 50),
        }

    def checks(self, window: Window) -> List[str]:
        problems = []
        if window.extra["leaked_exports"] != 0:
            problems.append(
                f"{window.extra['leaked_exports']} exports above baseline "
                "after quiescence"
            )
        if window.client_delta["gc"]["dirty_calls_sent"] <= 0:
            problems.append("no dirty call was sent")
        return problems


# -- leased_mix_open ---------------------------------------------------------------

#: Keys per catalog.
CATALOG_KEYS = 8
#: The ladder of the traced run, operations per second.  Frozen: a
#: change is measured against these rates, not against rates it picked.
#: At the seed commit, when the host is calm, the limit holds to about
#: 12 000/s, wobbles between 16 000 and 24 000 and is lost by 28 000;
#: when the host is busy (it halves the VM's speed for minutes at a
#: time) it is lost by 10 000.  So rung 3 passes and rung 4 fails in
#: either state; rungs 5 and 6 are for faster systems.
RUNG_RATES = (1000, 2000, 6000, 32000, 64000, 128000)
#: Offered rate of the end-to-end window: rung 2.
REFERENCE_RATE = RUNG_RATES[1]
#: Latency limit on the p99 measured from each operation's due time.
SLO_S = 0.005
WRITE_SHARE = 0.10
#: How long before an operation is due its sleep is set to end; the
#: rest is spun.  Sleeps overshoot by 70 us at the median and 100 us at
#: the p90 here: with 100 us of margin a tenth of the operations started
#: late and the read p50 swung between 13 and 20 us from window to
#: window; with 250 us it holds 10.5-13 us and the generator's own lag
#: p99 falls from 110 to 17 us.  The price is about 95 us of harness
#: spin in this workload's ``cpu_ms_per_kop``, the same in every run.
SPIN_S = 0.00025


class LeasedMixOpen(Workload):
    name = "leased_mix_open"
    callers = 1
    kinds = ["read", "write"]
    #: Latency is the reads' (the median is a lease hit); the writes
    #: are the second operation.
    primary_kind = 0
    second_kind = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.loop = (f"open, 1 generator thread, Poisson arrivals at "
                     f"{REFERENCE_RATE}/s")

    def attach(self, clients: List[Client]) -> None:
        self.clients = clients
        client = clients[0]
        index = client.lookup("catalogs")
        contents = [{key: 0 for key in range(CATALOG_KEYS)}
                    for _ in range(CATALOGS)]
        if index.populate(contents) != CATALOGS:
            raise AssertionError("catalog index took a different count")
        client.catalogs = index.catalogs()
        self.versions = [[0] * CATALOG_KEYS for _ in range(CATALOGS)]
        self.committed = [[0] * CATALOG_KEYS for _ in range(CATALOGS)]
        for catalog in client.catalogs:
            if catalog.lookup(0) != 0:
                raise AssertionError("fresh catalog is not empty")

    def schedule(self, rate: float, seconds: float, salt: str) -> tuple:
        """Poisson arrivals, operation kinds and keys, from the seed."""
        rng = random.Random(f"{self.name}:{self.seed}:{salt}")
        due, writes, slots, keys = [], [], [], []
        clock = 0.0
        while True:
            clock += rng.expovariate(rate)
            if clock >= seconds:
                break
            due.append(clock)
            writes.append(rng.random() < WRITE_SHARE)
            slots.append(rng.randrange(CATALOGS))
            keys.append(rng.randrange(CATALOG_KEYS))
        return due, writes, slots, keys

    def open_loop(self, rate: float, seconds: float, salt: str,
                  window: Window, tracer=None,
                  give_up_behind_s: float = 1.0) -> dict:
        """One generator thread (this one) issues each operation at its
        due time whether or not earlier ones completed.  Reads run in
        this thread (a leased read is a local call); writes are
        ``async_call`` futures.  Latency counts from the due time.

        Generator lag is the lateness the harness itself adds: from the
        later of the due time and the previous in-thread operation's
        return, to the moment the operation is issued.  Waiting behind
        a slow read is the system's queueing and is in the latency.

        Once the schedule is ``give_up_behind_s`` behind, the rest of it
        is not issued and counts as failed: the rate is far beyond what
        the system serves, and finishing it would only take time.
        """
        due, writes, slots, keys = self.schedule(rate, seconds, salt)
        catalogs = self.clients[0].catalogs
        versions, committed = self.versions, self.committed
        clock, sleep = time.perf_counter, time.sleep
        lag: List[float] = []
        reads: List[tuple] = []   # (issued, ended, latency from due)
        written: List[tuple] = []
        pending = []
        failures: List[str] = []

        def on_write_done(slot, key, version, due_at, issued, future):
            ended = clock()
            try:
                stored = future.result(0)
            except Exception as exc:  # noqa: BLE001 - a failed op is a sample
                failures.append(f"{type(exc).__name__}: {exc}")
            else:
                if stored < version:
                    failures.append("update returned an older version")
                elif committed[slot][key] < version:
                    committed[slot][key] = version
            written.append((issued, ended, ended - due_at))

        origin = clock() + 0.02
        free_at = origin
        for index in range(len(due)):
            due_at = origin + due[index]
            now = clock()
            remaining = due_at - now
            if remaining > 0:
                # Sleeping hands the interpreter to the reactor thread;
                # only the last stretch is spun, for precision.
                if remaining > SPIN_S:
                    sleep(remaining - SPIN_S)
                now = clock()
                while now < due_at:
                    now = clock()
            if now - due_at > give_up_behind_s:
                failures += ["not issued: the schedule ran away"] \
                    * (len(due) - index)
                break
            lag.append(now - max(due_at, free_at))
            slot, key = slots[index], keys[index]
            catalog = catalogs[slot]
            if writes[index]:
                versions[slot][key] += 1
                version = versions[slot][key]
                try:
                    future = async_call(catalog.update, key, version)
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"{type(exc).__name__}: {exc}")
                    ended = clock()
                    written.append((now, ended, ended - due_at))
                else:
                    future.add_done_callback(partial(
                        on_write_done, slot, key, version, due_at, now
                    ))
                    pending.append(future)
            else:
                floor = committed[slot][key]
                try:
                    value = catalog.lookup(key)
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"{type(exc).__name__}: {exc}")
                    value = floor
                ended = clock()
                if value < floor:
                    failures.append(
                        f"stale read: {value} after {floor} was committed"
                    )
                reads.append((now, ended, ended - due_at))
            free_at = clock()
        for future in pending:
            try:
                future.result(20.0)
            except Exception:  # noqa: BLE001 - counted by the callback
                pass
        first = len(window.ends)
        for kind, samples in ((0, reads), (1, written)):
            for issued, ended, latency in samples:
                window.kinds.append(kind)
                window.starts.append(issued)
                window.ends.append(ended)
                window.latencies.append(latency)
        window.attempted += len(due)
        for message in failures:
            window.note_failure(message)
        if tracer is not None:
            tracer.add_roots(0, window.kinds[first:], window.starts[first:],
                             window.ends[first:])
        return {
            "rate": rate,
            "ops": len(due),
            "write_s": sorted(sample[2] for sample in written),
            "lag_s": sorted(lag),
        }

    def run(self, rig, seconds: float, tracer=None, part: int = 0) -> Window:
        def window_body(window: Window) -> None:
            window.extra["rung"] = self.open_loop(
                REFERENCE_RATE, seconds, f"window-{part}", window, tracer
            )
        return rig.measure(window_body)

    def warm_up(self, seconds: float) -> None:
        self.open_loop(REFERENCE_RATE, seconds, "warm-up", Window())

    def ladder(self, rung_seconds: float) -> List[dict]:
        """Latency at each fixed rate, and whether the rung met the
        limit: p99 from the due time within ``SLO_S`` and at most one
        operation in a thousand failed.  A backlog that grows over the
        rung shows as latency from the due time, so it fails the p99.
        The ladder stops at the first rung that fails."""
        rungs = []
        for rate in RUNG_RATES:
            if rungs and not rungs[-1]["in_slo"]:
                break
            window = Window()
            rung = self.open_loop(rate, rung_seconds, f"rung-{rate}", window,
                                  give_up_behind_s=10 * SLO_S)
            latencies = sorted(window.latencies)
            p99 = percentile(latencies, 99)
            fail_ratio = window.failed / max(1, window.attempted)
            rungs.append({
                "rate": rate,
                "ops": rung["ops"],
                "p50_us": percentile(latencies, 50) * 1e6,
                "p99_us": p99 * 1e6,
                "fail_ratio": fail_ratio,
                "generator_lag_p99_us": 1e6 * percentile(rung["lag_s"], 99),
                "in_slo": p99 <= SLO_S and fail_ratio <= 0.001,
            })
        return rungs

    def merge_extra(self, extras: List[dict]) -> dict:
        rungs = [extra["rung"] for extra in extras]
        return {"rung": {
            "rate": rungs[0]["rate"],
            "ops": sum(r["ops"] for r in rungs),
            "write_s": sorted(s for r in rungs for s in r["write_s"]),
            "lag_s": sorted(s for r in rungs for s in r["lag_s"]),
        }}

    @staticmethod
    def _generator_lag_p99_s(window: Window) -> float:
        return percentile(window.extra["rung"]["lag_s"], 99)

    def diagnostics(self, window: Window) -> dict:
        rung = window.extra["rung"]
        return {
            "offered_rate_per_s": rung["rate"],
            "slo_p99_from_due_ms": 1e3 * SLO_S,
            "write_p50_us": 1e6 * percentile(rung["write_s"], 50),
            "write_p99_us": 1e6 * percentile(rung["write_s"], 99),
            "generator_lag_p99_us": 1e6 * self._generator_lag_p99_s(window),
        }

    @staticmethod
    def _lease_hit_ratio(window: Window) -> float:
        leases = window.client_delta["leases"]
        return ratio(leases["lease_hits"],
                     leases["lease_hits"] + leases["lease_misses"])

    def layer_metrics(self, window: Window,
                      rung_seconds: float) -> Dict[str, float]:
        rung = window.extra["rung"]
        self.rungs = self.ladder(rung_seconds)
        return {
            "core.lease_hit_ratio": self._lease_hit_ratio(window),
            "core.invalidations_per_write": ratio(
                window.owner_delta["leases"]["invalidations_sent"],
                len(rung["write_s"])),
            "core.write_p50_us": 1e6 * percentile(rung["write_s"], 50),
            "core.write_p99_us": 1e6 * percentile(rung["write_s"], 99),
            "rpc.generator_lag_p99_us":
                1e6 * self._generator_lag_p99_s(window),
            # The highest rung below the first that failed.
            "rpc.max_rate_in_slo": float(max(
                (step["rate"] for step in self.rungs if step["in_slo"]),
                default=0)),
        }

    def checks(self, window: Window) -> List[str]:
        problems = []
        hit_ratio = self._lease_hit_ratio(window)
        # Every write invalidates one lease and the next read of that
        # catalog misses, unless another write came first: with 10 %
        # writes the expected ratio is 1 - 0.1 * 0.9 / 0.9 = 0.90, so
        # the floor sits below it.  A denied lease gives 0.
        if hit_ratio < 0.85:
            problems.append(f"lease hit ratio {hit_ratio:.3f} is below 0.85")
        # A generator more than a tenth of the limit late measures
        # itself, not the system.
        lag = self._generator_lag_p99_s(window)
        if lag > 0.1 * SLO_S:
            problems.append(
                f"generator lag p99 {1e6 * lag:.0f} us is above a tenth "
                f"of the {1e3 * SLO_S:.0f} ms limit")
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (SmallCalls, PickleGraph, BulkStream, RefChurn, LeasedMixOpen)
}
