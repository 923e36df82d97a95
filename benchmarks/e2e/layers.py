"""Per-layer metrics, measured from outside ``src/repro``.

Three sources:

* **legs** — a layer's public functions called in isolation on inputs
  the workloads generate from the seed (:func:`isolated_legs`);
* **probes** — short single-caller measurements against the live owner
  and its raw listeners (:func:`owner_probes`);
* **counters** — ``Space.stats()`` deltas of both processes over the
  traced window (:func:`window_counters`).

``README.md`` says which end-to-end metric each should move, on which
workload.  What only one workload exercises (leases, the collector,
streams) is computed by that workload's ``layer_metrics`` from one of
its windows: the traced window when it is the workload asked for, a
short side window of it otherwise (``run.run_traced``).
"""

from __future__ import annotations

import random
import threading
import time
import tracemalloc
from typing import Callable, Dict, List

from repro import Space
from repro.core import typecodes
from repro.marshal import MarshalPool, global_registry
from repro.rpc import messages
from repro.rpc.dispatcher import Dispatcher
from repro.transport.shm import ShmTransport
from repro.transport.tcp import TcpTransport
from repro.wire.framing import (
    FrameAssembler, finish_frame, new_frame,
)

from harness import Window, median, ratio
from spans import Tracer
from workloads import record_batch, small_dict, ten_ints

SMALL = 64
LARGE = 64 * 1024


def timed_batches(tracer: Tracer, name: str, fn: Callable[[], object],
                  batch: int, batches: int = 9) -> float:
    """Median seconds per call of ``fn`` over ``batches`` batches, one
    leg span per batch.  One untimed batch comes first."""
    for _ in range(batch):
        fn()
    per_call = []
    for _ in range(batches):
        with tracer.leg(name, batch):
            start = time.perf_counter()
            for _ in range(batch):
                fn()
            per_call.append((time.perf_counter() - start) / batch)
    return median(per_call)


# -- legs ------------------------------------------------------------------------

def isolated_legs(tracer: Tracer, seed: int) -> Dict[str, float]:
    rng = random.Random(f"legs:{seed}")
    out: Dict[str, float] = {}

    # wire: build a frame in place, reassemble it the way the reactor does.
    for label, size in (("64B", SMALL), ("64KiB", LARGE)):
        payload = rng.randbytes(size)

        def pack(payload=payload):
            frame = new_frame()
            frame += payload
            return finish_frame(frame)

        frame = bytes(pack())
        assembler = FrameAssembler()

        def read(frame=frame, assembler=assembler):
            view = memoryview(frame)
            offset = 0
            done = None
            while offset < len(frame):
                target = assembler.next_buffer()
                count = min(len(target), len(frame) - offset)
                target[:count] = view[offset:offset + count]
                offset += count
                done = assembler.advance(count)
            return done

        assert read() == payload
        batch = 2000 if size == SMALL else 200
        out[f"wire.frame_pack_{label}_ns"] = 1e9 * timed_batches(
            tracer, f"wire.frame_pack_{label}", pack, batch)
        out[f"wire.frame_read_{label}_ns"] = 1e9 * timed_batches(
            tracer, f"wire.frame_read_{label}", read, batch)
        if size == SMALL:
            kept = []
            tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(1000):
                kept.append(read())
            after = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            out["wire.alloc_B_per_frame"] = (after - before) / 1000.0

    # marshal: the pickle_graph batch and the small_calls dict, through
    # pooled codecs as the serving path uses them.
    pool = MarshalPool(global_registry)

    def dumps(value):
        pickler = pool.acquire_pickler()
        try:
            return pickler.dumps(value)
        finally:
            pool.release_pickler(pickler)

    def loads(data):
        unpickler = pool.acquire_unpickler()
        try:
            return unpickler.loads(data)
        finally:
            pool.release_unpickler(unpickler)

    batch_value = record_batch(rng)
    batch_pickle = dumps(batch_value)
    kib = len(batch_pickle) / 1024.0
    out["marshal.dumps_ns_per_KiB"] = 1e9 / kib * timed_batches(
        tracer, "marshal.dumps_batch", lambda: dumps(batch_value), 5, 7)
    out["marshal.loads_ns_per_KiB"] = 1e9 / kib * timed_batches(
        tracer, "marshal.loads_batch", lambda: loads(batch_pickle), 5, 7)
    small_value = small_dict(rng)
    small_pickle = dumps(small_value)
    out["marshal.dumps_small_ns"] = 1e9 * timed_batches(
        tracer, "marshal.dumps_small", lambda: dumps(small_value), 1000)
    out["marshal.loads_small_ns"] = 1e9 * timed_batches(
        tracer, "marshal.loads_small", lambda: loads(small_pickle), 1000)

    # rpc: the envelopes of one fast-lane call, both directions.
    args_wire = bytearray()
    typecodes.encode_scalar_args_into(args_wire, ())
    result_wire = bytearray()
    typecodes.encode_scalar_result_into(result_wire, None)
    call = messages.FastCall(123456, 7, bytes(args_wire))
    result = messages.FastResult(123456, bytes(result_wire))

    def encode_pair():
        out_call = bytearray()
        call.encode_into(out_call)
        out_result = bytearray()
        result.encode_into(out_result)

    call_bytes, result_bytes = call.encode(), result.encode()

    def decode_pair():
        messages.decode(call_bytes)
        messages.decode(result_bytes)

    out["rpc.msg_encode_ns"] = 1e9 * timed_batches(
        tracer, "rpc.msg_encode", encode_pair, 2000)
    out["rpc.msg_decode_ns"] = 1e9 * timed_batches(
        tracer, "rpc.msg_decode", decode_pair, 2000)

    # rpc: reactor thread -> dispatcher worker hand-off.
    out["rpc.dispatch_handoff_us"] = 1e6 * dispatch_handoff(tracer)

    # core: the typed ten-int codec (args out and in, result out and in).
    ints = ten_ints(rng)
    total = sum(ints)

    def codec(args):
        wire = bytearray()
        typecodes.encode_scalar_args_into(wire, args)
        typecodes.decode_scalar_args(wire)
        reply = bytearray()
        typecodes.encode_scalar_result_into(reply, total)
        typecodes.decode_scalar_result(reply)

    out["core.typecodes_codec_ns"] = 1e9 * timed_batches(
        tracer, "core.typecodes_codec", lambda: codec(ints), 1000)
    # What the same codec costs a null call; part of its breakdown only.
    out["_null_codec_s"] = timed_batches(
        tracer, "core.typecodes_null", lambda: codec(()), 1000)
    return out


def dispatch_handoff(tracer: Tracer, calls: int = 1500) -> float:
    """Median seconds from ``Dispatcher.submit`` to the task starting,
    one task at a time (the worker is parked, as between two calls)."""
    dispatcher = Dispatcher("netbench-leg")
    waits: List[float] = []
    done = threading.Event()
    submitted = [0.0]

    def task():
        waits.append(time.perf_counter() - submitted[0])
        done.set()

    try:
        with tracer.leg("rpc.dispatch_handoff", calls):
            for _ in range(calls):
                done.clear()
                submitted[0] = time.perf_counter()
                dispatcher.submit(task)
                done.wait(5.0)
    finally:
        dispatcher.shutdown()
    return median(waits[calls // 5:])


# -- probes ----------------------------------------------------------------------

def raw_echo_rtt(tracer: Tracer, name: str, channel, calls: int) -> float:
    ping = b"\x00"
    samples = []
    with tracer.leg(name, calls):
        for _ in range(calls):
            start = time.perf_counter()
            channel.send(ping)
            channel.recv(timeout=5)
            samples.append(time.perf_counter() - start)
    return median(samples[calls // 5:])


def raw_stream_rate(tracer: Tracer, name: str, channel, frames: int) -> float:
    """One-way MB/s of 64 KiB frames; the sync frame's reply proves the
    listener consumed them all."""
    chunk = b"\x01" + bytes(LARGE - 1)
    with tracer.leg(name, frames):
        start = time.perf_counter()
        for _ in range(frames):
            channel.send(chunk)
        channel.send(b"\x02")
        reply = channel.recv(timeout=30)
        elapsed = time.perf_counter() - start
    if int.from_bytes(reply, "big") < frames * LARGE:
        raise AssertionError("raw listener swallowed fewer bytes than sent")
    return frames * LARGE / elapsed / 1e6


def call_p50(call: Callable[[], object], calls: int) -> float:
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return median(samples[calls // 5:])


def owner_probes(tracer: Tracer, ready: dict) -> Dict[str, float]:
    """Single-caller measurements against the live owner, over plain
    tcp so they compare with the raw tcp echo."""
    out: Dict[str, float] = {}
    endpoint = ready["endpoint"]

    for scheme, transport in (("tcp", TcpTransport()), ("shm", ShmTransport())):
        channel = transport.connect(ready[f"raw_{scheme}"])
        try:
            out[f"transport.{scheme}_echo_rtt_us"] = 1e6 * raw_echo_rtt(
                tracer, f"transport.{scheme}_echo", channel, 1500)
            out[f"transport.{scheme}_stream_MBps"] = raw_stream_rate(
                tracer, f"transport.{scheme}_stream", channel, 600)
        finally:
            channel.close()

    # naming: a fresh client Space to a verified first call.
    boots = []
    for index in range(5):
        with tracer.leg("naming.bootstrap", 1):
            start = time.perf_counter()
            with Space(f"boot-{index}", shm="off") as fresh:
                echo = fresh.import_object(endpoint, "echo")
                if echo.add10(*range(10)) != 45:
                    raise AssertionError("bootstrap call returned a wrong sum")
                boots.append(time.perf_counter() - start)
    out["naming.bootstrap_ms"] = 1e3 * median(boots)

    with Space("probe", shm="off", call_timeout=20.0) as probe:
        # rpc: cold dial + HELLO through the connection cache.
        dials = []
        for _ in range(8):
            with tracer.leg("rpc.dial", 1):
                start = time.perf_counter()
                connection = probe.cache.get(endpoint)
                dials.append(time.perf_counter() - start)
            connection.close()
            deadline = time.perf_counter() + 5.0
            while probe.cache.peek(endpoint) is not None:
                if time.perf_counter() > deadline:
                    raise TimeoutError("closed connection stayed cached")
                time.sleep(0.001)
        out["rpc.dial_ms"] = 1e3 * median(dials)

        agent = probe.import_object(endpoint)
        echo = agent.get("echo")
        with tracer.leg("naming.get", 2000):
            out["naming.get_us"] = 1e6 * call_p50(
                lambda: agent.get("echo"), 2000)
        scratch = probe.import_object(endpoint, "control")
        with tracer.leg("naming.put", 200):
            out["naming.put_us"] = 1e6 * call_p50(
                lambda: scratch.serve_scratch("netbench-scratch"), 200)

        with tracer.leg("rpc.null_call", 1500):
            null_s = call_p50(echo.nothing, 1500)
        out["rpc.null_call_p50_us"] = 1e6 * null_s

        # core: a call that returns a fresh object against one that
        # returns None.
        directory = probe.import_object(endpoint, "directory")
        with tracer.leg("core.surrogate_build", 300):
            fresh_s = call_p50(directory.open_session, 300)
        out["core.surrogate_build_us"] = 1e6 * (fresh_s - null_s)

        # core: leases.  Two catalogs of the probe's own: one this
        # space holds a lease on, one nobody ever reads.
        index = probe.import_object(endpoint, "probe_catalogs")
        index.populate([{0: 0}, {0: 0}])
        held, unheld = index.catalogs()
        acquire, taxed, plain = [], [], []
        for version in range(1, 201):
            held.lookup(0)  # holds the lease the update must invalidate
            start = time.perf_counter()
            held.update(0, version)
            taxed.append(time.perf_counter() - start)
            start = time.perf_counter()
            if held.lookup(0) != version:
                raise AssertionError("read after write saw an old version")
            acquire.append(time.perf_counter() - start)
            start = time.perf_counter()
            unheld.update(0, version)
            plain.append(time.perf_counter() - start)
        out["core.lease_acquire_us"] = 1e6 * median(acquire[40:])
        out["core.lease_write_tax_us"] = 1e6 * (
            median(taxed[40:]) - median(plain[40:]))
    return out


class QueueMonitor:
    """Samples the owner's dispatcher queue depth ten times a second,
    over a connection of its own so the callers' counters stay theirs."""

    def __init__(self, endpoint: str):
        self._space = Space("monitor", shm="off", call_timeout=20.0)
        self._control = self._space.import_object(endpoint, "control")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, name="monitor")
        self.peak = 0

    def _poll(self) -> None:
        while not self._stop.wait(0.1):
            queued = self._control.stats()["dispatcher"]["queued"]
            self.peak = max(self.peak, queued)

    def __enter__(self) -> "QueueMonitor":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self._control = None
        self._space.shutdown()


# -- counters --------------------------------------------------------------------

def window_counters(window: Window) -> Dict[str, float]:
    """Counter deltas that mean the same on every workload; what only
    one workload exercises is in its ``layer_metrics``."""
    owner, client = window.owner_delta, window.client_delta
    reactor = owner["reactor"]
    admission = owner["admission"]
    shed = admission.get("shed", 0)
    pools = window.owner_after["marshal"]
    return {
        "transport.wakeups_per_call":
            ratio(reactor["wakeups"], window.completed),
        "transport.frames_per_wakeup":
            ratio(reactor["frames_in"], reactor["wakeups"]),
        "rpc.fastlane_share": ratio(client["fastlane"]["fastlane_calls"],
                                    client["reactor"]["frames_out"]),
        "rpc.fastlane_fallbacks": client["fastlane"]["fastlane_fallbacks"],
        "rpc.inline_share": ratio(owner["fastlane"]["inline_dispatches"],
                                  reactor["frames_in"]),
        "rpc.inline_demotions": owner["fastlane"]["inline_demotions"],
        "rpc.shed_ratio": ratio(shed, shed + admission.get("admitted", 0)),
        "rpc.read_pauses": admission.get("read_pauses", 0),
        "rpc.saturated_submits": owner["dispatcher"]["saturated_submits"],
        "marshal.pool_high_water": max(pools["picklers"]["out_high"],
                                       pools["unpicklers"]["out_high"]),
        "dgc.failed_cleans": client["gc"]["failed_cleans"],
        "dgc.resurrections": client["gc"]["resurrections"],
    }
