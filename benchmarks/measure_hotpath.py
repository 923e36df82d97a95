"""Standalone hot-path measurement: E1 / E2 / E3 without pytest.

Emits one JSON document on stdout with ns/op (E1, E2) and MB/s (E3)
numbers, so the same script can be run before and after a hot-path
change and the two runs diffed mechanically.  Used by the PR workflow
to record the before/after deltas committed in ``BENCH_*.json``.

The ``E1_hotpath_profile`` section breaks a null call into the
pipeline's stage buckets (encode / syscall / reactor / dispatch /
user_code / decode, see :mod:`repro.rpc.hotpath`) from a separate
profiled run — profiling costs a few hundred ns per call, so the
headline E1 numbers always come from unprofiled spaces and the profile
is attribution, not the measurement.

Usage::

    PYTHONPATH=src python benchmarks/measure_hotpath.py [--smoke]

``--smoke`` shrinks iteration counts to a CI-friendly sanity pass.
"""

from __future__ import annotations

import gc
import json
import sys
import time

from repro import Space
from repro.core.netobj import NetObj
from repro.marshal.pickler import Pickler
from repro.marshal.unpickler import Unpickler


class Echo(NetObj):
    def nothing(self) -> None:
        return None

    def echo(self, value):
        return value


def _best_of(fn, iterations: int, repeats: int = 7) -> float:
    """ns/op: best mean over ``repeats`` batches of ``iterations``.

    Best-of (not mean-of) because scheduler noise and GC pauses only
    ever add time; the GC is paused during batches for the same reason.
    """
    fn()  # warm
    batches = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter_ns()
            for _ in range(iterations):
                fn()
            batches.append((time.perf_counter_ns() - start) / iterations)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    return min(batches)


def measure_null_call(transport: str, iterations: int,
                      trials: int = 3) -> float:
    """Best ns/op across ``trials`` independent space pairs — thread
    placement at connection setup is a large variance source, so one
    unlucky pair must not stand for the hot path."""
    results = []
    for trial in range(trials):
        if transport == "tcp":
            listen = ["tcp://127.0.0.1:0"]
        else:
            listen = [f"inproc://measure-{trial}-{time.monotonic_ns()}"]
        # shm="off": hot-path trajectories are labelled by transport;
        # the tcp rows must not silently ride the shm upgrade.
        with Space("m-server", listen=listen, shm="off") as server, \
                Space("m-client", shm="off") as client:
            server.serve("echo", Echo())
            echo = client.import_object(server.endpoints[0], "echo")
            results.append(_best_of(echo.nothing, iterations))
    return min(results)


def measure_null_call_profile(iterations: int) -> dict:
    """One profiled TCP null-call run: per-stage mean µs per bucket.

    Client and server stages land in their own space's profile (the
    client accumulates encode/decode plus its half of syscall/reactor;
    the server accumulates user_code/dispatch plus its half), so the
    two are reported side by side.  Absolute per-call cost here runs a
    few hundred ns above the headline E1 number — the instrumentation
    itself is on the clock.
    """
    with Space("mp-server", listen=["tcp://127.0.0.1:0"], shm="off",
               hotpath_profile=True) as server, \
            Space("mp-client", shm="off", hotpath_profile=True) as client:
        server.serve("echo", Echo())
        echo = client.import_object(server.endpoints[0], "echo")
        echo.nothing()  # warm: bind + connection setup out of the window
        client.hotpath.reset()
        server.hotpath.reset()
        for _ in range(iterations):
            echo.nothing()

        def stage_means(space):
            stages = space.stats()["hotpath"]["stages"]
            return {
                name: round(bucket["mean_us"], 3)
                for name, bucket in stages.items() if bucket["calls"]
            }

        return {
            "iterations": iterations,
            "client_stage_mean_us": stage_means(client),
            "server_stage_mean_us": stage_means(server),
        }


def measure_throughput(size: int, repeats: int) -> float:
    """Round-trip MB/s over TCP for one payload size."""
    with Space("m-server", listen=["tcp://127.0.0.1:0"],
               shm="off") as server, \
            Space("m-client", shm="off") as client:
        server.serve("echo", Echo())
        echo = client.import_object(server.endpoints[0], "echo")
        payload = b"\xab" * size
        echo.echo(payload)  # warm
        rates = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(repeats):
                result = echo.echo(payload)
            elapsed = time.perf_counter() - start
            assert len(result) == size
            rates.append(2 * size * repeats / elapsed / 1e6)
        return max(rates)


def measure_marshal(iterations: int) -> dict:
    """E2: pickle+unpickle round trip, ns/op per payload kind."""
    payloads = {
        "int_list_100": list(range(100)),
        "str_1k": "x" * 1024,
        "bytes_64k": b"\xcd" * 65536,
        "nested": {"k%d" % i: [i, float(i), "v%d" % i] for i in range(50)},
    }
    out = {}
    for name, value in payloads.items():
        pickler = Pickler()
        unpickler = Unpickler()

        def round_trip(value=value, pickler=pickler, unpickler=unpickler):
            return unpickler.loads(pickler.dumps(value))

        out[name] = _best_of(round_trip, iterations)
    return out


def main() -> None:
    smoke = "--smoke" in sys.argv
    e1_iters = 20 if smoke else 400
    e2_iters = 20 if smoke else 300
    e3_repeats = 2 if smoke else 10

    results = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke": smoke,
        "E1_null_call_ns": {
            "inproc": measure_null_call(
                "inproc", e1_iters, trials=1 if smoke else 3
            ),
            "tcp": measure_null_call(
                "tcp", e1_iters, trials=1 if smoke else 3
            ),
        },
        "E1_hotpath_profile": measure_null_call_profile(
            50 if smoke else 1000
        ),
        "E2_marshal_ns": measure_marshal(e2_iters),
        "E3_throughput_mbps": {
            "64KiB": measure_throughput(64 * 1024, e3_repeats),
            "1MiB": measure_throughput(1024 * 1024, max(2, e3_repeats // 2)),
        },
    }
    json.dump(results, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
