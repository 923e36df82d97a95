"""E3 — Figure: data transfer throughput vs payload size.

The paper reports bulk-transfer performance of marshaled data; the
figure's shape is the classic one — per-call overhead dominates small
payloads, then throughput climbs and plateaus as the payload grows.
We reproduce the curve on both transports and assert the shape (the
large-payload rate beats the small-payload rate by a wide margin).

Past the plateau of a single call the paper moves bulk data through
surrogate *streams*; the second half of this module measures those at
production scale — 64 MiB to 1 GiB through ``as_file`` and 16 streams
at once on one connection, on tcp and on the shm ring, against an
owner in another process — and reports each rate as a share of what
the transport moves raw.  The bulk-data plane's target is that share,
not a multiple of the per-call cost.
"""

import threading
import time

import pytest

from repro import Space
from repro.streams import as_file
from benchmarks.bulk_owner import (
    BulkOwner, expected_bytes, raw_stream_MBps, rss_MiB,
)

SIZES = [2**10, 2**14, 2**17, 2**20]  # 1 KiB .. 1 MiB

MiB = 1 << 20
BULK_SIZES = [64 * MiB, 256 * MiB, 1024 * MiB]
CONCURRENT_STREAMS = 16
#: What a transfer of any size may add to either process's resident
#: set: windows, chunk buffers and allocator slack — not the payload.
RSS_GROWTH_LIMIT_MiB = 32.0


def transfer_rate(echo, size: int, repeats: int = 8) -> float:
    """Round-trip MB/s for one payload size (payload travels twice)."""
    payload = b"\xab" * size
    echo.echo(payload)  # warm
    start = time.perf_counter()
    for _ in range(repeats):
        result = echo.echo(payload)
    elapsed = time.perf_counter() - start
    assert len(result) == size
    return 2 * size * repeats / elapsed / 1e6


class TestThroughputCurve:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.benchmark(group="E3-throughput-tcp")
    def test_tcp_echo(self, benchmark, tcp_pair, size):
        server, client = tcp_pair
        echo = client.import_object(server.endpoints[0], "echo")
        payload = b"\xab" * size
        result = benchmark(echo.echo, payload)
        assert len(result) == size

    @pytest.mark.benchmark(group="E3-shape")
    def test_curve_shape(self, benchmark, tcp_pair, report):
        server, client = tcp_pair
        echo = client.import_object(server.endpoints[0], "echo")

        def run():
            return {size: transfer_rate(echo, size) for size in SIZES}

        rates = benchmark.pedantic(run, rounds=1, iterations=1)
        for size, rate in rates.items():
            report("E3 throughput",
                   f"payload {size:8d} B : {rate:8.1f} MB/s round-trip",
                   **{f"throughput_{size}B_mbps": rate})
        # Shape: throughput grows with payload then flattens; the
        # megabyte payload must beat the kilobyte payload by >= 10x.
        assert rates[2**20] > 10 * rates[2**10]
        report("E3 throughput",
               f"amortisation factor 1MiB/1KiB: "
               f"x{rates[2**20] / rates[2**10]:.0f}")


# -- bulk streams (the v7 bulk-data plane) ---------------------------------------------

def download(depot, size: int, scratch: bytearray,
             open_file=as_file) -> float:
    """Seconds to pull ``size`` bytes through ``open_file`` (default
    ``as_file``) into a reused buffer (open and close included)."""
    start = time.perf_counter()
    with open_file(depot.open_download(size)) as stream:
        total = stream.readinto(scratch)
        assert bytes(scratch[:64]) == expected_bytes(0, 64)
        while True:
            count = stream.readinto(scratch)
            if not count:
                break
            total += count
    elapsed = time.perf_counter() - start
    assert total == size
    return elapsed


def upload(depot, size: int, block: bytes) -> float:
    """Seconds to push ``size`` bytes through ``as_file`` (``close``
    returns once the owner has every byte)."""
    start = time.perf_counter()
    with as_file(depot.open_upload()) as stream:
        for _ in range(size // len(block)):
            stream.write(block)
    elapsed = time.perf_counter() - start
    total, head = depot.uploaded()
    assert total == size and head == block[:64]
    return elapsed


@pytest.fixture(params=["tcp", "shm"])
def bulk_rig(request):
    """Owner process, client space and the transport's raw rate."""
    shm = "auto" if request.param == "shm" else "off"
    with BulkOwner(shm=shm) as owner:
        client = Space("bulk-client", shm=shm, call_timeout=60.0)
        try:
            depot = client.import_object(owner.endpoint, "depot")
            upgraded = client.cache.stats()["upgraded_dials"]
            assert upgraded == (1 if request.param == "shm" else 0)
            raw_endpoint = (owner.raw_shm if request.param == "shm"
                            else owner.raw_tcp)
            # Best of three: the baseline should be what the transport
            # can do, not what a noisy neighbour left of it.
            raw = max(raw_stream_MBps(raw_endpoint, 128 * MiB)
                      for _ in range(3))
            yield request.param, client, depot, raw
        finally:
            client.shutdown()


class TestBulkStreams:
    @pytest.mark.benchmark(group="E3-bulk")
    def test_as_file_transfers(self, benchmark, bulk_rig, report):
        transport, client, depot, raw = bulk_rig
        scratch = bytearray(MiB)
        block = bytes(range(256)) * (16 * MiB // 256)
        download(depot, 16 * MiB, scratch)  # warm both directions
        upload(depot, 16 * MiB, block)
        report("E3 bulk streams",
               f"{transport}: raw transport stream {raw:8.0f} MB/s",
               **{f"bulk_{transport}_raw_mbps": raw})

        def run():
            rows = {}
            for size in BULK_SIZES:
                depot.rss(True)
                mine = rss_MiB(reset_peak=True)["rss"]
                theirs = depot.rss()["rss"]
                down = size / download(depot, size, scratch) / 1e6
                up = size / upload(depot, size, block) / 1e6
                rows[size] = (
                    down, up,
                    depot.rss()["peak"] - theirs, rss_MiB()["peak"] - mine,
                )
            return rows

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        for size, (down, up, owner_grew, client_grew) in rows.items():
            label = f"{size // MiB}MiB"
            report(
                "E3 bulk streams",
                f"{transport}: {label:>7} down {down:7.0f} MB/s "
                f"({down / raw:4.0%} of raw)  up {up:7.0f} MB/s "
                f"({up / raw:4.0%})  rss +{owner_grew:.1f} MiB owner, "
                f"+{client_grew:.1f} MiB client",
                **{
                    f"bulk_{transport}_download_{label}_mbps": down,
                    f"bulk_{transport}_upload_{label}_mbps": up,
                    f"bulk_{transport}_download_{label}_share": down / raw,
                    f"bulk_{transport}_upload_{label}_share": up / raw,
                    f"bulk_{transport}_owner_rss_growth_{label}_MiB":
                        owner_grew,
                    f"bulk_{transport}_client_rss_growth_{label}_MiB":
                        client_grew,
                },
            )
            # Memory is bounded by the window, not by the transfer.
            assert owner_grew <= RSS_GROWTH_LIMIT_MiB
            assert client_grew <= RSS_GROWTH_LIMIT_MiB
        stats = client.stats()["streams"]
        assert stats["fallbacks"] == 0 and stats["opened"] >= 6

    @pytest.mark.benchmark(group="E3-bulk")
    def test_concurrent_streams(self, benchmark, bulk_rig, report):
        transport, client, depot, raw = bulk_rig
        size = 64 * MiB
        download(depot, 16 * MiB, bytearray(MiB))  # warm
        failures = []

        def one():
            try:
                download(depot, size, bytearray(MiB))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(repr(exc))

        def run():
            threads = [threading.Thread(target=one)
                       for _ in range(CONCURRENT_STREAMS)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(300)
            return time.perf_counter() - start

        elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
        assert failures == []
        rate = CONCURRENT_STREAMS * size / elapsed / 1e6
        report(
            "E3 bulk streams",
            f"{transport}: {CONCURRENT_STREAMS} streams x 64 MiB on one "
            f"connection {rate:7.0f} MB/s ({rate / raw:4.0%} of raw)",
            **{f"bulk_{transport}_concurrent16_mbps": rate,
               f"bulk_{transport}_concurrent16_share": rate / raw},
        )
        assert len(client._connections) == 1
