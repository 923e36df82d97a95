"""E8 — concurrency and connection management.

The paper's runtime multiplexes concurrent calls over cached
connections and forks a handler per incoming call.  Measured here:

* aggregate call throughput as client threads grow (1..16) — the
  server must scale past a single caller's rate;
* connection caching: calls on a warm connection vs the full dial +
  handshake cost of a cold one.
"""

import threading
import time

import pytest

from repro import NetObj, Space, async_call


class Adder(NetObj):
    def add(self, a: int, b: int) -> int:
        return a + b


class TestConcurrentClients:
    @pytest.mark.benchmark(group="E8-concurrency")
    @pytest.mark.parametrize("nthreads", [1, 4, 16])
    def test_throughput_vs_threads(self, benchmark, report, nthreads,
                                   request):
        endpoint = f"inproc://e8-{request.node.name}"

        def run():
            with Space("server", listen=[endpoint]) as server, \
                    Space("client") as client:
                server.serve("adder", Adder())
                adder = client.import_object(endpoint, "adder")
                calls_per_thread = 200
                done = []

                def worker():
                    for i in range(calls_per_thread):
                        assert adder.add(i, 1) == i + 1
                    done.append(1)

                threads = [
                    threading.Thread(target=worker)
                    for _ in range(nthreads)
                ]
                start = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                elapsed = time.perf_counter() - start
                assert len(done) == nthreads
                return nthreads * calls_per_thread / elapsed

        rate = benchmark.pedantic(run, rounds=1, iterations=1)
        report("E8 concurrency",
               f"{nthreads:2d} client thread(s): {rate:9.0f} calls/s")

    @pytest.mark.benchmark(group="E8-concurrency")
    def test_multiplexing_scales(self, report, benchmark, request):
        """Aggregate throughput with 8 threads must beat 1 thread:
        calls multiplex over one cached connection and dispatch to
        parallel handler threads at the server."""
        endpoint = f"inproc://e8s-{request.node.name}"

        class Sleeper(NetObj):
            def nap(self, seconds: float) -> float:
                time.sleep(seconds)
                return seconds

        def run():
            with Space("server", listen=[endpoint]) as server, \
                    Space("client") as client:
                server.serve("sleeper", Sleeper())
                sleeper = client.import_object(endpoint, "sleeper")

                def timed(nthreads, calls=4, nap=0.02):
                    threads = [
                        threading.Thread(
                            target=lambda: [
                                sleeper.nap(nap) for _ in range(calls)
                            ]
                        )
                        for _ in range(nthreads)
                    ]
                    start = time.perf_counter()
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    return time.perf_counter() - start

                serial = timed(1)
                parallel = timed(8)
                return serial, parallel

        serial, parallel = benchmark.pedantic(run, rounds=1, iterations=1)
        report("E8 concurrency",
               f"8x blocking calls wall-time {parallel * 1000:.0f} ms vs "
               f"1x {serial * 1000:.0f} ms (ideal parallel == serial)")
        # 8 threads x 4 naps would serialise to 8x; multiplexed
        # dispatch should keep it under 3x the single-thread time.
        assert parallel < 3 * serial


class TestPipelinedFutures:
    @pytest.mark.benchmark(group="E8-concurrency")
    def test_pipelined_vs_blocking_threads(self, benchmark, report, request):
        """16 callers against a method with 10 ms of service latency.
        A blocking caller parks a thread for a full round trip per
        call, so each thread's rate is capped at 1/latency; a
        pipelined caller fires every future up front and drains them,
        so the naps overlap on the server's per-call handler threads.
        The pipelined aggregate rate must be at least 2x blocking."""
        endpoint = f"inproc://e8p-{request.node.name}"
        ncallers = 16
        calls_per_caller = 20
        nap = 0.01

        class Worker(NetObj):
            def work(self, seconds: float, value: int) -> int:
                time.sleep(seconds)
                return value + 1

        def timed(worker):
            threads = [
                threading.Thread(target=worker) for _ in range(ncallers)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return ncallers * calls_per_caller / (time.perf_counter() - start)

        def run():
            with Space("server", listen=[endpoint]) as server, \
                    Space("client") as client:
                server.serve("worker", Worker())
                remote = client.import_object(endpoint, "worker")

                def blocking_worker():
                    for i in range(calls_per_caller):
                        assert remote.work(nap, i) == i + 1

                def pipelined_worker():
                    futures = [
                        async_call(remote.work, nap, i)
                        for i in range(calls_per_caller)
                    ]
                    for i, future in enumerate(futures):
                        assert future.result(30) == i + 1

                blocking = timed(blocking_worker)
                pipelined = timed(pipelined_worker)
                return blocking, pipelined

        blocking, pipelined = benchmark.pedantic(run, rounds=1, iterations=1)
        speedup = pipelined / blocking
        report("E8 concurrency",
               f"16 callers x 20 calls @ 10 ms latency: "
               f"blocking {blocking:7.0f} calls/s, "
               f"pipelined {pipelined:7.0f} calls/s ({speedup:.1f}x)",
               blocking_16x20_at_10ms_calls_per_s=round(blocking),
               pipelined_16x20_at_10ms_calls_per_s=round(pipelined),
               pipelined_speedup_x=round(speedup, 2))
        assert speedup >= 2.0

    @pytest.mark.benchmark(group="E8-concurrency")
    def test_pipelined_null_calls_single_caller(self, benchmark, report,
                                                request):
        """Context row: null calls are marshal-bound, not latency-bound,
        so pipelining is about parity there — its win is hiding latency
        (above), not cutting per-call CPU."""
        endpoint = f"inproc://e8n-{request.node.name}"
        calls = 2000

        def run():
            with Space("server", listen=[endpoint]) as server, \
                    Space("client") as client:
                server.serve("adder", Adder())
                adder = client.import_object(endpoint, "adder")
                start = time.perf_counter()
                futures = [async_call(adder.add, i, 1) for i in range(calls)]
                for i, future in enumerate(futures):
                    assert future.result(30) == i + 1
                return calls / (time.perf_counter() - start)

        rate = benchmark.pedantic(run, rounds=1, iterations=1)
        report("E8 concurrency",
               f"1 caller, 2000 pipelined null calls: {rate:9.0f} calls/s",
               pipelined_null_calls_per_s=round(rate))


class TestConnectionCaching:
    @pytest.mark.benchmark(group="E8-connections")
    def test_warm_call(self, benchmark, tcp_pair):
        server, client = tcp_pair
        echo = client.import_object(server.endpoints[0], "echo")
        benchmark(echo.nothing)

    @pytest.mark.benchmark(group="E8-connections")
    def test_cold_import(self, benchmark, report, tcp_pair):
        """Full cold path: fresh space, TCP dial, handshake, agent
        dirty call, name lookup."""
        server, _client = tcp_pair
        endpoint = server.endpoints[0]

        def cold():
            with Space("cold-client") as space:
                echo = space.import_object(endpoint, "echo")
                echo.nothing()

        benchmark.pedantic(cold, rounds=10, iterations=1)
        report("E8 concurrency",
               "cold import vs warm call: see E8-connections benchmark "
               "group (connection caching pays for itself after one call)")

    @pytest.mark.benchmark(group="E8-connections")
    def test_cache_reuses_one_connection(self, benchmark, report, tcp_pair):
        server, client = tcp_pair
        echo = client.import_object(server.endpoints[0], "echo")

        def run():
            for _ in range(100):
                echo.nothing()
            return len(client.cache)

        cached = benchmark.pedantic(run, rounds=1, iterations=1)
        assert cached == 1
        report("E8 concurrency",
               "100 calls used exactly 1 cached connection")


def handshake_idle_socket(endpoint: str):
    """Open a raw TCP socket to ``endpoint`` and complete the HELLO
    exchange by hand, yielding a server-side Connection that then sits
    idle — the cheapest way to stand up hundreds of inbound
    connections without hundreds of client Spaces."""
    import socket as socketlib
    import struct

    from repro.rpc import messages
    from repro.wire.framing import pack_frame
    from repro.wire.ids import fresh_space_id
    from repro.wire.protocol import PROTOCOL_VERSION

    host, port = endpoint[len("tcp://"):].rsplit(":", 1)
    sock = socketlib.create_connection((host, int(port)), timeout=10)
    hello = messages.Hello(
        fresh_space_id("idle"), "idle", PROTOCOL_VERSION, PROTOCOL_VERSION
    )
    sock.sendall(pack_frame(hello.encode()))

    def read_exact(need: int) -> bytes:
        data = b""
        while len(data) < need:
            chunk = sock.recv(need - len(data))
            assert chunk, "peer closed during handshake"
            data += chunk
        return data

    (length,) = struct.unpack("!I", read_exact(4))
    read_exact(length)  # the HELLO_ACK body, discarded
    return sock


def io_thread_count() -> int:
    """Resident I/O threads in this process: per-connection readers
    (pre-reactor), reactor/pump threads, and accept loops."""
    patterns = ("conn-reader", "reactor", "-pump", "tcp-accept",
                "shm-accept")
    return sum(
        1 for t in threading.enumerate()
        if any(p in t.name for p in patterns)
    )


class TestFanIn:
    @pytest.mark.benchmark(group="E8-fan-in")
    def test_fan_in_idle_and_active(self, report):
        """E8 fan-in: a server holding 128 mostly-idle inbound
        connections while 16 active callers drive traffic.  The
        numbers that matter: resident I/O thread count (O(connections)
        with reader-per-connection, O(1) with the reactor) and whether
        the idle mass degrades active-caller throughput."""
        idle_count = 128
        active_count = 16
        calls_per_caller = 100
        baseline_threads = threading.active_count()

        # shm="off": E8's fan-in row measures the TCP reactor path.
        with Space("fan-in-srv", listen=["tcp://127.0.0.1:0"],
                   shm="off") as server:
            server.serve("adder", Adder())
            endpoint = server.endpoints[0]

            idle_socks = [
                handshake_idle_socket(endpoint) for _ in range(idle_count)
            ]
            clients = [
                Space(f"fan-in-cli-{i}", shm="off")
                for i in range(active_count)
            ]
            try:
                adders = [
                    client.import_object(endpoint, "adder")
                    for client in clients
                ]
                for adder in adders:
                    assert adder.add(1, 1) == 2  # warm every connection

                io_threads = io_thread_count()
                total_threads = threading.active_count()

                def caller(adder):
                    for i in range(calls_per_caller):
                        assert adder.add(i, 1) == i + 1

                threads = [
                    threading.Thread(target=caller, args=(adder,))
                    for adder in adders
                ]
                start = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                elapsed = time.perf_counter() - start
                rate = active_count * calls_per_caller / elapsed
            finally:
                for client in clients:
                    client.shutdown()
                for sock in idle_socks:
                    sock.close()

        report("E8 concurrency",
               f"fan-in {idle_count} idle + {active_count} active: "
               f"{rate:9.0f} calls/s, {io_threads} I/O threads "
               f"({total_threads} total, {baseline_threads} baseline)",
               fan_in_idle128_active16_calls_per_s=round(rate),
               fan_in_io_threads=io_threads,
               fan_in_total_threads=total_threads)

