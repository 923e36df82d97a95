"""The work-stealing dispatcher plane and its Space-level knobs."""

from __future__ import annotations

import threading
import time

from repro import Space
from repro.core.netobj import NetObj
from repro.rpc.dispatcher import Dispatcher


class Echo(NetObj):
    def echo(self, value):
        return value


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestShardedDispatch:
    def test_sharded_submits_all_run(self):
        dispatcher = Dispatcher("t-shard", shards=4)
        done = threading.Semaphore(0)
        try:
            for i in range(40):
                dispatcher.submit(done.release, shard=i % 4)
            for _ in range(40):
                assert done.acquire(timeout=5)
            stats = dispatcher.stats()
            assert stats["shard_submits"] == 40
            assert stats["queued"] == 0
        finally:
            dispatcher.shutdown()

    def test_unsharded_pool_ignores_shard_hint(self):
        dispatcher = Dispatcher("t-flat")  # shards=0
        done = threading.Event()
        try:
            dispatcher.submit(done.set, shard=7)
            assert done.wait(5)
            assert dispatcher.stats()["shard_submits"] == 0
        finally:
            dispatcher.shutdown()

    def test_workers_steal_from_other_shards(self):
        """A burst on one shard fans out: workers whose home deque is
        empty take from the loaded one instead of idling."""
        dispatcher = Dispatcher("t-steal", shards=2)
        done = threading.Semaphore(0)
        try:
            for _ in range(20):
                dispatcher.submit(done.release, shard=0)
            for _ in range(20):
                assert done.acquire(timeout=5)
            assert dispatcher.stats()["stolen_tasks"] >= 1
        finally:
            dispatcher.shutdown()

    def test_saturated_submits_counts_capped_spawns(self):
        dispatcher = Dispatcher("t-sat", max_workers=2)
        gate = threading.Event()
        done = threading.Semaphore(0)

        def task():
            gate.wait(10)
            done.release()

        try:
            for _ in range(4):
                dispatcher.submit(task)
            assert _wait(lambda: dispatcher.stats()["workers"] == 2)
            # Two tasks run, two queued behind the cap.
            assert dispatcher.stats()["saturated_submits"] == 2
            gate.set()
            for _ in range(4):
                assert done.acquire(timeout=5)
        finally:
            gate.set()
            dispatcher.shutdown()

    def test_idle_timeout_retires_workers(self):
        dispatcher = Dispatcher("t-idle", idle_timeout=0.1)
        done = threading.Event()
        try:
            dispatcher.submit(done.set)
            assert done.wait(5)
            assert _wait(lambda: dispatcher.stats()["workers"] == 0)
        finally:
            dispatcher.shutdown()

    def test_no_task_stranded_by_sharded_burst(self):
        """Stress the token scheme: mixed sharded/unsharded submits
        from several threads, every task must run exactly once."""
        dispatcher = Dispatcher("t-mix", shards=3)
        counter = []
        lock = threading.Lock()

        def bump():
            with lock:
                counter.append(None)

        def producer(seed):
            for i in range(50):
                shard = (seed + i) % 3 if i % 2 else None
                dispatcher.submit(bump, shard=shard)

        try:
            threads = [
                threading.Thread(target=producer, args=(s,)) for s in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert _wait(lambda: len(counter) == 200)
            assert dispatcher.stats()["queued"] == 0
        finally:
            dispatcher.shutdown()


class TestSpaceDispatcherConfig:
    def test_space_plumbs_dispatcher_knobs(self):
        with Space("knobs", dispatcher_max_workers=7) as space:
            assert space.dispatcher.max_workers == 7
            assert space.dispatcher.idle_timeout == 5.0   # the default

    def test_gc_stats_exposes_saturated_submits(self):
        with Space("sat-stats") as space:
            assert space.gc_stats()["saturated_submits"] == 0
            assert space.stats()["dispatcher"]["saturated_submits"] == 0

    def test_requests_ride_shard_deques(self):
        """End to end: requests arriving on a sharded space land in the
        per-shard deques (shard_submits moves)."""
        with Space("rsd-srv", listen=["tcp://127.0.0.1:0"],
                   reactor_shards=2, shm="off") as server, \
                Space("rsd-cli", shm="off") as client:
            server.serve("echo", Echo())
            echo = client.import_object(server.endpoints[0], "echo")
            for i in range(5):
                assert echo.echo(i) == i
            assert server.stats()["dispatcher"]["shard_submits"] >= 5

    def test_saturated_space_still_serves(self):
        """A Space capped to very few workers degrades to queueing,
        never to dropping: every call completes."""
        with Space("tiny-srv", listen=["tcp://127.0.0.1:0"],
                   dispatcher_max_workers=2, shm="off") as server, \
                Space("tiny-cli", shm="off") as client:
            server.serve("echo", Echo())
            echo = client.import_object(server.endpoints[0], "echo")
            results = []
            lock = threading.Lock()

            def caller(i):
                value = echo.echo(i)
                with lock:
                    results.append(value)

            threads = [
                threading.Thread(target=caller, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert sorted(results) == list(range(8))
