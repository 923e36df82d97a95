"""Loop-served requests: the reactor loop that reads a request serves it.

The runtime's own frames are always served on the loop; a call is once
its method's last :data:`~repro.core.space.PROVEN_RUNS` worker runs
were fast.  A loop-served run that waits in the runtime or overruns
the stall bound passes the loop to another thread, so the shard's
other connections keep moving, and sends its method back to the
workers, as do loop-served runs that keep overrunning the fast bound.
Every server here runs one reactor shard, so all its connections are
siblings on one loop.  The hand-off tests run over plain TCP and over
the shared-memory ring a same-host TCP dial upgrades to.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import NetObj, Space, async_call
from repro.core.space import LOOP_OVERRUNS, PROVEN_RUNS
from tests.helpers import wait_until

#: E12's service time: a method this slow never proves fast.
WORK_SECONDS = 0.001


def on_loop(thread_name: str) -> bool:
    """Reactor loops (and the threads they pass to) are "reactor-*";
    dispatcher workers are "*-worker"."""
    return thread_name.startswith("reactor-")


class Service(NetObj):
    """Records where and when each run happened."""

    def __init__(self):
        self.runs = []           # (method, thread name)
        self.work_spans = []     # (start, end) of each work() run
        self.tick_times = []     # when each tick() ran
        self.napping = threading.Event()
        self.callback = None
        self.delay = 0.0

    def _record(self, method: str) -> None:
        self.runs.append((method, threading.current_thread().name))

    def work(self) -> int:
        start = time.monotonic()
        self._record("work")
        time.sleep(WORK_SECONDS)
        self.work_spans.append((start, time.monotonic()))
        return 1

    def tick(self) -> int:
        self.tick_times.append(time.monotonic())
        self._record("tick")
        return 1

    def nap(self, seconds: float) -> int:
        self._record("nap")
        if seconds:
            self.napping.set()
            time.sleep(seconds)
        return 1

    def vary(self) -> int:
        self._record("vary")
        if self.delay:
            time.sleep(self.delay)
        return 1

    def hold(self, callback) -> None:
        self.callback = callback

    def relay(self, nested: bool) -> int:
        self._record("relay")
        return self.callback.ping() if nested else 0

    def where(self, method: str):
        return [name for recorded, name in self.runs if recorded == method]


class Callback(NetObj):
    def ping(self) -> int:
        return 7


def _spaces(tag: str, shm: str = "off"):
    server = Space(f"loop-srv-{tag}", listen=["tcp://127.0.0.1:0"],
                   shm=shm, reactor_shards=1)
    first = Space(f"loop-a-{tag}", shm=shm)
    second = Space(f"loop-b-{tag}", shm=shm)
    return server, first, second


def _check_transport(shm: str, *clients: Space) -> None:
    """Each client's dials rode the transport the test is about."""
    for client in clients:
        upgraded = client.cache.stats()["upgraded_dials"]
        assert bool(upgraded) == (shm == "auto"), upgraded


#: Plain TCP, and the shm ring a same-host TCP dial upgrades to.
TRANSPORTS = pytest.mark.parametrize("shm", ["off", "auto"],
                                     ids=["tcp", "shm"])


def _prove(impl: "Service", call, *args) -> None:
    """Call until the method is loop-served.  PROVEN_RUNS fast worker
    runs do it; a run that a busy host stretches past the fast bound
    starts the count again, so allow for a few of those."""
    for _ in range(20 * PROVEN_RUNS):
        call(*args)
        if on_loop(impl.where(call.__name__)[-1]):
            return
    raise AssertionError(f"{call.__name__} never became loop-served")


def _on_loop_once(impl: "Service", call, fast_args: tuple, run) -> None:
    """Prove ``call``'s method fast with ``call(*fast_args)``, then
    ``run()`` and check that the run it makes was loop-served.  A run
    that overran just after the proof demotes the method a moment
    after its reply; then prove it again."""
    for _ in range(3):
        _prove(impl, call, *fast_args)
        run()
        if on_loop(impl.where(call.__name__)[-1]):
            return
    raise AssertionError(f"{call.__name__} was never loop-served")


class TestProvenFast:
    def test_a_slow_method_is_never_loop_served(self):
        """E12's one-millisecond ``work`` stays on the workers, and a
        call on a sibling connection completes while it runs."""
        server, first, second = _spaces("slow")
        impl = Service()
        with server, first, second:
            server.serve("svc", impl)
            slow = first.import_object(server.endpoints[0], "svc")
            sibling = second.import_object(server.endpoints[0], "svc")
            _prove(impl, sibling.tick)
            done = threading.Event()

            def keep_working():
                while not done.is_set():
                    slow.work()

            worker = threading.Thread(target=keep_working)
            worker.start()
            try:
                def tick_inside_work():
                    sibling.tick()
                    spans = list(impl.work_spans)
                    return any(start < at < end for at in impl.tick_times
                               for start, end in spans)

                assert wait_until(tick_inside_work, timeout=10)
                assert wait_until(lambda: len(impl.where("work"))
                                  >= 3 * PROVEN_RUNS, timeout=10)
            finally:
                done.set()
                worker.join(10)
            assert not worker.is_alive()
            assert impl.where("work")
            assert not any(on_loop(name) for name in impl.where("work"))

    def test_a_demoted_method_returns_after_proven_runs(self):
        """A loop-served run that stalls the loop sends its method back
        to the workers; it is loop-served again only after
        PROVEN_RUNS fast worker runs."""
        server, first, second = _spaces("return")
        impl = Service()
        with server, first, second:
            server.serve("svc", impl)
            svc = first.import_object(server.endpoints[0], "svc")
            demotions = server.stats()["fastlane"]["inline_demotions"]
            # Loop-served, and far past the stall bound.
            _on_loop_once(impl, svc.nap, (0,), lambda: svc.nap(0.01))
            assert server.stats()["fastlane"]["inline_demotions"] \
                > demotions
            before = len(impl.where("nap"))
            for _ in range(10 * PROVEN_RUNS):
                svc.nap(0)
                if on_loop(impl.where("nap")[-1]):
                    break
            since = impl.where("nap")[before:]
            assert on_loop(since[-1]), since
            assert len(since) > PROVEN_RUNS, since
            assert not any(on_loop(name) for name in since[:-1])

    def test_a_proven_method_that_slows_down_leaves_the_loop(self):
        """A loop-served method that turns into a 1 ms sleep — under
        the stall bound, over the fast bound — is loop-served at most
        LOOP_OVERRUNS more times, then runs on the workers."""
        server, first, second = _spaces("slows")
        impl = Service()
        with server, first, second:
            server.serve("svc", impl)
            svc = first.import_object(server.endpoints[0], "svc")
            _prove(impl, svc.vary)
            demotions = server.stats()["fastlane"]["inline_demotions"]
            before = len(impl.where("vary"))
            impl.delay = WORK_SECONDS
            for _ in range(4 * LOOP_OVERRUNS):
                svc.vary()
            since = impl.where("vary")[before:]
            served = [name for name in since if on_loop(name)]
            assert len(served) <= LOOP_OVERRUNS, since
            assert not any(on_loop(name) for name in since[LOOP_OVERRUNS:])
            assert server.stats()["fastlane"]["inline_demotions"] \
                > demotions


class Census(NetObj):
    """Records, from inside each run, its thread and whether the stall
    guard was running."""

    def __init__(self, guard_name: str):
        self.guard_name = guard_name
        self.seen = []           # (thread name, guard running)

    def look(self) -> int:
        guarded = any(thread.name == self.guard_name
                      for thread in threading.enumerate())
        self.seen.append((threading.current_thread().name, guarded))
        return 1


class TestStallGuardThread:
    def test_the_guard_ends_when_the_loop_goes_quiet(self):
        """The stall guard runs while requests are loop-served and ends
        about 0.1 s after the last, so an idle space is back to the
        threads it started with."""
        server, first, second = _spaces("guard")
        guard_name = f"reactor-{server.nickname}-guard"
        impl = Census(guard_name)

        def guards():
            return [thread for thread in threading.enumerate()
                    if thread.name == guard_name]

        with server, first, second:
            server.serve("census", impl)
            census = first.import_object(server.endpoints[0], "census")
            for _ in range(20 * PROVEN_RUNS):
                census.look()
                if on_loop(impl.seen[-1][0]):
                    break
            assert impl.seen[-1] == (f"reactor-{server.nickname}", True)
            assert wait_until(lambda: not guards(), timeout=1.0)
            census.look()               # loop-served: a guard again
            assert impl.seen[-1] == (f"reactor-{server.nickname}", True)
            assert wait_until(lambda: not guards(), timeout=1.0)


class TestLoopHandOff:
    def test_nested_call_passes_the_loop_on(self):
        """With one shard, a loop-served method that makes a nested
        remote call needs a reply only a loop can read: the loop
        passes on before the wait, the call completes, and the method
        goes back to the workers."""
        server = Space("loop-srv-nested", listen=["tcp://127.0.0.1:0"],
                       shm="off", reactor_shards=1)
        client = Space("loop-cli-nested", listen=["tcp://127.0.0.1:0"],
                       shm="off", reactor_shards=1)
        impl = Service()
        with server, client:
            server.serve("svc", impl)
            svc = client.import_object(server.endpoints[0], "svc")
            svc.hold(Callback())
            assert svc.relay(True) == 7       # warms the callback path
            demotions = server.stats()["fastlane"]["inline_demotions"]
            handoffs = server.stats()["reactor"]["loop_handoffs"]
            elapsed = []

            def nested():
                start = time.monotonic()
                assert svc.relay(True) == 7
                elapsed.append(time.monotonic() - start)

            _on_loop_once(impl, svc.relay, (False,), nested)
            assert elapsed[-1] < 1.0
            assert server.stats()["reactor"]["loop_handoffs"] > handoffs
            assert server.stats()["fastlane"]["inline_demotions"] \
                > demotions
            assert svc.relay(False) == 0
            assert not on_loop(impl.where("relay")[-1])

    @TRANSPORTS
    def test_a_sleeping_method_stalls_its_siblings_briefly(self, shm):
        """A loop-served method that sleeps 0.2 s holds the loop for
        the stall bound only: a call on a sibling connection is
        delayed by at most 60 ms."""
        server, first, second = _spaces(f"stall-{shm}", shm)
        impl = Service()
        with server, first, second:
            server.serve("svc", impl)
            napper = first.import_object(server.endpoints[0], "svc")
            other = second.import_object(server.endpoints[0], "svc")
            _check_transport(shm, first, second)
            _prove(impl, other.tick)
            stalls = server.stats()["reactor"]["stall_handoffs"]
            delays = []

            def nap_beside_a_sibling():
                impl.napping.clear()
                sleeper = threading.Thread(target=napper.nap, args=(0.2,))
                sleeper.start()
                try:
                    assert impl.napping.wait(5)
                    start = time.monotonic()
                    assert other.tick() == 1
                    delays.append(time.monotonic() - start)
                finally:
                    sleeper.join(5)
                assert not sleeper.is_alive()

            _on_loop_once(impl, napper.nap, (0,), nap_beside_a_sibling)
            assert delays[-1] <= 0.060, delays
            assert server.stats()["reactor"]["stall_handoffs"] > stalls


class Stepper(NetObj):
    """Mostly fast; every 50th step stalls the loop, every 50th (offset
    25) makes a nested call — so a proven method keeps handing the loop
    on, then proving itself again.  Steps by caller -1 only warm up."""

    def __init__(self):
        self.seen = []
        self.threads = []
        self.callback = None

    def hold(self, callback) -> None:
        self.callback = callback

    def step(self, who: int, i: int) -> int:
        self.threads.append(threading.current_thread().name)
        if who >= 0:
            self.seen.append((who, i))
        if i % 50 == 0:
            time.sleep(0.003)
        elif i % 50 == 25:
            self.callback.ping()
        return i


class TestHandOffStress:
    @TRANSPORTS
    def test_hand_offs_lose_and_reorder_no_request(self, shm):
        """Six callers on three sibling connections pipeline bursts
        while loop-served runs keep passing the loop on (stalls and
        nested calls), under a short GIL switch interval: every call
        gets its own answer, and the server ran each exactly once."""
        server = Space(f"loop-srv-stress-{shm}",
                       listen=["tcp://127.0.0.1:0"], shm=shm,
                       reactor_shards=1)
        clients = [
            Space(f"loop-cli-stress-{shm}-{n}", shm=shm,
                  listen=["tcp://127.0.0.1:0"] if n == 0 else ())
            for n in range(3)
        ]
        impl = Stepper()
        switch = sys.getswitchinterval()
        try:
            with server, clients[0], clients[1], clients[2]:
                server.serve("steps", impl)
                surrogates = [c.import_object(server.endpoints[0], "steps")
                              for c in clients]
                surrogates[0].hold(Callback())
                _check_transport(shm, *clients)
                # Proven first, so every burst's first steps (i = 0, a
                # stall) are loop-served and pass the loop on.
                for _ in range(20 * PROVEN_RUNS):
                    surrogates[1].step(-1, 1)
                    if on_loop(impl.threads[-1]):
                        break
                assert on_loop(impl.threads[-1])
                sys.setswitchinterval(1e-4)
                failures = []

                def caller(who: int, svc) -> None:
                    try:
                        for base in range(0, 200, 10):
                            futures = [(i, async_call(svc.step, who, i))
                                       for i in range(base, base + 10)]
                            for i, future in futures:
                                if future.result(20) != i:
                                    failures.append((who, i))
                    except Exception as exc:  # pragma: no cover
                        failures.append(exc)

                threads = [
                    threading.Thread(target=caller,
                                     args=(2 * n + k, surrogates[n]))
                    for n in range(3) for k in range(2)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in threads)
                assert not failures, failures[:5]
                expected = {(who, i) for who in range(6) for i in range(200)}
                assert len(impl.seen) == len(expected)
                assert set(impl.seen) == expected
                stats = server.stats()["reactor"]
                assert stats["stall_handoffs"] + stats["loop_handoffs"] > 0
        finally:
            sys.setswitchinterval(switch)
