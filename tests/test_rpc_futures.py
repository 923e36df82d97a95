"""Futures on the RPC layer: pipelining, teardown, timeout recycling."""

import threading
import time

import pytest

from repro.errors import CallTimeout, CommFailure
from repro.rpc import messages

from tests.test_rpc import connected_pair


def _echo(conn, msg):
    assert isinstance(msg, messages.BoundCall)
    conn.send(messages.Result(msg.call_id, bytes(msg.args_pickle)))


def _call(conn, payload=b"x"):
    return messages.BoundCall(conn.next_call_id(), 1, payload)


class TestCallFuture:
    def test_async_call_resolves(self):
        conn_a, _b, _x, _y = connected_pair(handle_b=_echo)
        future = conn_a.call_async(_call(conn_a, b"hello"))
        reply = future.result(5)
        assert isinstance(reply, messages.Result)
        assert reply.result_pickle == b"hello"
        assert future.done()
        assert future.exception(0) is None
        conn_a.close()

    def test_hundreds_in_flight_from_one_thread(self):
        gate = threading.Event()

        def serve(conn, msg):
            gate.wait(5)  # hold every reply until all calls are out
            conn.send(messages.Result(msg.call_id, bytes(msg.args_pickle)))

        conn_a, _b, _x, _y = connected_pair(handle_b=serve)
        futures = [
            conn_a.call_async(_call(conn_a, str(i).encode()))
            for i in range(200)
        ]
        assert not any(f.done() for f in futures)
        gate.set()
        for i, future in enumerate(futures):
            assert future.result(10).result_pickle == str(i).encode()
        conn_a.close()

    def test_teardown_fails_in_flight_futures(self):
        conn_a, conn_b, _x, _y = connected_pair()  # peer never replies
        futures = [conn_a.call_async(_call(conn_a)) for _ in range(5)]
        seen = []
        for future in futures:
            future.add_done_callback(seen.append)
        conn_b.close()
        for future in futures:
            assert isinstance(future.exception(5), CommFailure)
            with pytest.raises(CommFailure):
                future.result(0)
        assert sorted(seen, key=id) == sorted(futures, key=id)
        conn_a.close()

    def test_timeout_abandons_then_late_reply_is_dropped(self):
        release = threading.Event()

        def serve(conn, msg):
            release.wait(5)
            conn.send(messages.Result(msg.call_id, b"late"))

        conn_a, _b, _x, _y = connected_pair(handle_b=serve)
        future = conn_a.call_async(_call(conn_a))
        with pytest.raises(CallTimeout):
            future.result(0.05)
        assert future.done()
        release.set()
        time.sleep(0.1)  # the late reply arrives and must be discarded
        with pytest.raises(CallTimeout):
            future.result(0)  # outcome is sticky
        assert not conn_a.closed
        conn_a.close()

    def test_blocking_timeout_recycles_slot_without_crosstalk(self):
        """A timed-out blocking call abandons its slot; the recycled
        future must serve later calls without leaking the late reply."""
        release = threading.Event()

        def serve(conn, msg):
            if bytes(msg.args_pickle) == b"stall":
                release.wait(5)
            conn.send(messages.Result(msg.call_id, bytes(msg.args_pickle)))

        conn_a, _b, _x, _y = connected_pair(handle_b=serve)
        with pytest.raises(CallTimeout):
            conn_a.call(_call(conn_a, b"stall"), timeout=0.05)
        release.set()
        time.sleep(0.1)  # late reply to the abandoned id lands now
        for i in range(5):
            payload = str(i).encode()
            reply = conn_a.call(_call(conn_a, payload), timeout=5)
            assert reply.result_pickle == payload
        conn_a.close()

    def test_blocking_path_recycles_future_slots(self):
        conn_a, _b, _x, _y = connected_pair(handle_b=_echo)
        for _ in range(5):
            conn_a.call(_call(conn_a), timeout=5)
        assert len(conn_a._pending_free) == 1  # one slot, reused 5 times
        conn_a.close()

    def test_done_callback_after_completion_runs_immediately(self):
        conn_a, _b, _x, _y = connected_pair(handle_b=_echo)
        future = conn_a.call_async(_call(conn_a))
        future.result(5)
        seen = []
        future.add_done_callback(seen.append)
        assert seen == [future]
        conn_a.close()

    def test_callback_exception_is_contained(self):
        conn_a, _b, _x, _y = connected_pair(handle_b=_echo)
        future = conn_a.call_async(_call(conn_a))
        ran = []

        def bad(_future):
            ran.append(1)
            raise RuntimeError("callback bug")

        future.add_done_callback(bad)
        future.add_done_callback(lambda f: ran.append(2))
        assert future.result(5) is not None
        deadline = time.time() + 5
        while time.time() < deadline and len(ran) < 2:
            time.sleep(0.01)
        assert ran == [1, 2]
        assert not conn_a.closed  # the reader survived the bad callback
        conn_a.close()

    def test_cancel_completes_future_and_drops_reply(self):
        release = threading.Event()

        def serve(conn, msg):
            release.wait(5)
            conn.send(messages.Result(msg.call_id, b""))

        conn_a, _b, _x, _y = connected_pair(handle_b=serve)
        future = conn_a.call_async(_call(conn_a))
        assert future.cancel() is True
        assert future.cancel() is False  # already done
        with pytest.raises(CallTimeout):
            future.result(0)
        release.set()
        time.sleep(0.1)
        assert not conn_a.closed
        conn_a.close()

    def test_call_async_on_closed_connection_raises(self):
        conn_a, _b, _x, _y = connected_pair()
        conn_a.close()
        with pytest.raises(CommFailure):
            conn_a.call_async(_call(conn_a))


class TestRemoteFuture:
    """End-to-end futures through Space.invoke_async / repro.async_call."""

    def _spaces(self, request_name):
        import repro
        from tests.helpers import Counter, Echo

        server = repro.Space("srv-futures")
        endpoint = server.add_listener(f"inproc://futures-{request_name}")
        server.serve("counter", Counter())
        server.serve("echo", Echo())
        client = repro.Space("cli-futures")
        return server, client, endpoint

    def test_async_call_returns_value(self, request):
        import repro

        server, client, endpoint = self._spaces(request.node.name)
        with server, client:
            counter = client.import_object(endpoint, "counter")
            futures = [
                repro.async_call(counter.increment, 1) for _ in range(10)
            ]
            values = sorted(f.result(5) for f in futures)
            assert values == list(range(1, 11))

    def test_async_call_raises_remote_exception(self, request):
        import repro

        server, client, endpoint = self._spaces(request.node.name)
        with server, client:
            echo = client.import_object(endpoint, "echo")
            future = repro.async_call(echo.fail, "kapow")
            exc = future.exception(5)
            assert isinstance(exc, repro.RemoteError)
            with pytest.raises(repro.RemoteError, match="kapow"):
                future.result(5)

    def test_result_is_decoded_once_and_cached(self, request):
        import repro

        server, client, endpoint = self._spaces(request.node.name)
        with server, client:
            echo = client.import_object(endpoint, "echo")
            future = repro.async_call(echo.echo, [1, 2, 3])
            first = future.result(5)
            assert first == [1, 2, 3]
            assert future.result(5) is first  # cached, not re-decoded

    def test_async_call_rejects_non_surrogate(self):
        import repro
        from tests.helpers import Counter

        local = Counter()
        with pytest.raises(TypeError):
            repro.async_call(local.increment, 1)
        with pytest.raises(TypeError):
            repro.async_call(print, 1)

    def test_invoke_async_rejects_non_surrogate(self):
        import repro

        with repro.Space("solo-futures") as space:
            with pytest.raises(TypeError):
                space.invoke_async(object(), "method")
