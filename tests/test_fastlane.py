"""The call fast lane.

Covers the stacked per-call eliminations — method-id interning
(CALL_BIND/CALL_BOUND) and typed scalar argument/result codecs
(CALL_FAST/RESULT_FAST) — plus the parity of the one serve pipeline
behind all three call frames (faults, unknown methods, evicted bindings,
non-function callables, references returned on the fast lane).  Also
the zero-copy regression for call decode fed ``bytes`` instead of a
memoryview, the GC obligation that a server-side method binding never
pins its object against the distributed collector, and the
LEASE_RELEASE a lease holder sends ahead of its own write, which the
reactor loop that reads it applies.  Loop-served requests have their
own module, ``test_loop_serving.py``.
"""

from __future__ import annotations

import gc as pygc
import threading
import time

import pytest

from repro import (
    NetObj, NoSuchMethodError, NoSuchObjectError, RemoteError, Space, reads,
    wiretypes,
)
from repro.core import typecodes
from repro.errors import UnmarshalError
from repro.marshal.pickler import EMPTY_ARGS_PICKLE
from repro.rpc import messages
from repro.wire.ids import fresh_space_id
from repro.wire.wirerep import WireRep
from tests.helpers import settle, wait_until


class FastEcho(NetObj):
    """Scalar-only signatures (annotated or declared) plus escapes."""

    def add(self, a: int, b: int) -> int:
        return a + b

    def nothing(self) -> None:
        pass

    @wiretypes(int, str)
    def label(self, n, text):
        return f"{text}:{n}"

    def loose(self, x: int):
        # Scalar *signature*; the runtime must still cope with callers
        # passing non-scalar values (falls back to the pickle lane).
        return x

    def anything(self, value):
        return value


class Token(NetObj):
    def ping(self) -> str:
        return "pong"


class TokenFactory(NetObj):
    def make(self):
        return Token()


def _pair(tag: str, server_kwargs=None, client_kwargs=None):
    server = Space(f"fl-srv-{tag}", listen=["tcp://127.0.0.1:0"],
                   shm="off", **(server_kwargs or {}))
    client = Space(f"fl-cli-{tag}", shm="off", **(client_kwargs or {}))
    return server, client, server.endpoints[0]


class TestTypedCodecs:
    """Unit-level: the scalar wire format in core.typecodes."""

    def roundtrip(self, *args):
        out = bytearray()
        assert typecodes.encode_scalar_args_into(out, args)
        return typecodes.decode_scalar_args(bytes(out))

    def test_every_scalar_type_roundtrips(self):
        values = (None, True, False, 0, 1, -1, 12345, -98765,
                  2**63 - 1, -(2**63) + 1, 0.0, -2.5, 1e300,
                  "", "héllo", "x" * 500, b"", b"\x00\xff", b"y" * 500)
        assert self.roundtrip(*values[:15]) == values[:15]
        assert self.roundtrip(*values[15:]) == values[15:]

    def test_bool_is_not_int_on_the_wire(self):
        out = bytearray()
        assert typecodes.encode_scalar_args_into(out, (True, 1))
        decoded = typecodes.decode_scalar_args(bytes(out))
        assert decoded == (True, 1)
        assert type(decoded[0]) is bool and type(decoded[1]) is int

    def test_oversize_int_refused_with_rollback(self):
        out = bytearray(b"prefix")
        assert not typecodes.encode_scalar_args_into(out, (5, 1 << 64))
        assert out == b"prefix"  # full rollback, no partial frame

    def test_nonscalar_refused_with_rollback(self):
        out = bytearray(b"p")
        assert not typecodes.encode_scalar_args_into(out, ([1], 2))
        assert out == b"p"
        assert not typecodes.encode_scalar_result_into(out, {"a": 1})
        assert out == b"p"

    def test_too_many_args_refused(self):
        out = bytearray()
        assert not typecodes.encode_scalar_args_into(out, (1,) * 256)
        assert out == b""

    def test_trailing_garbage_rejected(self):
        out = bytearray()
        assert typecodes.encode_scalar_args_into(out, (7,))
        with pytest.raises(UnmarshalError):
            typecodes.decode_scalar_args(bytes(out) + b"\x00")

    def test_wiretypes_rejects_nonscalar_declarations(self):
        with pytest.raises(TypeError):
            @wiretypes(list)
            def bad(self, x):  # pragma: no cover - never called
                return x

    def test_fastlane_method_set_inference(self):
        fast = typecodes.fastlane_method_set(FastEcho)
        assert "add" in fast        # annotated scalars
        assert "nothing" in fast    # zero-parameter
        assert "label" in fast      # @wiretypes declaration
        assert "loose" in fast      # annotated scalar signature
        assert "anything" not in fast  # unannotated parameter


class TestCallDecodeCopyDiscipline:
    """Regression: decode fed ``bytes`` (not a memoryview) must still
    hand out zero-copy memoryview slices for trailing payloads."""

    def test_call_args_pickle_is_memoryview_from_bytes(self):
        rep = WireRep(fresh_space_id("own"), 3)
        out = bytearray()
        messages.BindCall(7, 1, rep, "m", b"PAYLOAD").encode_into(out)
        decoded = messages.decode(bytes(out))
        assert isinstance(decoded.args_pickle, memoryview)
        assert bytes(decoded.args_pickle) == b"PAYLOAD"

    def test_fast_frames_are_memoryview_from_bytes(self):
        out = bytearray()
        messages.FastCall(9, 2, b"ARGS").encode_into(out)
        decoded = messages.decode(bytes(out))
        assert isinstance(decoded.args_wire, memoryview)
        out = bytearray()
        messages.FastResult(9, b"VAL").encode_into(out)
        decoded = messages.decode(bytes(out))
        assert isinstance(decoded.value_wire, memoryview)


class TestFastLaneRuntime:
    def test_interning_binds_once_then_rides_fast_frames(self):
        server, client, endpoint = _pair("intern")
        with server, client:
            server.serve("e", FastEcho())
            e = client.import_object(endpoint, "e")
            bound_after_import = client.methods_bound
            for _ in range(20):
                assert e.nothing() is None
            # One CALL_BIND for ``nothing``; the other 19 are CALL_FAST.
            assert client.methods_bound == bound_after_import + 1
            assert client.fastlane_calls >= 19
            connection = client.cache.get(endpoint)
            assert any("nothing" in methods
                       for methods in connection.method_ids.values())

    def test_scalar_args_and_results_roundtrip(self):
        server, client, endpoint = _pair("scalar")
        with server, client:
            server.serve("e", FastEcho())
            e = client.import_object(endpoint, "e")
            assert e.add(2, 3) == 5           # bind call
            assert e.add(-10, 4) == -6        # fast call
            assert e.label(7, "tok") == "tok:7"
            assert e.label(8, "tok") == "tok:8"
            assert e.loose(2.5) == 2.5
            assert e.loose(b"raw") == b"raw"
            assert client.fastlane_calls >= 3

    def test_nonconforming_args_fall_back_to_pickle_per_call(self):
        server, client, endpoint = _pair("fallback")
        with server, client:
            server.serve("e", FastEcho())
            e = client.import_object(endpoint, "e")
            assert e.loose(1) == 1                    # bind
            assert e.loose(2) == 2                    # fast lane
            fast_before = client.fastlane_calls
            assert e.loose([1, 2]) == [1, 2]          # non-scalar value
            assert e.loose(1 << 80) == 1 << 80        # beyond 64-bit
            assert client.fastlane_fallbacks >= 2
            # The binding is not poisoned: conforming calls go fast again.
            assert e.loose(3) == 3
            assert client.fastlane_calls >= fast_before + 1

    def test_async_calls_ride_the_fast_lane(self):
        from repro import async_call

        server, client, endpoint = _pair("async")
        with server, client:
            server.serve("e", FastEcho())
            e = client.import_object(endpoint, "e")
            assert e.add(1, 1) == 2  # bind
            fast_before = client.fastlane_calls
            futures = [async_call(e.add, i, i) for i in range(20)]
            assert [f.result(10) for f in futures] \
                == [2 * i for i in range(20)]
            assert client.fastlane_calls >= fast_before + 20
            # Non-conforming async values fall back per call, same as
            # the blocking path.
            assert async_call(e.loose, [5]).result(10) == [5]

    def test_binding_does_not_pin_object_against_the_collector(self):
        server, client, endpoint = _pair("gcpin")
        with server, client:
            server.serve("f", TokenFactory())
            factory = client.import_object(endpoint, "f")
            exported0 = server.stats()["gc"]["exported"]
            token = factory.make()
            assert token.ping() == "pong"  # binds Token.ping server-side
            assert token.ping() == "pong"  # rides the binding
            assert server.stats()["gc"]["exported"] == exported0 + 1
            del token
            pygc.collect()
            assert client.cleanup_daemon.wait_idle(10)
            # The weakly-held binding must not keep the token exported.
            assert wait_until(
                lambda: server.stats()["gc"]["exported"] == exported0
            )

    def test_bindings_are_evicted_with_the_reference(self):
        """netbench finding 3: a binding lives as long as the reference
        it was made through, on both sides — not as long as the
        connection."""
        server, client, endpoint = _pair("churn")
        with server, client:
            server.serve("f", TokenFactory())
            factory = client.import_object(endpoint, "f")
            token = factory.make()
            assert token.ping() == "pong"
            del token
            pygc.collect()
            assert client.cleanup_daemon.wait_idle(10)
            outbound = client.cache.get(endpoint)
            inbound = server.connection_to(client.space_id)
            exported = server.stats()["gc"]["exported"]

            def sizes():
                return (len(outbound.method_ids), len(inbound.bound_methods),
                        len(inbound.bound_targets))

            assert wait_until(lambda: sizes() == (1, 1, 1))  # factory.make
            for _ in range(2000):
                token = factory.make()
                assert token.ping() == "pong"
                assert token.ping() == "pong"
                del token
            pygc.collect()
            assert client.cleanup_daemon.wait_idle(30)
            assert wait_until(
                lambda: server.stats()["gc"]["exported"] == exported, 30)
            assert wait_until(lambda: sizes() == (1, 1, 1), 30), sizes()

    def test_call_through_an_evicted_binding_is_no_such_object(self):
        from repro import NoSuchObjectError

        server, client, endpoint = _pair("evicted")
        with server, client:
            server.serve("f", TokenFactory())
            factory = client.import_object(endpoint, "f")
            token = factory.make()
            assert token.ping() == "pong"
            outbound = client.cache.get(endpoint)
            stale_id = outbound.method_ids[token._wirerep]["ping"]
            del token
            pygc.collect()
            assert client.cleanup_daemon.wait_idle(10)
            inbound = server.connection_to(client.space_id)
            assert wait_until(lambda: stale_id not in inbound.bound_methods)
            # A bound call naming the evicted id: the object is gone,
            # which is what the fault must say.
            call_id = outbound.next_call_id()
            reply = outbound.call(
                messages.FastCall(call_id, stale_id, b"\x00"), timeout=10)
            assert isinstance(reply, messages.Fault)
            assert reply.kind == NoSuchObjectError.__name__
            # ... while an id that was never announced is a protocol slip.
            reply = outbound.call(messages.FastCall(
                outbound.next_call_id(), 10 ** 6, b"\x00"), timeout=10)
            assert reply.kind == "NoSuchMethodError"

    def test_reimport_of_a_live_object_rebinds(self):
        server, client, endpoint = _pair("rebind")
        with server, client:
            server.serve("e", FastEcho())
            outbound = None
            for round_ in range(3):
                e = client.import_object(endpoint, "e")
                assert e.add(round_, 1) == round_ + 1   # CALL_BIND
                assert e.add(round_, 2) == round_ + 2   # CALL_FAST
                outbound = client.cache.get(endpoint)
                assert "add" in outbound.method_ids[e._wirerep]
                wirerep = e._wirerep
                del e
                pygc.collect()
                assert client.cleanup_daemon.wait_idle(10)
                assert wirerep not in outbound.method_ids
            inbound = server.connection_to(client.space_id)
            # Each round's bindings went with its clean call: the
            # served object is still exported, its bindings are not.
            assert wait_until(lambda: all(
                binding.method != "add"
                for binding in list(inbound.bound_methods.values())))


class Ledger(NetObj):
    """Leasable, with a snapshot slow enough to hold the lease lock
    for a while on every grant."""

    def __init__(self):
        self.n = 0

    def __lease_state__(self) -> dict:
        time.sleep(0.005)
        return {"n": self.n}

    def __set_lease_state__(self, state: dict) -> None:
        self.n = state["n"]

    @reads
    def get(self) -> int:
        return self.n

    def put(self, n: int) -> int:
        self.n = max(self.n, n)
        return self.n


class TestReleaseBeforeWrite:
    """A lease holder's write releases its lease ahead of the call
    frame; the owner applies the release on the delivering thread."""

    def test_interface_without_reads_sends_no_lease_release(self):
        from repro import async_call

        server, client, endpoint = _pair("norelease")
        with server, client:
            server.serve("e", FastEcho())
            e = client.import_object(endpoint, "e")
            assert type(e)._lease_writes_ == frozenset()
            settle(server, client)   # the bootstrap agent lease's release
            connection = client.cache.get(endpoint)
            sent = []
            send = connection.send
            connection.send = lambda m: (sent.append(type(m)), send(m))
            for i in range(20):
                assert e.nothing() is None
                assert e.add(i, 1) == i + 1
            futures = [async_call(e.add, i, i) for i in range(20)]
            assert [f.result(10) for f in futures] == [2 * i for i in range(20)]
            assert messages.LeaseRelease not in sent

    def test_lease_release_applies_on_the_delivering_thread(self):
        """LEASE_RELEASE is applied on the reactor thread, and that
        cannot deadlock: the lease lock is held only for table updates
        and grant snapshot pickling, never across a network wait.  One
        reactor thread serves two holders that each read and write the
        same object, so every write waits on the other holder's
        invalidation ack while releases and slow grant snapshots
        contend for the lock."""
        server, client_a, endpoint = _pair(
            "reactor-release", server_kwargs={"reactor_shards": 1}
        )
        client_b = Space("fl-cli-reactor-release-b", shm="off")
        appliers = []
        apply = server._apply_lease_release

        def recording_apply(peer, message):
            appliers.append(threading.current_thread().name)
            apply(peer, message)

        server._apply_lease_release = recording_apply
        with server, client_a, client_b:
            server.serve("ledger", Ledger())
            failures = []

            def holder(space, offset):
                ledger = space.import_object(endpoint, "ledger")
                try:
                    for i in range(offset, 60, 2):
                        ledger.get()
                        if ledger.put(i) < i or ledger.get() < i:
                            failures.append(i)
                except Exception as exc:  # pragma: no cover - diagnostics
                    failures.append(exc)

            threads = [threading.Thread(target=holder, args=(space, offset))
                       for offset, space in enumerate((client_a, client_b))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures
            assert appliers
            assert all(name.startswith("reactor-") for name in appliers)


class _Shout:
    """A callable class attribute that is not a function."""

    def __call__(self) -> str:
        return "shout"


class Parity(NetObj):
    """One member per corner of the serve pipeline."""

    shout = _Shout()

    def boom(self) -> int:
        raise ValueError("boom")

    @staticmethod
    def seven() -> int:
        return 7

    def token(self):
        return Token()


FRAMES = ("bind", "bound", "fast")


class TestOnePipeline:
    """CALL_BIND, CALL_BOUND and CALL_FAST are served by one pipeline:
    each of its corners answers the same whichever frame carried the
    call."""

    @staticmethod
    def send(client, endpoint, frame, wirerep, method, method_id=None):
        """Invoke argument-less ``method`` on ``wirerep`` through one raw
        frame of kind ``frame``; returns ``(connection, reply)``.  A
        bound or fast call goes through ``method_id``, or through a
        binding made first by a CALL_BIND whose own reply is dropped."""
        conn = client.cache.get(endpoint)
        if frame == "bind" or method_id is None:
            method_id = conn.next_method_id()
            reply = conn.call(messages.BindCall(
                conn.next_call_id(), method_id, wirerep, method,
                EMPTY_ARGS_PICKLE), timeout=10)
            if frame == "bind":
                return conn, reply
        if frame == "bound":
            request = messages.BoundCall(
                conn.next_call_id(), method_id, EMPTY_ARGS_PICKLE)
        else:
            args = bytearray()
            assert typecodes.encode_scalar_args_into(args, ())
            request = messages.FastCall(
                conn.next_call_id(), method_id, bytes(args))
        return conn, conn.call(request, timeout=10)

    def invoke(self, client, endpoint, frame, wirerep, method,
               method_id=None):
        conn, reply = self.send(client, endpoint, frame, wirerep, method,
                                method_id)
        return client._decode_reply(conn, reply)

    @pytest.mark.parametrize("frame", FRAMES)
    def test_application_exception_is_remote_error_with_traceback(
            self, frame):
        server, client, endpoint = _pair(f"exc-{frame}")
        with server, client:
            server.serve("p", Parity())
            p = client.import_object(endpoint, "p")
            with pytest.raises(RemoteError) as excinfo:
                self.invoke(client, endpoint, frame, p._wirerep, "boom")
            assert excinfo.value.kind == "ValueError"
            assert 'raise ValueError("boom")' in \
                excinfo.value.remote_traceback

    @pytest.mark.parametrize("frame", FRAMES)
    def test_unknown_method(self, frame):
        server, client, endpoint = _pair(f"nomethod-{frame}")
        with server, client:
            server.serve("p", Parity())
            p = client.import_object(endpoint, "p")
            with pytest.raises(NoSuchMethodError, match="missing"):
                self.invoke(client, endpoint, frame, p._wirerep, "missing")

    @pytest.mark.parametrize("frame", FRAMES)
    def test_evicted_binding_is_no_such_object(self, frame):
        server, client, endpoint = _pair(f"evict-{frame}")
        with server, client:
            server.serve("f", TokenFactory())
            factory = client.import_object(endpoint, "f")
            token = factory.make()
            assert token.ping() == "pong"
            wirerep = token._wirerep
            stale_id = client.cache.get(endpoint).method_ids[wirerep]["ping"]
            del token
            pygc.collect()
            assert client.cleanup_daemon.wait_idle(10)
            inbound = server.connection_to(client.space_id)
            assert wait_until(lambda: stale_id not in inbound.bound_methods)
            with pytest.raises(NoSuchObjectError):
                self.invoke(client, endpoint, frame, wirerep, "ping",
                            stale_id)

    @pytest.mark.parametrize("frame", FRAMES)
    @pytest.mark.parametrize("method, expected",
                             [("seven", 7), ("shout", "shout")])
    def test_non_function_callable(self, frame, method, expected):
        server, client, endpoint = _pair(f"callable-{frame}-{method}")
        with server, client:
            server.serve("p", Parity())
            p = client.import_object(endpoint, "p")
            assert self.invoke(client, endpoint, frame, p._wirerep,
                               method) == expected

    @pytest.mark.parametrize("frame", FRAMES)
    def test_returned_reference_travels_as_a_pickled_result(self, frame):
        server, client, endpoint = _pair(f"ref-{frame}")
        with server, client:
            server.serve("p", Parity())
            p = client.import_object(endpoint, "p")
            conn, reply = self.send(client, endpoint, frame, p._wirerep,
                                    "token")
            assert type(reply) is messages.Result
            assert client._decode_reply(conn, reply).ping() == "pong"
