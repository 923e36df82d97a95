"""Integration tests: the full object system over real transports."""

import pytest

from repro import (
    NameServiceError,
    NoSuchMethodError,
    RemoteError,
    Space,
    Surrogate,
    register_struct,
)
from tests.helpers import Bank, BankImpl, Counter, Echo, Registry


@register_struct(fields=["n"], name="tests.RegisteredCounter")
class RegisteredCounter(Counter):
    """A network object that is *also* a registered struct."""


@register_struct(fields=["label", "counter"], name="tests.Receipt")
class Receipt:
    def __init__(self, label=None, counter=None):
        self.label = label
        self.counter = counter


@pytest.fixture(params=["inproc", "tcp"])
def spaces(request):
    """A (server, client) pair connected via the requested transport."""
    if request.param == "inproc":
        endpoint = f"inproc://srv-{request.node.name}"
    else:
        endpoint = "tcp://127.0.0.1:0"
    server = Space("server", listen=[endpoint])
    client = Space("client", listen=[
        endpoint + "-c" if request.param == "inproc" else "tcp://127.0.0.1:0"
    ])
    yield server, client
    client.shutdown()
    server.shutdown()


class TestBasicInvocation:
    def test_serve_import_invoke(self, spaces):
        server, client = spaces
        server.serve("counter", Counter())
        counter = client.import_object(server.endpoints[0], "counter")
        assert counter.increment() == 1
        assert counter.increment(5) == 6
        assert counter.value() == 6

    def test_surrogate_type(self, spaces):
        server, client = spaces
        server.serve("counter", Counter())
        counter = client.import_object(server.endpoints[0], "counter")
        assert isinstance(counter, Surrogate)
        assert isinstance(counter, Counter)  # virtual subclass

    def test_kwargs(self, spaces):
        server, client = spaces
        server.serve("counter", Counter())
        counter = client.import_object(server.endpoints[0], "counter")
        assert counter.increment(by=10) == 10

    def test_rich_data_round_trip(self, spaces):
        server, client = spaces
        server.serve("echo", Echo())
        echo = client.import_object(server.endpoints[0], "echo")
        value = {"names": ["a", "b"], "pairs": [(1, 2.5), (None, True)],
                 "blob": b"\x00\x01", "sets": {1, 2, 3}}
        assert echo.echo(value) == value

    def test_shared_structure_preserved_across_wire(self, spaces):
        server, client = spaces
        server.serve("echo", Echo())
        echo = client.import_object(server.endpoints[0], "echo")
        shared = [1, 2]
        result = echo.echo([shared, shared])
        assert result[0] is result[1]

    def test_remote_exception(self, spaces):
        server, client = spaces
        server.serve("echo", Echo())
        echo = client.import_object(server.endpoints[0], "echo")
        with pytest.raises(RemoteError) as info:
            echo.fail("boom")
        assert info.value.kind == "ValueError"
        assert "boom" in info.value.message
        assert "fail" in info.value.remote_traceback

    def test_unknown_name(self, spaces):
        server, client = spaces
        with pytest.raises(NameServiceError):
            client.import_object(server.endpoints[0], "missing")

    def test_unknown_method(self, spaces):
        server, client = spaces
        server.serve("counter", Counter())
        counter = client.import_object(server.endpoints[0], "counter")
        with pytest.raises(AttributeError):
            counter.no_such_method()

    def test_private_method_not_remotely_callable(self, spaces):
        server, client = spaces
        server.serve("echo", Echo())
        # Forge a call to a private name through the surrogate internals.
        echo = client.import_object(server.endpoints[0], "echo")
        with pytest.raises(NoSuchMethodError):
            echo._invoke("__init__", (), {})

    def test_agent_listing(self, spaces):
        server, client = spaces
        server.serve("a", Counter())
        server.serve("b", Echo())
        agent = client.import_object(server.endpoints[0])
        assert agent.list() == ["a", "b"]

    def test_unserve(self, spaces):
        server, client = spaces
        server.serve("temp", Counter())
        server.unserve("temp")
        with pytest.raises(NameServiceError):
            client.import_object(server.endpoints[0], "temp")

    def test_sequential_calls_many(self, spaces):
        server, client = spaces
        server.serve("counter", Counter())
        counter = client.import_object(server.endpoints[0], "counter")
        for expected in range(1, 101):
            assert counter.increment() == expected


class TestReferencePassing:
    def test_reference_as_result(self, spaces):
        """The agent.get path already passes refs; do it via app code."""
        server, client = spaces
        registry = Registry()
        registry.held.append(Counter(100))
        server.serve("registry", registry)
        remote_registry = client.import_object(server.endpoints[0], "registry")
        counter = remote_registry.fetch(0)
        assert isinstance(counter, Surrogate)
        assert counter.value() == 100

    def test_reference_as_argument(self, spaces):
        server, client = spaces
        server.serve("registry", Registry())
        remote_registry = client.import_object(server.endpoints[0], "registry")
        local_counter = Counter(7)
        assert remote_registry.hold(local_counter) == 1
        # The server can now call back into the client-owned object.
        assert remote_registry.poke(0) == 7

    def test_reference_returning_home_is_concrete(self, spaces):
        """A ref sent back to its owner resolves to the concrete object."""
        server, client = spaces
        registry = Registry()
        server.serve("registry", registry)
        remote_registry = client.import_object(server.endpoints[0], "registry")
        counter = Counter(1)
        remote_registry.hold(counter)
        echoed = remote_registry.fetch(0)
        # Round trip: client -> server -> client; identity preserved.
        assert echoed is counter

    def test_single_surrogate_per_object(self, spaces):
        server, client = spaces
        counter = Counter()
        registry = Registry()
        registry.held.append(counter)
        registry.held.append(counter)
        server.serve("registry", registry)
        remote_registry = client.import_object(server.endpoints[0], "registry")
        first = remote_registry.fetch(0)
        second = remote_registry.fetch(1)
        assert first is second

    def test_narrowing_to_interface(self, spaces):
        server, client = spaces
        server.serve("bank", BankImpl())
        bank = client.import_object(server.endpoints[0], "bank")
        assert bank.deposit("alice", 10) == 10
        assert bank.balance("alice") == 10
        assert isinstance(bank, Bank)
        # The surrogate narrows to the most derived *registered* type,
        # which in-process is BankImpl itself, audit() included.
        assert bank.audit() == {"alice": 10}

    def test_registered_struct_that_is_a_netobj_crosses_by_reference(
            self, spaces):
        """The netobj handler outranks the struct registry: a class
        that is both still marshals by wireRep, never by value — here
        next to an ordinary struct and inside one."""
        server, client = spaces
        tally = RegisteredCounter(41)
        registry = Registry()
        registry.held.append([tally, Receipt("r", tally)])
        server.serve("registry", registry)
        remote_registry = client.import_object(server.endpoints[0], "registry")
        remote_tally, receipt = remote_registry.fetch(0)
        assert isinstance(remote_tally, Surrogate)
        assert type(receipt) is Receipt and receipt.counter is remote_tally
        assert remote_tally.increment() == 42
        assert tally.n == 42  # the owner's object, not a copy

    def test_same_space_import_returns_local_object(self, spaces):
        server, _client = spaces
        counter = Counter()
        server.serve("counter", counter)
        assert server.import_object(server.endpoints[0], "counter") is counter


class TestSurrogateHygiene:
    def test_surrogate_refuses_stdlib_pickle(self, spaces):
        import pickle

        server, client = spaces
        server.serve("counter", Counter())
        counter = client.import_object(server.endpoints[0], "counter")
        with pytest.raises(TypeError):
            pickle.dumps(counter)

    def test_gc_stats_shape(self, spaces):
        server, client = spaces
        server.serve("counter", Counter())
        counter = client.import_object(server.endpoints[0], "counter")
        assert counter is not None
        stats = client.stats()["gc"]
        assert stats["surrogates"] >= 1
        assert stats["dirty_calls_sent"] >= 1
        server_stats = server.stats()["gc"]
        assert server_stats["dirty_calls_seen"] >= 1
