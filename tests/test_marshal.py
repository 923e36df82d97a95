"""Unit tests for the pickles subsystem."""

import math
from dataclasses import dataclass

import pytest

from repro.errors import MarshalError, UnmarshalError
from repro.marshal import (
    Pickler,
    StructRegistry,
    Unpickler,
    dumps,
    loads,
)


def round_trip(value, registry=None, handler=None):
    data = dumps(value, registry, handler)
    return loads(data, registry, handler)


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            127,
            -128,
            2**31,
            -(2**31),
            2**62,
            -(2**62),
            2**100,
            -(2**100),
            0.0,
            -0.0,
            3.141592653589793,
            1e308,
            -1e-308,
            "",
            "hello",
            "ünïcödé ✓ 日本語",
            b"",
            b"\x00\xff" * 10,
        ],
    )
    def test_round_trip(self, value):
        result = round_trip(value)
        assert result == value
        assert type(result) is type(value)

    def test_float_specials(self):
        assert round_trip(float("inf")) == float("inf")
        assert round_trip(float("-inf")) == float("-inf")
        assert math.isnan(round_trip(float("nan")))

    def test_negative_zero_sign_preserved(self):
        assert math.copysign(1.0, round_trip(-0.0)) == -1.0

    def test_bool_is_not_int(self):
        assert round_trip(True) is True
        assert round_trip(1) == 1
        assert round_trip(1) is not True

    def test_bytearray(self):
        value = bytearray(b"mutable")
        result = round_trip(value)
        assert result == value
        assert type(result) is bytearray


class TestContainers:
    @pytest.mark.parametrize(
        "value",
        [
            [],
            [1, 2, 3],
            (),
            (1, "two", 3.0),
            {},
            {"a": 1, "b": [2, 3]},
            {1: "one", (2, 3): "pair"},
            set(),
            {1, 2, 3},
            frozenset({"x", "y"}),
            [[1, [2, [3, [4]]]]],
            {"nested": {"deeper": {"deepest": (1, 2)}}},
        ],
    )
    def test_round_trip(self, value):
        result = round_trip(value)
        assert result == value
        assert type(result) is type(value)

    def test_heterogeneous_list(self):
        value = [None, True, 42, -7, 2.5, "s", b"b", [1], (2,), {3: 4}, {5}]
        assert round_trip(value) == value

    def test_large_list(self):
        value = list(range(10000))
        assert round_trip(value) == value

    def test_shared_sublist_stays_shared(self):
        shared = [1, 2]
        result = round_trip([shared, shared])
        assert result[0] is result[1]
        result[0].append(3)
        assert result[1] == [1, 2, 3]

    def test_unshared_equal_lists_stay_unshared(self):
        result = round_trip([[1, 2], [1, 2]])
        assert result[0] is not result[1]

    def test_self_referential_list(self):
        value = [1]
        value.append(value)
        result = round_trip(value)
        assert result[0] == 1
        assert result[1] is result

    def test_self_referential_dict(self):
        value = {}
        value["me"] = value
        result = round_trip(value)
        assert result["me"] is result

    def test_mutual_cycle(self):
        a, b = [], []
        a.append(b)
        b.append(a)
        result = round_trip(a)
        assert result[0][0] is result

    def test_shared_string_decodes_once(self):
        text = "x" * 1000
        data = dumps([text, text, text])
        assert len(data) < 1100
        assert loads(data) == [text, text, text]

    def test_shared_tuple(self):
        pair = (1, 2)
        result = round_trip({"a": pair, "b": pair})
        assert result["a"] is result["b"]

    def test_shared_bytearray_aliased(self):
        buf = bytearray(b"abc")
        result = round_trip([buf, buf])
        assert result[0] is result[1]

    def test_dict_inside_tuple_cycle(self):
        d = {}
        t = (d, 1)
        d["t"] = t
        result = round_trip(d)
        assert result["t"][0] is result


@dataclass
class Point:
    x: int
    y: int


@dataclass
class Segment:
    start: Point
    end: Point
    label: str = ""


class Plain:
    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __eq__(self, other):
        return isinstance(other, Plain) and (self.a, self.b) == (other.a, other.b)


class TestStructs:
    @pytest.fixture()
    def registry(self):
        reg = StructRegistry()
        reg.register(Point)
        reg.register(Segment)
        reg.register(Plain, fields=["a", "b"])
        return reg

    def test_dataclass_round_trip(self, registry):
        assert round_trip(Point(3, 4), registry) == Point(3, 4)

    def test_nested_struct(self, registry):
        seg = Segment(Point(0, 0), Point(1, 1), "diag")
        assert round_trip(seg, registry) == seg

    def test_plain_class(self, registry):
        assert round_trip(Plain(1, "two"), registry) == Plain(1, "two")

    def test_struct_sharing(self, registry):
        p = Point(9, 9)
        result = round_trip(Segment(p, p), registry)
        assert result.start is result.end

    def test_unregistered_type_rejected(self):
        class Unknown:
            pass

        with pytest.raises(MarshalError):
            dumps(Unknown(), StructRegistry())

    def test_unknown_name_on_decode(self, registry):
        data = dumps(Point(1, 2), registry)
        with pytest.raises(UnmarshalError):
            loads(data, StructRegistry())

    def test_duplicate_name_rejected(self, registry):
        class Point2:
            pass

        with pytest.raises(ValueError):
            registry.register(Point2, fields=[], name="Point")

    def test_reregistering_same_class_ok(self, registry):
        registry.register(Point)

    def test_non_dataclass_needs_fields(self):
        class NotDc:
            pass

        with pytest.raises(TypeError):
            StructRegistry().register(NotDc)

    def test_struct_in_containers(self, registry):
        value = {"points": [Point(1, 2), Point(3, 4)], "n": 2}
        assert round_trip(value, registry) == value

    def test_cyclic_struct_graph(self, registry):
        # A plain (mutable) struct participating in a cycle via a list.
        holder = Plain([], None)
        holder.a.append(holder)
        result = round_trip(holder, registry)
        assert result.a[0] is result


class TestCorruption:
    def test_unknown_tag(self):
        with pytest.raises(UnmarshalError):
            loads(b"\xfe")

    def test_truncated(self):
        data = dumps([1, 2, 3])
        for cut in range(len(data)):
            with pytest.raises(UnmarshalError):
                loads(data[:cut])

    def test_trailing_garbage(self):
        with pytest.raises(UnmarshalError):
            loads(dumps(1) + b"\x00")

    def test_dangling_ref(self):
        from repro.marshal import tags
        from repro.wire.varint import write_uvarint

        out = bytearray([tags.REF])
        write_uvarint(out, 5)
        with pytest.raises(UnmarshalError):
            loads(bytes(out))

    def test_bad_utf8(self):
        from repro.marshal import tags
        from repro.wire.varint import write_uvarint

        out = bytearray([tags.STR])
        write_uvarint(out, 2)
        out += b"\xff\xff"
        with pytest.raises(UnmarshalError):
            loads(bytes(out))

    def test_netobj_without_handler(self):
        from repro.marshal import tags
        from repro.wire.varint import write_uvarint

        out = bytearray([tags.NETOBJ])
        write_uvarint(out, 1)
        out += b"z"
        with pytest.raises(UnmarshalError):
            loads(bytes(out))


class FakeRef:
    """Stands in for a network object in handler tests."""

    def __init__(self, name):
        self.name = name


class FakeHandler:
    """Encodes FakeRef by name; counts marshals for bookkeeping tests."""

    def __init__(self):
        self.marshal_count = 0
        self.unmarshal_count = 0

    def recognizes(self, value):
        return isinstance(value, FakeRef)

    def marshal(self, value):
        self.marshal_count += 1
        return value.name.encode("utf-8")

    def unmarshal(self, payload, following):
        self.unmarshal_count += 1
        return FakeRef(payload.decode("utf-8"))


class TestNetObjHandler:
    def test_delegation(self):
        handler = FakeHandler()
        result = round_trip([FakeRef("bank"), 42], handler=handler)
        assert result[0].name == "bank"
        assert result[1] == 42
        assert handler.marshal_count == 1
        assert handler.unmarshal_count == 1

    def test_same_ref_marshaled_once(self):
        handler = FakeHandler()
        ref = FakeRef("acct")
        result = round_trip([ref, ref], handler=handler)
        assert handler.marshal_count == 1
        assert result[0] is result[1]

    def test_distinct_refs_each_marshaled(self):
        handler = FakeHandler()
        round_trip([FakeRef("a"), FakeRef("b")], handler=handler)
        assert handler.marshal_count == 2

    def test_ref_inside_struct(self):
        registry = StructRegistry()
        registry.register(Plain, fields=["a", "b"])
        handler = FakeHandler()
        result = round_trip(Plain(FakeRef("x"), 1), registry, handler)
        assert result.a.name == "x"


class TestPicklerReuse:
    def test_memo_does_not_leak_across_dumps(self):
        pickler = Pickler()
        first = pickler.dumps(["shared"])
        second = pickler.dumps(["shared"])
        assert first == second
        assert loads(second) == ["shared"]

    def test_unpickler_reusable(self):
        unpickler = Unpickler()
        data = dumps({"k": [1, 2]})
        assert unpickler.loads(data) == {"k": [1, 2]}
        assert unpickler.loads(data) == {"k": [1, 2]}

    def test_dump_into_appends_after_existing_bytes(self):
        pickler = Pickler()
        out = bytearray(b"envelope")
        pickler.dump_into([1, "two", b"three"], out)
        assert out.startswith(b"envelope")
        assert loads(bytes(out[len(b"envelope"):])) == [1, "two", b"three"]

    def test_loads_accepts_memoryview(self):
        # The zero-copy receive path hands the unpickler a memoryview
        # slice of the frame buffer, never a bytes copy.
        value = {"k": ["v", (1, 2.5)], "raw": b"\x00\xff" * 100}
        assert loads(memoryview(dumps(value))) == value

    def test_shared_graph_via_memoryview(self):
        shared = ["aliased"]
        out = loads(memoryview(dumps([shared, shared])))
        assert out[0] is out[1]

    def test_large_values_skip_memo_but_stay_in_lockstep(self):
        from repro.marshal.pickler import MEMO_VALUE_LIMIT

        big = "x" * (MEMO_VALUE_LIMIT + 1)
        small = "y"
        # big burns a memo id without being memoized; small's id and
        # every later back-reference must still line up positionally.
        value = [big, small, small, big]
        out = loads(dumps(value))
        assert out == value
        assert out[1] is out[2]  # small was memoized and back-referenced

    def test_large_bytes_skip_memo_but_stay_in_lockstep(self):
        from repro.marshal.pickler import MEMO_VALUE_LIMIT

        big = b"b" * (MEMO_VALUE_LIMIT + 1)
        value = [big, "tail", "tail", big]
        out = loads(dumps(value))
        assert out == value
        assert out[1] is out[2]


class TestDepthGuard:
    """Deep nesting must fail cleanly, never with RecursionError."""

    def _deep_list(self, depth):
        outer = current = []
        for _ in range(depth):
            inner = []
            current.append(inner)
            current = inner
        return outer

    def test_pickler_depth_limit(self):
        from repro.marshal.pickler import MAX_DEPTH

        with pytest.raises(MarshalError):
            dumps(self._deep_list(MAX_DEPTH + 10))

    def test_unpickler_depth_limit(self):
        from repro.marshal import tags
        from repro.marshal.pickler import MAX_DEPTH

        data = bytes([tags.LIST, 1]) * (MAX_DEPTH + 10) + bytes([tags.NONE])
        with pytest.raises(UnmarshalError):
            loads(data)

    def test_depth_within_limit_round_trips(self):
        value = self._deep_list(200)
        assert loads(dumps(value)) == value

    def test_wide_structures_unaffected(self):
        value = [[i] for i in range(50000)]
        assert loads(dumps(value)) == value

    def test_pickler_usable_after_depth_error(self):
        from repro.marshal.pickler import MAX_DEPTH, Pickler

        pickler = Pickler()
        with pytest.raises(MarshalError):
            pickler.dumps(self._deep_list(MAX_DEPTH + 10))
        pickler.reset()
        assert loads(pickler.dumps([1, 2])) == [1, 2]


class TestCanonicalPickles:
    """The void-call fast path appends/compares these constants instead
    of running the codec; each must stay in lockstep with the format."""

    def test_empty_args_constant_matches_encoder(self):
        from repro.marshal.pickler import EMPTY_ARGS_PICKLE

        assert dumps(((), {})) == EMPTY_ARGS_PICKLE
        assert loads(EMPTY_ARGS_PICKLE) == ((), {})

    def test_none_constant_matches_encoder(self):
        from repro.marshal.pickler import NONE_PICKLE

        assert dumps(None) == NONE_PICKLE
        assert loads(NONE_PICKLE) is None


# -- the golden corpus: the wire format, pinned byte for byte -------------------

from tests import marshal_corpus as mc  # noqa: E402 - keeps the corpus tests together

_GOLDEN = mc.golden()
_NAMES = [name for name, _value in mc.corpus()]


def _corpus_value(name):
    return dict(mc.corpus())[name]


class TestGoldenCorpus:
    """``marshal_golden.json`` was generated once, by the pickler as it
    stood before the walkers were rewritten (protocol v7).  Encoding
    must reproduce it and decoding must accept it: old and new peers
    interoperate by construction."""

    def test_corpus_and_golden_file_agree(self):
        assert sorted(_NAMES) == sorted(_GOLDEN)

    def test_corpus_uses_every_tag(self, monkeypatch):
        from repro.marshal import tags, unpickler

        seen = set()

        def recording(tag, decode):
            def wrapper(*args):
                seen.add(tag)
                return decode(*args)
            return wrapper

        monkeypatch.setattr(unpickler, "_DECODERS", [
            recording(tag, decode)
            for tag, decode in enumerate(unpickler._DECODERS)
        ])
        decoder = Unpickler(mc.registry(), mc.RefHandler())
        for name in _NAMES:
            decoder.loads(bytes.fromhex(_GOLDEN[name]))
        assert seen == set(range(tags.NONE, tags.NETOBJ + 1))

    @pytest.mark.parametrize("name", _NAMES)
    def test_encode_is_byte_identical(self, name):
        pickler = Pickler(mc.registry(), mc.RefHandler())
        assert pickler.dumps(_corpus_value(name)).hex() == _GOLDEN[name]
        # ... and again from the same (pooled) instance, into a buffer.
        out = bytearray(b"envelope")
        pickler.dump_into(_corpus_value(name), out)
        assert out[8:].hex() == _GOLDEN[name]

    @pytest.mark.parametrize("name", _NAMES)
    @pytest.mark.parametrize("view", [bytes, memoryview])
    def test_decode_rebuilds_the_graph(self, name, view):
        data = view(bytes.fromhex(_GOLDEN[name]))
        decoded = Unpickler(mc.registry(), mc.RefHandler()).loads(data)
        assert mc.shape(decoded) == mc.shape(_corpus_value(name))

    @pytest.mark.parametrize("name", _NAMES)
    def test_every_proper_prefix_is_rejected(self, name):
        """Truncation is always UnmarshalError — never IndexError,
        struct.error or RecursionError leaking from a decoder."""
        data = bytes.fromhex(_GOLDEN[name])
        cuts = range(len(data))
        if len(data) > 8192:
            # The 34 KB batch: both ends in full, the middle sampled.
            cuts = [*range(600), *range(600, len(data) - 600, 61),
                    *range(len(data) - 600, len(data))]
        decoder = Unpickler(mc.registry(), mc.RefHandler())
        for cut in cuts:
            with pytest.raises(UnmarshalError):
                decoder.loads(data[:cut])
            with pytest.raises(UnmarshalError):
                decoder.loads(memoryview(data)[:cut])

    def test_scan_finds_the_references_from_any_boundary(self):
        from repro.marshal.unpickler import scan_netobj_payloads

        data = bytes.fromhex(_GOLDEN["netobj"])
        names = [bytes(p) for p in scan_netobj_payloads(data)]
        assert names == [b"alpha", b"beta", b"gamma"]
        # Resuming right after the first reference's payload sees the
        # rest — the walk needs no knowledge of the nesting around it.
        after_alpha = data.index(b"alpha") + len(b"alpha")
        assert [bytes(p) for p in scan_netobj_payloads(data, after_alpha)] \
            == [b"beta", b"gamma"]
        for name in _NAMES:
            if name != "netobj":
                assert scan_netobj_payloads(bytes.fromhex(_GOLDEN[name])) == []
        assert scan_netobj_payloads(data[:-3]) == []         # corrupt tail
        assert scan_netobj_payloads(data + b"\xfe") == []    # unknown tag


class TestDepthLimitIsExact:
    """MAX_DEPTH containers may nest; one more is refused on both
    sides, and the refusal leaves the codec reusable."""

    @staticmethod
    def _nested(levels, leaf):
        value = leaf
        for _ in range(levels):
            value = [value]
        return value

    def test_max_depth_round_trips_and_one_more_raises(self):
        from repro.marshal.pickler import MAX_DEPTH

        pickler, unpickler = Pickler(), Unpickler()
        deepest = self._nested(MAX_DEPTH, "leaf")
        data = pickler.dumps(deepest)
        assert unpickler.loads(data) == deepest
        with pytest.raises(MarshalError):
            pickler.dumps(self._nested(MAX_DEPTH + 1, "leaf"))
        assert pickler.dumps(deepest) == data  # no reset() needed

    def test_unpickler_refuses_one_level_more(self):
        from repro.marshal import tags
        from repro.marshal.pickler import MAX_DEPTH

        def nested(levels):
            return bytes([tags.LIST, 1]) * levels + bytes([tags.NONE])

        unpickler = Unpickler()
        assert unpickler.loads(nested(MAX_DEPTH)) == self._nested(MAX_DEPTH, None)
        with pytest.raises(UnmarshalError):
            unpickler.loads(nested(MAX_DEPTH + 1))
        assert unpickler.loads(nested(3)) == [[[None]]]

    def test_structs_count_as_levels(self):
        from repro.marshal.pickler import MAX_DEPTH

        registry = StructRegistry()
        registry.register(Plain, fields=["a", "b"])

        def chain(levels):
            value = None
            for _ in range(levels):
                value = Plain(value, 0)
            return value

        data = dumps(chain(MAX_DEPTH), registry)
        assert loads(data, registry) == chain(MAX_DEPTH)
        with pytest.raises(MarshalError):
            dumps(chain(MAX_DEPTH + 1), registry)


class TestStructPlans:
    """Plans are built at registration and die with it."""

    def test_clear_drops_the_plans(self):
        registry = StructRegistry()
        registry.register(Plain, fields=["a", "b"])
        pickler, unpickler = Pickler(registry), Unpickler(registry)
        data = pickler.dumps(Plain(1, 2))
        assert unpickler.loads(data) == Plain(1, 2)
        registry.clear()
        with pytest.raises(MarshalError):
            pickler.dumps(Plain(1, 2))
        with pytest.raises(UnmarshalError):
            unpickler.loads(data)

    def test_reregistering_a_name_replaces_the_plans(self):
        registry = StructRegistry()
        registry.register(Plain, fields=["a", "b"])
        pickler, unpickler = Pickler(registry), Unpickler(registry)
        two_fields = pickler.dumps(Plain(1, 2))
        registry.register(Plain, fields=["b"])
        one_field = pickler.dumps(Plain(1, 2))
        assert len(one_field) < len(two_fields)
        assert vars(unpickler.loads(one_field)) == {"b": 2}
        with pytest.raises(UnmarshalError):   # arity of the old plan
            unpickler.loads(two_fields)

    def test_missing_field_is_a_marshal_error(self):
        registry = StructRegistry()
        registry.register(Plain, fields=["a", "b"])
        broken = Plain(1, 2)
        del broken.b
        pickler = Pickler(registry)
        with pytest.raises(MarshalError, match="missing field"):
            pickler.dumps(broken)
        assert loads(pickler.dumps(Plain(1, 2)), registry) == Plain(1, 2)

    def test_property_and_slot_fields_go_through_their_descriptors(self):
        class Guarded:
            __slots__ = ("_level", "tag")

            @property
            def level(self):
                return self._level

            @level.setter
            def level(self, value):
                self._level = max(0, value)

        registry = StructRegistry()
        registry.register(Guarded, fields=["level", "tag"])
        original = Guarded()
        original._level, original.tag = -5, "t"
        copy = round_trip(original, registry)
        assert (copy.level, copy.tag) == (0, "t")  # the setter ran

    def test_handler_outranks_the_registry(self):
        """A registered class the handler also recognises crosses by
        reference — and a subclass of a registered struct is not
        registered (exact-type match)."""
        registry = StructRegistry()
        registry.register(FakeRef, fields=["name"])
        registry.register(Plain, fields=["a", "b"])
        handler = FakeHandler()
        result = round_trip([FakeRef("r"), Plain(FakeRef("s"), 1)],
                            registry, handler)
        assert handler.marshal_count == 2
        assert result[1].a.name == "s"
        # Without a handler the same class is an ordinary struct.
        assert round_trip(FakeRef("t"), registry).name == "t"

        class SubPlain(Plain):
            pass

        with pytest.raises(MarshalError, match="unregistered"):
            dumps(SubPlain(1, 2), registry, handler)

    def test_registering_while_another_thread_pickles(self):
        """The walkers read the registry without its lock; a writer
        must never make them crash or mis-encode."""
        import sys
        import threading
        import time

        registry = StructRegistry()
        registry.register(Plain, fields=["a", "b"])
        value = [Plain(i, [Plain("x", None)]) for i in range(50)]
        expected = dumps(value, registry)
        stop = threading.Event()
        failures = []

        def churn():
            extra = [type(f"Extra{i}", (), {}) for i in range(200)]
            while not stop.is_set():
                for cls in extra:
                    registry.register(cls, fields=[])
                registry.register(Plain, fields=["a", "b"])

        def pickle_loop():
            pickler, unpickler = Pickler(registry), Unpickler(registry)
            try:
                while not stop.is_set():
                    data = pickler.dumps(value)
                    if data != expected or unpickler.loads(data) != value:
                        failures.append("mis-encoded")
                        return
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(repr(exc))

        threads = [threading.Thread(target=churn),
                   *(threading.Thread(target=pickle_loop) for _ in range(3))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.5)
        finally:
            stop.set()
            for thread in threads:
                thread.join(10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
