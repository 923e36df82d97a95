"""Property-based tests (hypothesis) over the core data structures.

Four target families:

* the pickle format — round-trip fidelity over arbitrary value graphs;
* varints — total and lossless over non-negative integers;
* the abstract machine — every reachable configuration along random
  transition sequences satisfies every invariant, and collector steps
  strictly decrease the termination measure;
* random mutator schedules — arbitrary copy/drop event sequences
  always end with the object collected and the books balanced, for
  the base machine and every variant cost model.
"""

import math
import struct
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import UnmarshalError
from repro.marshal import StructRegistry, dumps, loads, tags
from repro.marshal.pickler import MEMO_VALUE_LIMIT
from repro.marshal.unpickler import scan_netobj_payloads
from repro.model import Machine, initial_configuration, termination_measure
from repro.model.invariants import all_violations
from repro.model.scenario import run_events
from repro.model.variants import all_models
from repro.wire.varint import read_uvarint, write_uvarint
from tests.marshal_corpus import FakeRef, RefHandler

# -- strategies -----------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.tuples(children, children),
        st.sets(
            st.one_of(st.integers(), st.text(max_size=8)), max_size=5
        ),
        st.frozensets(st.integers(), max_size=5),
    ),
    max_leaves=25,
)


# -- pickles ---------------------------------------------------------------------

class TestPickleProperties:
    @given(values)
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, value):
        assert loads(dumps(value)) == value

    @given(values)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_preserves_types(self, value):
        result = loads(dumps(value))
        assert type(result) is type(value)

    @given(st.floats())
    @settings(max_examples=100, deadline=None)
    def test_floats_bitwise(self, value):
        result = loads(dumps(value))
        if math.isnan(value):
            assert math.isnan(result)
        else:
            assert result == value
            assert math.copysign(1, result) == math.copysign(1, value)

    @given(values)
    @settings(max_examples=100, deadline=None)
    def test_sharing_preserved(self, value):
        box = [value, value]
        result = loads(dumps(box))
        if isinstance(value, (list, dict, set, bytearray)):
            assert result[0] is result[1]
        assert result[0] == result[1]

    @given(st.integers())
    @settings(max_examples=200, deadline=None)
    def test_any_int(self, value):
        assert loads(dumps(value)) == value

    @given(st.binary(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bytes_never_crash_decoder(self, data):
        from repro.errors import UnmarshalError

        try:
            loads(data)
        except UnmarshalError:
            pass  # rejection is the contract; crashing is not


# -- the pickle format against a reference encoder ------------------------------

@dataclass
class Leaf:
    label: str
    weight: float


@dataclass
class Pair:
    left: object
    right: object


_STRUCTS = StructRegistry()
_STRUCTS.register(Leaf)
_STRUCTS.register(Pair, name="geometry.Pair")


def reference_dumps(value) -> bytes:
    """The pickle format written down for clarity, not speed: one
    recursive function straight from PROTOCOL.md.  The production
    walkers must emit exactly these bytes."""
    out = bytearray()
    by_id, by_value, kept = {}, {}, []
    next_id = [0]

    def memoize(table, key):
        """True (and a REF written) when ``key`` was seen before."""
        if key in table:
            out.append(tags.REF)
            write_uvarint(out, table[key])
            return True
        table[key] = next_id[0]
        next_id[0] += 1
        return False

    def sized(tag, raw):
        out.append(tag)
        write_uvarint(out, len(raw))
        out.extend(raw)

    def walk(v):
        kind = type(v)
        if v is None or kind is bool:
            out.append({None: tags.NONE, True: tags.TRUE, False: tags.FALSE}[v])
        elif kind is int and 0 <= v < 2 ** 63:
            out.append(tags.INT_POS)
            write_uvarint(out, v)
        elif kind is int and -(2 ** 63) <= v < 0:
            out.append(tags.INT_NEG)
            write_uvarint(out, -1 - v)
        elif kind is int:
            sized(tags.INT_BIG,
                  v.to_bytes((v.bit_length() + 8) // 8, "little", signed=True))
        elif kind is float:
            out.append(tags.FLOAT)
            out.extend(struct.pack("!d", v))
        elif kind in (str, bytes):
            if len(v) > MEMO_VALUE_LIMIT:
                next_id[0] += 1  # too big to hash: the id is burned
            elif memoize(by_value, (kind, v)):
                return
            if kind is str:
                sized(tags.STR, v.encode("utf-8"))
            else:
                sized(tags.BYTES, v)
        else:
            kept.append(v)
            if memoize(by_id, id(v)):
                return
            if kind is bytearray:
                sized(tags.BYTEARRAY, v)
            elif kind is dict:
                out.append(tags.DICT)
                write_uvarint(out, len(v))
                for key, item in v.items():
                    walk(key)
                    walk(item)
            elif kind in _SEQUENCE_TAGS:
                out.append(_SEQUENCE_TAGS[kind])
                write_uvarint(out, len(v))
                for item in v:
                    walk(item)
            else:
                codec = _STRUCTS.by_cls[kind]
                out.append(tags.STRUCT)
                walk(codec.name)
                write_uvarint(out, len(codec.fields))
                for field in codec.fields:
                    walk(getattr(v, field))

    walk(value)
    return bytes(out)


_SEQUENCE_TAGS = {list: tags.LIST, tuple: tags.TUPLE, set: tags.SET,
                  frozenset: tags.FROZENSET}

graph_scalars = st.one_of(
    scalars,
    st.floats(allow_nan=True),
    st.text(min_size=MEMO_VALUE_LIMIT - 1, max_size=MEMO_VALUE_LIMIT + 1),
    st.sampled_from(["Leaf", "geometry.Pair", "dup", b"dup"]),
    st.builds(bytearray, st.binary(max_size=8)),
)

def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
        st.builds(Leaf, st.text(max_size=6), st.floats(allow_nan=False)),
        st.builds(Pair, children, children),
        # the same object in several places, some of them nested
        children.map(lambda v: [v, (v, [v])]),
    )


graphs = st.recursive(graph_scalars, _containers, max_leaves=20)
graphs_with_refs = st.recursive(
    st.one_of(graph_scalars, st.builds(FakeRef, st.text(max_size=4))),
    _containers, max_leaves=20,
)


class RecordingHandler(RefHandler):
    """Notes each reference payload, and what the scan resumed after
    reference number ``ask_at`` reports as still to come."""

    def __init__(self, ask_at=None):
        self.ask_at = ask_at
        self.seen = []
        self.following = None

    def unmarshal(self, payload, following):
        if len(self.seen) == self.ask_at:
            self.following = [bytes(p) for p in following()]
        self.seen.append(bytes(payload))
        return super().unmarshal(payload, following)


class TestPickleFormatProperties:
    @given(graphs)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_bytes_match_the_reference_encoder(self, value):
        data = dumps(value, _STRUCTS)
        assert data == reference_dumps(value)
        assert reference_dumps(loads(data, _STRUCTS)) == data

    @given(graphs)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_every_proper_prefix_is_unmarshal_error(self, value):
        data = dumps(value, _STRUCTS)
        cuts = range(len(data)) if len(data) < 600 else \
            [*range(300), *range(len(data) - 300, len(data))]
        for cut in cuts:
            with pytest.raises(UnmarshalError):
                loads(data[:cut], _STRUCTS)

    @given(graphs_with_refs)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_scan_agrees_with_decode_from_every_reference(self, value):
        """The flat scan sees exactly the references the decoder meets,
        in order — from the start and resumed after any one of them."""
        handler = RecordingHandler()
        data = dumps(value, _STRUCTS, handler)
        loads(data, _STRUCTS, handler)
        payloads = handler.seen
        assert [bytes(p) for p in scan_netobj_payloads(data)] == payloads
        for index in range(len(payloads)):
            asking = RecordingHandler(ask_at=index)
            loads(data, _STRUCTS, asking)
            assert asking.following == payloads[index + 1:]

    @given(st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_scan_of_arbitrary_bytes_never_raises(self, data):
        assert isinstance(scan_netobj_payloads(data), list)


class TestVarintProperties:
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, value):
        out = bytearray()
        write_uvarint(out, value)
        decoded, offset = read_uvarint(bytes(out), 0)
        assert decoded == value
        assert offset == len(out)

    @given(st.integers(min_value=0, max_value=2**32),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_concatenation_parses(self, a, b):
        out = bytearray()
        write_uvarint(out, a)
        write_uvarint(out, b)
        first, offset = read_uvarint(bytes(out), 0)
        second, end = read_uvarint(bytes(out), offset)
        assert (first, second) == (a, b)
        assert end == len(out)


# -- the abstract machine ------------------------------------------------------------

class TestMachineProperties:
    @given(st.integers(min_value=0, max_value=2**31), st.integers(2, 3))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_walks_safe(self, seed, nprocs):
        """Invariants hold and the measure behaves along random runs."""
        machine = Machine()
        config = initial_configuration(
            nprocs=nprocs, nrefs=1, copies_left=3
        )
        state = {"measure": termination_measure(config)}

        def observe(successor, transition):
            violations = all_violations(successor)
            assert not violations, violations
            measure = termination_measure(successor)
            assert measure >= 0
            if not transition.rule.mutator:
                assert measure < state["measure"], transition
            state["measure"] = measure

        final = machine.run_random(config, seed=seed, observer=observe)
        # Liveness at quiescence: no transient entries, no messages.
        assert not final.tdirty
        assert not final.msgs

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_quiescent_dirty_sets_match_holders(self, seed):
        """At quiescence the dirty set is exactly the set of clients
        whose reference is still usable (Invariant 2 collapsed)."""
        from repro.dgc.states import RefState

        machine = Machine()
        config = initial_configuration(nprocs=3, nrefs=1, copies_left=3)
        final = machine.run_random(config, seed=seed)
        owner = final.owner[0]
        holders = {
            proc for proc in range(final.nprocs)
            if proc != owner and final.rec_of(proc, 0) is RefState.OK
        }
        assert final.pdirty_of(owner, 0) == holders


# -- random mutator schedules over all algorithms -------------------------------------


@st.composite
def event_sequences(draw, nprocs=3, max_events=12):
    """Valid copy/drop sequences: senders hold the ref, everyone
    drops at the end (so collection is expected)."""
    holders = {0}
    events = []
    count = draw(st.integers(min_value=1, max_value=max_events))
    for _ in range(count):
        action = draw(st.sampled_from(["copy", "copy", "drop"]))
        if action == "copy":
            src = draw(st.sampled_from(sorted(holders)))
            dst = draw(st.integers(min_value=0, max_value=nprocs - 1))
            if dst == src:
                continue
            events.append(("copy", src, dst))
            holders.add(dst)
        else:
            droppable = sorted(holders - {0})
            if not droppable:
                continue
            victim = draw(st.sampled_from(droppable))
            events.append(("drop", victim))
            holders.discard(victim)
    for proc in sorted(holders - {0}):
        events.append(("drop", proc))
    return events


class TestScheduleProperties:
    @given(event_sequences())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_base_machine_collects_and_stays_safe(self, events):
        run = run_events(3, events, check=True)
        assert not run.owner_entry_exists()
        assert run.holders() == []

    @given(event_sequences())
    @settings(max_examples=40, deadline=None)
    def test_all_variants_collect(self, events):
        for model in all_models(3):
            model.run(events)
            assert model.collected(), (model.name, events)

    @given(event_sequences())
    @settings(max_examples=40, deadline=None)
    def test_cost_hierarchy_holds_universally(self, events):
        from repro.model.variants import (
            BirrellCounting,
            BirrellFifoCounting,
            BirrellOwnerOptCounting,
        )

        base = BirrellCounting(3).run(events).total_gc_messages()
        fifo = BirrellFifoCounting(3).run(events).total_gc_messages()
        opt = BirrellOwnerOptCounting(3).run(events).total_gc_messages()
        assert base >= fifo >= opt


class TestFaultyMachineProperties:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_random_fault_walks_safe_with_seqnos(self, seed):
        """Random walks of the fault-tolerant machine (loss, spurious
        timeouts, retries): safety holds at every step, and quiescent
        states are leak-free."""
        import random as _random

        from repro.model.variants import (
            FaultyMachine,
            faulty_leak_violations,
            faulty_safety_violations,
            initial_faulty,
        )

        rng = _random.Random(seed)
        machine = FaultyMachine()
        config = initial_faulty(
            nprocs=3, copies_left=3, losses_left=2, timeouts_left=3,
        )
        for _ in range(400):
            transitions = machine.enabled(config)
            if not transitions:
                break
            config = rng.choice(transitions).fire(config)
            violations = faulty_safety_violations(config)
            assert not violations, violations
        quiescent_leaks = faulty_leak_violations(config)
        if not machine.enabled(config):
            assert not quiescent_leaks, quiescent_leaks


class TestMessageDecoderFuzz:
    @given(st.binary(min_size=0, max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_rpc_decoder_never_crashes(self, data):
        """Arbitrary frames are either decoded or rejected with our
        error types — no interpreter-level exceptions escape."""
        from repro.errors import NetObjError
        from repro.rpc import messages as rpc_messages

        try:
            rpc_messages.decode(data)
        except NetObjError:
            pass

    @given(st.binary(min_size=0, max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_ref_payload_decoder_never_crashes(self, data):
        from repro.core.marshalctx import decode_ref
        from repro.errors import NetObjError

        try:
            decode_ref(data)
        except NetObjError:
            pass
