"""The frozen golden corpus of the pickle format.

``corpus()`` builds a fixed list of named values that between them use
every tag, every memo rule (by-value strings and bytes, by-identity
containers, ids burned by large payloads, struct names sharing the
string memo) and every struct construction mode.  Their pickles are
committed as hex in ``marshal_golden.json``; ``tests/test_marshal.py``
requires today's encoder to emit exactly those bytes and today's
decoder to rebuild the same graph from them, so a pickler change that
alters the wire format — in either direction — fails loudly.

Regenerate (only when the format is *meant* to change, with a protocol
version bump)::

    PYTHONPATH=src python -m tests.marshal_corpus
"""

from __future__ import annotations

import functools
import json
import random
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.marshal import Pickler, StructRegistry
from repro.marshal.pickler import MEMO_VALUE_LIMIT

GOLDEN_PATH = Path(__file__).with_name("marshal_golden.json")
_E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


@functools.lru_cache(maxsize=None)
def _netbench():
    """The benchmark's own batch generator and struct classes."""
    sys.path.insert(0, str(_E2E))
    try:
        from interfaces import Account, Record
        from workloads import record_batch
    finally:
        sys.path.remove(str(_E2E))
    return record_batch, (Account, Record)


def netbench_batch() -> list:
    """The 200-record batch ``pickle_graph`` echoes (seed 1), so the
    corpus pins what netbench measures."""
    return _netbench()[0](random.Random("pickle_graph:1"))


# -- struct types ---------------------------------------------------------------

class Plain:
    def __init__(self, a=None, b=None):
        self.a = a
        self.b = b


class Node:
    def __init__(self, label=None, peer=None):
        self.label = label
        self.peer = peer


class Slotted:
    __slots__ = ("x", "y")

    def __init__(self, x=None, y=None):
        self.x = x
        self.y = y


@dataclass(frozen=True)
class Frozen:
    name: str
    weight: float


class Made:
    """Rebuilt through its constructor (``factory=``), which derives
    state the wire never carries."""

    def __init__(self, x, y):
        self.x = x
        self.y = y
        self.total = x + y


class Single:
    def __init__(self, only=None):
        self.only = only


class Empty:
    pass


class FakeRef:
    """Stands in for a network object: crosses by name."""

    def __init__(self, name):
        self.name = name


class RefHandler:
    def recognizes(self, value):
        return isinstance(value, FakeRef)

    def marshal(self, value):
        return value.name.encode("utf-8")

    def unmarshal(self, payload, following=None):
        return FakeRef(str(payload, "utf-8"))


def registry() -> StructRegistry:
    reg = StructRegistry()
    reg.register(Plain, fields=["a", "b"])
    reg.register(Node, fields=["label", "peer"], name="graph.Node")
    reg.register(Slotted, fields=["x", "y"])
    reg.register(Frozen)
    reg.register(Made, fields=["x", "y"], factory=Made)
    reg.register(Single, fields=["only"])
    reg.register(Empty, fields=[])
    for cls in _netbench()[1]:
        reg.register(cls)
    return reg


# -- the values -----------------------------------------------------------------

def _distinct(text):
    """An equal but distinct object (defeats literal interning)."""
    return text[:1] + text[1:] if isinstance(text, str) else bytes(text)


def corpus() -> list:
    """``[(name, value), ...]`` — fresh objects on every call."""
    big_str = "x" * (MEMO_VALUE_LIMIT + 1)
    big_bytes = b"y" * (MEMO_VALUE_LIMIT + 1)

    shared_list = [1, "one"]
    shared_tuple = (2, "two")
    shared_ba = bytearray(b"mutable")

    self_list = ["head"]
    self_list.append(self_list)
    self_dict = {"k": 1}
    self_dict["self"] = self_dict

    sub = Plain("sub", 0)
    left, right = Node("left"), Node("right")
    left.peer, right.peer = right, left

    ring = {}
    ring["t"] = (Node("in-ring", ring), 7)

    ref_a, ref_b = FakeRef("alpha"), FakeRef("beta")

    deep = leaf = []
    for level in range(12):
        inner = [level]
        leaf.append(inner)
        leaf = inner

    return [
        ("scalars", [
            None, True, False, 0, 1, 127, 128, 300, 2 ** 63 - 1, 2 ** 63,
            -1, -128, -129, -(2 ** 63), -(2 ** 63) - 1, 2 ** 200,
            -(2 ** 200), 0.0, -0.0, 1.5, -2.25, float("inf"),
            float("-inf"), float("nan"), "", "ascii", "héllo ☃",
            b"", b"\x00\xff\x7f\x80",
        ]),
        ("containers", [
            (), (1,), [], {}, {"k": "v", 2: (3, 4)}, {1, 2, 3},
            frozenset({10, 20}), bytearray(b"ab"), bytearray(),
            ((), [()], {"d": {}}),
        ]),
        ("equal-strings", [
            "dup", _distinct("dup"), "uniq", b"dup", _distinct(b"dup"),
            ["dup", b"dup"], {"dup": "dup"},
        ]),
        ("shared-containers", [
            shared_list, shared_list, (shared_list,), {"k": shared_list},
            shared_tuple, shared_tuple, shared_ba, shared_ba,
            [1, "one"],  # equal to shared_list but a different object
        ]),
        ("burned-memo-ids", [
            big_str, "s", "s", big_str, big_bytes, b"t", b"t", big_bytes,
            ["after"], "after",
        ]),
        ("cycles", [self_list, self_dict, self_list]),
        ("deep", deep),
        ("struct-plain", Plain(1, "two")),
        ("struct-shared-sub", [Plain(sub, 1), Plain(sub, 2), sub]),
        ("struct-cyclic-pair", [left, right]),
        ("struct-in-tuple-in-dict-cycle", ring),
        ("struct-factory", [Made(3, 4), Made(-1, 2 ** 70)]),
        ("struct-slots", [Slotted(1.5, None), Slotted("x", [b"y"])]),
        ("struct-frozen", [Frozen("anvil", 10.5), Frozen("anvil", -0.0)]),
        ("struct-single-and-empty", [Single("only"), Empty(), Single(Empty())]),
        ("struct-name-shares-string-memo", [
            "Plain", Plain("graph.Node", Node("n", None)), "graph.Node",
            Plain(None, None),
        ]),
        ("netobj", [ref_a, ref_b, ref_a, Plain(ref_b, (ref_a,)),
                    {"r": FakeRef("gamma")}]),
        ("netbench-record-batch", netbench_batch()),
    ]


# -- graph shape ----------------------------------------------------------------

def shape(value):
    """A comparable description of a value graph: values, container
    kinds, and which positions alias which (cycles included)."""
    seen = {}

    def walk(node):
        if node is None or isinstance(node, (bool, int, str, bytes)):
            return (type(node).__name__, node)
        if isinstance(node, float):
            return ("float", struct.pack("!d", node))
        if id(node) in seen:
            return ("alias", seen[id(node)])
        seen[id(node)] = len(seen)
        if isinstance(node, bytearray):
            return ("bytearray", bytes(node))
        if isinstance(node, (list, tuple)):
            return (type(node).__name__, [walk(item) for item in node])
        if isinstance(node, dict):
            return ("dict", [(walk(k), walk(v)) for k, v in node.items()])
        if isinstance(node, (set, frozenset)):
            return (type(node).__name__,
                    sorted((walk(item) for item in node), key=repr))
        if isinstance(node, FakeRef):
            return ("ref", node.name)
        slots = getattr(type(node), "__slots__", None)
        names = slots if slots is not None else sorted(vars(node))
        return (type(node).__name__,
                [(name, walk(getattr(node, name))) for name in names])

    return walk(value)


def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    pickler = Pickler(registry(), RefHandler())
    GOLDEN_PATH.write_text(json.dumps(
        {name: pickler.dumps(value).hex() for name, value in corpus()},
        indent=0,
    ) + "\n")
    print(f"wrote {GOLDEN_PATH}")
