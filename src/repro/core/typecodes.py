"""Typecodes, the narrowest-surrogate rule, and the typed-argument
wire codecs of the call fast lane.

Every :class:`~repro.core.netobj.NetObj` subclass has a *typecode* — a
stable string naming the interface.  A marshaled reference carries the
owner's full typecode chain (most-derived first); the importing space
walks the chain and builds its surrogate from the first typecode it
knows.  This is the paper's type negotiation: the client gets "the
narrowest surrogate for which it has stubs", and a client lacking the
derived stubs can still talk to the object through a base interface.

The second half of this module is the *typed argument fast lane*:
methods whose signatures are scalar-only — declared
with :func:`wiretypes` or inferred from ``typing`` annotations at
surrogate build time (:func:`fastlane_method_set`) — get their
arguments and scalar results struct-packed straight into the pooled
frame buffer, bypassing the pickler/unpickler entirely.  The encoding
is self-describing (each value carries a one-byte wire-type code), so
the server never needs the signature: eligibility only gates which
methods *attempt* the lane, and any non-conforming value at a call
site falls back to the pickle path for that call.
"""

from __future__ import annotations

import inspect
import struct
import threading
from typing import Dict, List, Sequence, Tuple, Type

from repro.errors import NarrowingError, UnmarshalError
from repro.wire.varint import read_uvarint, write_uvarint


class TypeRegistry:
    """typecode → (class, remote method names, surrogate class).

    Registration happens automatically from ``NetObj.__init_subclass__``
    into :data:`global_types`; isolated registries exist only for tests.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, Tuple[Type, Tuple[str, ...]]] = {}
        self._surrogate_classes: Dict[str, Type] = {}

    def register(self, typecode: str, cls: Type, methods: Sequence[str]) -> None:
        with self._lock:
            existing = self._entries.get(typecode)
            if existing is not None and existing[0] is not cls:
                raise ValueError(
                    f"typecode {typecode!r} already registered for "
                    f"{existing[0].__qualname__}"
                )
            self._entries[typecode] = (cls, tuple(methods))
            # A stale surrogate class may exist from a previous
            # registration of the same typecode; rebuild lazily.
            self._surrogate_classes.pop(typecode, None)

    def knows(self, typecode: str) -> bool:
        with self._lock:
            return typecode in self._entries

    def class_for(self, typecode: str) -> Type:
        with self._lock:
            return self._entries[typecode][0]

    def methods_for(self, typecode: str) -> Tuple[str, ...]:
        with self._lock:
            return self._entries[typecode][1]

    def narrow(self, chain: Sequence[str]) -> str:
        """First typecode of ``chain`` registered locally.

        Raises :class:`NarrowingError` when no typecode is known —
        the client has no stubs at all for this object.
        """
        with self._lock:
            for typecode in chain:
                if typecode in self._entries:
                    return typecode
        raise NarrowingError(
            f"no registered stubs for any of {list(chain)!r}"
        )

    def surrogate_class(self, typecode: str) -> Type:
        """The (cached) generated surrogate class for ``typecode``."""
        from repro.core.surrogate import build_surrogate_class

        with self._lock:
            cached = self._surrogate_classes.get(typecode)
            if cached is not None:
                return cached
            cls, methods = self._entries[typecode]
            surrogate_cls = build_surrogate_class(typecode, cls, methods)
            self._surrogate_classes[typecode] = surrogate_cls
            return surrogate_cls


#: Registry used by default; NetObj subclasses self-register here.
global_types = TypeRegistry()


def typecode_of(cls: Type) -> str:
    """The typecode of a NetObj subclass (override with ``_typecode_``).

    Defaults to ``module.QualName`` so same-named interfaces in
    different modules cannot collide on the wire.  Peers must agree on
    typecodes, so refactorings that move a class should pin the old
    name via ``_typecode_``.
    """
    explicit = cls.__dict__.get("_typecode_")
    if explicit is not None:
        return explicit
    return f"{cls.__module__}.{cls.__qualname__}"


def typechain(cls: Type) -> List[str]:
    """Typecode chain of ``cls``: most-derived first, NetObj excluded."""
    from repro.core.netobj import NetObj

    chain = []
    for ancestor in cls.__mro__:
        if ancestor is NetObj:
            break
        if isinstance(ancestor, type) and issubclass(ancestor, NetObj):
            chain.append(typecode_of(ancestor))
    return chain


# -- typed argument fast lane -------------------------------------------------
#
# One typed value is ``wire-type code (u8) ‖ payload``; a fast-lane
# argument tuple is ``argc (u8) ‖ argc × typed value``; a fast-lane
# result is a single typed value.  See PROTOCOL.md, "Bound calls".

WT_NONE = 0x00   # no payload
WT_TRUE = 0x01   # no payload
WT_FALSE = 0x02  # no payload
WT_INT = 0x03    # zigzag varint (|n| < 2**63; larger ints fall back)
WT_FLOAT = 0x04  # 8 bytes IEEE-754 BE
WT_STR = 0x05    # varint length ‖ UTF-8
WT_BYTES = 0x06  # varint length ‖ raw

#: Python types the fast lane can carry.  Exact types only — subclasses
#: (IntEnum, numpy scalars...) fall back to the pickle path, which
#: round-trips them faithfully.
SCALAR_WIRE_TYPES = (type(None), bool, int, float, str, bytes)

#: Fast-lane args carry at most this many values (argc is one byte).
MAX_FASTLANE_ARGS = 255

_INT_BOUND = 1 << 63
_F8 = struct.Struct(">d")


def _encode_scalar_into(out: bytearray, value) -> bool:
    """Append one typed value; False (nothing written) if ``value``
    does not conform.  ``bool`` before ``int``: bool is an int
    subclass, and exact-type dispatch must not widen it."""
    kind = type(value)
    if kind is bool:
        out.append(WT_TRUE if value else WT_FALSE)
    elif kind is int:
        if not -_INT_BOUND <= value < _INT_BOUND:
            return False
        out.append(WT_INT)
        write_uvarint(out, (value << 1) ^ (value >> 63))
    elif kind is float:
        out.append(WT_FLOAT)
        out += _F8.pack(value)
    elif kind is str:
        try:
            raw = value.encode("utf-8")
        except UnicodeEncodeError:
            return False  # lone surrogates etc.: the pickler's problem
        out.append(WT_STR)
        write_uvarint(out, len(raw))
        out += raw
    elif kind is bytes:
        out.append(WT_BYTES)
        write_uvarint(out, len(value))
        out += value
    elif value is None:
        out.append(WT_NONE)
    else:
        return False
    return True


def encode_scalar_args_into(out: bytearray, args: tuple) -> bool:
    """Append a fast-lane argument tuple to ``out``.

    Returns True on success; on any non-conforming value everything
    written here is rolled back (``out`` is exactly as it was) and the
    caller re-encodes through the pickle path — fallback is per-call,
    never sticky.
    """
    if len(args) > MAX_FASTLANE_ARGS:
        return False
    start = len(out)
    out.append(len(args))
    for value in args:
        if not _encode_scalar_into(out, value):
            del out[start:]
            return False
    return True


def encode_scalar_result_into(out: bytearray, value) -> bool:
    """Append one fast-lane result value; False (and ``out`` is
    untouched) when the value must travel as a pickle instead."""
    start = len(out)
    if _encode_scalar_into(out, value):
        return True
    del out[start:]
    return False


def _decode_scalar(data, offset: int):
    if offset >= len(data):
        raise UnmarshalError("truncated fast-lane value")
    code = data[offset]
    offset += 1
    if code == WT_NONE:
        return None, offset
    if code == WT_TRUE:
        return True, offset
    if code == WT_FALSE:
        return False, offset
    if code == WT_INT:
        zigzag, offset = read_uvarint(data, offset)
        return (zigzag >> 1) ^ -(zigzag & 1), offset
    if code == WT_FLOAT:
        end = offset + 8
        if end > len(data):
            raise UnmarshalError("truncated fast-lane float")
        return _F8.unpack(data[offset:end])[0], end
    if code == WT_STR:
        length, offset = read_uvarint(data, offset)
        end = offset + length
        if end > len(data):
            raise UnmarshalError("truncated fast-lane string")
        try:
            return str(data[offset:end], "utf-8"), end
        except UnicodeDecodeError as exc:
            raise UnmarshalError(f"invalid UTF-8 in fast-lane string: {exc}") \
                from exc
    if code == WT_BYTES:
        length, offset = read_uvarint(data, offset)
        end = offset + length
        if end > len(data):
            raise UnmarshalError("truncated fast-lane bytes")
        return bytes(data[offset:end]), end
    raise UnmarshalError(f"unknown wire-type code 0x{code:02x}")


def decode_scalar_args(data) -> tuple:
    """Decode a fast-lane argument tuple (the trailing bytes of a
    CALL_FAST frame)."""
    if not len(data):
        raise UnmarshalError("empty fast-lane args")
    count = data[0]
    offset = 1
    values = []
    for _ in range(count):
        value, offset = _decode_scalar(data, offset)
        values.append(value)
    if offset != len(data):
        raise UnmarshalError("trailing garbage after fast-lane args")
    return tuple(values)


def decode_scalar_result(data):
    """Decode a fast-lane result (the trailing bytes of RESULT_FAST)."""
    value, offset = _decode_scalar(data, 0)
    if offset != len(data):
        raise UnmarshalError("trailing garbage after fast-lane result")
    return value


def wiretypes(*types):
    """Declare a method's argument types as fast-lane scalars.

    ::

        class Counter(NetObj):
            @wiretypes(int)
            def add(self, amount):
                ...

    Surrogates for the class then attempt the typed fast lane for this
    method regardless of annotations.  Each type must be one of
    ``None``/``bool``/``int``/``float``/``str``/``bytes``; the
    declaration is a *claim*, checked per call against the actual
    values — a non-conforming argument silently falls back to the
    pickle path for that call.
    """
    allowed = (bool, int, float, str, bytes, type(None))
    for entry in types:
        if entry is not None and entry not in allowed:
            raise TypeError(
                f"wiretypes accepts scalar wire types only, got {entry!r}"
            )

    def mark(func):
        func._netobj_wiretypes_ = tuple(types)
        return func

    return mark


#: Annotations (objects or the strings ``from __future__ import
#: annotations`` turns them into) that mark a parameter fast-lane safe.
_SCALAR_ANNOTATIONS = {
    bool, int, float, str, bytes, type(None), None,
    "bool", "int", "float", "str", "bytes", "None", "NoneType",
}

_FASTLANE_CACHE: dict = {}


def _scalar_signature(func) -> bool:
    """True when every declared parameter of ``func`` (self excluded)
    is annotated with a scalar wire type — the annotation-inference
    half of fast-lane eligibility.  ``*args``/``**kwargs`` disqualify;
    a zero-parameter method is trivially eligible (the null-call case
    the fast lane exists for)."""
    try:
        signature = inspect.signature(func)
    except (TypeError, ValueError):
        return False
    parameters = list(signature.parameters.values())[1:]  # drop self
    for parameter in parameters:
        if parameter.kind in (inspect.Parameter.VAR_POSITIONAL,
                              inspect.Parameter.VAR_KEYWORD):
            return False
        annotation = parameter.annotation
        if annotation is inspect.Parameter.empty:
            return False
        if isinstance(annotation, str):
            annotation = annotation.strip()
        try:
            if annotation not in _SCALAR_ANNOTATIONS:
                return False
        except TypeError:  # unhashable annotation object
            return False
    return True


def fastlane_method_set(cls: Type) -> frozenset:
    """Methods of ``cls`` eligible for the typed argument fast lane.

    The union of :func:`wiretypes`-declared methods and those whose
    ``typing`` annotations are scalar-only, computed once per class at
    surrogate build time.  The most-derived definition of a name
    decides (an override that widens a signature removes eligibility).
    Eligibility is a client-side concern only — the wire encoding is
    self-describing and the server accepts fast-lane frames for any
    method.
    """
    cached = _FASTLANE_CACHE.get(cls)
    if cached is not None:
        return cached
    eligible = set()
    decided = set()
    for klass in cls.__mro__:
        if klass is object:
            continue
        for name, member in klass.__dict__.items():
            if name.startswith("_") or name in decided or not callable(member):
                continue
            decided.add(name)
            declared = getattr(member, "_netobj_wiretypes_", None)
            if declared is not None or _scalar_signature(member):
                eligible.add(name)
    result = frozenset(eligible)
    _FASTLANE_CACHE[cls] = result
    return result
