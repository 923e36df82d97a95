"""Registry of application struct types that may cross the wire.

The original pickles machinery marshals any Modula-3 value whose type
is known on both sides.  We reproduce the "known on both sides" rule
with an explicit registry: an application registers a class under a
stable name (on every space that will see it), and instances are then
marshaled field-by-field.  Unregistered types are rejected with
:class:`~repro.errors.MarshalError` rather than silently mis-encoded.

Registration is also where the per-type marshaling work happens — the
paper's stubs carry marshaling code generated per type; here
:class:`StructCodec` precomputes, once per class, everything the
walkers would otherwise derive per instance: the header bytes, a
C-level getter for all fields at once, and the cheapest sound way to
fill a fresh instance.
"""

from __future__ import annotations

import dataclasses
import inspect
import threading
from operator import attrgetter
from typing import Callable, Dict, Iterable, Optional, Sequence, Type

from repro.errors import UnmarshalError
from repro.marshal import tags
from repro.wire.varint import write_uvarint


def _uvarint(value: int) -> bytes:
    out = bytearray()
    write_uvarint(out, value)
    return bytes(out)


class StructCodec:
    """The encode and decode plans of one registered class.

    Encode plan, used by :class:`~repro.marshal.pickler.Pickler`:
    ``header`` is ``STRUCT STR len name`` (written when the name is new
    to the message's string memo; ``memoize_name`` is False for a name
    too long to memoize), ``getter(obj)`` returns every field value in
    declaration order, ``count`` is the encoded field count.

    Decode plan, used by :class:`~repro.marshal.unpickler.Unpickler`:
    with no ``factory`` the instance is allocated by ``new(cls)`` and
    entered into the memo *before* its fields decode — so structs may
    sit on cycles — and each field is stored straight into the
    instance dict when ``plain`` says that is sound (``setattr``
    otherwise); with a ``factory`` the instance is built in one phase
    from the decoded values.
    """

    __slots__ = ("name", "cls", "fields", "factory", "header",
                 "memoize_name", "getter", "count", "new", "plain")

    def __init__(
        self,
        name: str,
        cls: Type,
        fields: Sequence[str],
        factory: Optional[Callable[..., object]] = None,
    ):
        self.name = name
        self.cls = cls
        self.fields = tuple(fields)
        self.factory = factory

        raw = name.encode("utf-8")
        self.header = bytes((tags.STRUCT, tags.STR)) + _uvarint(len(raw)) + raw
        self.memoize_name = len(name) <= tags.MEMO_VALUE_LIMIT
        self.count = _uvarint(len(self.fields))
        if len(self.fields) > 1:
            self.getter = attrgetter(*self.fields)
        else:  # attrgetter answers with a tuple only from two names up
            names = self.fields
            self.getter = lambda obj: tuple(getattr(obj, n) for n in names)

        self.new = cls.__new__
        # Writing the instance dict directly is sound only when no
        # field is backed by a descriptor on the class (slot, property).
        self.plain = getattr(cls, "__dictoffset__", 0) != 0 and not any(
            hasattr(inspect.getattr_static(cls, field, None), "__set__")
            for field in self.fields
        )


class StructRegistry:
    """Thread-safe name ↔ codec mapping.

    Spaces normally share :data:`global_registry`; tests that need
    isolation may build private registries and hand them to the
    pickler/unpickler directly.  Writers hold the lock; the walkers
    read ``by_cls``/``by_name`` without it (one dict lookup is atomic).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.by_name: Dict[str, StructCodec] = {}
        self.by_cls: Dict[Type, StructCodec] = {}

    def register(
        self,
        cls: Type,
        fields: Optional[Iterable[str]] = None,
        name: Optional[str] = None,
        factory: Optional[Callable[..., object]] = None,
    ) -> Type:
        """Register ``cls`` for marshaling; returns ``cls`` (decorator-friendly).

        ``fields`` defaults to the dataclass fields of ``cls`` (it must
        then be a dataclass).  By default instances are rebuilt with
        ``__new__`` + setattr — which allows cyclic object graphs but
        skips ``__init__``/``__post_init__``; pass ``factory`` (e.g.
        the class itself) to force constructor-based rebuilding.
        """
        if fields is None:
            if not dataclasses.is_dataclass(cls):
                raise TypeError(
                    f"{cls.__name__}: pass fields= explicitly for "
                    "non-dataclass types"
                )
            fields = [f.name for f in dataclasses.fields(cls)]
        struct_name = name if name is not None else cls.__qualname__
        codec = StructCodec(struct_name, cls, list(fields), factory)
        with self._lock:
            existing = self.by_name.get(struct_name)
            if existing is not None and existing.cls is not cls:
                raise ValueError(
                    f"struct name {struct_name!r} already registered "
                    f"for {existing.cls!r}"
                )
            self.by_name[struct_name] = codec
            self.by_cls[cls] = codec
        return cls

    def codec_for_name(self, name: str) -> StructCodec:
        codec = self.by_name.get(name)
        if codec is None:
            raise UnmarshalError(f"unknown struct type {name!r}")
        return codec

    def clear(self) -> None:
        with self._lock:
            self.by_name.clear()
            self.by_cls.clear()


#: The default registry used by spaces unless told otherwise.
global_registry = StructRegistry()


def register_struct(
    cls: Optional[Type] = None,
    *,
    fields: Optional[Iterable[str]] = None,
    name: Optional[str] = None,
    factory: Optional[Callable[..., object]] = None,
):
    """Class decorator registering a type in :data:`global_registry`.

    Usage::

        @register_struct
        @dataclass
        class Deposit:
            account: str
            amount: int
    """
    if cls is not None:
        return global_registry.register(cls, fields=fields, name=name, factory=factory)

    def decorate(inner_cls: Type) -> Type:
        return global_registry.register(
            inner_cls, fields=fields, name=name, factory=factory
        )

    return decorate
