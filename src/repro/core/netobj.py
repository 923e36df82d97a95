"""The NetObj base class.

Subclassing :class:`NetObj` declares a network object type: every
public method (name not starting with ``_``) becomes remotely
invocable, and the subclass is registered in the global type registry
under its typecode so importing spaces can build surrogates for it.

A class can serve as a pure *interface* (methods raising
``NotImplementedError``) with concrete implementations subclassing it;
clients that only register the interface still narrow marshaled
references to it — that is the paper's stub-distribution story.
"""

from __future__ import annotations

from abc import ABCMeta
from typing import Tuple, Type

from repro.core.typecodes import global_types, typecode_of


#: Per-class remote surface, computed once — ``remote_methods_of`` sits
#: on the per-call dispatch path, and the MRO walk plus sort costs more
#: than the rest of method resolution combined.  Keyed by the class
#: object itself: a remote interface is fixed at class-definition time
#: (methods added to a class after definition are not remotely
#: callable, matching the stub-generation model of the paper).
_METHODS_CACHE: dict = {}
_METHOD_SET_CACHE: dict = {}
_READS_CACHE: dict = {}


def reads(func):
    """Mark a method as a pure read of the object's lease-safe state.

    Surrogates may serve a ``@reads`` method from a lease-cached
    snapshot of the object's state with zero network traffic (see
    DESIGN.md, "Read leases").  The method must not mutate the object
    and must depend only on state captured by the lease snapshot.

    Alternatively a class can declare ``_lease_reads_ = ("get", ...)``
    to register read methods without decorating them (useful when the
    interface class is shared and the decorator would be intrusive).
    """
    func._netobj_reads_ = True
    return func


def reads_method_set(cls: Type) -> frozenset:
    """Remote methods of ``cls`` that are declared lease-safe reads.

    The union of ``@reads``-decorated methods and the names listed in
    ``_lease_reads_`` anywhere in the MRO, intersected with the remote
    surface.  Empty for classes that declare no reads — such classes
    never participate in leasing at all.
    """
    cached = _READS_CACHE.get(cls)
    if cached is not None:
        return cached
    names = set()
    for klass in cls.__mro__:
        if klass is object:
            continue
        names.update(klass.__dict__.get("_lease_reads_", ()))
        for name, member in klass.__dict__.items():
            if getattr(member, "_netobj_reads_", False):
                names.add(name)
    result = frozenset(names & remote_method_set(cls))
    _READS_CACHE[cls] = result
    return result


def remote_methods_of(cls: Type) -> Tuple[str, ...]:
    """Public methods of ``cls``, i.e. its remote surface.

    Walks the class's own MRO rather than ``dir`` so that metaclass
    attributes (ABCMeta's ``register`` etc.) do not leak into the
    remote interface.
    """
    cached = _METHODS_CACHE.get(cls)
    if cached is not None:
        return cached
    names = set()
    for klass in cls.__mro__:
        if klass is object:
            continue
        for name in klass.__dict__:
            if name.startswith("_") or name in names:
                continue
            if callable(getattr(cls, name, None)):
                names.add(name)
    result = tuple(sorted(names))
    _METHODS_CACHE[cls] = result
    return result


def remote_method_set(cls: Type) -> frozenset:
    """``remote_methods_of`` as a frozenset, for membership tests."""
    cached = _METHOD_SET_CACHE.get(cls)
    if cached is None:
        cached = _METHOD_SET_CACHE[cls] = frozenset(remote_methods_of(cls))
    return cached


class NetObj(metaclass=ABCMeta):
    """Base class for network objects.

    Instances are *concrete objects* in the space that creates them
    (their owner).  Passing one through a remote invocation marshals
    it by wireRep; the receiving space obtains a surrogate whose
    methods invoke back to the owner.

    Class attributes:

    ``_typecode_``
        Optional stable wire name for the type; defaults to the
        class qualname.  Set it when refactoring moves a class, so
        old peers still narrow correctly.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        global_types.register(typecode_of(cls), cls, remote_methods_of(cls))
