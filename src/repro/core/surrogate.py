"""Surrogates: client-side proxies for remote network objects.

There is at most one surrogate per object per space (the object table
guarantees it).  A surrogate's generated methods forward to the
space's invocation machinery; its collection by the *local* garbage
collector is what eventually triggers a clean call to the owner, so a
surrogate must never secretly retain anything that keeps it alive.

The generated class is registered as a virtual subclass of the
interface it narrows to, so ``isinstance(ref, BankInterface)`` behaves
the same for surrogates as for local concrete objects.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Type

from repro.core.netobj import reads_method_set
from repro.core.typecodes import fastlane_method_set
from repro.wire.wirerep import WireRep


class Surrogate:
    """Common behaviour of all generated surrogate classes."""

    _surrogate_typecode_ = "<abstract>"
    #: Method names with scalar-only signatures (class-build verdict);
    #: the async path looks fastlane eligibility up here by name.
    _fastlane_methods_ = frozenset()
    #: The non-``@reads`` methods of an interface that has some: calling
    #: one first releases this space's read lease on the object.
    _lease_writes_ = frozenset()

    def __init__(self, invoker, wirerep: WireRep, endpoints: Tuple[str, ...],
                 chain: Tuple[str, ...]):
        # ``invoker(wirerep, endpoints, method, args, kwargs)`` is the
        # space's invocation entry point; storing the bound method (and
        # not the space) keeps the surrogate's footprint obvious.
        self._invoker = invoker
        self._wirerep = wirerep
        self._endpoints = endpoints
        self._chain = chain

    def _invoke(self, method: str, args: tuple, kwargs: dict,
                fastlane: bool = False):
        return self._invoker(self._wirerep, self._endpoints, method, args,
                             kwargs, fastlane)

    def _invoke_read(self, method: str, args: tuple, kwargs: dict):
        """Invocation path for ``@reads`` methods: try the space's
        lease cache first, falling back to an ordinary remote call when
        leasing is off or denied."""
        space = getattr(self._invoker, "__self__", None)
        read = getattr(space, "_invoke_read", None)
        if read is None:
            return self._invoke(method, args, kwargs)
        return read(self, method, args, kwargs)

    def __repr__(self) -> str:
        return (
            f"<surrogate {self._surrogate_typecode_} for {self._wirerep}>"
        )

    def __reduce__(self):
        raise TypeError(
            "surrogates cross spaces via network-object marshaling, "
            "not via pickle"
        )


def _make_method(name: str, fastlane: bool = False, release: bool = False):
    # ``fastlane`` (scalar-only signature — see
    # typecodes.fastlane_method_set) and ``release`` (a writer of a
    # leasable interface) are decided once per interface at class-build
    # time, so the per-call path carries them as constants instead of
    # re-inspecting the signature.
    if release:
        def method(self, *args, **kwargs):
            return self._invoker(self._wirerep, self._endpoints, name,
                                 args, kwargs, fastlane, True)
    else:
        def method(self, *args, **kwargs):
            return self._invoke(name, args, kwargs, fastlane)

    method.__name__ = name
    method.__qualname__ = f"Surrogate.{name}"
    method.__doc__ = f"Remote invocation of {name!r} at the object's owner."
    return method


def _make_read_method(name: str):
    def method(self, *args, **kwargs):
        return self._invoke_read(name, args, kwargs)

    method.__name__ = name
    method.__qualname__ = f"Surrogate.{name}"
    method.__doc__ = (
        f"Lease-cached read of {name!r}: served from the local replica "
        f"when a read lease is held, remote invocation otherwise."
    )
    return method


def build_surrogate_class(typecode: str, interface: Type,
                          methods: Sequence[str]) -> Type:
    """Generate the surrogate class for one interface typecode."""
    read_methods = reads_method_set(interface)
    fast_methods = fastlane_method_set(interface)
    writes = frozenset(methods) - read_methods if read_methods else frozenset()
    namespace = {
        "_surrogate_typecode_": typecode,
        "_fastlane_methods_": frozenset(fast_methods),
        "_lease_writes_": writes,
    }
    for name in methods:
        namespace[name] = (
            _make_read_method(name) if name in read_methods
            else _make_method(name, name in fast_methods, name in writes)
        )
    surrogate_cls = type(f"Surrogate[{typecode}]", (Surrogate,), namespace)
    register = getattr(interface, "register", None)
    if callable(register):
        # ABCMeta virtual subclassing: isinstance(surrogate, interface).
        register(surrogate_cls)
    return surrogate_cls
