"""The network object layer: the paper's programming model.

Applications subclass :class:`NetObj` to declare remote interfaces and
implementations; a :class:`Space` hosts objects, serves invocations and
imports references from other spaces.  Everything else in this package
(object tables, surrogates, typecodes, marshal contexts) is runtime
machinery behind those two names.
"""

from repro.core.netobj import NetObj, reads, remote_methods_of
from repro.core.surrogate import Surrogate
from repro.core.typecodes import (
    TypeRegistry, global_types, typechain, wiretypes,
)
from repro.core.objtable import ObjectTable
from repro.core.space import GcConfig, Space, async_call

__all__ = [
    "GcConfig",
    "async_call",
    "NetObj",
    "ObjectTable",
    "Space",
    "Surrogate",
    "TypeRegistry",
    "global_types",
    "reads",
    "remote_methods_of",
    "typechain",
    "wiretypes",
]
