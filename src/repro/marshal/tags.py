"""Type tags of the pickle format.

A pickled value is a single byte tag followed by tag-specific payload.
Container tags are followed by a count and their elements, recursively.
Memoizable values (containers, strings, byte strings, structs and
network objects) are assigned consecutive *memo ids* in the order their
tags are written; a later occurrence of the same value is written as
``REF <memo id>``.  Pickler and unpickler assign memo ids in lockstep,
so no ids appear on the wire except inside ``REF``.
"""

NONE = 0x00
TRUE = 0x01
FALSE = 0x02
INT_POS = 0x03      # uvarint
INT_NEG = 0x04      # uvarint of (-1 - value)
INT_BIG = 0x05      # uvarint byte-length + signed little-endian bytes
FLOAT = 0x06        # 8 bytes IEEE-754 big-endian
STR = 0x07          # uvarint byte-length + UTF-8 (memoized)
BYTES = 0x08        # uvarint length + raw (memoized)
BYTEARRAY = 0x09    # uvarint length + raw (memoized)
LIST = 0x0A         # uvarint count + items (memoized before items)
TUPLE = 0x0B        # uvarint count + items (memo slot reserved first)
DICT = 0x0C         # uvarint count + key/value pairs (memoized first)
SET = 0x0D          # uvarint count + items (memoized first)
FROZENSET = 0x0E    # uvarint count + items (memo slot reserved first)
REF = 0x0F          # uvarint memo id
STRUCT = 0x10       # type-name str-pickle + uvarint nfields + values
NETOBJ = 0x11       # uvarint length + handler-defined payload (memoized)

_NAMES = {
    value: name
    for name, value in list(globals().items())
    if isinstance(value, int) and not name.startswith("_")
}


def tag_name(tag: int) -> str:
    """Human-readable name of a pickle tag (diagnostics)."""
    return _NAMES.get(tag, f"0x{tag:02x}")


# -- limits of the format (not tags: defined after the name table) ------------

#: Maximum container-nesting depth.  Deeper graphs raise MarshalError /
#: UnmarshalError instead of exhausting the interpreter stack — which
#: matters twice over for the unpickler, whose input is remote data.
#: Both walkers spend one Python frame per level, so 256 stays well
#: under the default interpreter recursion limit.
MAX_DEPTH = 256

#: Strings/bytes longer than this skip by-value memoization: hashing a
#: large payload for the memo table costs more than re-encoding ever
#: saves, and bulk payloads are rarely repeated within one message.
#: (A memo id is still *burned* for them so the decoder, which assigns
#: ids positionally, stays in lockstep.)
MEMO_VALUE_LIMIT = 4096
