"""Protocol constants: message tags and the protocol version.

The first byte of every frame payload is a message tag from this
module.  Tags 0x0x are connection management, 0x1x are mutator (RPC)
traffic, 0x2x are distributed-GC traffic.  The split mirrors the
paper's architecture: the collector's dirty/clean/ack traffic is
ordinary messages on the same channels as method invocations.
"""

from __future__ import annotations

#: The one protocol version this runtime speaks.  Both HELLO version
#: fields carry it; a peer announcing anything lower is refused.
PROTOCOL_VERSION = 8

# --- connection management -------------------------------------------------
HELLO = 0x01          # handshake: protocol version + SpaceID + nickname
HELLO_ACK = 0x02      # handshake reply
BYE = 0x03            # orderly shutdown notice

# --- mutator (RPC) ---------------------------------------------------------
# 0x10 is retired (the unbound CALL of older versions): a peer sending
# it is disconnected as undecodable.
RESULT = 0x11         # successful completion, with pickled result
FAULT = 0x12          # remote exception, with kind/message/traceback

# --- calls: bound method ids and typed scalars ------------------------------
CALL_BIND = 0x13      # first call through a binding: METHOD_BIND piggybacked
                      # on the call (method_id + wireRep + name + args pickle)
CALL_BOUND = 0x14     # steady-state bound call: call_id + method_id + pickle
CALL_FAST = 0x15      # bound call with typed scalar args (no pickle)
RESULT_FAST = 0x16    # typed scalar result (no pickle)

# --- admission control -----------------------------------------------------
BUSY = 0x17           # request shed under overload: reason + retry-after hint

# --- distributed garbage collector ----------------------------------------
DIRTY = 0x20          # client registers itself in the owner's dirty set
DIRTY_ACK = 0x21      # owner acknowledges the dirty call
# 0x22/0x23 are retired (the unit CLEAN and its ack): every clean is a
# CLEAN_BATCH, a lone clean a batch of one.
COPY_ACK = 0x24       # receiver acknowledges receipt of a reference copy
PING = 0x25           # owner probes a client believed to hold surrogates
PING_ACK = 0x26       # client liveness reply
CLEAN_BATCH = 0x27    # clean calls for one owner (one or more) in one frame
CLEAN_BATCH_ACK = 0x28  # owner acknowledges a whole clean batch

# --- read leases -----------------------------------------------------------
LEASE_REQ = 0x30        # client asks the owner for a read lease
LEASE_GRANT = 0x31      # owner's reply: lease id/ttl/version + state snapshot
LEASE_RENEW = 0x32      # client refreshes an expired/expiring lease
LEASE_RELEASE = 0x33    # client gives up a lease early (one-way)
LEASE_INVALIDATE = 0x34  # owner tells a holder its cached state is stale
LEASE_INVALIDATE_ACK = 0x35  # holder confirms it dropped the cached state

# --- bulk-data plane -------------------------------------------------------
STREAM_OPEN = 0x40      # bind a stream id to a stream object's wireRep
STREAM_DATA = 0x41      # stream id + raw trailing bytes (no pickle)
STREAM_CREDIT = 0x42    # receiver grants the sender more byte credit
STREAM_END = 0x43       # producer: finished (ok/fault + total); consumer: cancel

#: Tag -> name, for every live tag above (retired tags have no constant).
_NAMES = {
    value: name for name, value in list(globals().items())
    if name.isupper() and type(value) is int and name != "PROTOCOL_VERSION"
}

#: Tags of the bulk-data plane.
STREAM_TAGS = frozenset({STREAM_OPEN, STREAM_DATA, STREAM_CREDIT, STREAM_END})


def tag_name(tag: int) -> str:
    """Human-readable name of a message tag (for logs and errors)."""
    return _NAMES.get(tag, f"UNKNOWN(0x{tag:02x})")
