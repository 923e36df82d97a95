"""Protocol constants: message tags and the protocol version.

The first byte of every frame payload is a message tag from this
module.  Tags 0x0x are connection management, 0x1x are mutator (RPC)
traffic, 0x2x are distributed-GC traffic.  The split mirrors the
paper's architecture: the collector's dirty/clean/ack traffic is
ordinary messages on the same channels as method invocations.
"""

from __future__ import annotations

#: Version 7: the bulk-data plane — credit-windowed stream frames
#: (STREAM_OPEN/DATA/CREDIT/END) that carry surrogate-stream bytes as
#: raw trailing payloads, no pickle and no per-chunk request.  Version
#: 6 added admission control — the BUSY shed frame, a reply that
#: tells the caller the request was refused (not failed) with a
#: retry-after hint.  Version 5 added the call fast lane — method-id
#: interning (CALL_BIND/CALL_BOUND), typed scalar argument/result
#: frames (CALL_FAST/RESULT_FAST) that bypass the pickler, and inline
#: reactor dispatch for ``@quick`` methods.  Version 4 added the
#: read-lease frames (LEASE_REQ .. LEASE_INVALIDATE_ACK).  Version 3
#: added CLEAN_BATCH/CLEAN_BATCH_ACK (batched collector traffic).
#: Version 2 introduced trailing pickles on CALL/RESULT (no varint
#: length prefix), enabling single-buffer encode.
PROTOCOL_VERSION = 7

#: Oldest version we still speak.  HELLO negotiates down to
#: ``min(ours, peer's)``; below this floor the handshake is rejected.
#: A v2 peer simply never sees a CLEAN_BATCH frame.
MIN_PROTOCOL_VERSION = 2

# --- connection management -------------------------------------------------
HELLO = 0x01          # handshake: protocol version + SpaceID + nickname
HELLO_ACK = 0x02      # handshake reply
BYE = 0x03            # orderly shutdown notice

# --- mutator (RPC) ---------------------------------------------------------
CALL = 0x10           # method invocation request
RESULT = 0x11         # successful completion, with pickled result
FAULT = 0x12          # remote exception, with kind/message/traceback

# --- call fast lane (v5) ---------------------------------------------------
CALL_BIND = 0x13      # first call through a binding: METHOD_BIND piggybacked
                      # on the CALL (method_id + wireRep + name + args pickle)
CALL_BOUND = 0x14     # steady-state bound call: call_id + method_id + pickle
CALL_FAST = 0x15      # bound call with typed scalar args (no pickle)
RESULT_FAST = 0x16    # typed scalar result (no pickle)

# --- admission control (v6) ------------------------------------------------
BUSY = 0x17           # request shed under overload: reason + retry-after hint

# --- distributed garbage collector ----------------------------------------
DIRTY = 0x20          # client registers itself in the owner's dirty set
DIRTY_ACK = 0x21      # owner acknowledges the dirty call
CLEAN = 0x22          # client leaves the owner's dirty set
CLEAN_ACK = 0x23      # owner acknowledges the clean call
COPY_ACK = 0x24       # receiver acknowledges receipt of a reference copy
PING = 0x25           # owner probes a client believed to hold surrogates
PING_ACK = 0x26       # client liveness reply
CLEAN_BATCH = 0x27    # several clean calls for one owner in one frame (v3)
CLEAN_BATCH_ACK = 0x28  # owner acknowledges a whole clean batch (v3)

# --- read leases (v4) ------------------------------------------------------
LEASE_REQ = 0x30        # client asks the owner for a read lease
LEASE_GRANT = 0x31      # owner's reply: lease id/ttl/version + state snapshot
LEASE_RENEW = 0x32      # client refreshes an expired/expiring lease
LEASE_RELEASE = 0x33    # client gives up a lease early (one-way)
LEASE_INVALIDATE = 0x34  # owner tells a holder its cached state is stale
LEASE_INVALIDATE_ACK = 0x35  # holder confirms it dropped the cached state

# --- bulk-data plane (v7) --------------------------------------------------
STREAM_OPEN = 0x40      # bind a stream id to a stream object's wireRep
STREAM_DATA = 0x41      # stream id + raw trailing bytes (no pickle)
STREAM_CREDIT = 0x42    # receiver grants the sender more byte credit
STREAM_END = 0x43       # producer: finished (ok/fault + total); consumer: cancel

_NAMES = {
    HELLO: "HELLO",
    HELLO_ACK: "HELLO_ACK",
    BYE: "BYE",
    CALL: "CALL",
    RESULT: "RESULT",
    FAULT: "FAULT",
    CALL_BIND: "CALL_BIND",
    CALL_BOUND: "CALL_BOUND",
    CALL_FAST: "CALL_FAST",
    RESULT_FAST: "RESULT_FAST",
    BUSY: "BUSY",
    DIRTY: "DIRTY",
    DIRTY_ACK: "DIRTY_ACK",
    CLEAN: "CLEAN",
    CLEAN_ACK: "CLEAN_ACK",
    COPY_ACK: "COPY_ACK",
    PING: "PING",
    PING_ACK: "PING_ACK",
    CLEAN_BATCH: "CLEAN_BATCH",
    CLEAN_BATCH_ACK: "CLEAN_BATCH_ACK",
    LEASE_REQ: "LEASE_REQ",
    LEASE_GRANT: "LEASE_GRANT",
    LEASE_RENEW: "LEASE_RENEW",
    LEASE_RELEASE: "LEASE_RELEASE",
    LEASE_INVALIDATE: "LEASE_INVALIDATE",
    LEASE_INVALIDATE_ACK: "LEASE_INVALIDATE_ACK",
    STREAM_OPEN: "STREAM_OPEN",
    STREAM_DATA: "STREAM_DATA",
    STREAM_CREDIT: "STREAM_CREDIT",
    STREAM_END: "STREAM_END",
}

#: Tags that belong to the distributed collector rather than the mutator.
GC_TAGS = frozenset({DIRTY, DIRTY_ACK, CLEAN, CLEAN_ACK, COPY_ACK, PING,
                     PING_ACK, CLEAN_BATCH, CLEAN_BATCH_ACK})

#: Tags of the v4 read-lease protocol.  Never emitted to a peer whose
#: negotiated version is below 4 — the surrogate silently falls back to
#: per-call RPC instead.
LEASE_TAGS = frozenset({LEASE_REQ, LEASE_GRANT, LEASE_RENEW, LEASE_RELEASE,
                        LEASE_INVALIDATE, LEASE_INVALIDATE_ACK})

#: Tags of the v5 call fast lane.  Never emitted to a peer whose
#: negotiated version is below 5 — calls toward such a peer stay
#: classic CALL/RESULT frames.
FASTLANE_TAGS = frozenset({CALL_BIND, CALL_BOUND, CALL_FAST, RESULT_FAST})

#: First protocol version that understands the BUSY shed frame.  To an
#: older peer an unknown tag is a protocol violation (the decoder
#: raises and the connection is torn down), so sheds toward pre-v6
#: peers travel as a FAULT with kind ``"ServerBusy"`` instead — every
#: version since the floor understands FAULT.
BUSY_VERSION = 6

#: Tags of the v7 bulk-data plane, and the first version that speaks
#: them.  Never emitted to an older peer — ``as_file`` on such a
#: connection keeps the per-chunk RPC refill/flush path.
STREAM_TAGS = frozenset({STREAM_OPEN, STREAM_DATA, STREAM_CREDIT, STREAM_END})
STREAM_VERSION = 7


def tag_name(tag: int) -> str:
    """Human-readable name of a message tag (for logs and errors)."""
    return _NAMES.get(tag, f"UNKNOWN(0x{tag:02x})")
