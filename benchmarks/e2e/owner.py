"""The owner process: one ``Space`` serving every benchmark object.

Started by :class:`interfaces.OwnerProcess`.  Prints one JSON ready
line (endpoints) on stdout, then serves until stdin closes — so it
ends with the harness even when the harness is killed.

Beside the ``Space`` it runs two *raw* listeners (tcp and shm) that
speak bare frames with no object layer, the paper's raw-RPC baseline
for the transport legs:

* first byte ``0x00`` — echo the frame back;
* first byte ``0x01`` — swallow the frame (one-way stream);
* first byte ``0x02`` — reply with the count of swallowed bytes, which
  tells the sender that everything before it was consumed.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys
import tempfile
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

ECHO, SINK, SYNC = 0, 1, 2


def raw_server(channel) -> None:
    swallowed = 0
    try:
        while True:
            frame = channel.recv()
            if frame is None:
                return
            kind = frame[0]
            if kind == ECHO:
                channel.send(frame)
            elif kind == SINK:
                swallowed += len(frame)
            else:
                channel.send(struct.pack("!Q", swallowed))
    except Exception:  # noqa: BLE001 - peer went away mid-frame
        return
    finally:
        channel.close()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cpu", type=int, default=-1)
    args = parser.parse_args()

    # Before any thread exists, so every thread inherits the pin.
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})

    from repro import Space
    from repro.transport.shm import ShmTransport
    from repro.transport.tcp import TcpTransport

    import interfaces

    def on_connect(channel) -> None:
        threading.Thread(target=raw_server, args=(channel,),
                         daemon=True).start()

    raw_tcp = TcpTransport().listen("tcp://127.0.0.1:0", on_connect)
    raw_shm_path = os.path.join(
        tempfile.gettempdir(), f"netbench-raw-{os.getpid()}.sock"
    )
    raw_shm = ShmTransport().listen(f"shm://{raw_shm_path}", on_connect)

    space = Space("owner", listen=["tcp://127.0.0.1:0"], shm="off")
    try:
        space.serve("echo", interfaces.Echo())
        space.serve("catalogs", interfaces.CatalogIndex())
        space.serve("probe_catalogs", interfaces.CatalogIndex())
        space.serve("directory", interfaces.Directory())
        space.serve("blobs", interfaces.BlobStore())
        space.serve("control", interfaces.Control(space))
        print(json.dumps({
            "endpoint": space.endpoints[0],
            "raw_tcp": raw_tcp.endpoint,
            "raw_shm": raw_shm.endpoint,
            "pid": os.getpid(),
        }), flush=True)
        sys.stdin.buffer.read()
    finally:
        space.shutdown()
        raw_tcp.close()
        raw_shm.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
