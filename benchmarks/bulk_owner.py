"""The owner *process* of the bulk-stream experiments (E3, smoke gate).

Memory bounds and "the two processes overlap" are claims about two
processes, so the owner of the streams runs as a child: a ``Space``
serving one :class:`BulkDepot`, plus a raw frame blaster per transport
(no object layer) that gives the transfers their baseline — the rate
the transport itself moves bytes at.  Prints one JSON ready line, then
serves until stdin closes (so it ends with whoever started it).

    with BulkOwner(shm="off") as owner:
        depot = client.import_object(owner.endpoint, "depot")
"""

from __future__ import annotations

import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro import NetObj, Space
from repro.streams import ReaderStream, WriterStream, export_reader, export_writer
from repro.transport.shm import ShmTransport
from repro.transport.tcp import TcpTransport

#: Frame size of the raw baseline — netbench's ``transport.*_stream``
#: probes use the same, so the two are comparable.
RAW_FRAME = 64 * 1024

_BLOCK = bytes(range(256)) * 4096  # 1 MiB the synthetic file repeats


def expected_bytes(offset: int, count: int) -> bytes:
    """What a download holds at ``offset`` (spot checks)."""
    start = offset % len(_BLOCK)
    return (_BLOCK[start:] + _BLOCK)[:count]


class PatternFile(io.RawIOBase):
    """``size`` bytes of a repeating block, held nowhere: a download of
    any length costs the owner no memory of its own."""

    def __init__(self, size: int):
        super().__init__()
        self._left = size
        self._at = 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = min(len(buffer), self._left, len(_BLOCK) - self._at)
        buffer[:count] = _BLOCK[self._at:self._at + count]
        self._at = (self._at + count) % len(_BLOCK)
        self._left -= count
        return count


class CountingSink(io.RawIOBase):
    """Swallows an upload, keeping its length and its first bytes."""

    def __init__(self):
        super().__init__()
        self.total = 0
        self.head = b""

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        if not self.total:
            self.head = bytes(data[:64])
        self.total += len(data)
        return len(data)


def rss_MiB(reset_peak: bool = False) -> dict:
    """Resident set of this process now, and its high-water mark.
    ``reset_peak`` restarts the mark from the current value, so a
    later reading is the peak *of the interval*, where the kernel
    allows it."""
    if reset_peak:
        try:
            with open("/proc/self/clear_refs", "w") as refs:
                refs.write("5")
        except OSError:
            pass  # the mark then only ever rises; growth reads high
    fields = {}
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(("VmRSS:", "VmHWM:")):
                name, value = line.split(":")
                fields[name] = int(value.split()[0]) / 1024.0
    return {"rss": fields["VmRSS"], "peak": fields["VmHWM"]}


class BulkDepot(NetObj):
    _typecode_ = "benchmarks.BulkDepot"  # the child runs this as __main__

    def __init__(self):
        self._sink = CountingSink()

    def open_download(self, size: int) -> ReaderStream:
        return export_reader(PatternFile(size))

    def open_upload(self) -> WriterStream:
        self._sink = CountingSink()
        return export_writer(self._sink)

    def uploaded(self) -> tuple:
        return self._sink.total, self._sink.head

    def rss(self, reset_peak: bool = False) -> dict:
        return rss_MiB(reset_peak)


def _blast(channel) -> None:
    """Raw baseline server: a frame holding a byte count is answered
    with that many bytes in ``RAW_FRAME`` frames."""
    frame = bytes(RAW_FRAME)
    try:
        while True:
            request = channel.recv()
            if request is None:
                return
            (left,) = struct.unpack("!Q", request)
            while left > 0:
                channel.send(frame[:left] if left < RAW_FRAME else frame)
                left -= RAW_FRAME
    except Exception:  # noqa: BLE001 - the peer went away mid-blast
        return
    finally:
        channel.close()


def raw_stream_MBps(endpoint: str, size: int) -> float:
    """Pull ``size`` bytes from the owner's raw blaster at ``endpoint``."""
    transport = ShmTransport() if endpoint.startswith("shm") else TcpTransport()
    channel = transport.connect(endpoint)
    try:
        channel.send(struct.pack("!Q", size))
        start = time.perf_counter()
        left = size
        while left > 0:
            left -= len(channel.recv(timeout=30))
        return size / (time.perf_counter() - start) / 1e6
    finally:
        channel.close()


class BulkOwner:
    """Handle on the child process (context manager)."""

    def __init__(self, shm: str = "off"):
        self._shm = shm
        self._process = None
        self.endpoint = self.raw_tcp = self.raw_shm = ""

    def __enter__(self) -> "BulkOwner":
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root), env.get("PYTHONPATH", "")])
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), self._shm],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        ready = json.loads(self._process.stdout.readline())
        self.endpoint = ready["endpoint"]
        self.raw_tcp = ready["raw_tcp"]
        self.raw_shm = ready["raw_shm"]
        return self

    def __exit__(self, *exc_info) -> None:
        process = self._process
        process.stdin.close()
        try:
            process.wait(10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()


def main(shm: str) -> int:
    def on_connect(channel) -> None:
        threading.Thread(target=_blast, args=(channel,), daemon=True).start()

    raw_tcp = TcpTransport().listen("tcp://127.0.0.1:0", on_connect)
    raw_shm = ShmTransport().listen(
        "shm://" + os.path.join(
            tempfile.gettempdir(), f"bulk-owner-raw-{os.getpid()}.sock"),
        on_connect,
    )
    space = Space("bulk-owner", listen=["tcp://127.0.0.1:0"], shm=shm)
    try:
        space.serve("depot", BulkDepot())
        print(json.dumps({
            "endpoint": space.endpoints[0],
            "raw_tcp": raw_tcp.endpoint,
            "raw_shm": raw_shm.endpoint,
        }), flush=True)
        sys.stdin.buffer.read()
    finally:
        space.shutdown()
        raw_tcp.close()
        raw_shm.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
