"""Shared fixtures and interfaces for the integration tests."""

from __future__ import annotations

import gc
import time
from typing import List

from repro import NetObj


class Counter(NetObj):
    """Minimal stateful network object."""

    def __init__(self, start: int = 0):
        self.n = start

    def increment(self, by: int = 1) -> int:
        self.n += by
        return self.n

    def value(self) -> int:
        return self.n


class Echo(NetObj):
    def echo(self, value):
        return value

    def fail(self, message: str):
        raise ValueError(message)


class Bank(NetObj):
    """Interface: clients may register only this, not the impl."""

    def deposit(self, account: str, amount: int) -> int:
        raise NotImplementedError

    def balance(self, account: str) -> int:
        raise NotImplementedError


class BankImpl(Bank):
    def __init__(self):
        self.accounts = {}

    def deposit(self, account: str, amount: int) -> int:
        self.accounts[account] = self.accounts.get(account, 0) + amount
        return self.accounts[account]

    def balance(self, account: str) -> int:
        return self.accounts.get(account, 0)

    def audit(self) -> dict:
        """Impl-only method, not part of the Bank interface."""
        return dict(self.accounts)


class Registry(NetObj):
    """Holds references handed to it — a remote reference sink."""

    def __init__(self):
        self.held: List = []

    def hold(self, ref) -> int:
        self.held.append(ref)
        return len(self.held)

    def fetch(self, index: int):
        return self.held[index]

    def drop_all(self) -> int:
        count = len(self.held)
        self.held.clear()
        gc.collect()
        return count

    def poke(self, index: int):
        """Invoke through a held reference (third-party use)."""
        return self.held[index].value()


def settle(*spaces, rounds: int = 10, pause: float = 0.02) -> None:
    """Give daemons and in-flight GC traffic time to quiesce."""
    for _ in range(rounds):
        gc.collect()
        for space in spaces:
            space.cleanup_daemon.wait_idle(timeout=1)
        time.sleep(pause)


def wait_until(predicate, timeout: float = 5.0, pause: float = 0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        gc.collect()
        time.sleep(pause)
    return predicate()


def handshake_idle_socket(endpoint: str):
    """Open a raw TCP socket to ``endpoint`` and complete the HELLO
    exchange by hand, leaving the server holding an idle inbound
    connection — the cheap way to stand up hundreds of connections
    without hundreds of client Spaces.  Returns the socket (caller
    closes it)."""
    import socket
    import struct

    from repro.rpc import messages
    from repro.wire.framing import pack_frame
    from repro.wire.ids import fresh_space_id
    from repro.wire.protocol import PROTOCOL_VERSION

    host, port = endpoint[len("tcp://"):].rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=10)
    hello = messages.Hello(
        fresh_space_id("idle"), "idle", PROTOCOL_VERSION, PROTOCOL_VERSION
    )
    sock.sendall(pack_frame(hello.encode()))

    def read_exact(need: int) -> bytes:
        data = b""
        while len(data) < need:
            chunk = sock.recv(need - len(data))
            assert chunk, "peer closed during handshake"
            data += chunk
        return data

    (length,) = struct.unpack("!I", read_exact(4))
    read_exact(length)  # the HELLO_ACK body, discarded
    return sock
