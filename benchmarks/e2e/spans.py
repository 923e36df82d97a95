"""Harness-side spans.

Spans are recorded from outside the program: a *root* span around each
operation a caller issues, *child* spans around the remote calls a
multi-call operation is made of, and *leg* spans around batches of a
layer's public functions replayed in isolation on the workload's own
inputs (``layers.py``).  Spans inside ``src/repro`` are a later issue.

Everything stays in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import List, Sequence

COLUMNS = ["name", "start_s", "end_s", "parent", "op", "count"]


class Tracer:
    def __init__(self, workload: str, kinds: Sequence[str], callers: int):
        self.workload = workload
        self.kinds = list(kinds)
        #: Sequence number of the operation each caller is inside; the
        #: closed loop advances it, child spans read it.
        self.current = [0] * callers
        self.spans: List[tuple] = []

    @staticmethod
    def op_id(caller: int, sequence: int) -> str:
        return f"{caller}:{sequence}"

    def add_roots(self, caller: int, kinds, starts, ends) -> None:
        """Root spans of one caller, from the loop's own timestamps."""
        for sequence, (kind, start, end) in enumerate(zip(kinds, starts, ends)):
            op = self.op_id(caller, sequence)
            self.spans.append(
                (f"op.{self.kinds[kind]}", start, end, None, op, 1)
            )

    @contextmanager
    def span(self, caller: int, name: str):
        """A child span of the operation ``caller`` is inside."""
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            op = self.op_id(caller, self.current[caller])
            self.spans.append((name, start, end, op, op, 1))

    @contextmanager
    def leg(self, name: str, count: int):
        """A batch of ``count`` replayed calls into one layer."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(
                (name, start, time.perf_counter(), "replay", None, count)
            )

    def write(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"trace-{self.workload}.json"
        with open(path, "w") as out:
            json.dump({
                "workload": self.workload,
                "note": "harness-side spans; parent 'replay' marks a layer "
                        "leg replayed in isolation after the window; a "
                        "child span's parent is its operation's root span",
                "columns": COLUMNS,
                "spans": self.spans,
            }, out)
        return path
