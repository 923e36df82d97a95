"""Shared fixtures and report plumbing for the benchmark suite.

Every experiment module (E1..E8, one per table/figure of the
evaluation — see DESIGN.md and EXPERIMENTS.md) gets:

* space-pair fixtures over each transport;
* a ``report`` helper that accumulates printable result rows and dumps
  them at the end of the session, so the numbers that belong in
  EXPERIMENTS.md appear even under output capture.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import pytest

from repro import NetObj, Space

_REPORT_ROWS = defaultdict(list)
_REPORT_METRICS = defaultdict(dict)


class Echo(NetObj):
    """The benchmark workhorse: null calls and payload echoes.

    ``nothing`` is annotated, so the E1 null-call rows exercise the
    full fast lane: typed frames, and — once its first worker runs
    have proven it fast — service on the reactor loop that reads it.
    """

    def nothing(self) -> None:
        return None

    def echo(self, value):
        return value

    def sum_list(self, numbers):
        return sum(numbers)


@pytest.fixture()
def report():
    """``report(experiment, row, **metrics)`` — collected and printed
    (and dumped as JSON) at session exit.

    Keyword arguments are machine-readable numbers for the run's
    ``BENCH_<runid>.json`` — name them with their unit as the suffix
    (``null_call_tcp_ns=...``, ``throughput_64KiB_mbps=...``) so the
    JSON is self-describing.
    """

    def add(experiment: str, row: str, **metrics) -> None:
        _REPORT_ROWS[experiment].append(row)
        if metrics:
            _REPORT_METRICS[experiment].update(metrics)

    return add


def _dump_json_report() -> Path:
    """Write BENCH_<runid>.json so perf is trackable across PRs.

    ``runid`` defaults to a UTC timestamp; set ``BENCH_RUNID`` to pin
    it (CI sets this to the PR/commit id).  ``BENCH_DIR`` overrides
    the output directory (default: the repo root, next to this file's
    parent).
    """
    runid = os.environ.get("BENCH_RUNID") or time.strftime(
        "%Y%m%dT%H%M%S", time.gmtime()
    )
    directory = Path(os.environ.get("BENCH_DIR", Path(__file__).parent.parent))
    payload = {
        "runid": runid,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": _machine_stamp(),
        "experiments": {
            experiment: {
                "rows": _REPORT_ROWS[experiment],
                "metrics": _REPORT_METRICS.get(experiment, {}),
            }
            for experiment in sorted(_REPORT_ROWS)
        },
    }
    path = directory / f"BENCH_{runid}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _machine_stamp() -> dict:
    """Where these numbers came from: without the core count, the
    interpreter and the commit, cross-run trajectories (BENCH_pr5 vs
    BENCH_pr6) compare apples to unknown fruit."""
    repo = Path(__file__).parent.parent
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    try:
        # A sha from a dirty worktree names code that was never
        # committed; flag it so such numbers are never trusted as the
        # commit's baseline.
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=repo, capture_output=True, text=True, timeout=10,
        ).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        dirty = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha,
        "dirty": dirty,
        # High-water mark of the whole bench process, in bytes.  The
        # overload experiment (E12) asserts *growth* against its own
        # before/after samples; this stamp records the session-level
        # ceiling so memory trajectories are comparable across PRs.
        "peak_rss_bytes": peak_rss_bytes(),
    }


def peak_rss_bytes() -> int:
    """The process's resident-set high-water mark, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS — normalise
    so the JSON reports never mix units across platforms.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    return int(peak)


def percentile(samples, fraction: float) -> float:
    """The ``fraction`` quantile of ``samples`` (nearest-rank).

    Tail latency is the load-shedding story's whole point: a mean
    hides the stalls that BUSY shedding exists to prevent, so the
    overload rows report p50/p99 through this one helper.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * len(ordered)) - 1))
    return ordered[rank]


def pytest_sessionfinish(session, exitstatus):
    if not _REPORT_ROWS:
        return
    out = sys.stderr
    out.write("\n" + "=" * 74 + "\n")
    out.write("EXPERIMENT RESULTS (paper-table reproductions)\n")
    out.write("=" * 74 + "\n")
    for experiment in sorted(_REPORT_ROWS):
        out.write(f"\n--- {experiment} ---\n")
        for row in _REPORT_ROWS[experiment]:
            out.write(row + "\n")
    try:
        path = _dump_json_report()
        out.write(f"\n[results written to {path}]\n")
    except OSError as exc:
        out.write(f"\n[could not write JSON report: {exc}]\n")
    out.write("\n")


@pytest.fixture()
def tcp_pair():
    # ``shm="off"`` on both sides: rows labelled "tcp" must measure
    # sockets, not the same-machine shm upgrade that would otherwise
    # kick in silently.
    server = Space("bench-server", listen=["tcp://127.0.0.1:0"], shm="off")
    client = Space("bench-client", shm="off")
    server.serve("echo", Echo())
    yield server, client
    client.shutdown()
    server.shutdown()


@pytest.fixture()
def shm_pair():
    """Same-machine pair whose loopback dial upgrades to the shm ring
    transport (asserted, so a silently broken upgrade can't relabel
    TCP numbers as shm)."""
    server = Space("bench-server", listen=["tcp://127.0.0.1:0"])
    client = Space("bench-client")
    server.serve("echo", Echo())
    yield server, client
    assert client.cache.stats()["upgraded_dials"] >= 1
    client.shutdown()
    server.shutdown()


@pytest.fixture()
def inproc_pair(request):
    endpoint = f"inproc://bench-{request.node.name}"
    server = Space("bench-server", listen=[endpoint])
    client = Space("bench-client")
    server.serve("echo", Echo())
    yield server, client
    client.shutdown()
    server.shutdown()
