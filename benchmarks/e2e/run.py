"""netbench: the cross-process, per-layer-attributed benchmark.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--trace [0|1]]

(and ``--seconds S``, which the benchmark driver passes with the
``run_seconds`` of ``BENCHMARK.json``; left out, that value is read
from the file, and nothing in this directory passes another.)

The owner ``Space`` runs in a child process; this process is the load
generator (at most two caller threads on two connections).  Every
result is verified.  Loopback only: no number here says anything about
a real link.

Output: one JSON report per workload (every metric by name with its
unit, per-second throughput, diagnostics), then — as the last line of
standard output when one workload was asked for — the result object of
the benchmark contract: ``correct``, ``attempted``, ``failed`` and
``metrics``, which holds the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) that ``BENCHMARK.json`` names.
Without ``--workload`` all five run and the output ends with this
commit's table of workload x end-to-end metric.

See README.md in this directory for the glossary.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]

if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit("netbench: src/repro is not in this checkout; "
             "there is nothing to measure")
sys.path[:0] = [str(REPO_ROOT / "src"), str(HERE)]

import time  # noqa: E402

import harness  # noqa: E402
import interfaces  # noqa: E402
import layers  # noqa: E402
from harness import Rig, Window, median, percentile  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import RUNG_RATES, WARMUP_S, WORKLOADS, Workload  # noqa: E402

#: Set-ups timed per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Measured windows an end-to-end run reports on.
WINDOWS = 4
#: Windows it measures at most, looking for ``WINDOWS`` in a row that
#: pass the workload's checks and the stability guard.
MAX_WINDOWS = 16


def load_contract() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json") as source:
        return json.load(source)


# -- end-to-end ------------------------------------------------------------------

def window_metrics(workload, window: Window) -> dict:
    latencies = sorted(window.latencies_of(workload.primary_kind))
    second = sorted(workload.second_latencies(window))
    good = window.completed - window.failed
    return {
        "ops_per_s": window.ops_per_s(),
        "op_p50_us": 1e6 * percentile(latencies, 50),
        "second_op_p50_us": 1e6 * percentile(second, 50),
        "cpu_ms_per_kop": 1e6 * window.cpu_s / max(1, good),
        "server_peak_rss_MiB": window.owner_peak_rss_KiB / 1024.0,
    }


def diagnostics(workload, window: Window) -> dict:
    """Printed, not bounded: too workload-specific or too noisy to be
    an end-to-end metric of every workload."""
    latencies = sorted(window.latencies_of(workload.primary_kind))
    out = {
        "samples": len(latencies),
        "second_op_samples": len(workload.second_latencies(window)),
        "op_p95_us": 1e6 * percentile(latencies, 95),
        "op_p99_us": 1e6 * percentile(latencies, 99),
        "op_p99.9_us": 1e6 * percentile(latencies, 99.9),
        "fail_ratio": window.failed / max(1, window.attempted),
        "errors": window.errors,
        "throughput_series": window.series(),
        "halves_differ_by": window.halves_differ_by(),
        "unstable": window.unstable(),
    }
    if len(workload.kinds) > 1:
        out["p50_us_by_kind"] = {}
        for index, kind in enumerate(workload.kinds):
            mine = sorted(window.latencies_of(index))
            if mine:
                out["p50_us_by_kind"][kind] = 1e6 * percentile(mine, 50)
    payload = workload.payload_bytes_per_op()
    if payload:
        out["goodput_MBps"] = payload * window.ops_per_s() / 1e6
    out.update(workload.diagnostics(window))
    return out


def judged(workload, windows) -> tuple:
    """The windows as one, and why they may not be reported: the
    workload's checks and the stability guard."""
    whole = harness.merged(windows)
    whole.extra = workload.merge_extra([w.extra for w in windows])
    problems = workload.checks(whole)
    if whole.unstable():
        problems.append("unstable: the halves of the throughput series "
                        "differ by more than 10 %")
    return whole, problems


def run_end_to_end(workload, seconds: float, env, owner_cpu) -> tuple:
    """``SETUP_REPEATS`` set-ups, a warm-up, then ``WINDOWS`` measured
    windows back to back.  Every metric is the median of its values in
    the windows: interference on this kind of VM comes in bursts of a
    second or two, and the median window leaves a burst out where the
    whole run's mean or p99 would absorb it.

    Four windows that fail a check (in practice: the host changed speed
    under them, so the halves of the series disagree) are not reported:
    the run measures on, a window at a time, until the last four pass
    or ``MAX_WINDOWS`` are spent.  The rule looks at agreement, never at
    how good the numbers are, and failed operations of every window
    measured stay in ``attempted`` and ``failed``."""
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        with Rig(workload, env, owner_cpu) as rig:
            setups.append(rig.setup_s)
    with Rig(workload, env, owner_cpu) as rig:
        setups.append(rig.setup_s)
        workload.warm_up(WARMUP_S)
        windows = [workload.run(rig, seconds / WINDOWS, part=part)
                   for part in range(WINDOWS)]
        whole, problems = judged(workload, windows)
        while problems and len(windows) < MAX_WINDOWS:
            windows.append(workload.run(rig, seconds / WINDOWS,
                                        part=len(windows)))
            whole, problems = judged(workload, windows[-WINDOWS:])
    per_window = [window_metrics(workload, window)
                  for window in windows[-WINDOWS:]]
    metrics = {"setup_s": median(setups)}
    for name in per_window[0]:
        metrics[name] = median([cell[name] for cell in per_window])
    whole.attempted = sum(window.attempted for window in windows)
    whole.failed = sum(window.failed for window in windows)
    report = {
        "end_to_end": metrics,
        "setup_samples_s": setups,
        "windows_measured": len(windows),
        "windows": per_window,
        "diagnostics": diagnostics(workload, whole),
    }
    return whole, metrics, report, problems


# -- traced ----------------------------------------------------------------------

def run_traced(workload, seconds: float, env, owner_cpu) -> tuple:
    """Every traced run reports every layer.  What the workload's own
    window does not exercise (streams, the collector, leases, the
    pickler's goodput) is measured on a short *side window* of the
    workload that does, against an owner of its own: no layer metric
    is ever a made-up 0."""
    tracer = Tracer(workload.name, workload.kinds, workload.callers)
    share = seconds / 4.0
    rung_seconds = seconds / (2.0 * len(RUNG_RATES))
    with Rig(workload, env, owner_cpu) as rig:
        workload.warm_up(WARMUP_S)
        plain = workload.run(rig, share)
        with layers.QueueMonitor(rig.owner.ready["endpoint"]) as monitor:
            window = workload.run(rig, share, tracer)
        metrics = workload.layer_metrics(window, rung_seconds)
        own = sorted(metrics)
        metrics.update(layers.isolated_legs(tracer, workload.seed))
        metrics.update(layers.owner_probes(tracer, rig.owner.ready))
    metrics.update(layers.window_counters(window))
    metrics["rpc.dispatcher_queued_peak"] = monitor.peak
    metrics["trace_overhead_ratio"] = window.ops_per_s() / plain.ops_per_s()
    rungs = workload.rungs
    side_problems = []
    for name, cls in WORKLOADS.items():
        # small_calls has no layer metric of its own to contribute.
        if name == workload.name:
            continue
        if cls.layer_metrics is Workload.layer_metrics:
            continue
        other = cls(workload.seed)
        with Rig(other, env, owner_cpu) as side:
            other.warm_up(WARMUP_S / 4.0)
            side_window = other.run(side, share / 2.0)
            metrics.update(other.layer_metrics(side_window, rung_seconds))
        rungs = rungs or other.rungs
        side_problems += [
            f"{name} side window: {problem}" for problem in
            side_window.errors + other.checks(side_window)]

    # One null call, taken apart: the measured legs plus what is left.
    null_codec_us = 1e6 * metrics.pop("_null_codec_s")
    breakdown = {
        "transport.tcp_echo_rtt_us": metrics["transport.tcp_echo_rtt_us"],
        "wire.frame_pack_64B x2 + frame_read_64B x2": 2e-3 * (
            metrics["wire.frame_pack_64B_ns"]
            + metrics["wire.frame_read_64B_ns"]),
        "rpc.msg_encode + msg_decode": 1e-3 * (
            metrics["rpc.msg_encode_ns"] + metrics["rpc.msg_decode_ns"]),
        "core.typecodes (no arguments, None result)": null_codec_us,
        "rpc.dispatch_handoff_us": metrics["rpc.dispatch_handoff_us"],
    }
    null_us = metrics["rpc.null_call_p50_us"]
    metrics["rpc.unattributed_us"] = null_us - sum(breakdown.values())
    metrics["rpc.overhead_ratio"] = (
        null_us / metrics["transport.tcp_echo_rtt_us"])
    breakdown["rpc.unattributed_us"] = metrics["rpc.unattributed_us"]
    breakdown["= rpc.null_call_p50_us"] = null_us

    spans_path = tracer.write(harness.OUT_DIR)
    report = {
        "per_layer": metrics,
        "null_call_breakdown_us": breakdown,
        "from_this_workloads_window": own,
        "rungs": rungs,
        "spans_file": str(spans_path),
        "spans": len(tracer.spans),
        "traced_window": diagnostics(workload, window),
    }
    problems = workload.checks(window) + side_problems
    return window, metrics, report, problems


# -- one run -----------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool,
            contract: dict, env, owner_cpu) -> tuple:
    workload = WORKLOADS[name](seed)
    if trace:
        window, metrics, report, problems = run_traced(
            workload, seconds, env, owner_cpu)
    else:
        window, metrics, report, problems = run_end_to_end(
            workload, seconds, env, owner_cpu)
    wanted = contract["per_layer" if trace else "end_to_end"]
    result = {
        "correct": window.failed == 0 and not problems,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]],
                             "unit": metric["unit"]}
            for metric in wanted
        },
    }
    report = {
        "workload": name,
        "why": next(w["why"] for w in contract["workloads"]
                    if w["name"] == name),
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "loop": workload.loop,
        "link": "loopback: tcp over 127.0.0.1",
        "checks_failed": problems,
        **report,
    }
    return result, report


def baseline_table(results: dict, contract: dict) -> str:
    names = [metric["name"] for metric in contract["end_to_end"]]
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    lines = ["this commit, one run per workload; claims no gain",
             "workload".ljust(18) + "".join(
                 f"{n} [{units[n]}]".rjust(26) for n in names)]
    for workload, result in results.items():
        lines.append(workload.ljust(18) + "".join(
            f"{result['metrics'][n]['value']:.4g}".rjust(26) for n in names))
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="the benchmark driver passes run_seconds of "
                             "BENCHMARK.json, which is also the default")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    args = parser.parse_args()

    contract = load_contract()
    seconds = (args.seconds if args.seconds is not None
               else float(contract["run_seconds"]))
    harness_cpu, owner_cpu = interfaces.plan_cpus()
    env = harness.run_environment()
    interfaces.pin(harness_cpu)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    started = time.perf_counter()
    try:
        for name in names:
            result, report = run_one(name, args.seed, seconds,
                                     bool(args.trace), contract, env,
                                     owner_cpu)
            report["pinned_cpus"] = {"harness": harness_cpu,
                                     "owner": owner_cpu}
            print(json.dumps(report, indent=1))
            results[name] = result
    finally:
        harness.remove_run_tmp()
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        for name, result in results.items():
            print(json.dumps({"workload": name, **result}))
        if not args.trace:
            print(baseline_table(results, contract))
    print(f"netbench: {time.perf_counter() - started:.1f} s",
          file=sys.stderr)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
