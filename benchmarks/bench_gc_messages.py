"""E4 — Table 3: distributed-GC message overhead across algorithms.

For each workload (one import/drop cycle, the triangular third-party
handoff, fan-out to N clients, repeated churn), count the collector
messages each algorithm sends:

* Birrell base (counts straight off the abstract machine),
* the FIFO-channel variant (Section 5.1),
* the owner-optimised variant (Section 5.2),
* Lermen–Maurer, Weighted RC and Indirect RC (the related work of
  the comparison section).

The asserted shape: base ≥ FIFO ≥ owner-opt; decrement-only schemes
(WRC, IRC) cheapest; every algorithm collects the object at the end.
"""

import pytest

from repro.model.scenario import churn, fan_out, import_and_drop, third_party
from repro.model.variants import all_models

WORKLOADS = {
    "import+drop": (import_and_drop(), 2),
    "third-party": (third_party(), 3),
    "fan-out-8": (fan_out(8), 9),
    "churn-10": (churn(10), 2),
}


def count_messages(events, nprocs):
    rows = {}
    for model in all_models(nprocs):
        model.run(events)
        assert model.collected(), model.name
        rows[model.name] = (
            model.total_gc_messages(), dict(model.messages)
        )
    return rows


class TestGcMessageTable:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.benchmark(group="E4-gc-messages")
    def test_workload(self, benchmark, report, workload):
        events, nprocs = WORKLOADS[workload]
        rows = benchmark.pedantic(
            count_messages, args=(events, nprocs), rounds=1, iterations=1
        )
        report("E4 GC messages", f"[{workload}]")
        for name, (total, breakdown) in rows.items():
            report("E4 GC messages",
                   f"  {name:22s} {total:4d}  {breakdown}")

        base = rows["birrell"][0]
        fifo = rows["birrell-fifo"][0]
        opt = rows["birrell-owner-opt"][0]
        assert base >= fifo >= opt
        assert rows["weighted"][0] <= rows["lermen-maurer"][0]
        assert rows["indirect"][0] <= rows["lermen-maurer"][0]

    @pytest.mark.benchmark(group="E4-gc-messages")
    def test_per_cycle_costs(self, benchmark, report):
        """Per import/drop cycle: Birrell 5, FIFO 4, L&M 3 messages."""

        def run():
            rows = count_messages(import_and_drop(), 2)
            return {name: total for name, (total, _b) in rows.items()}

        totals = benchmark.pedantic(run, rounds=1, iterations=1)
        assert totals["birrell"] == 5
        assert totals["birrell-fifo"] == 4
        assert totals["lermen-maurer"] == 3
        assert totals["birrell-owner-opt"] == 1
        assert totals["weighted"] == 1
        assert totals["indirect"] == 1
        report("E4 GC messages",
               "per-cycle totals: " + str(totals))


class TestResurrectionAblation:
    @pytest.mark.benchmark(group="E4-gc-messages")
    def test_note4_cancellation_saves_a_full_cycle(self, benchmark, report):
        """Ablation of the Note-4 optimisation: a copy that arrives
        while the clean call is merely *scheduled* cancels it — the
        re-import costs one copy_ack instead of a clean/clean_ack/
        dirty/dirty_ack/copy_ack quintet."""
        from repro.model.scenario import ScenarioRun

        def run():
            # With cancellation: drop, then re-copy before the clean
            # daemon runs.
            fast = ScenarioRun(2)
            fast.copy(0, 1)
            baseline = fast.total_gc_messages()
            fast.drop(1, drain=False)     # clean scheduled, not sent
            fast.copy(0, 1)               # cancels it (resurrection)
            resurrect_cost = fast.total_gc_messages() - baseline

            # Without the window: the clean completes first, so the
            # re-import runs a full new life cycle.
            slow = ScenarioRun(2)
            slow.copy(0, 1)
            baseline = slow.total_gc_messages()
            slow.drop(1)                  # clean fully drains
            slow.copy(0, 1)
            full_cost = slow.total_gc_messages() - baseline
            return resurrect_cost, full_cost

        resurrect_cost, full_cost = benchmark.pedantic(
            run, rounds=1, iterations=1
        )
        assert resurrect_cost == 1   # just the copy_ack
        assert full_cost == 5        # clean, clean_ack, dirty, dirty_ack, copy_ack
        report("E4 GC messages",
               f"Note-4 ablation: re-import costs {resurrect_cost} msg "
               f"with cancellation vs {full_cost} without")


class TestBatchedCleans:
    @pytest.mark.benchmark(group="E4-gc-messages")
    def test_batched_vs_unit_clean_frames(self, benchmark, report):
        """100 surrogates dropped at once toward one owner: a default
        client folds the clean calls into CLEAN_BATCH frames, a client
        with batching off (``clean_batch_max=1``) ships one CLEAN +
        CLEAN_ACK per reclamation.  Batching must cut collector frames
        by ≥5x."""
        import gc as pygc
        import time

        from repro import GcConfig, NetObj, Space
        from repro.sim.network import NetworkModel
        from repro.transport.simulated import SimTransport
        from repro.wire import protocol

        class Maker(NetObj):
            def make(self, count: int):
                return [Token() for _ in range(count)]

        class Token(NetObj):
            def poke(self):
                return True

        def reclaim_frames(clean_batch_max):
            transport = SimTransport(NetworkModel(latency=0.0001))
            server = Space("owner", listen=["sim://owner"],
                           transports=[transport])
            client = Space("client", listen=["sim://client"],
                           transports=[transport],
                           gc=GcConfig(clean_batch_max=clean_batch_max))
            try:
                server.serve("maker", Maker())
                agent = client.import_object("sim://owner")
                maker = agent.get("maker")
                tokens = maker.make(100)
                assert all(t.poke() for t in tokens[:3])
                exported = server.stats()["gc"]["exported"]
                transport.network.reset_stats()
                del tokens
                pygc.collect()
                assert client.cleanup_daemon.wait_idle(30)
                deadline = time.time() + 10
                while time.time() < deadline:
                    if server.stats()["gc"]["exported"] == exported - 100:
                        break
                    time.sleep(0.01)
                assert server.stats()["gc"]["exported"] == exported - 100
                assert agent is not None and maker is not None
                tags = transport.stats.by_tag
                return sum(
                    tags.get(tag, 0)
                    for tag in (protocol.CLEAN, protocol.CLEAN_ACK,
                                protocol.CLEAN_BATCH,
                                protocol.CLEAN_BATCH_ACK)
                )
            finally:
                client.shutdown()
                server.shutdown()
                transport.shutdown()

        def run():
            return reclaim_frames(1), reclaim_frames(GcConfig().clean_batch_max)

        unit, batched = benchmark.pedantic(run, rounds=1, iterations=1)
        reduction = unit / batched
        report("E4 GC messages",
               f"100 reclamations to one owner: {unit} clean frames "
               f"unbatched, {batched} batched — "
               f"{reduction:.1f}x fewer",
               unit_clean_frames_per_100=unit,
               batched_clean_frames_per_100=batched,
               clean_frame_reduction_x=round(reduction, 1))
        assert reduction >= 5.0


class TestRuntimeAgreement:
    @pytest.mark.benchmark(group="E4-gc-messages")
    def test_real_runtime_matches_model(self, benchmark, report):
        """The *actual* runtime (threads + sockets) sends exactly the
        message counts the abstract machine predicts for one
        import/drop cycle: 1 dirty, 1 dirty_ack, 1 copy_ack, 1 clean,
        1 clean_ack on the wire."""
        import gc as pygc
        import time

        from repro import NetObj, Space
        from repro.sim.network import NetworkModel
        from repro.transport.simulated import SimTransport
        from repro.wire import protocol

        class Maker(NetObj):
            def make(self):
                return Token()

        class Token(NetObj):
            def poke(self):
                return True

        def run():
            transport = SimTransport(NetworkModel(latency=0.0001))
            server = Space("owner", listen=["sim://owner"],
                           transports=[transport])
            client = Space("client", listen=["sim://client"],
                           transports=[transport])
            try:
                server.serve("maker", Maker())
                # Hold the agent surrogate explicitly so its own clean
                # call does not land inside the measurement window.
                agent = client.import_object("sim://owner")
                maker = agent.get("maker")
                transport.network.reset_stats()  # ignore bootstrap
                token = maker.make()
                assert token.poke()
                del token
                pygc.collect()
                client.cleanup_daemon.wait_idle()
                deadline = time.time() + 5
                while time.time() < deadline:
                    tags = transport.stats.by_tag
                    if tags.get(protocol.CLEAN_ACK, 0) >= 1:
                        break
                    time.sleep(0.01)
                assert agent is not None and maker is not None
                return dict(transport.stats.by_tag)
            finally:
                client.shutdown()
                server.shutdown()
                transport.shutdown()

        tags = benchmark.pedantic(run, rounds=1, iterations=1)
        gc_counts = {
            "dirty": tags.get(protocol.DIRTY, 0),
            "dirty_ack": tags.get(protocol.DIRTY_ACK, 0),
            "copy_ack": tags.get(protocol.COPY_ACK, 0),
            "clean": tags.get(protocol.CLEAN, 0),
            "clean_ack": tags.get(protocol.CLEAN_ACK, 0),
        }
        report("E4 GC messages",
               f"runtime-on-the-wire (one cycle): {gc_counts}")
        assert gc_counts == {
            "dirty": 1, "dirty_ack": 1, "copy_ack": 1,
            "clean": 1, "clean_ack": 1,
        }
