"""E5 — the safety/liveness claims, checked exhaustively.

The paper argues safety and liveness; the formalisation proves them.
This benchmark *enumerates every reachable configuration* of bounded
instances and evaluates all fourteen invariant checks in each — the
executable counterpart of the proof — and, as the negative control,
lets the same explorer find the naive-counting race.

Reported: state/transition counts, exploration rate, and the length
of the naive counterexample.
"""

import pytest

from repro.model import Machine, explore, initial_configuration
from repro.model.variants import (
    FifoMachine,
    NaiveMachine,
    fifo_violations,
    initial_fifo,
    initial_naive,
    naive_violations,
)

INSTANCES = [
    ("2p-2c", 2, 2),
    ("2p-3c", 2, 3),
    ("3p-2c", 3, 2),
    ("3p-3c", 3, 3),
]


class TestExhaustiveSafety:
    @pytest.mark.parametrize("label,nprocs,copies", INSTANCES)
    @pytest.mark.benchmark(group="E5-model-check")
    def test_birrell_instance(self, benchmark, report, label, nprocs, copies):
        config = initial_configuration(
            nprocs=nprocs, nrefs=1, copies_left=copies
        )
        result = benchmark.pedantic(
            explore, args=(config,),
            kwargs={"keep_traces": False},
            rounds=1, iterations=1,
        )
        assert result.ok, result.violations[0].messages
        report("E5 model check",
               f"birrell {label}: {result.summary()}")

    @pytest.mark.benchmark(group="E5-model-check")
    def test_fifo_variant(self, benchmark, report):
        result = benchmark.pedantic(
            explore,
            args=(initial_fifo(nprocs=3, copies_left=3),),
            kwargs={
                "machine": FifoMachine(),
                "checker": fifo_violations,
                "keep_traces": False,
            },
            rounds=1, iterations=1,
        )
        assert result.ok
        report("E5 model check", f"fifo 3p-3c: {result.summary()}")

    @pytest.mark.benchmark(group="E5-model-check")
    def test_naive_counterexample(self, benchmark, report):
        result = benchmark.pedantic(
            explore,
            args=(initial_naive(nprocs=3, copies_left=2),),
            kwargs={
                "machine": NaiveMachine(),
                "checker": naive_violations,
                "keep_traces": True,
            },
            rounds=1, iterations=1,
        )
        assert not result.ok, "naive counting should be unsafe!"
        trace = result.violations[0].trace
        report("E5 model check",
               f"naive RC: race found after {result.states} states, "
               f"counterexample length {len(trace)}:")
        for step in trace:
            report("E5 model check", f"    {step}")

    @pytest.mark.benchmark(group="E5-model-check")
    def test_faulty_model_with_seqnos(self, benchmark, report):
        """Section-6 extension: under message loss, spurious timeouts
        and clean retries, sequence numbers keep the algorithm safe
        and leak-free across every reachable configuration."""
        from repro.model.variants import (
            FaultyMachine,
            faulty_leak_violations,
            faulty_safety_violations,
            initial_faulty,
        )

        def checks(config):
            return (faulty_safety_violations(config)
                    + faulty_leak_violations(config))

        result = benchmark.pedantic(
            explore,
            args=(initial_faulty(nprocs=2, copies_left=2,
                                 losses_left=2, timeouts_left=2),),
            kwargs={"machine": FaultyMachine(), "checker": checks,
                    "keep_traces": False, "max_states": 3_000_000},
            rounds=1, iterations=1,
        )
        assert result.ok
        report("E5 model check",
               f"faulty+seqnos 2p-2c-2loss-2timeout: {result.summary()}")

    @pytest.mark.benchmark(group="E5-model-check")
    def test_faulty_model_without_seqnos(self, benchmark, report):
        """Negative control: drop the sequence numbers and the
        explorer finds both the leak and the duplicated-clean safety
        violation Birrell's §2 guard exists to prevent."""
        from repro.model.variants import (
            FaultyMachine,
            faulty_leak_violations,
            faulty_safety_violations,
            initial_faulty,
        )

        def run():
            leak = explore(
                initial_faulty(nprocs=2, copies_left=1, losses_left=1,
                               timeouts_left=1, use_seqnos=False),
                machine=FaultyMachine(),
                checker=faulty_leak_violations, keep_traces=True,
            )
            unsafe = explore(
                initial_faulty(nprocs=2, copies_left=2, losses_left=0,
                               timeouts_left=1, use_seqnos=False),
                machine=FaultyMachine(),
                checker=faulty_safety_violations, keep_traces=True,
            )
            return leak, unsafe

        leak, unsafe = benchmark.pedantic(run, rounds=1, iterations=1)
        assert not leak.ok and not unsafe.ok
        report("E5 model check",
               f"no-seqnos: leak found after {leak.states} states "
               f"(trace length {len(leak.violations[0].trace)}); "
               f"safety violation after {unsafe.states} states "
               f"(trace length {len(unsafe.violations[0].trace)})")

    @pytest.mark.benchmark(group="E5-model-check")
    def test_owner_opt_analysis(self, benchmark, report):
        """Section-5.2 analysis: the literal owner optimisation is
        unsafe even over FIFO channels (parallel sends to one client);
        the ack-promoting repair is safe over FIFO and still exhibits
        the paper's §5.2.2 race without ordering."""
        from repro.model.variants import (
            OwnerOptMachine,
            initial_owner_opt,
            owner_opt_violations,
        )

        def run():
            literal = explore(
                initial_owner_opt(nprocs=2, copies_left=2,
                                  ordered=True, repaired=False),
                machine=OwnerOptMachine(),
                checker=owner_opt_violations, keep_traces=True,
            )
            repaired = explore(
                initial_owner_opt(nprocs=3, copies_left=3,
                                  ordered=True, repaired=True),
                machine=OwnerOptMachine(),
                checker=owner_opt_violations, keep_traces=False,
                max_states=3_000_000,
            )
            unordered = explore(
                initial_owner_opt(nprocs=2, copies_left=2,
                                  ordered=False, repaired=True),
                machine=OwnerOptMachine(),
                checker=owner_opt_violations, keep_traces=True,
            )
            return literal, repaired, unordered

        literal, repaired, unordered = benchmark.pedantic(
            run, rounds=1, iterations=1
        )
        assert not literal.ok and repaired.ok and not unordered.ok
        report("E5 model check",
               f"owner-opt: literal spec UNSAFE even with FIFO "
               f"(counterexample length "
               f"{len(literal.violations[0].trace)}); ack-promoting "
               f"repair safe over {repaired.states} states; unordered "
               f"repair exhibits the §5.2.2 race (length "
               f"{len(unordered.violations[0].trace)})")

    @pytest.mark.benchmark(group="E5-model-check")
    @pytest.mark.parametrize("label,kwargs", [
        ("2p-2g-2w", dict(nprocs=2, grants_left=2, writes_left=2)),
        ("3p-2g-1w", dict(nprocs=3, grants_left=2, writes_left=1)),
    ])
    def test_leased_variant(self, benchmark, report, label, kwargs):
        """Protocol v4 read leases over the dirty sets: across every
        grant/invalidate/expire/CLEAN/crash interleaving, no replica
        is ever stale once the write completes, every lease holder is
        in pdirty, and quiescence leaves no leaked dirty-set entry."""
        from repro.model.variants import (
            LeasedMachine,
            initial_leased,
            leased_violations,
        )

        result = benchmark.pedantic(
            explore,
            args=(initial_leased(**kwargs),),
            kwargs={"machine": LeasedMachine(),
                    "checker": leased_violations, "keep_traces": False},
            rounds=1, iterations=1,
        )
        assert result.ok
        report("E5 model check", f"leased {label}: {result.summary()}")

    @pytest.mark.benchmark(group="E5-model-check")
    def test_leased_holder_write(self, benchmark, report):
        """Release-before-write: a holder that writes drops its replica
        and sends its release ahead of the write, over unordered
        channels — so the release may also arrive after the write and
        the owner invalidates the writer like any other holder.  All
        four lease invariants hold either way."""
        from repro.model.variants import (
            LeasedMachine,
            initial_leased,
            leased_violations,
        )

        result = benchmark.pedantic(
            explore,
            args=(initial_leased(nprocs=3, grants_left=2, writes_left=2),),
            kwargs={"machine": LeasedMachine(),
                    "checker": leased_violations, "keep_traces": False},
            rounds=1, iterations=1,
        )
        assert result.ok
        assert result.rule_counts["holder_write"] > 0
        assert result.rule_counts["deliver_write"] > 0
        report("E5 model check",
               f"leased, holder writes 3p-2g-2w: {result.summary()}")

    @pytest.mark.benchmark(group="E5-model-check")
    def test_leased_writer_trusted(self, benchmark, report):
        """Negative control: an owner that skips the writer's lease on
        trust, with the writer keeping its replica until the reply
        arrives, lets that replica outlive the completed write — the
        explorer reports the stale read."""
        from repro.model.variants import (
            LeasedMachine,
            initial_leased,
            leased_violations,
        )

        result = benchmark.pedantic(
            explore,
            args=(initial_leased(nprocs=2, grants_left=1, writes_left=1,
                                 trust_writer=True),),
            kwargs={"machine": LeasedMachine(),
                    "checker": leased_violations, "keep_traces": True},
            rounds=1, iterations=1,
        )
        assert not result.ok
        violation = result.violations[0]
        assert any(m.startswith("STALE-READ") for m in violation.messages)
        report("E5 model check",
               f"leased, writer trusted: stale read found after "
               f"{result.states} states (trace length "
               f"{len(violation.trace)})")

    @pytest.mark.benchmark(group="E5-model-check")
    def test_leased_without_dead_ids(self, benchmark, report):
        """Negative control: forget the dead-id set (invalidations
        that overtake an in-flight grant) and the explorer finds the
        orphaned-replica race mechanically — proof the runtime's
        ``LeaseCache._dead_ids`` is load-bearing, not defensive."""
        from repro.model.variants import (
            LeasedMachine,
            initial_leased,
            leased_violations,
        )

        result = benchmark.pedantic(
            explore,
            args=(initial_leased(nprocs=2, grants_left=1, writes_left=1,
                                 use_dead_ids=False),),
            kwargs={"machine": LeasedMachine(),
                    "checker": leased_violations, "keep_traces": True},
            rounds=1, iterations=1,
        )
        assert not result.ok
        report("E5 model check",
               f"leased, no dead-id set: race found after "
               f"{result.states} states (trace length "
               f"{len(result.violations[0].trace)})")

    @pytest.mark.benchmark(group="E5-model-check")
    def test_liveness_drain(self, benchmark, report):
        """Liveness: from 50 random mid-run states, collector-only
        transitions always drain to quiescence with empty dirty
        tables (Theorem 21)."""
        machine = Machine()

        def run():
            drained = 0
            for seed in range(50):
                config = initial_configuration(
                    nprocs=3, nrefs=1, copies_left=3
                )
                partial = machine.run_random(
                    config, seed=seed, max_steps=25,
                    require_quiescence=False,
                )
                # Drop everything, then drain.
                final = machine.run_random(partial, seed=seed)
                assert not final.tdirty
                assert not final.msgs
                drained += 1
            return drained

        drained = benchmark.pedantic(run, rounds=1, iterations=1)
        assert drained == 50
        report("E5 model check",
               f"liveness: {drained}/50 random schedules drained to "
               "quiescence with empty dirty tables")
