"""Pinned reproducer: chip mode breaks total order under a backward clock step.

32 processes on the paper testbed, ``cpu_ns_per_msg=1000``, ~50% load,
fan-out 4, 75% reliable, under the fault plan
``ChaosSchedule.generate(Random(1), testbed, 1_000_000, n_faults=4)``:
a -34,188 ns clock step on h21 at t=102,208 ns, a burst loss, a core0
flap and a clock outage.  The receivers deliver out of timestamp order,
which both the §2.1 reference oracle and the live invariant monitor
see.  The benchmark must report these breaches as ``violations`` and as
failed operations rather than abort or hide them.

The counts below pin today's behaviour of the protocol stack; the fix
of the breach belongs to its own change, which will update them.
"""

import dataclasses

from repro.chaos.monitor import InvariantMonitor
from repro.verify.episodes import extract_observation
from repro.verify.oracle import ReferenceOracle

from perfbench import workloads

# What the oracle and the invariant monitor report on the reproducer.
PINNED_DIVERGENCES = 6
PINNED_MONITOR_VIOLATIONS = 7


def reproducer():
    """``faults_chip`` seed 1, first episode, with the plan un-jittered."""
    episode = workloads.make_inputs("faults_chip", 1)[0]
    return dataclasses.replace(episode, faults=workloads.reference_fault_plan())


def test_reference_plan_is_the_clock_step_plan():
    steps = [e for e in workloads.reference_fault_plan() if e.kind == "clock_step"]
    assert [(e.at, e.target, e.params["step_ns"]) for e in steps] == [
        (102_208, "h21", -34_188)]
    assert sorted(e.kind for e in workloads.reference_fault_plan()) == [
        "burst_loss", "clock_outage", "clock_step", "switch_flap"]


def test_breach_is_seen_by_oracle_and_monitor():
    inputs = reproducer()
    wired = workloads.setup(inputs)
    monitor = InvariantMonitor(wired.cluster)
    wired.sim.run(until=inputs.horizon_ns)
    oracle = ReferenceOracle(
        extract_observation(wired.sim, wired.cluster, wired.records))
    divergences = oracle.check()
    assert {d.kind for d in divergences} == {"order"}
    assert len(divergences) == PINNED_DIVERGENCES
    # Each breach is a message from proc 21 (on the stepped host h21)
    # delivered after one its timestamp precedes.
    assert {oracle.expected_order(d.receiver)[d.index].src
            for d in divergences} == {21}
    monitor.final_check()
    assert monitor.summary() == {"per_receiver_order": PINNED_MONITOR_VIOLATIONS}


def test_benchmark_reports_breach_as_violations_and_failures():
    outcome = workloads.execute(reproducer()).outcome
    pooled = workloads.pool([outcome])
    assert outcome["divergence_kinds"] == ["order"]
    assert pooled["verify.divergences"] == PINNED_DIVERGENCES
    assert pooled["failed"] == (
        pooled["attempted"] - pooled["delivered"] + PINNED_DIVERGENCES)
    assert pooled["oracle_ok_frac"] == 1 - PINNED_DIVERGENCES / pooled["attempted"]
    # Every message is still accounted for.
    assert pooled["attempted"] == (
        pooled["delivered"] + pooled["refused"] + pooled["undelivered"])

