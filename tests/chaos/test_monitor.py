"""Tests for the live invariant monitor and the oracle verdict on live runs.

The monitor keeps the two checks only a live hook can make: I1
per-delivery order (with ``raise_immediately``) and I3 barrier
monotonicity.  Its negative tests hand it deliberately broken delivery
streams and barrier updates, which it must flag with violations that
name the replay seed.  The rest of the §2.1 contract belongs to the
reference oracle, checked here on the observation of real cluster runs:
clean runs must pass, and breaches injected into the observed trace
must be flagged.
"""

import pytest

from repro.chaos import InvariantMonitor, InvariantViolation
from repro.onepipe import OnePipeCluster
from repro.sim import Simulator
from repro.verify.episodes import SendOp, extract_observation
from repro.verify.oracle import ReferenceOracle


def build(seed=3, n=8):
    sim = Simulator(seed=seed)
    return sim, OnePipeCluster(sim, n_processes=n)


def observe(sends, until, seed=3):
    """Issue ``(at, src, entries, reliable)`` sends on a fresh traced
    cluster, run it to ``until``, and return the run's observation."""
    sim = Simulator(seed=seed)
    # Enable in place: endpoints cache the tracer at construction.
    sim.tracer.enabled = True
    cluster = OnePipeCluster(sim, n_processes=8)
    records = []

    def issue(at, src, entries, reliable):
        endpoint = cluster.endpoint(src)
        send = endpoint.reliable_send if reliable else endpoint.unreliable_send
        records.append((SendOp(at, src, reliable, tuple(entries)),
                        send(entries)))

    for send in sends:
        sim.schedule_at(send[0], issue, *send)
    sim.run(until=until)
    return extract_observation(sim, cluster, records)


def kinds(observation):
    return [d.kind for d in ReferenceOracle(observation).check()]


class TestCleanRuns:
    def test_no_violations_on_healthy_traffic(self):
        sends = []
        for t in range(20_000, 1_000_000, 20_000):
            for s in range(8):
                sends.append((t, s, [((s + 1) % 8, f"u{s}.{t}")], False))
                sends.append((t, s, [((s + 3) % 8, f"r{s}.{t}")], True))
        observation = observe(sends, until=1_000_000)
        assert kinds(observation) == []
        assert sum(map(len, observation.deliveries.values())) > 0
        assert observation.completions

    def test_counts_messages_and_scatterings(self):
        observation = observe([
            (1_000, 0, [(1, "a"), (2, "b"), (3, "c")], False),
            (1_000, 4, [(5, "d")], True),
        ], until=500_000)
        assert len(observation.completions) == 2
        assert len(observation.sends) == 4
        assert sum(map(len, observation.deliveries.values())) == 4
        assert kinds(observation) == []


class TestBrokenOrderingIsCaught:
    def test_out_of_order_delivery_names_the_seed(self):
        """An ordering layer that hands a receiver (ts=50) after (ts=100)
        must be flagged — this is the acceptance check for a broken
        total order."""
        sim, cluster = build(seed=99)
        monitor = InvariantMonitor(cluster)
        ep = cluster.endpoint(0)
        ep._dispatch_delivery(100, 2, "late", False)
        ep._dispatch_delivery(50, 1, "early", False)
        violations = [
            v for v in monitor.violations
            if v.invariant == "per_receiver_order"
        ]
        assert len(violations) == 1
        assert violations[0].seed == 99
        assert violations[0].receiver == 0
        assert "seed=99" in str(violations[0])

    def test_raise_immediately_raises_at_detection_point(self):
        sim, cluster = build(seed=41)
        InvariantMonitor(cluster, raise_immediately=True)
        ep = cluster.endpoint(2)
        ep._dispatch_delivery(100, 1, "x", False)
        with pytest.raises(InvariantViolation) as excinfo:
            ep._dispatch_delivery(10, 1, "y", False)
        assert excinfo.value.seed == 41
        assert excinfo.value.invariant == "per_receiver_order"

    def test_duplicate_delivery_is_caught(self):
        observation = observe([(1_000, 1, [(3, "dup")], True)],
                              until=500_000)
        trace = observation.deliveries[3]
        trace.append(trace[0])
        assert kinds(observation) == ["duplicate"]

    def test_fifo_inversion_is_caught(self):
        observation = observe([
            (1_000, 1, [(0, "first")], False),
            (5_000, 1, [(0, "second")], False),
        ], until=500_000)
        trace = observation.deliveries[0]
        trace.reverse()
        assert [d.payload for d in trace] == ["second", "first"]
        assert "pair_fifo" in kinds(observation)

    def test_cross_receiver_disagreement_is_caught(self):
        """Both receivers get m1 and m2; receiver 1 delivering them in
        the other order breaks O1, which implies agreement."""
        observation = observe([
            (1_000, 2, [(0, "m1"), (1, "m1")], False),
            (5_000, 3, [(0, "m2"), (1, "m2")], False),
        ], until=500_000)
        observation.deliveries[1].reverse()
        divergences = ReferenceOracle(observation).check()
        assert [(d.kind, d.receiver) for d in divergences] == [("order", 1)]

    def test_barrier_regression_is_caught(self):
        """A (deliberately broken) barrier tracker that assigns blindly
        instead of taking the max must be flagged by the monitor hook."""
        sim, cluster = build(seed=13)
        agent = cluster.endpoint(0).agent

        def buggy_update(be_barrier, commit_barrier):
            agent.rx_be_barrier = be_barrier
            agent.rx_commit_barrier = commit_barrier

        agent._update_barriers = buggy_update
        monitor = InvariantMonitor(cluster)
        agent._update_barriers(1000, 900)
        agent._update_barriers(400, 300)
        invariants = [v.invariant for v in monitor.violations]
        assert invariants.count("barrier_monotonic") == 2
        assert all(v.seed == 13 for v in monitor.violations)

    def test_violation_to_dict_is_json_ready(self):
        violation = InvariantViolation(
            invariant="per_receiver_order", detail="d", seed=7,
            time=123, episode=4, mode="chip", receiver=2,
        )
        assert violation.to_dict() == {
            "invariant": "per_receiver_order", "detail": "d", "seed": 7,
            "time": 123, "episode": 4, "mode": "chip", "receiver": 2,
        }


class TestFailureAwareChecks:
    def test_failure_cutoff_violation_detected(self):
        observation = observe([(1_000, 5, [(0, "zombie")], True)],
                              until=500_000)
        (delivery,) = observation.deliveries[0]
        # Receiver 0 was told to discard proc 5 from this very timestamp
        # before it delivered the message.
        observation.cutoff_notices[0] = [(delivery.time - 1, 5, delivery.ts)]
        assert kinds(observation) == ["failure_cutoff"]

    def test_delivery_below_cutoff_is_fine(self):
        observation = observe([(1_000, 5, [(0, "ok")], True)],
                              until=500_000)
        (delivery,) = observation.deliveries[0]
        observation.cutoff_notices[0] = [
            (delivery.time - 1, 5, delivery.ts + 1)]
        assert kinds(observation) == []

    def test_reliable_exactly_once_after_quiesce(self):
        observation = observe(
            [(1_000, 0, [(1, "must-arrive"), (2, "also")], True)],
            until=2_000_000)
        oracle = ReferenceOracle(observation)
        assert [m.payload for m in oracle.required_reliable(1)] == [
            "must-arrive"]
        assert oracle.check() == []

    def test_lost_completed_scattering_is_caught(self):
        observation = observe([(1_000, 0, [(1, "gone")], True)],
                              until=2_000_000)
        assert observation.completions == {0: True}
        # Pretend receiver 1 never delivered it.
        observation.deliveries[1] = []
        assert kinds(observation) == ["reliable_missing"]
