"""Gray-failure fault models: burst loss, degradation, stragglers, clocks.

These are the failures §2.1's crash-stop model does *not* cover; the
harness injects them and the total-order invariants must still hold.
"""

import pytest

from repro.chaos import Recorder
from repro.net.link import Link
from repro.net.packet import HEADER_OVERHEAD_BYTES, Packet, PacketKind
from repro.net.switch import Node
from repro.onepipe import OnePipeCluster, OnePipeConfig
from repro.sim import Simulator
from repro.verify.episodes import SendOp, extract_observation
from repro.verify.oracle import ReferenceOracle


class Sink(Node):
    def __init__(self, sim, node_id="sink"):
        super().__init__(sim, node_id)
        self.received = []

    def receive(self, packet, in_link):
        self.received.append((self.sim.now, packet))


def make_link(sim, sink, **kwargs):
    src = Sink(sim, "src")
    defaults = dict(
        bandwidth_gbps=80.0,  # 10 bytes/ns
        prop_delay_ns=100,
        queue_capacity_bytes=None,
        ecn_threshold_bytes=None,
    )
    defaults.update(kwargs)
    return Link(sim, "src->sink", src, sink, **defaults)


def data_packet(payload=1000 - HEADER_OVERHEAD_BYTES):
    return Packet(PacketKind.DATA, payload_bytes=payload)


class TestBurstLoss:
    def test_bursty_chain_drops_some_packets(self):
        sim = Simulator(seed=5)
        sink = Sink(sim)
        link = make_link(sim, sink)
        link.set_burst_loss(0.3, 0.3, loss_bad=1.0)
        for _ in range(200):
            link.send(data_packet())
        sim.run()
        assert link.dropped_burst > 0
        assert len(sink.received) == 200 - link.dropped_burst
        # Losses are bursty, not i.i.d.: with loss_bad=1.0 nothing is
        # dropped in the good state, so drops come in runs.
        assert 0 < len(sink.received) < 200

    def test_chain_visits_both_states(self):
        sim = Simulator(seed=6)
        link = make_link(sim, Sink(sim))
        link.set_burst_loss(0.5, 0.5)
        states = set()
        for _ in range(100):
            link._burst_drops()
            states.add(link.burst_state_bad)
        assert states == {False, True}

    def test_clear_burst_loss_restores_perfect_delivery(self):
        sim = Simulator(seed=7)
        sink = Sink(sim)
        link = make_link(sim, sink)
        link.set_burst_loss(1.0, 0.0, loss_bad=1.0)  # absorbing bad state
        link.send(data_packet())
        sim.run()
        assert sink.received == []
        link.clear_burst_loss()
        assert not link.burst_state_bad
        link.send(data_packet())
        sim.run()
        assert len(sink.received) == 1

    def test_probability_validation(self):
        sim = Simulator()
        link = make_link(sim, Sink(sim))
        with pytest.raises(ValueError):
            link.set_burst_loss(-0.1, 0.5)
        with pytest.raises(ValueError):
            link.set_burst_loss(0.5, 1.5)
        with pytest.raises(ValueError):
            link.set_burst_loss(0.5, 0.5, loss_bad=2.0)


class TestDegradation:
    def test_degraded_bandwidth_and_extra_delay(self):
        sim = Simulator()
        sink = Sink(sim)
        link = make_link(sim, sink)
        link.set_degradation(bandwidth_factor=0.5, extra_delay_ns=50)
        assert link.degraded
        link.send(data_packet())  # 1000 B / (10 * 0.5) = 200ns ser
        sim.run()
        assert [t for t, _ in sink.received] == [200 + 100 + 50]

    def test_clear_degradation_restores_nominal_timing(self):
        sim = Simulator()
        sink = Sink(sim)
        link = make_link(sim, sink)
        link.set_degradation(bandwidth_factor=0.25, extra_delay_ns=1000)
        link.clear_degradation()
        assert not link.degraded
        link.send(data_packet())
        sim.run()
        assert [t for t, _ in sink.received] == [200]

    def test_rejects_nonpositive_bandwidth_factor(self):
        link = make_link(Simulator(), Sink(Simulator()))
        with pytest.raises(ValueError):
            link.set_degradation(bandwidth_factor=0.0)
        with pytest.raises(ValueError):
            link.set_degradation(bandwidth_factor=-1.0)

    def test_rejects_negative_extra_delay(self):
        link = make_link(Simulator(), Sink(Simulator()))
        with pytest.raises(ValueError):
            link.set_degradation(extra_delay_ns=-5)


class TestStragglers:
    @pytest.mark.parametrize("mode", ["chip", "switch_cpu", "host_delegate"])
    def test_total_order_survives_a_straggling_switch(self, mode):
        sim = Simulator(seed=21)
        cluster = OnePipeCluster(
            sim, n_processes=8, config=OnePipeConfig(mode=mode)
        )
        rec = Recorder(cluster)
        engine = cluster.engines["tor0.0.up"]
        sim.schedule(200_000, engine.set_straggler, 5.0)
        sim.schedule(700_000, engine.set_straggler, 1.0)

        def traffic():
            for s in range(8):
                cluster.endpoint(s).unreliable_send(
                    [((s + 1) % 8, f"{s}.{sim.now}")]
                )

        sim.every(25_000, traffic)
        sim.run(until=1_500_000)
        assert rec.total_delivered() > 0
        rec.assert_per_receiver_order()
        rec.assert_pairwise_consistent_order()

    def test_straggler_factor_validation(self):
        sim = Simulator()
        cluster = OnePipeCluster(sim, n_processes=4)
        engine = cluster.engines["tor0.0.up"]
        with pytest.raises(ValueError):
            engine.set_straggler(0.0)
        with pytest.raises(ValueError):
            engine.set_straggler(-2.0)


class TestClockChaos:
    def build(self, seed=31, trace=False):
        sim = Simulator(seed=seed)
        # Enable in place: endpoints cache the tracer at construction.
        sim.tracer.enabled = trace
        cluster = OnePipeCluster(
            sim,
            n_processes=8,
            config=OnePipeConfig(),
        )
        return sim, cluster

    def test_order_survives_outage_and_steps(self):
        sim, cluster = self.build(trace=True)
        sync = cluster.topology.clock_sync
        sim.schedule(150_000, sync.inject_outage, 600_000)
        sim.schedule(300_000, sync.step_clock, "h3", 40_000)
        sim.schedule(400_000, sync.step_clock, "h5", -30_000)
        records = []

        def traffic():
            for s in range(8):
                entries = [((s + 3) % 8, f"{s}.{sim.now}")]
                records.append((
                    SendOp(sim.now, s, False, tuple(entries)),
                    cluster.endpoint(s).unreliable_send(entries),
                ))

        sim.every(25_000, traffic)
        sim.run(until=2_500_000)
        # The §2.1 reference oracle judges the whole run's trace.
        observation = extract_observation(sim, cluster, records)
        assert ReferenceOracle(observation).check() == []
        assert sum(map(len, observation.deliveries.values())) > 0
        assert sync.sync_outages == 1
        assert sync.clock_steps == 2

    def test_outage_skips_sync_epochs(self):
        sim = Simulator(seed=32)
        cluster = OnePipeCluster(sim, n_processes=4)
        sync = cluster.topology.clock_sync
        sim.schedule(100_000, sync.inject_outage, 3_000_000)
        sim.run(until=2_000_000)
        assert sync.in_outage
        assert sync.syncs_skipped > 0

    def test_negative_step_keeps_host_clock_monotonic(self):
        sim = Simulator(seed=33)
        cluster = OnePipeCluster(sim, n_processes=4)
        sync = cluster.topology.clock_sync
        clock = sync.clock("h2")
        before = clock.now()
        sync.step_clock("h2", -500_000)
        assert clock.now() >= before

    def test_outage_duration_validation(self):
        sim = Simulator()
        cluster = OnePipeCluster(sim, n_processes=4)
        with pytest.raises(ValueError):
            cluster.topology.clock_sync.inject_outage(0)
