"""Pinned root cause: late NAKs on a fault-free network (chip mode).

``ProgrammableChipEngine.on_packet`` stamps a packet's barrier when the
packet arrives at a switch, but the packet joins its egress queue only
after the 250 ns pipeline delay.  A packet arriving on the internal
up/down loopback skips that delay (``Switch.receive``), so it can be
stamped later yet enqueued earlier on the same egress link.  Its higher
best-effort barrier then reaches the receiver ahead of the delayed
packet, whose timestamp the barrier has passed: the receiver NAKs it as
late and the best-effort message fails.

The replay is the benchmark's ``bcast_a2a`` workload, seed 2, first
episode (simulator seed 4).  The counts pin today's behaviour; the fix
(stamp and enqueue in one event after the pipeline delay) changes
simulated outputs and will update them.  See docs/PROTOCOL.md.
"""

import collections

import pytest

from repro.net.link import Link
from repro.net.packet import PacketKind
from repro.net.switch import Switch
from repro.onepipe.receiver import ProcessReceiver

from perfbench import workloads

PINNED_LATE_NAKS = 15
PINNED_BARRIER_FALLS = 312

# One packet leaving a switch: when it arrived there and over which
# kind of link, the best-effort barrier it was stamped with, and when
# it joined the egress queue.
Egress = collections.namedtuple(
    "Egress", "pkt_id kind barrier arrived loopback enqueued"
)


@pytest.fixture(scope="module")
def replay():
    """Run the episode with taps on switch ingress, switch egress and
    the receivers' late check."""
    arrivals = {}
    egress = collections.defaultdict(list)
    late = []
    receive, send, on_message = (
        Switch.receive, Link.send, ProcessReceiver._on_message)

    def tap_receive(self, packet, in_link):
        arrivals[packet.pkt_id] = (
            self.sim.now, bool(getattr(in_link, "internal", False)))
        receive(self, packet, in_link)

    def tap_send(self, packet):
        if isinstance(self.src, Switch):
            arrived, loopback = arrivals.pop(packet.pkt_id, (None, None))
            egress[self].append(Egress(
                packet.pkt_id, packet.kind, packet.barrier_ts, arrived,
                loopback, self.sim.now))
        return send(self, packet)

    def tap_on_message(self, packet, entry, key):
        before = self.late_naks
        on_message(self, packet, entry, key)
        if self.late_naks > before:
            late.append((packet.pkt_id, packet.kind, entry.ts))

    with pytest.MonkeyPatch.context() as patch:
        # Class-level taps, installed before the build binds callbacks.
        patch.setattr(Switch, "receive", tap_receive)
        patch.setattr(Link, "send", tap_send)
        patch.setattr(ProcessReceiver, "_on_message", tap_on_message)
        inputs = workloads.make_inputs("bcast_a2a", 2)[0]
        assert inputs.sim_seed == 4
        wired = workloads.setup(inputs)
        wired.sim.run(until=inputs.horizon_ns)
    late_naks = sum(
        r.late_naks for r in (
            wired.cluster.endpoint(p).receiver for p in range(inputs.n_procs)))
    return egress, late, late_naks


def barrier_falls(egress):
    """Consecutive packets on a switch egress link whose best-effort
    barrier stamp goes down."""
    return [
        (prev, cur)
        for records in egress.values()
        for prev, cur in zip(records, records[1:])
        if cur.barrier < prev.barrier
    ]


def test_late_naks_are_best_effort(replay):
    _egress, late, late_naks = replay
    assert len(late) == late_naks == PINNED_LATE_NAKS
    assert {kind for _pkt, kind, _ts in late} == {PacketKind.DATA}


def test_every_barrier_fall_is_a_delayed_packet_behind_a_loopback_one(replay):
    egress, _late, _count = replay
    falls = barrier_falls(egress)
    assert len(falls) == PINNED_BARRIER_FALLS
    for prev, cur in falls:
        # The earlier packet skipped the pipeline (loopback), the later
        # one waited it out after arriving on an external link -- it
        # arrived first and was stamped first, but was enqueued second.
        assert prev.loopback is True, prev
        assert cur.loopback is False, cur
        assert cur.arrived < prev.arrived <= prev.enqueued < cur.enqueued


def test_each_late_nak_queued_behind_a_higher_loopback_stamp(replay):
    egress, late, _count = replay
    position = collections.defaultdict(list)
    for link, records in egress.items():
        for index, record in enumerate(records):
            position[record.pkt_id].append((link, index))
    for pkt_id, _kind, msg_ts in late:
        culprits = []
        for link, index in position[pkt_id]:
            delayed = egress[link][index]
            if delayed.loopback is not False:
                continue
            culprits += [
                ahead
                for ahead in egress[link][:index]
                if ahead.loopback
                and ahead.barrier > msg_ts
                and delayed.arrived < ahead.arrived
            ]
        assert culprits, f"late NAK of packet {pkt_id} has no loopback culprit"
