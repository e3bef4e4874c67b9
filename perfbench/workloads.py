"""The benchmark's three seeded 1Pipe workloads.

A workload run is one or more *episodes*, each a complete, independent
simulation.  Each episode is two steps:

1. :func:`make_inputs` turns ``(workload, seed)`` into explicit inputs:
   every sender's periodic schedule (interval, phase, and the list of
   scatterings it issues) plus the fault plan.  Nothing later draws
   randomness of its own; the program under test receives only these
   inputs and a simulator seed.
2. :func:`execute` builds the topology and cluster, arms the fault plan,
   drives the open-loop traffic with ``sim.every``, runs the traffic
   window plus a drain, extracts the observation and checks it with the
   §2.1 :class:`~repro.verify.oracle.ReferenceOracle`, and accounts for
   every message.  It returns an :class:`Execution` with the host time
   of each phase, the simulated outcome, and the per-layer counters read
   from public object attributes.

Only public entry points are called: ``build_testbed`` /
``build_fat_tree``, ``OnePipeCluster``, ``endpoint(i).reliable_send`` /
``unreliable_send`` / ``on_recv``, ``ChaosSchedule`` / ``ChaosInjector``,
``Simulator.run``, ``extract_observation`` and ``ReferenceOracle.check``.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Sequence, Tuple

from repro.chaos.schedule import ChaosInjector, ChaosSchedule, FaultEvent
from repro.net.topology import TopologyParams, build_fat_tree, build_testbed
from repro.onepipe import OnePipeCluster, OnePipeConfig
from repro.onepipe.sender import ProcessSender
from repro.sim import Simulator
from repro.verify.episodes import extract_observation
from repro.verify.oracle import ReferenceOracle

WORKLOADS = ("bcast_a2a", "fattree_k8", "faults_chip")

# Payload keys are ``send_index * KEY_STRIDE + dst``: unique per message
# and cheap to map back to the scattering that carried it.
KEY_STRIDE = 1024

# Upper bound on the delivery trace the oracle reads; a run that
# overflows it cannot be checked and fails loudly.
TRACE_LIMIT = 2_000_000

# The ``faults_chip`` fault plan is the one
# ``ChaosSchedule.generate(Random(1), testbed, 1 ms, n_faults=4)`` draws:
# a -34,188 ns clock step on h21, a burst loss on h19's uplink, a flap
# of core0 and a clock outage - the plan under which chip mode breaks
# total order.  Each episode moves every event by a seeded offset of up
# to FAULT_JITTER_NS.  Targets and magnitudes stay fixed because they
# set the severity: drawing whole plans per seed moved p50 by 2.9x and
# p99 by 2x between seeds, and re-drawing only the targets still moved
# p99 between plateaus at ~104 and ~150 us.
FAULT_SHAPE_SEED = 1
FAULT_HORIZON_NS = 1_000_000
FAULT_JITTER_NS = 10_000

# ``bcast_a2a`` runs as two shorter episodes rather than one 4 s one:
# the host-speed calibration brackets each episode (run.py), and the
# longer episode tracked this shared box's drift worse (10-run wall_s
# spread 0.21 against 0.05-0.12 for the 1.5-4 s episodes of the others).
BCAST_EPISODES = 2

# Even with the plan fixed, whether one lost reliable message needs a
# second retransmission (stalling the commit barrier for everyone) puts
# an episode's p99 on a ~104 us or a ~150 us plateau (~1 seed in 6).
# ``faults_chip`` therefore runs this many episodes and reports the
# median of their percentiles.
FAULT_EPISODES = 3


class BenchmarkError(RuntimeError):
    """The run's outputs failed one of the benchmark's own checks."""


@dataclass(frozen=True)
class Send:
    """One scattering: when it is due, who sends it, to whom, how."""

    at: int                      # simulated ns the send is due
    src: int
    reliable: bool
    dsts: Tuple[int, ...]
    index: int                   # global send index (payload key base)


@dataclass(frozen=True)
class Inputs:
    """Everything one episode feeds the program."""

    workload: str
    sim_seed: int
    topology: str                # "testbed" or "fattree_k8"
    n_procs: int
    config: Dict[str, object]    # OnePipeConfig keyword arguments
    interval_ns: int             # per-sender send period
    phases: Tuple[int, ...]      # per-sender first send time
    sends: Tuple[Tuple[Send, ...], ...]   # per sender, in due order
    window_ns: int               # all sends are due before this
    drain_ns: int                # simulated time after the window
    faults: Tuple[FaultEvent, ...] = ()

    @property
    def horizon_ns(self) -> int:
        return self.window_ns + self.drain_ns

    @property
    def n_messages(self) -> int:
        return sum(len(s.dsts) for per in self.sends for s in per)


def fattree_k8_params() -> TopologyParams:
    """Classic k=8 fat-tree: 8 pods of 4 ToRs and 4 spines, 16 cores,
    4 hosts per ToR (128 hosts)."""
    return TopologyParams(
        n_pods=8, tors_per_pod=4, spines_per_pod=4, n_cores=16,
        hosts_per_tor=4,
    )


def build_topology(sim: Simulator, kind: str):
    if kind == "testbed":
        return build_testbed(sim)
    if kind == "fattree_k8":
        return build_fat_tree(sim, fattree_k8_params())
    raise ValueError(f"unknown topology {kind!r}")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _periodic_sends(rng, n_procs: int, interval_ns: int, per_sender: int, pick):
    """Per-sender schedules: a seeded phase in [1, interval), then one
    scattering every ``interval_ns``; ``pick(src)`` draws its
    ``(reliable, dsts)``.  The first due time equals the phase because
    ``sim.every`` fires at ``phase + j * interval`` from t=0."""
    phases = tuple(rng.randrange(1, interval_ns) for _ in range(n_procs))
    index = itertools.count()
    sends = tuple(
        tuple(
            Send(phases[src] + k * interval_ns, src, *pick(src), next(index))
            for k in range(per_sender)
        )
        for src in range(n_procs)
    )
    return phases, sends


def make_inputs(workload: str, seed: int) -> Tuple[Inputs, ...]:
    """The episodes of ``workload`` at ``seed``: explicit send schedules
    and fault plans.  Same arguments, same inputs."""
    if workload == "bcast_a2a":
        return tuple(_bcast_a2a(seed, e) for e in range(BCAST_EPISODES))
    if workload == "fattree_k8":
        return (_fattree_k8(seed),)
    if workload == "faults_chip":
        return tuple(_faults_chip(seed, e) for e in range(FAULT_EPISODES))
    raise ValueError(f"unknown workload {workload!r}, expected {WORKLOADS}")


def _bcast_a2a(seed: int, episode: int) -> Inputs:
    # Fig. 8 traffic: every process broadcasts to all others at 90% of
    # the receivers' CPU (1 us per message), alternating reliable and
    # unreliable scatterings from a seeded parity.
    rng = random.Random(f"perfbench/bcast_a2a/{seed}/{episode}")
    n, cpu_ns, per_sender = 32, 1_000, 10
    interval = int(1e9 / (0.9 * (1e9 / cpu_ns) / n))
    parity = [rng.randrange(2) for _ in range(n)]
    turn = [0] * n

    def pick(src):
        turn[src] += 1
        return (turn[src] + parity[src]) % 2 == 0, tuple(
            d for d in range(n) if d != src)

    phases, sends = _periodic_sends(rng, n, interval, per_sender, pick)
    return Inputs("bcast_a2a", seed * BCAST_EPISODES + episode, "testbed", n,
                  {"cpu_ns_per_msg": cpu_ns},
                  interval, phases, sends, window_ns=per_sender * interval,
                  drain_ns=300_000)


def _fattree_k8(seed: int) -> Inputs:
    # Light scatter over 128 hosts on the analytic beacon fabric: the
    # periodic control plane, not the data, sets the cost.
    rng = random.Random(f"perfbench/fattree_k8/{seed}")
    n, interval, per_sender = 128, 50_000, 8

    def pick(src):
        dsts = rng.sample([d for d in range(n) if d != src], 2)
        return rng.random() < 0.5, tuple(dsts)

    phases, sends = _periodic_sends(rng, n, interval, per_sender, pick)
    return Inputs("fattree_k8", seed, "fattree_k8", n,
                  {"analytic_beacons": True}, interval, phases, sends,
                  window_ns=per_sender * interval, drain_ns=150_000)


def _faults_chip(seed: int, episode: int) -> Inputs:
    # 75% reliable fan-out-4 scatterings at ~50% of receiver CPU under
    # the clock-step fault plan: retransmission, NAK and failure
    # handling do the work.  Every message is settled (delivered or
    # given up) inside the drain: a 5 ms drain gives the same counts.
    rng = random.Random(f"perfbench/faults_chip/{seed}/{episode}")
    n, interval = 32, 8_000

    def pick(src):
        dsts = rng.sample([d for d in range(n) if d != src], 4)
        return rng.random() < 0.75, tuple(dsts)

    phases, sends = _periodic_sends(rng, n, interval,
                                    FAULT_HORIZON_NS // interval, pick)
    faults = ChaosSchedule([
        replace(event, at=event.at + rng.randint(-FAULT_JITTER_NS, FAULT_JITTER_NS))
        for event in reference_fault_plan()
    ]).events
    return Inputs("faults_chip", seed * FAULT_EPISODES + episode, "testbed",
                  n, {"cpu_ns_per_msg": 1_000}, interval, phases, sends,
                  window_ns=FAULT_HORIZON_NS, drain_ns=1_500_000,
                  faults=tuple(faults))


def reference_fault_plan() -> Tuple[FaultEvent, ...]:
    """The plan of the known clock-step order breach, as drawn."""
    topology = build_testbed(Simulator(seed=0))
    return tuple(ChaosSchedule.generate(
        random.Random(FAULT_SHAPE_SEED), topology, FAULT_HORIZON_NS,
        n_faults=4,
    ).events)


def schedules(episodes: Sequence[Inputs]) -> Tuple[tuple, tuple]:
    """(send schedule, fault schedule) of a run, as comparable data."""
    sends = tuple((e.sim_seed, e.interval_ns, e.phases, e.sends) for e in episodes)
    return sends, tuple(e.faults for e in episodes)


def check_seeding(workload: str, seed: int) -> Tuple[Inputs, ...]:
    """The run's episodes, after checking that the seed regenerates the
    same schedules and that the next seed gives different send
    schedules and, where the workload has faults, different faults."""
    episodes = make_inputs(workload, seed)
    sends, faults = schedules(episodes)
    if schedules(make_inputs(workload, seed)) != (sends, faults):
        raise BenchmarkError(f"{workload}: seed {seed} regenerated other inputs")
    other_sends, other_faults = schedules(make_inputs(workload, seed + 1))
    if other_sends == sends:
        raise BenchmarkError(f"{workload}: seeds {seed}, {seed + 1} share sends")
    if any(faults) and other_faults == faults:
        raise BenchmarkError(f"{workload}: seeds {seed}, {seed + 1} share faults")
    return episodes


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclass
class Execution:
    """One executed episode: host times, outcome, counters."""

    setup_s: float = 0.0
    run_s: float = 0.0
    wall_s: float = 0.0
    # Simulated outcome and per-layer counters: identical for identical
    # inputs, whatever the host does.
    outcome: Dict[str, object] = field(default_factory=dict)


@dataclass
class _Wired:
    sim: Simulator
    cluster: OnePipeCluster
    injector: ChaosInjector
    records: list          # (Send, Scattering) in issue order
    refused: list          # Sends the send buffer refused
    delivered: list        # (receiver, payload key, delivery time)


def _phase(spans, name: str):
    return spans.phase(name) if spans is not None else contextlib.nullcontext()


def setup(inputs: Inputs, spans=None) -> _Wired:
    """Build the topology and cluster, arm the faults, wire the traffic."""
    # Message ids come from a class-level counter; pin it so repeated
    # episodes in one process see identical ids (as verify's replay does).
    ProcessSender._msg_ids = itertools.count(1)
    sim = Simulator(seed=inputs.sim_seed)
    # The oracle reads the delivery trace; enable in place before build.
    sim.tracer.enabled = True
    sim.tracer.limit = TRACE_LIMIT
    with _phase(spans, "net.build"):
        topology = build_topology(sim, inputs.topology)
    with _phase(spans, "onepipe.build"):
        cluster = OnePipeCluster(
            sim, n_processes=inputs.n_procs,
            config=OnePipeConfig(**inputs.config), topology=topology,
        )
    with _phase(spans, "chaos.arm"):
        injector = ChaosInjector(cluster)
        if inputs.faults:
            injector.apply(ChaosSchedule(list(inputs.faults)))
    wired = _Wired(sim, cluster, injector, [], [], [])

    record = wired.delivered.append
    for proc in range(inputs.n_procs):
        cluster.endpoint(proc).on_recv(
            lambda message, proc=proc: record((proc, message.payload, sim.now)))

    for src, per in enumerate(inputs.sends):
        _drive(sim, cluster.endpoint(src), per, inputs, wired)
    return wired


def _drive(sim, endpoint, sends: Sequence[Send], inputs: Inputs, wired) -> None:
    """Issue ``sends`` from ``endpoint`` with one periodic task."""
    queue = iter(sends)

    def tick():
        op = next(queue, None)
        if op is None:
            task.cancel()
            return
        if op.at != sim.now:
            raise BenchmarkError(f"send {op.index} fired at {sim.now}, due {op.at}")
        entries = [(d, op.index * KEY_STRIDE + d) for d in op.dsts]
        send = endpoint.reliable_send if op.reliable else endpoint.unreliable_send
        scattering = send(entries)
        if scattering is None:
            wired.refused.append(op)
        else:
            wired.records.append((op, scattering))

    task = sim.every(inputs.interval_ns, tick, phase=inputs.phases[endpoint.proc_id])


def execute(inputs: Inputs, spans=None) -> Execution:
    """Set up, run, drain, check and account for one episode."""
    out = Execution()
    t0 = time.perf_counter()
    wired = setup(inputs, spans)
    t1 = time.perf_counter()
    wired.sim.run(until=inputs.horizon_ns)
    t2 = time.perf_counter()
    with _phase(spans, "verify.extract"):
        observation = extract_observation(wired.sim, wired.cluster, wired.records)
    with _phase(spans, "verify.check"):
        divergences = ReferenceOracle(observation).check()
    with _phase(spans, "bench.account"):
        out.outcome = account(inputs, wired, observation, divergences)
    out.setup_s = t1 - t0
    out.run_s = t2 - t1
    out.wall_s = time.perf_counter() - t0
    return out


def nearest_rank(sorted_values: Sequence[int], q: float) -> int:
    """The ``q``-quantile by the nearest-rank (ceiling) rule."""
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def account(inputs: Inputs, wired: _Wired, observation, divergences):
    """Check that every message is accounted for; return the simulated
    outcome with the per-layer counters.  Raises :class:`BenchmarkError`
    when the books do not balance."""
    sim, cluster = wired.sim, wired.cluster
    if sim.tracer.overflowed:
        raise BenchmarkError(f"delivery trace overflowed at {TRACE_LIMIT} records")

    due: Dict[int, int] = {}
    dst_of: Dict[int, int] = {}
    for per in inputs.sends:
        for op in per:
            for d in op.dsts:
                due[op.index * KEY_STRIDE + d] = op.at
                dst_of[op.index * KEY_STRIDE + d] = d
    attempted = len(due)
    n_sends = sum(len(per) for per in inputs.sends)
    if attempted != inputs.n_messages:
        raise BenchmarkError("payload keys collide")
    if len(wired.records) + len(wired.refused) != n_sends:
        raise BenchmarkError(
            f"{len(wired.records) + len(wired.refused)} sends issued, "
            f"the schedule has {n_sends}")
    refused = {op.index * KEY_STRIDE + d for op in wired.refused for d in op.dsts}

    latencies = []
    delivered = set()
    for receiver, key, when in wired.delivered:
        if dst_of.get(key) != receiver or key in delivered:
            continue  # fabricated or duplicate: the oracle reports it
        delivered.add(key)
        latencies.append(when - due[key])
    undelivered = sum(1 for key in due if key not in delivered and key not in refused)
    if attempted != len(delivered) + len(refused) + undelivered:
        raise BenchmarkError(
            f"attempted {attempted} != delivered {len(delivered)} + refused "
            f"{len(refused)} + undelivered {undelivered}")
    endpoints = cluster.endpoints
    receiver_delivered = sum(e.receiver.delivered_count for e in endpoints)
    traced = sum(len(t) for t in observation.deliveries.values())
    if not len(wired.delivered) == receiver_delivered == traced:
        raise BenchmarkError(
            f"delivery counts disagree: callbacks {len(wired.delivered)}, "
            f"receivers {receiver_delivered}, trace {traced}")
    latencies.sort()

    topology = cluster.topology
    links = topology.links.values()
    beacons = sum(a.beacons_sent for a in cluster.agents.values())
    beacons += sum(e.beacons_sent for e in cluster.engines.values())
    return {
        "attempted": attempted,
        "delivered": len(delivered),
        "refused": len(refused),
        "undelivered": undelivered,
        "verify.divergences": len(divergences),
        "divergence_kinds": sorted({d.kind for d in divergences}),
        "lat_p50_us": nearest_rank(latencies, 0.50) / 1e3,
        "lat_p99_us": nearest_rank(latencies, 0.99) / 1e3,
        "simulated_us": sim.now / 1e3,
        "sim.events": sim.events_processed,
        "net.link.tx_packets": sum(l.tx_packets for l in links),
        "net.link.tx_bytes": sum(l.tx_bytes for l in links),
        "net.link.drops": sum(
            l.dropped_overflow + l.dropped_corruption + l.dropped_burst
            + l.dropped_down for l in links),
        "net.link.ecn_marked": sum(l.ecn_marked for l in links),
        "net.switch.rx_packets": sum(
            s.rx_packets for s in topology.switches.values()),
        "onepipe.sender.messages_sent": sum(
            e.sender.messages_sent for e in endpoints),
        "onepipe.sender.reliable_messages": sum(
            len(s.msgs) for op, s in wired.records if op.reliable),
        "onepipe.sender.retransmissions": sum(
            e.sender.retransmissions for e in endpoints),
        "onepipe.sender.send_failures": sum(
            e.sender.send_failures for e in endpoints),
        "onepipe.sender.refused": len(refused),
        "onepipe.receiver.delivered": receiver_delivered,
        "onepipe.receiver.out_of_order_arrivals": sum(
            e.receiver.out_of_order_arrivals for e in endpoints),
        "onepipe.receiver.late_naks": sum(e.receiver.late_naks for e in endpoints),
        "onepipe.receiver.duplicates": sum(e.receiver.duplicates for e in endpoints),
        "onepipe.receiver.max_buffer_bytes": max(
            e.receiver.max_buffer_bytes for e in endpoints),
        "onepipe.receiver.discarded_on_failure": sum(
            e.receiver.discarded_on_failure for e in endpoints),
        "onepipe.beacons": beacons,
        "onepipe.fabric.fallback_beacons": (
            cluster.fabric.fallback_beacons if cluster.fabric is not None else 0),
        "chaos.faults_applied": sum(
            1 for _t, action, _target in wired.injector.log
            if not action.endswith((".stop", ".up"))),
    }


def pool(outcomes: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Combine the outcomes of a run's episodes: counts add up, the
    buffer high-water mark is the largest, latency percentiles are the
    median over episodes; then derive the fractions and ratios."""
    pooled: Dict[str, object] = {}
    for key, value in outcomes[0].items():
        values = [o[key] for o in outcomes]
        if key == "divergence_kinds":
            pooled[key] = sorted(set().union(*values))
        elif key.startswith("lat_"):
            pooled[key] = statistics.median(values)
        elif key == "onepipe.receiver.max_buffer_bytes":
            pooled[key] = max(values)
        else:
            pooled[key] = sum(values)
    attempted = pooled["attempted"]
    delivered = pooled["delivered"]
    pooled["lat_samples"] = delivered
    pooled["delivered_frac"] = delivered / attempted
    pooled["undelivered_frac"] = (attempted - delivered) / attempted
    violations = pooled["verify.divergences"]
    pooled["oracle_ok_frac"] = 1 - violations / attempted
    # Failed operations: messages not delivered plus divergences.
    pooled["failed"] = attempted - delivered + violations
    pooled["net.packets_per_delivery"] = pooled["net.link.tx_packets"] / delivered
    pooled["onepipe.beacons_per_delivery"] = pooled["onepipe.beacons"] / delivered
    reliable = pooled["onepipe.sender.reliable_messages"]
    pooled["onepipe.rtx_per_reliable"] = (
        pooled["onepipe.sender.retransmissions"] / reliable if reliable else 0.0)
    return pooled
