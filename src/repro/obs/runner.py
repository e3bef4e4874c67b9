"""The ``observe`` harness: one instrumented cluster run, fully exported.

:func:`run_observe` builds a fat-tree cluster with **both** the tracer
and the metrics registry enabled, drives deterministic random scatter
traffic (the chaos campaign's :class:`TrafficDriver`), rides a
:class:`~repro.obs.sampler.Sampler` on the timing wheel, and returns

- a metrics report (:func:`~repro.obs.export.build_metrics_report`),
- a Chrome trace-event document
  (:func:`~repro.obs.export.build_chrome_trace`), and
- a small human-readable summary dict.

Everything is a pure function of the arguments: the same
``(seed, hosts, mode, ...)`` produces byte-identical JSON, which the
``obs-smoke`` CI job asserts by running the CLI twice and comparing.

This module imports the full cluster stack, so it is *not* re-exported
from :mod:`repro.obs` — importing it from the package ``__init__``
would create a cycle (simulator -> obs.registry -> ... -> simulator).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Tuple

from repro.chaos.campaign import TrafficDriver
from repro.chaos.schedule import ChaosInjector, ChaosSchedule
from repro.net.topology import TopologyParams, build_fat_tree
from repro.obs.export import build_chrome_trace, build_metrics_report
from repro.obs.sampler import DEFAULT_SAMPLE_INTERVAL_NS, Sampler
from repro.onepipe import OnePipeCluster, OnePipeConfig
from repro.sim import Simulator

# Sync fast enough that an observation window spans many sync epochs
# (matches the chaos campaign / verify harness choice).
OBSERVE_CLOCK_SYNC_NS = 250_000


def observe_topology_params(hosts: int) -> TopologyParams:
    """Fat-tree parameters for the requested host count.

    8 hosts is the verify harness's small 3-tier fabric; 32 hosts is the
    paper's testbed shape.  Anything else is rejected rather than
    silently rounded.
    """
    if hosts == 8:
        return TopologyParams(
            n_pods=2,
            tors_per_pod=2,
            spines_per_pod=1,
            n_cores=1,
            hosts_per_tor=2,
            clock_sync_interval_ns=OBSERVE_CLOCK_SYNC_NS,
        )
    if hosts == 32:
        return TopologyParams(clock_sync_interval_ns=OBSERVE_CLOCK_SYNC_NS)
    raise ValueError(f"unsupported host count {hosts}: expected 8 or 32")


def run_observe(
    seed: int,
    hosts: int = 8,
    mode: str = "chip",
    horizon_ns: int = 1_000_000,
    drain_ns: int = 1_000_000,
    sample_interval_ns: int = DEFAULT_SAMPLE_INTERVAL_NS,
    n_faults: int = 0,
    trace_limit: int = 200_000,
) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """Run one instrumented episode; return (metrics_report, trace, summary)."""
    sim = Simulator(seed=seed)
    # Enable in place BEFORE building the cluster: components cache the
    # tracer/registry objects at construction time.
    sim.tracer.enabled = True
    sim.tracer.limit = trace_limit
    sim.metrics.enabled = True
    # Pin the process-wide message-id counter so the run is byte-identical
    # regardless of what else ran in this Python process (same trick as
    # repro.verify.episodes.replay_episode).
    from repro.onepipe.sender import ProcessSender

    ProcessSender._msg_ids = itertools.count(1)

    topology = build_fat_tree(sim, observe_topology_params(hosts))
    cluster = OnePipeCluster(
        sim,
        n_processes=hosts,
        config=OnePipeConfig(mode=mode),
        topology=topology,
    )
    if n_faults > 0:
        schedule = ChaosSchedule.generate(
            sim.rng("observe.faults"),
            topology,
            horizon_ns,
            n_faults=n_faults,
        )
        ChaosInjector(cluster).apply(schedule)

    delivered = [0]
    for i in range(cluster.n_processes):
        cluster.endpoint(i).on_recv(
            lambda _msg: delivered.__setitem__(0, delivered[0] + 1)
        )
    driver = TrafficDriver(
        cluster,
        sim.rng("observe.traffic"),
        episode=0,
        start_ns=sim.now + 50_000,
        stop_ns=sim.now + horizon_ns,
    )

    sampler = Sampler(sim, interval_ns=sample_interval_ns)
    links = [topology.links[name] for name in sorted(topology.links)]
    receivers = [
        cluster.endpoint(i).receiver for i in range(cluster.n_processes)
    ]
    senders = [
        cluster.endpoint(i).sender for i in range(cluster.n_processes)
    ]
    sampler.add_probe(
        "probe.link_backlog_bytes",
        lambda: sum(link.queue_bytes for link in links),
    )
    sampler.add_probe(
        "probe.receiver_buffer_bytes",
        lambda: sum(r.buffer_bytes for r in receivers),
    )
    sampler.add_probe(
        "probe.sender_unacked",
        lambda: sum(len(s.unacked) for s in senders),
    )
    sampler.add_probe("probe.live_events", lambda: sim.live_events)
    sampler.start()

    sim.run(until=sim.now + horizon_ns + drain_ns)
    sampler.stop()
    sampler.sample_now()  # final snapshot at the horizon

    meta = {
        "seed": seed,
        "hosts": hosts,
        "mode": mode,
        "horizon_ns": horizon_ns,
        "drain_ns": drain_ns,
        "sample_interval_ns": sample_interval_ns,
        "n_faults": n_faults,
    }
    report = build_metrics_report(
        sim.metrics,
        sampler,
        meta=meta,
        sim_now_ns=sim.now,
        events_processed=sim.events_processed,
    )
    trace = build_chrome_trace(sim.tracer, sampler, meta=meta)
    summary = {
        "scatterings_sent": len(driver.records),
        "messages_delivered": delivered[0],
        "trace_records": len(sim.tracer.records),
        "trace_overflowed": sim.tracer.overflowed,
        "samples_taken": sampler.samples_taken,
        "counters": sim.metrics.counters_as_dict(),
    }
    return report, trace, summary
