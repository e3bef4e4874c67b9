"""Seeded chaos campaigns over the 1Pipe cluster.

A campaign is N independent *episodes*.  Episode ``i`` builds a fresh
simulator from the deterministic episode seed ``seed * 1_000_003 + i``
with its delivery trace enabled, brings up a full testbed cluster in
incarnation ``MODES[i % 3]``, arms a seeded
:class:`~repro.chaos.schedule.ChaosSchedule`, and drives random scatter
traffic through the fault window plus a drain period.  At the end the
§2.1 reference oracle (:class:`~repro.verify.oracle.ReferenceOracle`,
O1–O6, plus its attack-mode rules when the schedule plants ``byz_*``
adversaries) judges the trace, and the episode's outcome (faults,
divergences, delivery/recovery statistics) is folded into a JSON report.

Everything is derived from named :meth:`Simulator.rng` streams, so a
campaign report is a pure function of ``(seed, episodes, knobs)`` —
running the same command twice produces byte-identical JSON, and any
violation can be replayed from the episode seed it names.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Any, Dict, List, Sequence

from repro.chaos.schedule import ChaosInjector, ChaosSchedule
from repro.consensus.raft import RaftGroup, RaftReplicator
from repro.net.topology import build_testbed
from repro.obs.export import metrics_summary
from repro.onepipe import OnePipeCluster, OnePipeConfig
from repro.onepipe.config import MODES
from repro.onepipe.sender import ProcessSender
from repro.parallel import run_ordered
from repro.sim import Simulator
from repro.verify.oracle import ADVERSARY_CLAUSES

# repro.verify.episodes and repro.verify.runner import this package's
# fault schedule, so they are imported where used, not here.

# Sync every 250 us instead of the paper's 125 ms so clock outages and
# step faults interact with multiple sync epochs inside an episode.
EPISODE_CLOCK_SYNC_NS = 250_000
RAFT_ELECTION_WARMUP_NS = 2_000_000


class TrafficDriver:
    """Deterministic random scatter traffic from a named rng stream.

    Every ``interval_ns`` a few live processes each send one scattering
    (reliable or best-effort, coin-flipped) to distinct destinations.
    Processes the controller has declared failed stop sending — the
    failure callback kills the real application too (§5.2 Callback).
    Payloads embed (episode, sender, sequence, destination) so they are
    globally unique.  Every send call is kept in :attr:`records` as a
    ``(SendOp, Scattering)`` pair (``None`` when the send was refused),
    the input :func:`~repro.verify.episodes.extract_observation` needs.
    """

    def __init__(
        self,
        cluster,
        rng,
        episode: int,
        start_ns: int,
        stop_ns: int,
        interval_ns: int = 25_000,
        senders_per_round: int = 3,
        max_fanout: int = 3,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.rng = rng
        self.episode = episode
        self.stop_ns = stop_ns
        self.interval_ns = interval_ns
        self.senders_per_round = senders_per_round
        self.max_fanout = max_fanout
        self._seq = 0
        self.records: List[tuple] = []
        self.sim.schedule_at(start_ns, self._round)

    def _round(self) -> None:
        from repro.verify.episodes import SendOp

        if self.sim.now >= self.stop_ns:
            return
        cluster = self.cluster
        n = cluster.n_processes
        failed = set()
        if cluster.controller is not None:
            failed.update(cluster.controller.failed_procs)
        alive = [
            i for i in range(n)
            if i not in failed
            and not cluster.endpoint(i).closed
            and not cluster.endpoint(i).agent.host.failed
        ]
        senders = self.rng.sample(
            alive, min(self.senders_per_round, len(alive))
        )
        for src in senders:
            fanout = self.rng.randint(2, self.max_fanout)
            peers = [d for d in range(n) if d != src]
            dsts = self.rng.sample(peers, min(fanout, len(peers)))
            self._seq += 1
            entries = [
                (dst, f"e{self.episode}.p{src}.q{self._seq}.d{dst}")
                for dst in dsts
            ]
            endpoint = cluster.endpoint(src)
            reliable = self.rng.random() < 0.5
            send = endpoint.reliable_send if reliable else endpoint.unreliable_send
            op = SendOp(self.sim.now, src, reliable, tuple(entries))
            self.records.append((op, send(entries)))
        self.sim.schedule(self.interval_ns, self._round)


class CampaignRunner:
    """Run a seeded chaos campaign and produce a deterministic report."""

    def __init__(
        self,
        seed: int,
        episodes: int,
        modes: Sequence[str] = MODES,
        n_processes: int = 16,
        horizon_ns: int = 1_500_000,
        drain_ns: int = 2_500_000,
        faults_per_episode: int = 4,
        use_raft: bool = False,
        metrics: bool = False,
        adversarial: bool = False,
        analytic_beacons: bool = False,
        jobs: int = 1,
        progress=None,
    ) -> None:
        self.seed = seed
        self.episodes = episodes
        self.modes = tuple(modes)
        self.n_processes = n_processes
        self.horizon_ns = horizon_ns
        self.drain_ns = drain_ns
        self.faults_per_episode = faults_per_episode
        self.use_raft = use_raft
        self.metrics = metrics
        self.adversarial = adversarial
        # Virtual beacon fabric (repro.onepipe.analytic).  Exact by
        # construction, so episode reports are byte-identical either
        # way — which is precisely why the flag never enters the report
        # (and why CI can diff the two).  Off by default: chaos runs
        # keep event-level beacons unless asked.
        self.analytic_beacons = analytic_beacons
        self.jobs = jobs
        self.progress = progress

    # ------------------------------------------------------------------
    def episode_seed(self, index: int) -> int:
        return self.seed * 1_000_003 + index

    def run_episode(self, index: int) -> Dict[str, Any]:
        episode_seed = self.episode_seed(index)
        mode = self.modes[index % len(self.modes)]
        sim = Simulator(seed=episode_seed)
        # Enable in place before any component is built (components
        # cache the tracer and registry objects at construction time).
        sim.tracer.enabled = True
        if self.metrics:
            sim.metrics.enabled = True
        # Divergence details quote message ids, which come from a
        # process-wide counter: pin it so a report never depends on
        # what ran earlier in this Python process.
        ProcessSender._msg_ids = itertools.count(1)

        raft_group = None
        replicator = None
        if self.use_raft:
            raft_group = RaftGroup(sim, n_nodes=3)
            sim.run(until=RAFT_ELECTION_WARMUP_NS)
            replicator = RaftReplicator(raft_group)

        topology = build_testbed(
            sim, clock_sync_interval_ns=EPISODE_CLOCK_SYNC_NS
        )
        cluster = OnePipeCluster(
            sim,
            n_processes=self.n_processes,
            config=OnePipeConfig(
                mode=mode, analytic_beacons=self.analytic_beacons
            ),
            topology=topology,
            replicator=replicator,
        )
        schedule = ChaosSchedule.generate(
            sim.rng(f"chaos.schedule.{index}"),
            topology,
            self.horizon_ns,
            n_faults=self.faults_per_episode,
            allow_partition=self.use_raft,
            adversarial=self.adversarial,
        )
        injector = ChaosInjector(cluster, raft_group=raft_group)
        injector.apply(schedule)
        traffic = TrafficDriver(
            cluster,
            sim.rng(f"chaos.traffic.{index}"),
            episode=index,
            start_ns=sim.now + 100_000,
            stop_ns=sim.now + self.horizon_ns,
        )
        sim.run(until=sim.now + self.horizon_ns + self.drain_ns)
        return self._episode_report(
            index, mode, episode_seed, cluster, schedule, traffic.records
        )

    def _episode_report(
        self, index, mode, episode_seed, cluster, schedule, records
    ) -> Dict[str, Any]:
        from repro.verify.episodes import extract_observation
        from repro.verify.runner import verdict

        observation = extract_observation(cluster.sim, cluster, records)
        divergences = verdict(observation, schedule, episode_seed, index, mode)
        topology = cluster.topology
        controller = cluster.controller
        receivers = [
            cluster.endpoint(i).receiver
            for i in range(cluster.n_processes)
        ]
        recoveries: List[Dict[str, Any]] = []
        failed_procs: List[List[int]] = []
        if controller is not None:
            failed_procs = [
                [proc, ts] for proc, ts in sorted(controller.failed_procs.items())
            ]
            for record in controller.recoveries:
                detect = (
                    record.determine_time - record.first_report_time
                    if record.determine_time is not None else None
                )
                total = (
                    record.resume_time - record.first_report_time
                    if record.resume_time is not None else None
                )
                recoveries.append({
                    "detection_ns": detect,
                    "recovery_ns": total,
                    "failed_procs": sorted(p for p, _ts in record.failed_procs),
                    "dead_links": len(record.dead_links),
                })
        report: Dict[str, Any] = {
            "episode": index,
            "mode": mode,
            "seed": episode_seed,
            "faults": schedule.to_list(),
            "violations": [d.to_dict() for d in divergences],
            # Every send call, refused ones included, and every entry
            # handed to it, whether or not it became a message.
            "scatterings_sent": len(records),
            "messages_sent": sum(len(op.entries) for op, _s in records),
            "messages_delivered": sum(
                len(trace) for trace in observation.deliveries.values()
            ),
            "discarded_on_failure": sum(
                r.discarded_on_failure for r in receivers
            ),
            "duplicates_suppressed": sum(r.duplicates for r in receivers),
            "failed_procs": failed_procs,
            "recoveries": recoveries,
            "forwarded_messages": (
                controller.forwarded_messages if controller else 0
            ),
            "burst_drops": sum(
                link.dropped_burst for link in topology.links.values()
            ),
            "clock": {
                "outages": topology.clock_sync.sync_outages,
                "steps": topology.clock_sync.clock_steps,
                "syncs_skipped": topology.clock_sync.syncs_skipped,
            },
        }
        if self.adversarial:
            # Only stamped when the adversarial mix is on, so default
            # campaign reports stay byte-identical.
            evidence = observation.evidence
            report["adversaries"] = adversary_summary(schedule, observation)
            report["byz"] = {
                "accusations": len(evidence.accusations),
                "evictions": len(evidence.evictions),
                "notices_rejected": evidence.notices_rejected,
                "beacons_rejected": evidence.beacons_rejected,
                "receiver_rejections": sum(
                    getattr(r, "byz_rejected", 0) for r in receivers
                ),
            }
        if self.metrics:
            report["metrics"] = metrics_summary(cluster.sim.metrics)
        return report

    def _knobs(self) -> Dict[str, Any]:
        """The picklable constructor arguments a worker rebuilds from.

        ``progress`` is deliberately excluded (callables don't cross the
        process boundary; the parent replays progress in merge order)
        and ``jobs`` too (a worker runs its episodes inline).
        """
        return {
            "seed": self.seed,
            "episodes": self.episodes,
            "modes": self.modes,
            "n_processes": self.n_processes,
            "horizon_ns": self.horizon_ns,
            "drain_ns": self.drain_ns,
            "faults_per_episode": self.faults_per_episode,
            "use_raft": self.use_raft,
            "metrics": self.metrics,
            "adversarial": self.adversarial,
            "analytic_beacons": self.analytic_beacons,
        }

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Run the campaign; with ``jobs > 1`` episodes fan out over a
        process pool.  The report is byte-identical for every job count:
        each episode is a pure function of its episode seed, and reports
        merge in episode order (the job count never enters the JSON)."""
        payloads = [(self._knobs(), index) for index in range(self.episodes)]
        episode_reports = run_ordered(
            _episode_worker, payloads, jobs=self.jobs, progress=self.progress
        )
        # Counted by divergence kind; the key keeps its historical name
        # so zero-violation reports keep their bytes.
        by_invariant: Dict[str, int] = {}
        for report in episode_reports:
            for violation in report["violations"]:
                name = violation["kind"]
                by_invariant[name] = by_invariant.get(name, 0) + 1
        total_violations = sum(by_invariant.values())
        campaign_report: Dict[str, Any] = {
            "campaign": {
                "seed": self.seed,
                "episodes": self.episodes,
                "modes": list(self.modes),
                "n_processes": self.n_processes,
                "horizon_ns": self.horizon_ns,
                "drain_ns": self.drain_ns,
                "faults_per_episode": self.faults_per_episode,
                "use_raft": self.use_raft,
                "metrics": self.metrics,
            },
            "episode_reports": episode_reports,
            "total_violations": total_violations,
            # "adversarial" is added below only when True, keeping the
            # default report byte-identical to pre-adversarial builds.
            "violations_by_invariant": by_invariant,
            "messages_delivered": sum(
                r["messages_delivered"] for r in episode_reports
            ),
            "messages_sent": sum(r["messages_sent"] for r in episode_reports),
            "ok": total_violations == 0,
        }
        if self.adversarial:
            campaign_report["campaign"]["adversarial"] = True
        if self.metrics:
            totals: Dict[str, int] = {}
            for report in episode_reports:
                for name, value in report["metrics"]["counters"].items():
                    totals[name] = totals.get(name, 0) + value
            campaign_report["metrics_totals"] = {
                "counters": dict(sorted(totals.items()))
            }
        return campaign_report


def adversary_summary(schedule, observation) -> List[Dict[str, Any]]:
    """One entry per planted adversary, with the clause it attacks and
    the cluster's response (accused suspects, evicted processes) —
    campaign report material, not a check."""
    evidence = observation.evidence
    out: List[Dict[str, Any]] = []
    for event in schedule:
        if event.kind not in ADVERSARY_CLAUSES:
            continue
        procs = set(observation.host_procs(event.target))
        out.append({
            "kind": event.kind,
            "target": event.target,
            "clause": ADVERSARY_CLAUSES[event.kind],
            "accused": sorted({
                str(s) for _t, s in evidence.accusations
                if s == event.target or s in procs
            }),
            "evicted": sorted({
                p for _t, p in evidence.evictions if p in procs
            }),
        })
    return out


def _episode_worker(payload) -> Dict[str, Any]:
    """Run one episode from explicit knobs (module-level so it pickles)."""
    knobs, index = payload
    return CampaignRunner(**knobs).run_episode(index)


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write a campaign report as stable (byte-identical) JSON."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
