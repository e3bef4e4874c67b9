"""The baseline shootout: every total-order protocol, identical chaos.

1Pipe's headline claim (§8) is that in-network ordering beats host-side
total order on latency, throughput, and failure recovery.  This runner
reproduces the comparison: it drives all five baselines — Lamport
clocks, a switch sequencer, a token ring, EpTO epidemic order, and
in-network switch-Paxos — plus 1Pipe itself through the *same* seeded
chaos schedules, applies each protocol's own contract oracle
(:mod:`repro.baselines.contracts`), and emits a deterministic
latency/throughput/recovery crossover report.

One *cell* = (scenario, protocol).  Every cell in a scenario builds a
fresh simulator from the same scenario seed and draws its fault
schedule from the same named rng stream, so the schedules are
event-for-event identical across protocols (the merge step asserts
this rather than assuming it).  Traffic is a fixed, fault-independent
send schedule — every member broadcasts every ``interval_ns``,
staggered — so offered load is identical too; only what each protocol
*does* with the faults differs.

Reports are a pure function of ``(seed, knobs)``: byte-identical
across repeat runs and across ``--jobs`` (cells are pure functions of
the scenario seed and merge in submission order).

Scenarios:

=========  ============================================================
clean      no faults — the baseline capability check (completeness
           contracts are enforced here)
crash      fail-stop: a switch flap plus a host crash
gray       the full default gray-failure mix (burst loss, degraded
           links, flaps, stragglers, clock chaos)
degraded   bandwidth/latency degradation plus bursty loss
=========  ============================================================
"""

from __future__ import annotations

import itertools
import json
import os
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.contracts import PROTOCOL_CONTRACTS, check_contract
from repro.baselines.epto import EptoBroadcast
from repro.baselines.lamport import LamportBroadcast
from repro.baselines.sequencer import SequencerBroadcast
from repro.baselines.switchpaxos import SwitchPaxosBroadcast
from repro.baselines.token import TokenRingBroadcast
from repro.chaos.campaign import EPISODE_CLOCK_SYNC_NS
from repro.chaos.schedule import (
    ChaosInjector,
    ChaosSchedule,
    DEFAULT_FAULT_WEIGHTS,
)
from repro.net.topology import TopologyParams, build_fat_tree
from repro.obs.export import metrics_summary
from repro.onepipe import OnePipeCluster, OnePipeConfig
from repro.onepipe.sender import ProcessSender
from repro.parallel import run_ordered
from repro.sim import Simulator
from repro.verify.episodes import SendOp, extract_observation
from repro.verify.runner import verdict

PROTOCOLS = (
    "lamport", "sequencer", "token", "epto", "switchpaxos", "onepipe",
)

# (name, n_faults, weights); None = the default gray mix.
SCENARIOS: Tuple[Tuple[str, int, Optional[tuple]], ...] = (
    ("clean", 0, None),
    ("crash", 2, (("switch_flap", 1), ("crash_host", 1))),
    ("gray", 4, None),
    ("degraded", 4, (("degrade_link", 3), ("burst_loss", 2))),
)
SCENARIO_NAMES = tuple(name for name, _n, _w in SCENARIOS)


def k4_params(**overrides) -> TopologyParams:
    """The shootout topology: a k=4 fat-tree (16 hosts, 4 pods)."""
    params = dict(
        n_pods=4, tors_per_pod=2, spines_per_pod=2, n_cores=4,
        hosts_per_tor=2,
    )
    params.update(overrides)
    return TopologyParams(**params)


def _percentile_ns(samples: List[int], p: float) -> int:
    """Nearest-rank (ceil) percentile of integer samples; 0 if empty."""
    if not samples:
        return 0
    ordered = sorted(samples)
    rank = -(-int(p * len(ordered)) // 100)  # ceil(p/100 * n)
    return ordered[max(0, min(rank, len(ordered))) - 1]


class _CellStats:
    """Send/delivery accounting shared by all protocol cells."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.sends: Dict[int, List[Any]] = {}
        self.send_ns: Dict[Any, int] = {}
        self.sent = 0
        self.delivered = 0
        self.delivery_ns: List[int] = []
        self.latencies: List[int] = []

    def record_send(self, src: int, payload: Any, key: Any) -> None:
        self.sends.setdefault(src, []).append(payload)
        self.send_ns[key] = self.sim.now
        self.sent += 1

    def record_delivery(self, key: Any) -> None:
        self.delivered += 1
        self.delivery_ns.append(self.sim.now)
        sent_at = self.send_ns.get(key)
        if sent_at is not None:
            self.latencies.append(self.sim.now - sent_at)

    def max_stall_ns(self, window: Optional[Tuple[int, int]] = None) -> int:
        """Largest gap between consecutive cluster-wide deliveries; with
        ``window``, only gaps overlapping [lo, hi] count (recovery time
        around the fault window)."""
        times = self.delivery_ns
        worst = 0
        for prev, cur in zip(times, times[1:]):
            if window is not None and (cur < window[0] or prev > window[1]):
                continue
            worst = max(worst, cur - prev)
        return worst

    def latency_summary(self) -> Dict[str, int]:
        lat = self.latencies
        return {
            "mean_ns": (sum(lat) // len(lat)) if lat else 0,
            "p50_ns": _percentile_ns(lat, 50),
            "p95_ns": _percentile_ns(lat, 95),
            "p99_ns": _percentile_ns(lat, 99),
        }


class ShootoutRunner:
    """Run the shootout grid and produce a deterministic report."""

    def __init__(
        self,
        seed: int,
        protocols=PROTOCOLS,
        scenarios=SCENARIO_NAMES,
        n_members: int = 8,
        horizon_ns: int = 1_500_000,
        drain_ns: int = 2_500_000,
        interval_ns: int = 50_000,
        warmup_ns: int = 100_000,
        payload_bytes: int = 64,
        metrics: bool = False,
        jobs: int = 1,
        progress=None,
    ) -> None:
        unknown = set(protocols) - set(PROTOCOLS)
        if unknown:
            raise ValueError(f"unknown protocols: {sorted(unknown)}")
        unknown = set(scenarios) - set(SCENARIO_NAMES)
        if unknown:
            raise ValueError(f"unknown scenarios: {sorted(unknown)}")
        self.seed = seed
        self.protocols = tuple(protocols)
        self.scenarios = tuple(scenarios)
        self.n_members = n_members
        self.horizon_ns = horizon_ns
        self.drain_ns = drain_ns
        self.interval_ns = interval_ns
        self.warmup_ns = warmup_ns
        self.payload_bytes = payload_bytes
        self.metrics = metrics
        self.jobs = jobs
        self.progress = progress

    # ------------------------------------------------------------------
    def scenario_seed(self, scenario: str) -> int:
        index = SCENARIO_NAMES.index(scenario)
        return self.seed * 1_000_003 + index

    def _scenario_spec(self, scenario: str) -> Tuple[int, tuple]:
        for name, n_faults, weights in SCENARIOS:
            if name == scenario:
                return n_faults, weights or DEFAULT_FAULT_WEIGHTS
        raise KeyError(scenario)

    def _schedule(self, sim: Simulator, topology, scenario: str):
        n_faults, weights = self._scenario_spec(scenario)
        if n_faults == 0:
            return ChaosSchedule([])
        return ChaosSchedule.generate(
            sim.rng(f"shootout.schedule.{scenario}"),
            topology,
            self.horizon_ns,
            n_faults=n_faults,
            weights=weights,
        )

    # ------------------------------------------------------------------
    # One cell
    # ------------------------------------------------------------------
    def run_cell(self, scenario: str, protocol: str) -> Dict[str, Any]:
        sim = Simulator(seed=self.scenario_seed(scenario))
        if self.metrics:
            sim.metrics.enabled = True
        if protocol == "onepipe":
            cell = self._run_onepipe_cell(sim, scenario)
        else:
            cell = self._run_baseline_cell(sim, scenario, protocol)
        if self.metrics:
            registry = sim.metrics
            registry.counter("shootout.broadcasts_sent").add(
                cell["broadcasts_sent"]
            )
            registry.counter("shootout.messages_delivered").add(
                cell["messages_delivered"]
            )
            registry.counter("shootout.contract_violations").add(
                len(cell["violations"])
            )
            cell["metrics"] = metrics_summary(registry)
        return cell

    def _traffic_window(self) -> Tuple[int, int]:
        return self.warmup_ns, self.warmup_ns + self.horizon_ns

    def _fault_window(self, schedule) -> Optional[Tuple[int, int]]:
        events = list(schedule)
        if not events:
            return None
        lo = min(e.at for e in events)
        hi = max(e.at + e.duration_ns for e in events)
        return lo, hi

    def _cell_report(
        self, scenario, protocol, stats, schedule, violations, extra
    ) -> Dict[str, Any]:
        n = self.n_members
        fanout = n if protocol != "onepipe" else n - 1
        expected = stats.sent * fanout
        window = self._fault_window(schedule)
        report = {
            "scenario": scenario,
            "protocol": protocol,
            "contract": PROTOCOL_CONTRACTS[protocol].name,
            "faults": schedule.to_list(),
            "violations": violations,
            "broadcasts_sent": stats.sent,
            "messages_expected": expected,
            "messages_delivered": stats.delivered,
            "delivery_permille": (
                stats.delivered * 1000 // expected if expected else 0
            ),
            "latency": stats.latency_summary(),
            "max_stall_ns": stats.max_stall_ns(),
            "recovery_stall_ns": (
                stats.max_stall_ns(window) if window is not None else 0
            ),
            "counters": dict(sorted(extra.items())),
        }
        return report

    def _run_baseline_cell(
        self, sim: Simulator, scenario: str, protocol: str
    ) -> Dict[str, Any]:
        topology = build_fat_tree(sim, k4_params())
        if protocol == "lamport":
            group = LamportBroadcast(sim, topology, self.n_members)
        elif protocol == "sequencer":
            group = SequencerBroadcast(
                sim, topology, self.n_members, kind="switch"
            )
        elif protocol == "token":
            group = TokenRingBroadcast(sim, topology, self.n_members)
        elif protocol == "epto":
            group = EptoBroadcast(sim, topology, self.n_members)
        elif protocol == "switchpaxos":
            group = SwitchPaxosBroadcast(sim, topology, self.n_members)
        else:  # pragma: no cover - guarded in __init__
            raise ValueError(f"unknown protocol {protocol!r}")
        group.enable_logging()

        stats = _CellStats(sim)
        group.deliver_callback = (
            lambda index, key, src, payload: stats.record_delivery(payload)
        )

        schedule = self._schedule(sim, topology, scenario)
        shim = SimpleNamespace(
            sim=sim,
            topology=topology,
            engines=topology.switches,
            agents={},
            controller=None,
        )
        ChaosInjector(shim).apply(schedule)

        def send_one(sender: int, seq: int) -> None:
            member = group.members[sender]
            if member.host.failed:
                return
            payload = (sender, seq)
            stats.record_send(sender, payload, payload)
            group.broadcast(sender, payload)

        start, stop = self._traffic_window()
        t, seq = start, 0
        while t < stop:
            for i in range(self.n_members):
                sim.schedule_at(t + i * 1_000, send_one, i, seq)
            seq += 1
            t += self.interval_ns
        if protocol == "token":
            group.start()

        sim.run(until=stop + self.drain_ns)
        if hasattr(group, "stop"):
            group.stop()

        logs = [m.delivered_log for m in group.members]
        violations = check_contract(
            PROTOCOL_CONTRACTS[protocol],
            logs,
            stats.sends,
            expect_complete=(scenario == "clean"),
        )
        extra = {}
        if protocol == "sequencer":
            extra["sequenced"] = group.sequenced
        elif protocol == "token":
            extra["token_rotations"] = group.token_rotations
        elif protocol == "lamport":
            extra["clock_messages"] = group.clock_messages
        elif protocol == "epto":
            extra["balls_sent"] = group.balls_sent
            extra["gossip_rounds"] = group.rounds
        elif protocol == "switchpaxos":
            extra["sequenced"] = group.sequenced
            extra["nacks_sent"] = group.nacks_sent
            extra["no_quorum_drops"] = group.no_quorum_drops
            extra["duplicate_accepts"] = group.duplicate_accepts
        return self._cell_report(
            scenario, protocol, stats, schedule, violations, extra
        )

    def _run_onepipe_cell(self, sim: Simulator, scenario: str) -> Dict[str, Any]:
        # The §2.1 oracle judges the cell from the delivery trace; the
        # tracer is enabled in place before any component caches it,
        # and message ids (quoted in divergences) are pinned per cell.
        sim.tracer.enabled = True
        ProcessSender._msg_ids = itertools.count(1)
        topology = build_fat_tree(
            sim, k4_params(clock_sync_interval_ns=EPISODE_CLOCK_SYNC_NS)
        )
        cluster = OnePipeCluster(
            sim,
            n_processes=self.n_members,
            config=OnePipeConfig(),
            topology=topology,
        )
        schedule = self._schedule(sim, topology, scenario)
        ChaosInjector(cluster).apply(schedule)

        stats = _CellStats(sim)
        records: List[tuple] = []
        n = self.n_members
        for i in range(n):
            cluster.endpoint(i).on_recv(
                lambda message: stats.record_delivery(message.payload)
            )

        def send_one(sender: int, seq: int) -> None:
            endpoint = cluster.endpoint(sender)
            failed = set()
            if cluster.controller is not None:
                failed.update(cluster.controller.failed_procs)
            if (
                sender in failed
                or endpoint.closed
                or endpoint.agent.host.failed
            ):
                return
            entries = []
            for dst in range(n):
                if dst == sender:
                    continue
                payload = f"p{sender}.q{seq}.d{dst}"
                entries.append((dst, payload))
            scattering = endpoint.reliable_send(entries)
            records.append((SendOp(sim.now, sender, True, tuple(entries)),
                            scattering))
            if scattering is None:
                return
            # One scattering = one logical broadcast; account each
            # destination copy so ratios are comparable per message.
            stats.sends.setdefault(sender, [])
            for _dst, payload in entries:
                stats.sends[sender].append(payload)
                stats.send_ns[payload] = sim.now
            stats.sent += 1

        start, stop = self._traffic_window()
        t, seq = start, 0
        while t < stop:
            for i in range(n):
                sim.schedule_at(t + i * 1_000, send_one, i, seq)
            seq += 1
            t += self.interval_ns

        sim.run(until=stop + self.drain_ns)
        divergences = verdict(
            extract_observation(sim, cluster, records),
            schedule,
            seed=self.scenario_seed(scenario),
            episode=SCENARIO_NAMES.index(scenario),
            mode="shootout",
        )
        violations = [d.to_dict() for d in divergences]
        extra = {
            "scatterings_sent": len(records),
            "messages_sent": sum(len(op.entries) for op, _s in records),
        }
        return self._cell_report(
            scenario, "onepipe", stats, schedule, violations, extra
        )

    # ------------------------------------------------------------------
    # Grid fan-out + crossover synthesis
    # ------------------------------------------------------------------
    def _knobs(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "protocols": self.protocols,
            "scenarios": self.scenarios,
            "n_members": self.n_members,
            "horizon_ns": self.horizon_ns,
            "drain_ns": self.drain_ns,
            "interval_ns": self.interval_ns,
            "warmup_ns": self.warmup_ns,
            "payload_bytes": self.payload_bytes,
            "metrics": self.metrics,
        }

    def run(self) -> Dict[str, Any]:
        payloads = [
            (self._knobs(), scenario, protocol)
            for scenario in self.scenarios
            for protocol in self.protocols
        ]
        cells = run_ordered(
            _cell_worker, payloads, jobs=self.jobs, progress=self.progress
        )
        scenario_reports: List[Dict[str, Any]] = []
        total_violations = 0
        index = 0
        for scenario in self.scenarios:
            row: Dict[str, Any] = {}
            faults = None
            for protocol in self.protocols:
                cell = cells[index]
                index += 1
                if faults is None:
                    faults = cell["faults"]
                elif cell["faults"] != faults:
                    raise AssertionError(
                        f"chaos schedule diverged between protocols in "
                        f"scenario {scenario!r}"
                    )
                total_violations += len(cell["violations"])
                row[protocol] = {
                    k: v for k, v in cell.items()
                    if k not in ("scenario", "protocol", "faults")
                }
            scenario_reports.append({
                "scenario": scenario,
                "seed": self.scenario_seed(scenario),
                "faults": faults,
                "cells": row,
            })
        report = {
            "shootout": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self._knobs().items()
            },
            "scenarios": scenario_reports,
            "crossover": self._crossover(scenario_reports),
            "total_contract_violations": total_violations,
            "ok": total_violations == 0,
        }
        return report

    def _crossover(self, scenario_reports) -> Dict[str, Any]:
        """Where does in-network ordering win, and by how much?"""
        crossover: Dict[str, Any] = {}
        for entry in scenario_reports:
            cells = entry["cells"]

            def best(metric_fn, cells=cells):
                ranked = sorted(
                    (metric_fn(cell), name)
                    for name, cell in cells.items()
                    if metric_fn(cell) > 0
                )
                return ranked[0][1] if ranked else ""

            summary = {
                "lowest_p50_latency": best(
                    lambda c: c["latency"]["p50_ns"]
                ),
                "lowest_p99_latency": best(
                    lambda c: c["latency"]["p99_ns"]
                ),
                "highest_delivery": max(
                    (cell["delivery_permille"], name)
                    for name, cell in cells.items()
                )[1],
                "shortest_recovery_stall": best(
                    lambda c: c["recovery_stall_ns"]
                ) if entry["faults"] else "",
            }
            onepipe = cells.get("onepipe")
            if onepipe is not None and onepipe["latency"]["p50_ns"] > 0:
                baselines = {
                    name: cell for name, cell in cells.items()
                    if name != "onepipe" and cell["latency"]["p50_ns"] > 0
                }
                if baselines:
                    best_name = min(
                        baselines,
                        key=lambda name: (
                            baselines[name]["latency"]["p50_ns"], name
                        ),
                    )
                    summary["onepipe_vs_best_baseline"] = {
                        "baseline": best_name,
                        "p50_ratio_milli": (
                            baselines[best_name]["latency"]["p50_ns"] * 1000
                            // onepipe["latency"]["p50_ns"]
                        ),
                    }
            crossover[entry["scenario"]] = summary
        return crossover


def _cell_worker(payload) -> Dict[str, Any]:
    """Run one cell from explicit knobs (module-level so it pickles)."""
    knobs, scenario, protocol = payload
    return ShootoutRunner(**knobs).run_cell(scenario, protocol)


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write a shootout report as stable (byte-identical) JSON."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
