"""Seeded micro/macro benchmarks for the simulation kernel hot path.

The repo's figures and chaos campaigns all funnel through the same event
loop, links, and receiver flush path; this module measures those layers
directly so performance regressions are visible per-PR:

- ``event_loop``     — raw scheduler throughput (schedule + run, no network).
- ``cancel_churn``   — schedule/cancel churn; exercises the tombstone
  compaction that bounds heap growth in long campaigns.
- ``link_forward``   — host NIC + link serialization/propagation pipeline.
- ``e2e_<mode>``     — sender→receiver 1Pipe messages/sec per incarnation.
- ``metrics_hotpath``— the ``if metrics.enabled:`` instrumentation guard,
  disabled vs enabled (the observability-is-free contract).
- ``chaos_episode``  — wall-clock of one full chaos episode.

Every benchmark is a pure function of ``(seed, scale)`` on the simulated
side: the ``metrics`` dict it reports (events processed, messages
delivered, final simulated time …) is deterministic, while ``wall_s`` and
the derived ``rates`` obviously vary with the machine.  ``run_suite``
writes a stable-schema JSON document (``BENCH_core.json`` at the repo
root by convention) so the perf trajectory can be tracked across commits
and checked in CI via :func:`check_against`.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sim import Simulator

BENCH_SCHEMA_VERSION = 1
DEFAULT_OUT = "BENCH_core.json"
# Default report path per suite (the committed baselines at the repo root).
SUITE_OUT = {
    "core": "BENCH_core.json",
    "scale": "BENCH_scale.json",
    "hyperscale": "BENCH_hyperscale.json",
}


class BenchResult:
    """Outcome of one benchmark: wall time + deterministic metrics."""

    def __init__(
        self,
        name: str,
        wall_s: float,
        metrics: Dict[str, Any],
        rates: Dict[str, float],
    ) -> None:
        self.name = name
        self.wall_s = wall_s
        self.metrics = metrics
        self.rates = rates

    def as_dict(self) -> Dict[str, Any]:
        return {
            "wall_s": round(self.wall_s, 6),
            "metrics": self.metrics,
            "rates": {k: round(v, 3) for k, v in self.rates.items()},
        }


def _noop() -> None:
    """Do-nothing callback for scheduler microbenchmarks."""


# ----------------------------------------------------------------------
# Microbenchmarks
# ----------------------------------------------------------------------
def bench_event_loop(seed: int, scale: float) -> BenchResult:
    """Raw event-loop throughput: 64 self-rescheduling chains, no network."""
    sim = Simulator(seed=seed)
    total = max(2_000, int(400_000 * scale))
    chains = 64
    per_chain = total // chains
    remaining = [per_chain] * chains
    schedule = sim.schedule

    def tick(i: int) -> None:
        remaining[i] -= 1
        if remaining[i]:
            schedule(97 + i, tick, i)

    for i in range(chains):
        schedule(i + 1, tick, i)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    events = sim.events_processed
    return BenchResult(
        "event_loop",
        wall,
        {"events": events, "final_time_ns": sim.now},
        {"events_per_sec": events / wall if wall > 0 else 0.0},
    )


def bench_cancel_churn(seed: int, scale: float) -> BenchResult:
    """Schedule/cancel churn: 90% of timers are cancelled long before they
    fire (ACKed retransmission timers), so heap growth is bounded only by
    the tombstone compaction."""
    sim = Simulator(seed=seed)
    rounds = max(20, int(400 * scale))
    batch = 500
    cancel_per_batch = batch * 9 // 10
    scheduled = 0
    cancelled = 0
    max_heap = 0
    start = time.perf_counter()
    for _ in range(rounds):
        handles = [
            sim.schedule(1_000_000 + (i % 13), _noop) for i in range(batch)
        ]
        scheduled += batch
        for handle in handles[:cancel_per_batch]:
            handle.cancel()
        cancelled += cancel_per_batch
        if sim.pending_events > max_heap:
            max_heap = sim.pending_events
        sim.run_for(10)
    sim.run()
    wall = time.perf_counter() - start
    return BenchResult(
        "cancel_churn",
        wall,
        {
            "scheduled": scheduled,
            "cancelled": cancelled,
            "fired": sim.events_processed,
            "max_heap": max_heap,
            "final_tombstones": sim.heap_tombstones,
        },
        {"ops_per_sec": (scheduled + cancelled) / wall if wall > 0 else 0.0},
    )


def bench_link_forward(seed: int, scale: float) -> BenchResult:
    """Host NIC + link pipeline: paced 1 KB packets host→host."""
    from repro.net.link import Link
    from repro.net.nic import Host
    from repro.net.packet import Packet, PacketKind

    sim = Simulator(seed=seed)
    src = Host(sim, "bench-src")
    dst = Host(sim, "bench-dst")
    link = Link(sim, "bench-src->bench-dst", src, dst)
    src.set_uplink(link)
    dst.set_downlink(link)
    delivered = [0]
    dst.register_endpoint(1, lambda packet: delivered.__setitem__(0, delivered[0] + 1))

    total = max(2_000, int(60_000 * scale))
    burst = 10
    sent = [0]

    def feed() -> None:
        for _ in range(burst):
            if sent[0] >= total:
                return
            sent[0] += 1
            src.send_packet(
                Packet(
                    PacketKind.DATA,
                    src=0,
                    dst=1,
                    dst_host="bench-dst",
                    msg_id=sent[0],
                    payload_bytes=1000,
                )
            )
        sim.schedule(1_000, feed)

    sim.schedule(0, feed)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return BenchResult(
        "link_forward",
        wall,
        {
            "packets_sent": sent[0],
            "packets_delivered": delivered[0],
            "events": sim.events_processed,
            "final_time_ns": sim.now,
        },
        {
            "packets_per_sec": delivered[0] / wall if wall > 0 else 0.0,
            "events_per_sec": sim.events_processed / wall if wall > 0 else 0.0,
        },
    )


def bench_e2e(seed: int, scale: float, mode: str) -> BenchResult:
    """Sender→receiver 1Pipe throughput on the full testbed, one mode."""
    from repro.onepipe import OnePipeCluster, OnePipeConfig

    sim = Simulator(seed=seed)
    cluster = OnePipeCluster(
        sim, n_processes=8, config=OnePipeConfig(mode=mode)
    )
    n = cluster.n_processes
    delivered = [0]
    for i in range(n):
        cluster.endpoint(i).on_recv(
            lambda m: delivered.__setitem__(0, delivered[0] + 1)
        )
    sent = [0]

    def blast(s: int) -> None:
        endpoint = cluster.endpoint(s)
        endpoint.unreliable_send([((s + 1) % n, sent[0])])
        if s % 2 == 0:
            endpoint.reliable_send([((s + 3) % n, sent[0])])
            sent[0] += 2
        else:
            sent[0] += 1

    tasks = [sim.every(10_000, blast, s) for s in range(n)]
    window = max(200_000, int(1_500_000 * scale))
    # Stop the senders at the horizon, then drain: in-flight messages
    # (queued, serializing, or awaiting the commit barrier) complete, so
    # delivered == sent and the metrics stay deterministic instead of
    # depending on how the horizon slices the pipeline.
    drain_ns = 1_000_000
    start = time.perf_counter()
    sim.run(until=window)
    in_flight = sent[0] - delivered[0]
    for task in tasks:
        task.cancel()
    sim.run(until=window + drain_ns)
    wall = time.perf_counter() - start
    return BenchResult(
        f"e2e_{mode}",
        wall,
        {
            "messages_sent": sent[0],
            "messages_delivered": delivered[0],
            "in_flight_at_horizon": in_flight,
            "events": sim.events_processed,
            "simulated_ns": window + drain_ns,
        },
        {
            "messages_per_sec": delivered[0] / wall if wall > 0 else 0.0,
            "events_per_sec": sim.events_processed / wall if wall > 0 else 0.0,
        },
    )


def bench_metrics_hotpath(seed: int, scale: float) -> BenchResult:
    """Cost of the metrics instrumentation idiom, disabled vs enabled.

    Every instrumentation point in the tree is ``if
    self._metrics.enabled: self._m_x.add()`` (one attribute load and a
    branch when observability is off).  This measures that guard alone
    against the full counter-add + histogram-observe update, in a loop
    shaped like the per-packet hot path.  ``tests/bench`` asserts the
    disabled rate never regresses against the committed baseline — the
    contract that observability is free unless switched on.
    """
    from repro.obs.registry import MetricsRegistry

    ops = max(50_000, int(2_000_000 * scale))
    disabled = MetricsRegistry(enabled=False)
    d_counter = disabled.counter("bench.ops")
    d_hist = disabled.histogram("bench.lat_ns")
    enabled = MetricsRegistry(enabled=True)
    e_counter = enabled.counter("bench.ops")
    e_hist = enabled.histogram("bench.lat_ns")

    start = time.perf_counter()
    for i in range(ops):
        if disabled.enabled:
            d_counter.add()
            d_hist.observe(i & 0xFFFFF)
    wall_disabled = time.perf_counter() - start

    start = time.perf_counter()
    for i in range(ops):
        if enabled.enabled:
            e_counter.add()
            e_hist.observe(i & 0xFFFFF)
    wall_enabled = time.perf_counter() - start

    return BenchResult(
        "metrics_hotpath",
        wall_disabled + wall_enabled,
        {
            "ops": ops,
            "disabled_updates": d_counter.value,
            "enabled_updates": e_counter.value,
            "enabled_hist_count": e_hist.count,
        },
        {
            "disabled_ops_per_sec": (
                ops / wall_disabled if wall_disabled > 0 else 0.0
            ),
            "enabled_ops_per_sec": (
                ops / wall_enabled if wall_enabled > 0 else 0.0
            ),
        },
    )


def bench_chaos_episode(seed: int, scale: float) -> BenchResult:
    """Wall-clock of one full chaos episode (faults + oracle verdict)."""
    from repro.chaos import CampaignRunner

    runner = CampaignRunner(
        seed=seed,
        episodes=1,
        n_processes=16,
        horizon_ns=max(200_000, int(1_500_000 * scale)),
        drain_ns=max(400_000, int(2_500_000 * scale)),
        faults_per_episode=4,
    )
    start = time.perf_counter()
    report = runner.run_episode(0)
    wall = time.perf_counter() - start
    return BenchResult(
        "chaos_episode",
        wall,
        {
            "messages_sent": report["messages_sent"],
            "messages_delivered": report["messages_delivered"],
            "violations": len(report["violations"]),
        },
        {
            "messages_per_sec": (
                report["messages_delivered"] / wall if wall > 0 else 0.0
            ),
        },
    )


# Benchmark registry; insertion order is the execution (and report) order.
BENCHMARKS: Dict[str, Callable[[int, float], BenchResult]] = {
    "event_loop": bench_event_loop,
    "cancel_churn": bench_cancel_churn,
    "link_forward": bench_link_forward,
    "e2e_chip": lambda seed, scale: bench_e2e(seed, scale, "chip"),
    "e2e_switch_cpu": lambda seed, scale: bench_e2e(seed, scale, "switch_cpu"),
    "e2e_host_delegate": lambda seed, scale: bench_e2e(
        seed, scale, "host_delegate"
    ),
    "metrics_hotpath": bench_metrics_hotpath,
    "chaos_episode": bench_chaos_episode,
}


# ----------------------------------------------------------------------
# Suite driver + regression checking
# ----------------------------------------------------------------------
def suite_registry(suite: str) -> Dict[str, Callable[[int, float], BenchResult]]:
    """Benchmark registry for a named suite (lazy import for ``scale``)."""
    if suite == "core":
        return BENCHMARKS
    if suite == "scale":
        from repro.bench.scalebench import SCALE_BENCHMARKS

        return SCALE_BENCHMARKS
    if suite == "hyperscale":
        from repro.bench.hyperbench import HYPERSCALE_BENCHMARKS

        return HYPERSCALE_BENCHMARKS
    raise ValueError(f"unknown suite {suite!r}; available: {sorted(SUITE_OUT)}")


def environment_meta() -> Dict[str, Any]:
    """Machine context recorded alongside a suite run.

    Lives under the ``meta`` key, which ``check_against`` deliberately
    ignores: it exists so humans comparing committed rates across PRs
    can tell whether two reports came from comparable machines, not to
    gate anything.
    """
    return {
        "python_version": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def run_suite(
    seed: int = 1,
    scale: float = 1.0,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[BenchResult], None]] = None,
    suite: str = "core",
) -> Dict[str, Any]:
    """Run a benchmark suite and return its JSON report payload."""
    if scale <= 0:
        raise ValueError(f"scale must be positive: {scale}")
    registry = suite_registry(suite)
    selected = list(registry) if not only else list(only)
    unknown = [name for name in selected if name not in registry]
    if unknown:
        raise ValueError(
            f"unknown benchmarks {unknown}; available: {list(registry)}"
        )
    results: Dict[str, Any] = {}
    for name in selected:
        result = registry[name](seed, scale)
        results[name] = result.as_dict()
        if progress is not None:
            progress(result)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": suite,
        "seed": seed,
        "scale": scale,
        "meta": environment_meta(),
        "benchmarks": results,
    }


def write_bench(payload: Dict[str, Any], path: str = DEFAULT_OUT) -> str:
    """Persist a suite payload as stable, sorted JSON."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return os.path.abspath(path)


def load_bench(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# Substring marking a stale-baseline finding; CLI callers treat these as
# warnings (regenerate the baseline) rather than hard failures, because a
# faster machine is indistinguishable from a faster kernel.
STALE_MARKER = "stale baseline"

# Benchmarks whose rates are charted for information (e.g. the MODE_BFT
# overhead point of the scale suite) but are not a regression gate:
# their rate findings carry INFO_MARKER and CLI callers downgrade them
# to warnings.  Schema drift on them still fails like any other.
INFO_MARKER = "informational benchmark"
INFORMATIONAL_BENCHMARKS = frozenset({"fattree_k4_h16_bft"})


def check_against(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 2.0,
) -> List[str]:
    """Compare a fresh run against a committed baseline.

    Returns a list of human-readable problems (empty = pass):

    - schema drift: version mismatch, missing/extra benchmarks, or a
      benchmark whose metric/rate key sets changed;
    - perf regression: any shared throughput rate that dropped by more
      than ``tolerance``× against the baseline (wall-clock rates are
      machine-dependent, hence the generous default factor);
    - stale baseline: any shared rate that *improved* by more than
      ``tolerance``× — the committed baseline no longer reflects
      reality and should be regenerated.  These entries contain
      :data:`STALE_MARKER` so callers can downgrade them to warnings.
    """
    if tolerance < 1.0:
        raise ValueError(f"tolerance must be >= 1.0: {tolerance}")
    problems: List[str] = []
    if current.get("schema_version") != baseline.get("schema_version"):
        problems.append(
            f"schema_version {current.get('schema_version')} != "
            f"baseline {baseline.get('schema_version')}"
        )
    current_benchmarks = current.get("benchmarks", {})
    baseline_benchmarks = baseline.get("benchmarks", {})
    if set(current_benchmarks) != set(baseline_benchmarks):
        problems.append(
            f"benchmark set drift: run has {sorted(current_benchmarks)}, "
            f"baseline has {sorted(baseline_benchmarks)}"
        )
    for name in sorted(set(current_benchmarks) & set(baseline_benchmarks)):
        ours = current_benchmarks[name]
        theirs = baseline_benchmarks[name]
        for section in ("metrics", "rates"):
            if set(ours.get(section, {})) != set(theirs.get(section, {})):
                problems.append(
                    f"{name}: {section} keys drifted "
                    f"({sorted(ours.get(section, {}))} vs "
                    f"{sorted(theirs.get(section, {}))})"
                )
        for rate_name, baseline_rate in theirs.get("rates", {}).items():
            ours_rate = ours.get("rates", {}).get(rate_name)
            if ours_rate is None or baseline_rate <= 0:
                continue
            if ours_rate * tolerance < baseline_rate:
                info = (
                    f" — {INFO_MARKER}"
                    if name in INFORMATIONAL_BENCHMARKS else ""
                )
                problems.append(
                    f"{name}: {rate_name} regressed >"
                    f"{tolerance:g}x ({ours_rate:.0f} vs baseline "
                    f"{baseline_rate:.0f}){info}"
                )
            elif ours_rate > baseline_rate * tolerance:
                out = SUITE_OUT.get(
                    baseline.get("suite", "core"), DEFAULT_OUT
                )
                problems.append(
                    f"{name}: {rate_name} improved >{tolerance:g}x "
                    f"({ours_rate:.0f} vs baseline {baseline_rate:.0f}) — "
                    f"{STALE_MARKER} — regenerate {out}"
                )
    return problems
