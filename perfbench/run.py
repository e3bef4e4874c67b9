"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload bcast_a2a --seed 1 --seconds 30 --trace 0

The workload's inputs come from ``--seed``.  The run sets up the
workload several times, then executes it (set-up, traffic, drain, oracle
check, accounting) repeatedly for at least ``--seconds`` and at least
twice, checking that every repetition reproduces the first one's
simulated outcome exactly.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` then repeats the workload once more with span wrappers
installed and prints the per-layer metrics, after checking that the
traced repetition's simulated outcome equals the untraced one.  The
spans are written to ``.perfbench/<workload>.spans.npz``, replacing the
previous traced run's (a ``faults_chip`` trace is ~4M spans, ~115 MB).

End-to-end host times are reported at a reference host speed: each
measured time is scaled by how long the calibration loop
(``calibration.py``) took next to it, which cancels most of a shared
machine's drift.

The metric names, units and directions are those of ``BENCHMARK.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration
import spans

# Set-ups measured on their own before the timed repetitions; set-up on
# the testbed takes ~10 ms, so a single sample would be mostly noise.
SETUP_SAMPLES = 8
# Repetitions a run makes however short ``--seconds`` is: the second
# one is the same-seed determinism check.
MIN_REPETITIONS = 2
SPAN_DIR = ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program(root: Path) -> None:
    """Put the checkout's ``src`` first on the import path, or exit."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}; "
              "run from the repository root", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def load_spec(root: Path) -> dict:
    spec = root / "BENCHMARK.json"
    if not spec.is_file():
        print(f"perfbench: {spec} is missing", file=sys.stderr)
        sys.exit(2)
    return json.loads(spec.read_text())


def sample_setups(workloads, episodes):
    """SETUP_SAMPLES set-ups in seconds at the reference speed."""
    before = calibration.measure()
    times = []
    for i in range(SETUP_SAMPLES):
        gc.collect()
        start = time.perf_counter()
        workloads.setup(episodes[i % len(episodes)])
        times.append(time.perf_counter() - start)
    host = (before + calibration.measure()) / 2
    return [calibration.to_reference(t, host) for t in times]


def repeat(workloads, episodes, seconds: float):
    """Timed repetitions, every episode bracketed by calibration runs.
    Returns the executions, the calibration time next to each, the
    per-repetition walls and the first repetition's outcomes."""
    executions, hosts, rep_walls, reference = [], [], [], None
    before = calibration.measure()
    start = time.perf_counter()
    while len(rep_walls) < MIN_REPETITIONS or time.perf_counter() - start < seconds:
        rep = []
        for inputs in episodes:
            gc.collect()
            rep.append(workloads.execute(inputs))
            after = calibration.measure()
            hosts.append((before + after) / 2)
            before = after
        outcomes = [e.outcome for e in rep]
        if reference is None:
            reference = outcomes
        elif outcomes != reference:
            raise workloads.BenchmarkError(
                "the same inputs gave a different simulated outcome")
        executions.extend(rep)
        rep_walls.append(sum(e.wall_s for e in rep))
    return executions, hosts, rep_walls, reference


def end_to_end(executions, hosts, setups, pooled, peak_rss_mb):
    """The bounded metrics; host times at the reference speed."""
    median = statistics.median
    ref = calibration.to_reference
    return {
        "wall_s": median(ref(e.wall_s, h) for e, h in zip(executions, hosts)),
        "setup_s": median(setups),
        "sim_us_per_s": median(e.outcome["simulated_us"] / ref(e.run_s, h)
                               for e, h in zip(executions, hosts)),
        "peak_rss_mb": peak_rss_mb,
        "lat_p50_us": pooled["lat_p50_us"],
        "lat_p99_us": pooled["lat_p99_us"],
        "delivered_frac": pooled["delivered_frac"],
        "oracle_ok_frac": pooled["oracle_ok_frac"],
    }


def traced(workloads, episodes, reference, rep_walls, executions,
           out_path: Path):
    """One traced repetition; returns the per-layer times it measures."""
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        walls, outcomes = [], []
        for inputs in episodes:
            gc.collect()
            with recorder.phase("bench.episode"):
                execution = workloads.execute(inputs, recorder)
            walls.append(execution.wall_s)
            outcomes.append(execution.outcome)
    finally:
        recorder.uninstall()
    if outcomes != reference:
        raise workloads.BenchmarkError(
            "the traced repetition's simulated outcome differs from the "
            "untraced one")
    out_path.parent.mkdir(exist_ok=True)
    recorder.save(out_path)

    summary = recorder.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    span = lambda name: summary.get(name, empty)  # noqa: E731
    layers = {layer: 0.0 for layer in spans.LAYERS}
    for name, row in summary.items():
        layer = spans.layer_of(name)
        layer = layer if layer in layers else "other"
        layers[layer] += row["self_s"]
    traced_wall = span("bench.episode")["total_s"]

    metrics = {
        "sim.ns_per_event": statistics.median(
            e.run_s * 1e9 / e.outcome["sim.events"] for e in executions),
        "sim.run.self_s": span("sim.run")["self_s"],
        "net.build.s": span("net.build")["total_s"],
        "onepipe.build.s": span("onepipe.build")["total_s"],
        "chaos.arm.s": span("chaos.arm")["total_s"],
        "verify.extract.s": span("verify.extract")["total_s"],
        "verify.check.s": span("verify.check")["total_s"],
        "clock.now.calls": span("clock.now")["calls"],
    }
    for name in ("net.link_send", "net.switch_receive", "net.host_receive",
                 "onepipe.sender_send", "onepipe.receiver_on_data",
                 "onepipe.receiver_flush", "onepipe.fabric_emit",
                 "onepipe.engine_on_packet", "clock.now"):
        metrics[f"{name}.self_s"] = span(name)["self_s"]
    for layer, self_s in layers.items():
        metrics[f"layer.{layer}.self_s"] = self_s
        metrics[f"layer.{layer}.share"] = self_s / traced_wall
    metrics["trace.spans"] = len(recorder)
    metrics["trace.wall_s"] = sum(walls)
    metrics["trace.overhead_s"] = sum(walls) - statistics.median(rep_walls)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    load_program(root)
    spec = load_spec(root)
    import workloads  # needs the checkout's src on the import path

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        episodes = workloads.check_seeding(args.workload, args.seed)
        setups = sample_setups(workloads, episodes)
        executions, hosts, rep_walls, reference = repeat(
            workloads, episodes, args.seconds)
        setups += [calibration.to_reference(e.setup_s, h)
                   for e, h in zip(executions, hosts)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        pooled = workloads.pool(reference)
        if args.trace:
            out_path = root / SPAN_DIR / f"{args.workload}.spans.npz"
            values = traced(workloads, episodes, reference,
                            rep_walls, executions, out_path)
            # Counters and ratios come from the untraced outcome.
            values.update({m["name"]: pooled[m["name"]] for m in spec["per_layer"]
                           if m["name"] in pooled})
            values["calibration.s"] = statistics.median(hosts)
            section = "per_layer"
        else:
            values = end_to_end(executions, hosts, setups, pooled, peak_rss_mb)
            # Printed beside the bounded metrics; per-layer in the JSON.
            values.update({name: pooled[name] for name in (
                "lat_samples", "undelivered_frac", "verify.divergences")})
            section = "end_to_end"
    except workloads.BenchmarkError as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    listed = {m["name"]: m for m in spec[section]}
    known = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    if set(listed) - set(values) or set(values) - set(known):
        print("perfbench: measured metrics and BENCHMARK.json disagree: "
              f"{sorted(set(listed) ^ set(values))}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed={args.seed} repetitions={len(rep_walls)} "
          f"episodes={len(episodes)} divergence kinds={pooled['divergence_kinds']}")
    print(f"  host: calibration loop {statistics.median(hosts):.4f} s "
          f"(reference {calibration.REFERENCE_S} s); measured median wall "
          f"{statistics.median(e.wall_s for e in executions):.4f} s")
    for name, value in values.items():
        unit, better = known[name]["unit"], known[name]["better"]
        print(f"  {name:42s} {value:>16.6g} {unit:8s} {better}")
    print(json.dumps({
        "correct": True,
        "attempted": pooled["attempted"],
        "failed": pooled["failed"],
        "metrics": {
            name: {"value": values[name], "unit": listed[name]["unit"]}
            for name in listed
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
