"""Drive fuzzed episodes across incarnations and report conformance.

``VerifyRunner`` is the engine behind ``python -m repro.cli verify``:
it generates ``episodes`` seeded workloads, replays each on every
requested switch incarnation, diffs the delivery traces against the
:class:`repro.verify.oracle.ReferenceOracle`, and — on the first
divergence — shrinks the failing episode to a minimal reproducer whose
replay coordinates (seed, episode, mode) land in the JSON report.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.onepipe.config import MODES
from repro.parallel import run_ordered
from repro.verify.episodes import (
    EpisodeRun,
    EpisodeSpec,
    VerifyHarnessError,
    generate_episode,
    replay_episode,
)
from repro.verify.oracle import (
    ADVERSARY_CLAUSES,
    EVICTION_CAPABLE,
    AttackInfo,
    Divergence,
    EpisodeObservation,
    ReferenceOracle,
)
from repro.verify.shrink import shrink_episode

# Same convention as the chaos campaign: episode seeds are far apart so
# the named RNG streams of different episodes never collide.
EPISODE_SEED_STRIDE = 1_000_003


def episode_seed(seed: int, episode: int) -> int:
    return seed * EPISODE_SEED_STRIDE + episode


def attack_info(faults: Iterable) -> Optional[AttackInfo]:
    """Derive the oracle's attack-mode input from a fault list.

    Returns None for fault lists without adversarial (``byz_*``) kinds,
    so plain runs check exactly as before this mode existed.
    """
    faults = list(faults)
    adversaries = [
        (event.kind, event.target)
        for event in faults
        if event.kind in ADVERSARY_CLAUSES
    ]
    if not adversaries:
        return None
    return AttackInfo(
        adversaries=adversaries,
        eviction_capable_faults=any(
            event.kind in EVICTION_CAPABLE for event in faults
        ),
    )


def verdict(
    observation: EpisodeObservation, faults: Iterable, seed: int,
    episode: int, mode: str,
) -> List[Divergence]:
    """The §2.1 verdict on one finished run: the reference oracle (in
    attack mode when ``faults`` plant adversaries), with every
    divergence stamped with the run's replay coordinates."""
    divergences = ReferenceOracle(observation, attack=attack_info(faults)).check()
    for divergence in divergences:
        divergence.seed = seed
        divergence.episode = episode
        divergence.mode = mode
    return divergences


def check_episode(
    spec: EpisodeSpec,
    mutate: Optional[Callable[..., None]] = None,
    metrics: bool = False,
    analytic_beacons: bool = False,
) -> Tuple[EpisodeRun, List[Divergence]]:
    """Replay ``spec`` and diff its traces against the oracle.

    Specs carrying adversarial faults automatically get the oracle's
    attack-mode checks — replaying a committed breach reproducer needs
    no extra flags.  Every divergence is stamped with the spec's replay
    coordinates so a report line alone is enough to reproduce it.
    """
    run = replay_episode(
        spec, mutate=mutate, metrics=metrics,
        analytic_beacons=analytic_beacons,
    )
    return run, verdict(
        run.observation, spec.faults, spec.seed, spec.episode, spec.mode
    )


def _check_one(
    knobs: Dict[str, Any],
    index: int,
    mode: str,
    mutate: Optional[Callable[..., None]] = None,
) -> Dict[str, Any]:
    """Generate-and-check one (episode, mode) pair from explicit knobs.

    Returns a plain-dict outcome (a ``result`` or a ``harness_error``)
    so it can cross a process boundary.
    """
    ep_seed = episode_seed(knobs["seed"], index)
    spec = generate_episode(
        seed=ep_seed,
        episode=index,
        mode=mode,
        scale=knobs["scale"],
        n_faults=knobs["n_faults"],
        adversarial=knobs.get("adversarial", False),
    )
    try:
        run, divergences = check_episode(
            spec, mutate=mutate, metrics=knobs.get("metrics", False),
            analytic_beacons=knobs.get("analytic_beacons", False),
        )
    except VerifyHarnessError as exc:
        return {
            "harness_error": {
                "episode": index,
                "mode": mode,
                "seed": ep_seed,
                "error": str(exc),
            }
        }
    result: Dict[str, Any] = {
        "episode": index,
        "mode": mode,
        "seed": ep_seed,
        "sends_issued": run.sends_issued,
        "sends_skipped": run.sends_skipped,
        "messages_delivered": run.messages_delivered,
        "late_naks": run.late_naks,
        "faults": len(spec.faults),
        "divergences": [d.to_dict() for d in divergences],
    }
    if run.metrics is not None:
        result["metrics"] = run.metrics
    return {"result": result}


def _episode_worker(payload) -> Dict[str, Any]:
    """Pool entry point (module-level so it pickles)."""
    knobs, index, mode = payload
    return _check_one(knobs, index, mode)


class VerifyRunner:
    """N fuzzed episodes x M incarnations -> deterministic report."""

    def __init__(
        self,
        seed: int = 1,
        episodes: int = 10,
        modes: Optional[Sequence[str]] = None,
        scale: str = "small",
        n_faults: int = 3,
        shrink: bool = True,
        max_shrink_replays: int = 60,
        mutate: Optional[Callable[..., None]] = None,
        metrics: bool = False,
        adversarial: bool = False,
        analytic_beacons: bool = False,
        jobs: int = 1,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.seed = seed
        self.episodes = episodes
        self.modes = tuple(modes) if modes else MODES
        self.scale = scale
        self.n_faults = n_faults
        self.metrics = metrics
        self.adversarial = adversarial
        # Replay on the virtual beacon fabric; the report is
        # byte-identical either way (the fabric is exact), so the flag
        # never appears in the JSON — CI diffs the two to prove it.
        self.analytic_beacons = analytic_beacons
        self.shrink = shrink
        self.max_shrink_replays = max_shrink_replays
        self.mutate = mutate
        self.jobs = jobs
        self.progress = progress or (lambda _line: None)

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Check every (episode, mode) pair and assemble the report.

        With ``jobs > 1`` the pairs fan out over a process pool; the
        report stays byte-identical to a sequential run because every
        pair is a pure function of its episode seed (``replay_episode``
        pins the process-wide message-id counter), outcomes merge in
        submission order, and shrinking runs after the sweep on the
        first divergent pair in that same order.  ``mutate`` hooks are
        arbitrary callables, so they force ``jobs=1``.
        """
        knobs = {
            "seed": self.seed,
            "scale": self.scale,
            "n_faults": self.n_faults,
            "metrics": self.metrics,
            "adversarial": self.adversarial,
            "analytic_beacons": self.analytic_beacons,
        }
        payloads = [
            (knobs, index, mode)
            for index in range(self.episodes)
            for mode in self.modes
        ]
        jobs = self.jobs if self.mutate is None else 1

        def merge_progress(outcome: Dict[str, Any]) -> None:
            error = outcome.get("harness_error")
            if error is not None:
                self.progress(
                    f"episode {error['episode']} mode={error['mode']}: "
                    f"harness error: {error['error']}"
                )
            else:
                result = outcome["result"]
                self.progress(
                    f"episode {result['episode']} mode={result['mode']}: "
                    f"{result['messages_delivered']} delivered, "
                    f"{len(result['divergences'])} divergences"
                )

        if jobs == 1 and self.mutate is not None:
            outcomes = []
            for payload in payloads:
                outcome = _check_one(*payload, mutate=self.mutate)
                merge_progress(outcome)
                outcomes.append(outcome)
        else:
            outcomes = run_ordered(
                _episode_worker, payloads, jobs=jobs, progress=merge_progress
            )

        results: List[Dict[str, Any]] = []
        harness_errors: List[Dict[str, Any]] = []
        divergence_count = 0
        first_divergent: Optional[Dict[str, Any]] = None
        for outcome in outcomes:
            error = outcome.get("harness_error")
            if error is not None:
                harness_errors.append(error)
                continue
            result = outcome["result"]
            results.append(result)
            divergence_count += len(result["divergences"])
            if result["divergences"] and first_divergent is None:
                first_divergent = result

        shrunk: Optional[Dict[str, Any]] = None
        if first_divergent is not None and self.shrink:
            spec = generate_episode(
                seed=first_divergent["seed"],
                episode=first_divergent["episode"],
                mode=first_divergent["mode"],
                scale=self.scale,
                n_faults=self.n_faults,
                adversarial=self.adversarial,
            )
            shrunk = self._shrink(spec)

        report: Dict[str, Any] = {
            "schema": "repro.verify/1",
            "seed": self.seed,
            "episodes": self.episodes,
            "modes": list(self.modes),
            "scale": self.scale,
            "n_faults": self.n_faults,
            "metrics": self.metrics,
            "episodes_run": len(results),
            "divergence_count": divergence_count,
            "harness_errors": harness_errors,
            "results": results,
            "ok": not divergence_count and not harness_errors,
        }
        if self.adversarial:
            # Gated so pre-existing reports stay byte-identical.
            report["adversarial"] = True
        if shrunk is not None:
            report["shrunk_reproducer"] = shrunk
        return report

    # ------------------------------------------------------------------
    def _shrink(self, spec: EpisodeSpec) -> Dict[str, Any]:
        self.progress(
            f"shrinking episode {spec.episode} mode={spec.mode} "
            f"({len(spec.sends)} sends, {len(spec.faults)} faults)..."
        )

        def diverges(candidate: EpisodeSpec) -> bool:
            _run, divs = check_episode(
                candidate, mutate=self.mutate,
                analytic_beacons=self.analytic_beacons,
            )
            return bool(divs)

        small, replays = shrink_episode(
            spec, diverges, max_replays=self.max_shrink_replays
        )
        _run, divs = check_episode(
            small, mutate=self.mutate,
            analytic_beacons=self.analytic_beacons,
        )
        self.progress(
            f"shrunk to {len(small.sends)} sends, {len(small.faults)} faults "
            f"in {replays} replays"
        )
        return {
            "replays": replays,
            "sends": len(small.sends),
            "faults": len(small.faults),
            "first_divergence": divs[0].to_dict() if divs else None,
            "spec": small.to_dict(),
        }


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write a verification report as stable (byte-identical) JSON."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
