"""The committed breach reproducers, replayed both ways.

Each JSON under ``reproducers/`` is a minimal adversarial episode
(docs/BYZANTINE.md).  For every one of the four adversary kinds these
tests prove the acceptance loop:

- replayed in an **un-hardened** incarnation, the episode fails the
  reference oracle, and the divergence names the §2.1 clause the
  adversary violates;
- replayed in **MODE_BFT** with the identical (seed, schedule), the
  oracle is clean and the adversary was detected — accused, and where
  the adversary is a process, evicted within the configured grace
  window of the first accusation.
"""

import json
import os

import pytest

from repro.onepipe.config import MODE_BFT, OnePipeConfig
from repro.verify.episodes import EpisodeSpec
from repro.verify.oracle import ADVERSARY_CLAUSES
from repro.verify.runner import check_episode

REPRO_DIR = os.path.join(os.path.dirname(__file__), "reproducers")


def load_spec(name: str) -> EpisodeSpec:
    with open(os.path.join(REPRO_DIR, f"{name}.json")) as fh:
        return EpisodeSpec.from_dict(json.load(fh))


def run_both(name: str):
    """Replay a reproducer in its committed (chip) mode and in bft.

    Returns ``(chip_divergences, bft_run, bft_divergences, controller)``
    with the bft cluster's controller captured for detection evidence.
    """
    spec = load_spec(name)
    assert spec.mode != MODE_BFT, "reproducers are committed un-hardened"
    _run, chip_divs = check_episode(spec)
    captured = []
    bft_run, bft_divs = check_episode(
        spec.with_mode(MODE_BFT), mutate=captured.append
    )
    return chip_divs, bft_run, bft_divs, captured[0].controller


def grace_ns() -> int:
    config = OnePipeConfig(mode=MODE_BFT)
    return config.byz_eviction_grace_intervals * config.beacon_interval_ns


def assert_evicted_within_grace(controller, target_procs):
    first_accusation = min(
        t for (t, _a, s, _d) in controller.accusations
        if s in target_procs
    )
    eviction_times = [
        t for (t, p, _d) in controller.evictions if p in target_procs
    ]
    assert eviction_times, "adversary accused but never evicted"
    assert min(eviction_times) - first_accusation <= grace_ns()


class TestLyingSender:
    def test_breach_and_hardened_pass(self):
        chip_divs, bft_run, bft_divs, controller = run_both("lying_sender")
        kinds = {d.kind for d in chip_divs}
        assert "lying_sender" in kinds
        named = next(d for d in chip_divs if d.kind == "lying_sender")
        assert "total order (O1)" in named.detail
        assert bft_divs == []
        # Process 0 (on the lying host) was accused and evicted.
        assert 0 in bft_run.observation.failed_procs
        assert_evicted_within_grace(controller, {0})


class TestEquivocate:
    def test_breach_and_hardened_pass(self):
        chip_divs, bft_run, bft_divs, controller = run_both("equivocate")
        kinds = {d.kind for d in chip_divs}
        assert "equivocation" in kinds
        named = next(d for d in chip_divs if d.kind == "equivocation")
        assert "integrity (O3)" in named.detail
        assert bft_divs == []
        assert 0 in bft_run.observation.failed_procs
        assert_evicted_within_grace(controller, {0})


class TestCorruptBeacon:
    def test_breach_and_hardened_pass(self):
        chip_divs, bft_run, bft_divs, controller = run_both(
            "corrupt_beacon"
        )
        kinds = {d.kind for d in chip_divs}
        assert "denied_completion" in kinds or "order" in kinds
        named = next(
            d for d in chip_divs
            if d.kind in ("denied_completion", "order")
        )
        clause = named.detail + str(named.extra.get("clause", ""))
        assert "barrier promise" in clause
        assert bft_divs == []
        # The corrupt engine is a component, not a process: it is
        # accused by the hosts below it and its links are demoted
        # (graceful degradation) — while every honest reliable
        # scattering still completes.
        accused = {s for (_t, _a, s, _d) in controller.accusations}
        assert "tor0.0.down" in accused
        assert "tor0.0.down" in controller._demoted_components
        assert bft_run.messages_delivered == bft_run.sends_issued
        assert bft_run.observation.failed_procs == set()


class TestForgeNotice:
    def test_breach_and_hardened_pass(self):
        chip_divs, bft_run, bft_divs, controller = run_both("forge_notice")
        kinds = {d.kind for d in chip_divs}
        assert "wrongful_eviction" in kinds
        named = next(d for d in chip_divs if d.kind == "wrongful_eviction")
        assert "(O6)" in named.detail and "(O5)" in named.detail
        assert bft_divs == []
        # Both the forged notice and its replay were rejected at
        # admission; the framed host keeps running.
        assert controller.reports_rejected >= 2
        assert bft_run.observation.failed_procs == set()


class TestClauses:
    def test_every_adversary_has_a_committed_reproducer(self):
        committed = {
            name[:-len(".json")]
            for name in os.listdir(REPRO_DIR)
            if name.endswith(".json")
        }
        expected = {k[len("byz_"):] for k in ADVERSARY_CLAUSES}
        assert expected <= committed

    @pytest.mark.parametrize("name", sorted(ADVERSARY_CLAUSES))
    def test_reproducer_carries_its_fault_kind(self, name):
        spec = load_spec(name[len("byz_"):])
        assert any(event.kind == name for event in spec.faults)
