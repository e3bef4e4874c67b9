"""Tests for the deterministic episode fan-out (repro.parallel) and the
byte-identity guarantee of --jobs on both campaign runners."""

import json
import os
import threading

import pytest

from repro.chaos import CampaignRunner
from repro.onepipe.config import ALL_MODES
from repro.parallel import ParallelWorkerError, run_ordered
from repro.verify import VerifyRunner


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


def _die_on_three(x):
    if x == 3:
        os._exit(42)          # hard crash: no exception, no cleanup
    return x


def _unpicklable(x):
    return threading.Lock()   # cannot cross the process boundary


def _unpicklable_on_three(x):
    return threading.Lock() if x == 3 else x


class TestRunOrdered:
    def test_inline_preserves_order(self):
        assert run_ordered(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_pool_preserves_order(self):
        assert run_ordered(_square, list(range(8)), jobs=4) == [
            x * x for x in range(8)
        ]

    def test_progress_fires_in_submission_order(self):
        seen = []
        run_ordered(_square, [4, 2, 7], jobs=2, progress=seen.append)
        assert seen == [16, 4, 49]

    def test_single_payload_runs_inline(self):
        assert run_ordered(_square, [5], jobs=8) == [25]

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_ordered(_square, [1], jobs=0)

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            run_ordered(_fail_on_three, [1, 2, 3], jobs=2)

    def test_worker_crash_raises_instead_of_hanging(self):
        """A worker process dying hard (os._exit, OOM-kill, segfault)
        must surface as a clear error — the old Pool.imap merge loop
        would block forever waiting for the lost result."""
        with pytest.raises(ParallelWorkerError, match="died"):
            run_ordered(_die_on_three, [1, 2, 3, 4], jobs=2)

    def test_non_picklable_result_names_the_worker(self):
        with pytest.raises(ParallelWorkerError, match="_unpicklable"):
            run_ordered(_unpicklable, [1, 2], jobs=2)

    def test_non_picklable_does_not_poison_earlier_results(self):
        """Payloads merged before the failure still come through (the
        error is raised at the failing payload's merge position)."""
        merged = []
        with pytest.raises(ParallelWorkerError):
            run_ordered(
                _unpicklable_on_three, [1, 2, 3, 4], jobs=2,
                progress=merged.append,
            )
        assert merged == [1, 2]


CHAOS_KNOBS = dict(
    episodes=3,
    n_processes=8,
    horizon_ns=600_000,
    drain_ns=1_500_000,
    faults_per_episode=2,
)


class TestChaosJobs:
    def test_parallel_report_is_byte_identical(self):
        adversarial = dict(
            CHAOS_KNOBS, episodes=4, modes=ALL_MODES, adversarial=True
        )
        for knobs in (CHAOS_KNOBS, adversarial):
            sequential = json.dumps(
                CampaignRunner(seed=5, **knobs).run(), sort_keys=True
            )
            parallel = json.dumps(
                CampaignRunner(seed=5, jobs=3, **knobs).run(),
                sort_keys=True,
            )
            assert sequential == parallel

    def test_parallel_progress_arrives_in_episode_order(self):
        order = []
        CampaignRunner(
            seed=5, jobs=2,
            progress=lambda report: order.append(report["episode"]),
            **CHAOS_KNOBS,
        ).run()
        assert order == [0, 1, 2]


VERIFY_KNOBS = dict(seed=9, episodes=2, modes=("chip",), n_faults=1)


class TestVerifyJobs:
    def test_parallel_report_is_byte_identical(self):
        sequential = json.dumps(
            VerifyRunner(**VERIFY_KNOBS).run(), sort_keys=True
        )
        parallel = json.dumps(
            VerifyRunner(jobs=2, **VERIFY_KNOBS).run(), sort_keys=True
        )
        assert sequential == parallel

    def test_parallel_progress_arrives_in_submission_order(self):
        lines = []
        VerifyRunner(
            seed=9, episodes=2, modes=("chip", "switch_cpu"), n_faults=1,
            jobs=2, progress=lines.append,
        ).run()
        prefixes = [line.split(":")[0] for line in lines]
        assert prefixes == [
            "episode 0 mode=chip", "episode 0 mode=switch_cpu",
            "episode 1 mode=chip", "episode 1 mode=switch_cpu",
        ]
