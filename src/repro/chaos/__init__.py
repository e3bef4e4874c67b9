"""Chaos campaign harness: gray-failure injection + the §2.1 verdict.

The crash-stop injector in :mod:`repro.net.failures` covers the paper's
fail-stop model (§2.1).  This package adds everything a datacenter
actually throws at a total-order fabric — bursty loss, degraded links,
straggling switch CPUs, clock trouble, controller partitions — plus a
seeded campaign runner that drives all three switch incarnations
through randomized fault schedules, judges every episode with the §2.1
reference oracle, and reports violations with replayable seeds.  A live
monitor (per-delivery order, barrier monotonicity) stays available for
early-abort debugging.
"""

from repro.chaos.campaign import CampaignRunner, TrafficDriver, write_report
from repro.chaos.monitor import InvariantMonitor, InvariantViolation
from repro.chaos.recorder import Recorder
from repro.chaos.schedule import ChaosInjector, ChaosSchedule, FaultEvent

__all__ = [
    "CampaignRunner",
    "ChaosInjector",
    "ChaosSchedule",
    "FaultEvent",
    "InvariantMonitor",
    "InvariantViolation",
    "Recorder",
    "TrafficDriver",
    "write_report",
]
