"""Live total-order invariant monitor.

Checks the two §2.1 guarantees that only a live hook can see, at the
moment they break:

- **I1 per-receiver total order** — every receiver's delivery stream is
  sorted by the total-order key ``(ts, sender)`` (checked per delivery,
  so ``raise_immediately`` can abort a run at the first breach).
- **I3 barrier monotonicity** — no host's received best-effort or commit
  barrier ever regresses (checked per barrier update via a hook).

Everything else in the §2.1 contract — agreement, per-pair FIFO,
at-most-once, failure cutoffs, reliable completion — is checked once,
at the end of a run, by :class:`repro.verify.oracle.ReferenceOracle`
on the delivery trace; chaos campaigns and the shootout use the oracle
as their verdict and do not attach this monitor.

A violation is captured as a structured :class:`InvariantViolation`
carrying the simulator seed, so any red run is replayable bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class InvariantViolation(Exception):
    """One broken §2.1 guarantee, with everything needed to replay it."""

    invariant: str          # "per_receiver_order", "barrier_monotonic", ...
    detail: str             # human-readable description
    seed: int               # simulator seed that reproduces the run
    time: int = 0           # simulated ns when detected
    episode: Optional[int] = None   # chaos-campaign episode, if any
    mode: Optional[str] = None      # switch incarnation, if any
    receiver: Optional[int] = None  # receiving process, if any

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        where = f" episode={self.episode} mode={self.mode}" if self.mode else ""
        return (
            f"[{self.invariant}] {self.detail} "
            f"(seed={self.seed}{where} t={self.time})"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "seed": self.seed,
            "time": self.time,
            "episode": self.episode,
            "mode": self.mode,
            "receiver": self.receiver,
        }


class InvariantMonitor:
    """Subscribe to every endpoint of a cluster and check I1 and I3 live.

    Parameters
    ----------
    cluster:
        A built :class:`repro.onepipe.cluster.OnePipeCluster`.
    seed:
        The seed that reproduces this run (stamped on violations);
        defaults to the cluster simulator's seed.
    raise_immediately:
        If True, the first violation is raised as an exception at the
        point of detection; otherwise violations accumulate in
        :attr:`violations`.

    The monitor piggybacks on the public ``on_recv`` hook (which
    supports multiple subscribers) and a wrapped ``_update_barriers``
    per host agent; it wraps no endpoint method.
    """

    def __init__(
        self,
        cluster,
        seed: Optional[int] = None,
        raise_immediately: bool = False,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.seed = seed if seed is not None else cluster.sim.seed
        self.raise_immediately = raise_immediately
        self.violations: List[InvariantViolation] = []
        self._last_key: Dict[int, Tuple[int, int]] = {}

        for index in range(cluster.n_processes):
            endpoint = cluster.endpoint(index)
            endpoint.on_recv(self._make_delivery_callback(endpoint.proc_id))
        for agent in cluster.agents.values():
            self._instrument_agent(agent)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def _instrument_agent(self, agent) -> None:
        original = agent._update_barriers
        host_id = agent.host.node_id

        def hooked(be_barrier, commit_barrier):
            before_be = agent.rx_be_barrier
            before_commit = agent.rx_commit_barrier
            original(be_barrier, commit_barrier)
            if agent.rx_be_barrier < before_be:
                self._record(
                    "barrier_monotonic",
                    f"best-effort barrier regressed at {host_id}: "
                    f"{before_be} -> {agent.rx_be_barrier}",
                )
            if agent.rx_commit_barrier < before_commit:
                self._record(
                    "barrier_monotonic",
                    f"commit barrier regressed at {host_id}: "
                    f"{before_commit} -> {agent.rx_commit_barrier}",
                )

        agent._update_barriers = hooked

    def _make_delivery_callback(self, receiver: int):
        def on_delivery(message) -> None:
            # I1: per-receiver total order.
            key = (message.ts, message.src)
            last = self._last_key.get(receiver)
            if last is not None and key < last:
                self._record(
                    "per_receiver_order",
                    f"receiver {receiver} delivered {key} after {last}",
                    receiver=receiver,
                )
            if last is None or key > last:
                self._last_key[receiver] = key

        return on_delivery

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def final_check(self) -> List[InvariantViolation]:
        """All violations so far.  The live checks have no end-of-run
        part; run :class:`~repro.verify.oracle.ReferenceOracle` on the
        delivery trace for the rest of the contract."""
        return self.violations

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        return counts

    def _record(self, invariant: str, detail: str, receiver=None) -> None:
        violation = InvariantViolation(
            invariant=invariant,
            detail=detail,
            seed=self.seed,
            time=self.sim.now,
            receiver=receiver,
        )
        self.violations.append(violation)
        if self.raise_immediately:
            raise violation
