"""Reference oracle for the §2.1 delivery contract.

The oracle is deliberately *not* a simulator: it is a few dozen lines of
pure Python over plain data, simple enough to audit by eye, so that when
it disagrees with the real protocol stack the stack is presumed wrong.

Inputs (an :class:`EpisodeObservation`, extracted from a run):

- every sent message with the timestamp the host agent assigned at NIC
  egress (``None`` if the message never left the send queue);
- the completion outcome of every scattering (the sender-visible 2PC
  result for reliable, "handed to the network" for best effort);
- the failure cutoffs the controller determined (failed proc → failure
  timestamp) and the set of processes that ever failed;
- the per-receiver delivery traces recorded by the expanded
  :class:`repro.sim.trace.Tracer`.

The contract, as checkable statements:

- **O1 total order** — each receiver's delivery sequence is exactly its
  own messages sorted by the global key ``(ts, src, msg_id)``.  (This is
  the *unique legal order* of the delivered set; it also implies
  cross-receiver agreement, since all receivers sort by the same key.)
- **O2 at-most-once** — no ``msg_id`` is delivered twice at a receiver.
- **O3 no fabrication** — everything delivered was sent, to that
  receiver, with that payload, service class, and timestamp.
- **O4 per-pair FIFO** — messages of one sender-receiver pair are
  delivered in send order.
- **O5 failure cutoff** — once a receiver has been told to discard a
  failed sender (its ``discard_from`` notice, carrying the controller's
  failure timestamp), it delivers nothing from that sender at or beyond
  the cutoff.  The atomicity is *restricted* (§5.2): deliveries that
  happened before the notice cannot be retracted and are legal even if
  the eventually-determined cutoff is below their timestamps (the
  application handles those through failure notification callbacks).
- **O6 reliable completion** — a reliable scattering whose sender saw
  completion, from a sender that never failed, is delivered at every
  destination that never failed (requires a drained run: commit barriers
  must have passed the last timestamps).

With an :class:`AttackInfo`, attack-mode rules additionally pin each
planted adversary (the ``byz_*`` fault kinds) to the clause of
:data:`ADVERSARY_CLAUSES` it breaks, and, on the hardened ``bft``
incarnation, check that every adversary left a detection trail
(docs/BYZANTINE.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

# Adversary kind -> the §2.1 clause it breaks in un-hardened modes.
ADVERSARY_CLAUSES = {
    "byz_lying_sender": (
        "§2.1 total order (O1): a sender's timestamps are monotone, so "
        "delivery order matches timestamp order"
    ),
    "byz_corrupt_beacon": (
        "§2.1 ordered delivery (O1) via the §4.2 barrier promise: an "
        "emitted barrier never passes timestamps still in flight"
    ),
    "byz_equivocate": (
        "§2.1 integrity (O3) and agreement: every receiver of a "
        "scattering sees the sender's single message"
    ),
    "byz_forge_notice": (
        "§2.1 reliable completion (O6) and restricted failure atomicity "
        "(O5): correct processes are never evicted on fabricated "
        "failure evidence"
    ),
}

# Legitimate kinds that can cause a justified host eviction (dead links
# long enough for §5.2 Determine to fire).  When any of these is in the
# schedule, eviction attribution is ambiguous and the wrongful-eviction
# check stands down.
EVICTION_CAPABLE = frozenset({
    "crash_host", "cable_flap", "switch_flap", "link_flap",
    "burst_loss", "degrade_link", "straggler", "ctrl_partition",
})

# Adversaries that are processes: the hardened mode is expected to
# evict them, so their eviction is never wrongful.
_PROCESS_ADVERSARIES = ("byz_lying_sender", "byz_equivocate")


@dataclass(frozen=True)
class SentMessage:
    """One message of a scattering, as the sender issued it."""

    msg_id: int
    src: int
    dst: int
    reliable: bool
    payload: Any
    ts: Optional[int]        # NIC-egress timestamp; None if never dispatched
    scattering: int          # index of the owning scattering, in send order
    pair_seq: int            # send sequence number within the (src, dst) pair


@dataclass(frozen=True)
class Delivery:
    """One record of a receiver's delivery trace."""

    time: int                # simulated time of the delivery decision
    receiver: int
    ts: int
    src: int
    msg_id: int
    reliable: bool
    payload: Any

    def key(self) -> Tuple[int, int, int]:
        """The global total-order key (paper §2.1)."""
        return (self.ts, self.src, self.msg_id)


@dataclass
class Evidence:
    """The cluster's Byzantine detection trail at the end of a run,
    copied from the controller and host agents."""

    bft: bool = False            # the run used the hardened incarnation
    grace_ns: int = 0            # allowed accusation -> eviction delay
    accusations: List[Tuple[int, Any]] = field(default_factory=list)  # (time, suspect)
    evictions: List[Tuple[int, int]] = field(default_factory=list)    # (time, proc)
    notices_rejected: int = 0    # failure notices refused at admission
    beacons_rejected: int = 0    # beacons refused by agents and engines


@dataclass
class EpisodeObservation:
    """Everything the oracle needs, extracted from one episode run."""

    sends: List[SentMessage]
    completions: Dict[int, Optional[bool]]   # scattering index -> outcome
    failure_cutoffs: Dict[int, int]          # failed proc -> failure ts
    failed_procs: Set[int]                   # procs that ever failed/closed
    deliveries: Dict[int, List[Delivery]]    # receiver -> chronological trace
    # receiver -> [(notice time, failed proc, cutoff ts)]: when each
    # receiver was told to discard a failed sender (its discard_from
    # call).  O5 is enforceable only from this moment on.
    cutoff_notices: Dict[int, List[Tuple[int, int, int]]] = field(
        default_factory=dict
    )
    # proc -> host id placement, used by the attack-mode checks to map a
    # targeted host to the processes an adversary can frame or corrupt.
    proc_hosts: Dict[int, str] = field(default_factory=dict)
    # The detection trail, for the attack-mode containment rule.
    evidence: Evidence = field(default_factory=Evidence)

    def host_procs(self, host: str) -> List[int]:
        """The processes placed on ``host``, in id order."""
        return sorted(p for p, h in self.proc_hosts.items() if h == host)


@dataclass
class Divergence:
    """One disagreement between the actual trace and the oracle."""

    kind: str                # "order", "duplicate", "fabrication", ...
    detail: str
    receiver: Optional[int] = None
    index: Optional[int] = None     # position in the delivery trace, if any
    seed: Optional[int] = None      # replay coordinates, stamped by the runner
    episode: Optional[int] = None
    mode: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        where = f" seed={self.seed} mode={self.mode}" if self.seed else ""
        return f"[{self.kind}] {self.detail}{where}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "receiver": self.receiver,
            "index": self.index,
            "seed": self.seed,
            "episode": self.episode,
            "mode": self.mode,
        }


@dataclass
class AttackInfo:
    """What the episode's schedule planted, for attack-mode checking.

    ``adversaries`` is ``[(kind, target), ...]`` over the ``byz_*``
    fault kinds; ``eviction_capable_faults`` is True when the schedule
    also contains legitimate faults that could justify an eviction
    (a real crash, a cable cut, ...), in which case the
    wrongful-eviction check stands down.
    """

    adversaries: List[Tuple[str, str]] = field(default_factory=list)
    eviction_capable_faults: bool = False

    def targets(self, kind: str) -> List[str]:
        return [t for k, t in self.adversaries if k == kind]


def order_divergence(
    receiver: int, trace: Sequence[Delivery]
) -> Optional[Divergence]:
    """O1 on one receiver: the first position where ``trace`` departs
    from its own order under the global key, or None.  Later positions
    are all shifted, so only the first is reported."""
    expected = sorted(trace, key=Delivery.key)
    for position, (actual, legal) in enumerate(zip(trace, expected)):
        if actual.msg_id != legal.msg_id:
            return Divergence(
                "order",
                f"receiver {receiver} delivery #{position} is "
                f"msg_id={actual.msg_id} key={actual.key()} but the "
                f"unique legal order puts msg_id={legal.msg_id} "
                f"key={legal.key()} there",
                receiver=receiver, index=position,
            )
    return None


class ReferenceOracle:
    """Compute the legal outcome of an episode and diff the actual one.

    With ``attack`` set (an :class:`AttackInfo`), the check additionally
    runs attack-mode rules that pin each planted adversary to the §2.1
    clause it violates (:data:`ADVERSARY_CLAUSES`) — e.g. a lying sender
    whose timestamps regress and who was never evicted, or a correct
    host framed by a forged failure notice — and, on a ``bft`` run,
    that each adversary was detected.  Without ``attack`` the behavior
    is unchanged.
    """

    def __init__(
        self,
        observation: EpisodeObservation,
        attack: Optional[AttackInfo] = None,
    ) -> None:
        self.obs = observation
        self.attack = attack
        self._by_id: Dict[int, SentMessage] = {
            sent.msg_id: sent for sent in observation.sends
        }
        self._adversary_procs: Set[int] = set()
        if attack is not None:
            self._adversary_procs = {
                proc
                for kind, host in attack.adversaries
                if kind in _PROCESS_ADVERSARIES
                for proc in observation.host_procs(host)
            }

    # ------------------------------------------------------------------
    # The oracle's own answers
    # ------------------------------------------------------------------
    def expected_order(self, receiver: int) -> List[Delivery]:
        """The unique legal order of what ``receiver`` actually delivered:
        its delivered messages sorted by the global key."""
        return sorted(
            self.obs.deliveries.get(receiver, ()), key=Delivery.key
        )

    def required_reliable(self, receiver: int) -> List[SentMessage]:
        """Reliable messages that MUST appear in ``receiver``'s trace:
        entries of completed scatterings between never-failed processes."""
        out = []
        for sent in self.obs.sends:
            if not sent.reliable or sent.dst != receiver:
                continue
            if sent.src in self.obs.failed_procs:
                continue
            if receiver in self.obs.failed_procs:
                continue
            if self.obs.completions.get(sent.scattering) is True:
                out.append(sent)
        return out

    # ------------------------------------------------------------------
    # Conformance checking
    # ------------------------------------------------------------------
    def check(self) -> List[Divergence]:
        """Diff every receiver's trace against the contract.

        Returns divergences in detection order: trace-level problems
        (fabrication, duplicates, ordering, FIFO, cutoffs) first, per
        receiver, then missing reliable deliveries.
        """
        out: List[Divergence] = []
        for receiver in sorted(self.obs.deliveries):
            out.extend(self._check_trace(receiver))
        out.extend(self._check_reliable_completion())
        if self.attack is not None:
            out.extend(self._check_attacks(out))
        return out

    def _check_trace(self, receiver: int) -> List[Divergence]:
        out: List[Divergence] = []
        trace = self.obs.deliveries[receiver]
        seen: Set[int] = set()
        clean: List[Delivery] = []
        pair_pos: Dict[int, int] = {}
        # Earliest discard notice this receiver got per failed sender.
        notices: Dict[int, Tuple[int, int]] = {}
        for time, proc, cutoff in self.obs.cutoff_notices.get(receiver, ()):
            if proc not in notices or time < notices[proc][0]:
                notices[proc] = (time, cutoff)
        for index, delivery in enumerate(trace):
            sent = self._by_id.get(delivery.msg_id)
            if (
                sent is None
                or sent.dst != receiver
                or sent.src != delivery.src
                or sent.reliable != delivery.reliable
                or sent.payload != delivery.payload
                or sent.ts != delivery.ts
            ):
                if (
                    sent is not None
                    and sent.dst == receiver
                    and sent.src == delivery.src
                    and sent.payload != delivery.payload
                    and delivery.src in self._adversary_procs
                ):
                    # Attack mode: a payload that diverges from the one
                    # the adversary's process actually handed down is an
                    # equivocation, not a stack bug.
                    out.append(Divergence(
                        "equivocation",
                        f"receiver {receiver} delivered payload "
                        f"{delivery.payload!r} for msg_id="
                        f"{delivery.msg_id} but process {delivery.src} "
                        f"sent {sent.payload!r} — "
                        f"{ADVERSARY_CLAUSES['byz_equivocate']}",
                        receiver=receiver, index=index,
                    ))
                else:
                    out.append(Divergence(
                        "fabrication",
                        f"receiver {receiver} delivered "
                        f"msg_id={delivery.msg_id} "
                        f"(ts={delivery.ts}, src={delivery.src}) that does "
                        f"not match any send",
                        receiver=receiver, index=index,
                    ))
                continue
            if delivery.msg_id in seen:
                out.append(Divergence(
                    "duplicate",
                    f"receiver {receiver} delivered msg_id={delivery.msg_id} "
                    f"twice",
                    receiver=receiver, index=index,
                ))
                continue
            seen.add(delivery.msg_id)
            # O5: failure cutoff, from the discard notice onward.
            notice = notices.get(sent.src)
            if (
                notice is not None
                and delivery.time > notice[0]
                and sent.ts >= notice[1]
            ):
                out.append(Divergence(
                    "failure_cutoff",
                    f"receiver {receiver} delivered "
                    f"msg_id={delivery.msg_id} ts={sent.ts} from failed "
                    f"process {sent.src} after being told at t="
                    f"{notice[0]} to discard from ts {notice[1]}",
                    receiver=receiver, index=index,
                ))
            # O4: per-pair FIFO in send order.
            last = pair_pos.get(sent.src)
            if last is not None and sent.pair_seq <= last:
                out.append(Divergence(
                    "pair_fifo",
                    f"receiver {receiver} delivered send #{sent.pair_seq} "
                    f"of pair ({sent.src}->{receiver}) after send #{last}",
                    receiver=receiver, index=index,
                ))
            else:
                pair_pos[sent.src] = sent.pair_seq
            clean.append(delivery)
        # O1: the delivered sequence equals its own sorted order.
        divergence = order_divergence(receiver, clean)
        if divergence is not None:
            out.append(divergence)
        return out

    # ------------------------------------------------------------------
    # Attack-mode checks (docs/BYZANTINE.md)
    # ------------------------------------------------------------------
    def _check_attacks(self, trace_divergences: List[Divergence]) -> List[Divergence]:
        attack = self.attack
        out: List[Divergence] = []

        # byz_lying_sender -> §2.1 O1 (monotone timestamps).  A lying
        # process whose assigned timestamps regress across its send
        # sequence, and which the cluster never evicted, broke total
        # order undetected.  A hardened run evicts it, which puts it in
        # failed_procs and satisfies this check.
        lying_hosts = set(attack.targets("byz_lying_sender"))
        if lying_hosts:
            by_src: Dict[int, List[SentMessage]] = {}
            for sent in self.obs.sends:
                if self.obs.proc_hosts.get(sent.src) in lying_hosts:
                    by_src.setdefault(sent.src, []).append(sent)
            for src, sends in sorted(by_src.items()):
                stamps = [
                    s.ts
                    for s in sorted(sends, key=lambda s: s.scattering)
                    if s.ts is not None
                ]
                regressed = any(
                    later < earlier
                    for earlier, later in zip(stamps, stamps[1:])
                )
                if regressed and src not in self.obs.failed_procs:
                    out.append(Divergence(
                        "lying_sender",
                        f"process {src} assigned regressing timestamps "
                        f"and was never evicted — "
                        f"{ADVERSARY_CLAUSES['byz_lying_sender']}",
                    ))

        # byz_corrupt_beacon -> §4.2 barrier promise.  An inflated
        # barrier makes receivers treat honest in-flight messages as
        # late arrivals and NAK them, so the breach usually surfaces as
        # reliable scatterings aborted with *no* legitimate fault in the
        # episode (denial of delivery); occasionally it surfaces as an
        # outright order divergence.  Pin both to the clause.
        if attack.targets("byz_corrupt_beacon"):
            for divergence in trace_divergences:
                if divergence.kind == "order":
                    divergence.extra["clause"] = (
                        ADVERSARY_CLAUSES["byz_corrupt_beacon"]
                    )
            if not attack.eviction_capable_faults:
                denied = sorted({
                    sent.scattering
                    for sent in self.obs.sends
                    if sent.reliable
                    and sent.ts is not None
                    and sent.src not in self.obs.failed_procs
                    and sent.src not in self._adversary_procs
                    and sent.dst not in self.obs.failed_procs
                    and self.obs.completions.get(sent.scattering) is not True
                })
                if denied:
                    out.append(Divergence(
                        "denied_completion",
                        f"{len(denied)} reliable scatterings between "
                        f"correct processes aborted under a corrupted "
                        f"barrier with no legitimate fault present "
                        f"(first: #{denied[0]}), honest messages "
                        f"rejected as late (O6) — "
                        f"{ADVERSARY_CLAUSES['byz_corrupt_beacon']}",
                        extra={"scatterings": denied},
                    ))

        # Wrongful eviction -> §2.1 O5/O6.  With no legitimate fault
        # that could have killed anyone, the only processes that may end
        # up evicted are the lying or equivocating adversaries; anyone
        # else was framed (byz_forge_notice) or collateral damage.
        if not attack.eviction_capable_faults:
            for proc in sorted(self.obs.failed_procs - self._adversary_procs):
                host = self.obs.proc_hosts.get(proc)
                out.append(Divergence(
                    "wrongful_eviction",
                    f"correct process {proc} on {host} was evicted "
                    f"without any real fault — "
                    f"{ADVERSARY_CLAUSES['byz_forge_notice']}",
                ))

        if self.obs.evidence.bft:
            out.extend(self._check_containment())
        return out

    def _check_containment(self) -> List[Divergence]:
        """``bft`` runs: every planted adversary that acted left a
        detection trail — an accused process adversary is evicted
        within the grace window, a corrupt engine whose beacons were
        rejected is accused, a forged notice is rejected."""
        evidence = self.obs.evidence
        out: List[Divergence] = []
        for kind, target in self.attack.adversaries:
            clause = ADVERSARY_CLAUSES[kind]
            if kind in _PROCESS_ADVERSARIES:
                procs = set(self.obs.host_procs(target))
                # An idle adversary (no sends in its window) is
                # indistinguishable from an honest process: eviction is
                # only owed once a receiver or engine accused it.
                accused = [t for t, s in evidence.accusations if s in procs]
                if not accused:
                    continue
                evicted = [t for t, p in evidence.evictions if p in procs]
                if not evicted:
                    out.append(Divergence(
                        "adversary_undetected",
                        f"{kind} on {target} was accused but never "
                        f"evicted — {clause}",
                    ))
                elif min(evicted) - min(accused) > evidence.grace_ns:
                    out.append(Divergence(
                        "slow_eviction",
                        f"{kind} on {target} evicted "
                        f"{min(evicted) - min(accused)}ns after the first "
                        f"accusation (grace {evidence.grace_ns}ns) — "
                        f"{clause}",
                    ))
            elif kind == "byz_corrupt_beacon":
                accused = any(s == target for _t, s in evidence.accusations)
                if evidence.beacons_rejected and not accused:
                    out.append(Divergence(
                        "adversary_undetected",
                        f"corrupt beacon engine {target} had beacons "
                        f"rejected but was never accused — {clause}",
                    ))
            elif kind == "byz_forge_notice" and evidence.notices_rejected < 1:
                out.append(Divergence(
                    "adversary_undetected",
                    f"forged dead-link notice naming {target} was not "
                    f"rejected — {clause}",
                ))
        return out

    def _check_reliable_completion(self) -> List[Divergence]:
        out: List[Divergence] = []
        for receiver in sorted(self.obs.deliveries):
            delivered_ids = {
                d.msg_id for d in self.obs.deliveries[receiver]
            }
            for sent in self.required_reliable(receiver):
                if sent.msg_id not in delivered_ids:
                    out.append(Divergence(
                        "reliable_missing",
                        f"completed reliable scattering #{sent.scattering} "
                        f"from {sent.src}: msg_id={sent.msg_id} "
                        f"(ts={sent.ts}) never delivered at {receiver}",
                        receiver=receiver,
                    ))
        return out
