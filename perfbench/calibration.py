"""A fixed pure-Python workload that tracks the host's current speed.

Shared machines drift: on the 2-vCPU box this benchmark was tuned on,
the same episode took 1.26 s in one minute and 2.15 s a few minutes
later.  :func:`measure` times a small discrete-event loop of its own
(heap of timestamped events, slotted packet objects, per-node routing
dicts, a fresh packet every few hops) whose mix of allocation, attribute
access and ``heapq`` work resembles the simulator's.  It shares no code
with the program, so a change to the program does not move it.  Timed
next to an episode, it turns measured seconds into seconds at a
reference speed (:func:`to_reference`); over five minutes of drift the
episode's raw time varied by 41% between one-minute blocks and the
calibrated time by 9%.
"""

from __future__ import annotations

import gc
import heapq
import time

# What :func:`measure` takes at the reference speed; calibrated times
# are measured times scaled to it.
REFERENCE_S = 0.25

_EVENTS = 150_000
_NODES = 64


class _Packet:
    __slots__ = ("dst", "size", "hops")

    def __init__(self, dst: int, size: int) -> None:
        self.dst = dst
        self.size = size
        self.hops = 0


class _Node:
    def __init__(self, index: int) -> None:
        self.index = index
        self.rx = 0
        self.bytes = 0
        self.routes = {}


def _loop() -> int:
    nodes = [_Node(i) for i in range(_NODES)]
    for node in nodes:
        node.routes = {d: nodes[(node.index * 7 + d) % _NODES] for d in range(_NODES)}
    heap = [(i, i, nodes[i % _NODES], _Packet((i * 13) % _NODES, 64))
            for i in range(256)]
    heapq.heapify(heap)
    seq, x = len(heap), 12345
    for _ in range(_EVENTS):
        now, _seq, node, packet = heapq.heappop(heap)
        node.rx += 1
        node.bytes += packet.size
        packet.hops += 1
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        if packet.hops > 5:
            packet = _Packet(x % _NODES, 64 + (x & 255))
        seq += 1
        heapq.heappush(heap, (now + 100 + (x & 1023), seq, node.routes[packet.dst], packet))
    return sum(node.rx for node in nodes)


def measure() -> float:
    """Seconds the calibration loop takes now."""
    gc.collect()
    start = time.perf_counter()
    if _loop() != _EVENTS:
        raise RuntimeError("calibration loop lost events")
    return time.perf_counter() - start


def to_reference(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured while the loop took ``calibration_s``, as
    seconds at the reference speed."""
    return seconds * REFERENCE_S / calibration_s
