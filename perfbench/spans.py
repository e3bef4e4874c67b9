"""Span recording for the traced run.

A :class:`SpanRecorder` wraps callables so that every call records one
span: its name, host start and end (``perf_counter_ns``) and the index
of the span that was open when it started (its parent).  Spans are kept
in memory in flat arrays and written out once, at the end.

Three kinds of spans cover a run:

- **phases** opened by the benchmark around its calls into each layer
  (``net.build``, ``onepipe.build``, ``chaos.arm``, ``verify.extract``,
  ``verify.check``, ...), via :meth:`SpanRecorder.phase`;
- **named methods** - public methods of the program wrapped on their
  class (``Link.send`` becomes ``net.link_send``), see :func:`_methods`;
- **events** - every callback handed to the simulator's public
  scheduling calls (``schedule``, ``post_at``, ``every``, ...) is wrapped
  so the event it becomes is a span named after the callback's module
  and function (``event:repro.net.link:Link._deliver``).  This attributes
  the work each event does to the layer that owns it without touching
  the program's private methods.

Wrappers go on the classes, so they must be installed before the
topology and cluster are built: hot-path callbacks are bound once at
construction (``Link._deliver_cb``, ``host.ingress_hook``) and would
otherwise bypass them.  :meth:`SpanRecorder.uninstall` restores every
original attribute.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the simulation is single-threaded.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from typing import Dict, List, Tuple

import numpy as np

# The program's subpackages that the workloads drive; anything else the
# trace sees is reported under its own subpackage name.
LAYERS = ("sim", "net", "clock", "onepipe", "chaos", "verify", "bench", "other")


def _methods():
    """(class, attribute, span name) of every wrapped public method."""
    from repro.clock.clock import HostClock
    from repro.net.link import Link
    from repro.net.nic import Host
    from repro.net.switch import Switch
    from repro.onepipe.analytic import BeaconFabric
    from repro.onepipe.incarnations import ProgrammableChipEngine
    from repro.onepipe.receiver import ProcessReceiver
    from repro.onepipe.sender import ProcessSender
    from repro.sim import Simulator

    return (
        (Simulator, "run", "sim.run"),
        (Link, "send", "net.link_send"),
        (Switch, "receive", "net.switch_receive"),
        (Host, "receive", "net.host_receive"),
        (ProcessSender, "send", "onepipe.sender_send"),
        (ProcessReceiver, "on_data_packet", "onepipe.receiver_on_data"),
        (ProcessReceiver, "flush", "onepipe.receiver_flush"),
        (BeaconFabric, "emit", "onepipe.fabric_emit"),
        (ProgrammableChipEngine, "on_packet", "onepipe.engine_on_packet"),
        (HostClock, "now", "clock.now"),
    )


# Simulator scheduling calls whose callback argument follows one
# positional argument (a delay or a time); ``call_soon`` takes the
# callback first.
SCHEDULERS = ("schedule", "schedule_at", "post", "post_at",
              "schedule_timer", "schedule_timer_at", "every")


def layer_of(name: str) -> str:
    """The layer a span name belongs to."""
    if name.startswith("event:"):
        module = name[6:].split(":", 1)[0]
        parts = module.split(".")
        if parts[0] == "repro" and len(parts) > 1:
            return parts[1]
        return "bench"
    return name.split(".", 1)[0]


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        # Span name -> id, and an event callback's code object -> id.
        self._ids: Dict[object, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str):
        """``fn`` recording one span named ``name`` per call."""
        return self._wrap(fn, self._intern(name))

    def _wrap(self, fn, nid: int):
        name_id, parent, start, end = (
            self.name_id.append, self.parent.append, self.start.append,
            self.end.append)
        ends = self.end
        stack = self._stack
        clock = time.perf_counter_ns

        # The clock reads bracket the bookkeeping, so a span's own
        # recording cost lands in its self time, not in its parent's.
        def span(*args, **kwargs):
            begin = clock()
            index = len(ends)
            name_id(nid)
            parent(stack[-1])
            start(begin)
            end(0)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[index] = clock()

        return span

    def _event(self, callback):
        """``callback`` as an event span named after its function."""
        func = getattr(callback, "__func__", callback)
        key = getattr(func, "__code__", None) or type(callback)
        nid = self._ids.get(key)
        if nid is None:
            module = getattr(func, "__module__", None) or "?"
            qual = getattr(func, "__qualname__", type(callback).__name__)
            nid = self._ids[key] = self._intern(f"event:{module}:{qual}")
        return self._wrap(callback, nid)

    @contextlib.contextmanager
    def phase(self, name: str):
        """A span around a block of the benchmark's own code."""
        index = len(self.end)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.end[index] = time.perf_counter_ns()

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap :func:`_methods` and the simulator's scheduling calls."""
        from repro.sim import Simulator

        for owner, attr, name in _methods():
            self._patch(owner, attr, self.wrap(owner.__dict__[attr], name))
        event = self._event
        for attr in SCHEDULERS:
            original = Simulator.__dict__[attr]

            def scheduler(sim, when, callback, *args, _orig=original, **kw):
                return _orig(sim, when, event(callback), *args, **kw)

            self._patch(Simulator, attr, scheduler)
        original = Simulator.__dict__["call_soon"]

        def call_soon(sim, callback, *args, _orig=original):
            return _orig(sim, event(callback), *args)

        self._patch(Simulator, "call_soon", call_soon)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.end)

    def arrays(self):
        """(name_id, parent, start, end) as NumPy arrays (no copy)."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        names, parent, start, end = self.arrays()
        if (end == 0).any():
            raise RuntimeError("summary() with spans still open")
        duration = (end - start).astype(np.float64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child],
                              minlength=len(duration))
        own = duration - covered
        count = len(self.names)
        calls = np.bincount(names, minlength=count)
        total = np.bincount(names, weights=duration, minlength=count)
        self_ns = np.bincount(names, weights=own, minlength=count)
        return {
            name: {"calls": int(calls[i]), "total_s": total[i] / 1e9,
                   "self_s": self_ns[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span: names, name ids, parents, start and end."""
        names, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=names,
                 parent=parent, start_ns=start, end_ns=end)
