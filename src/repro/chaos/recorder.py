"""Per-endpoint delivery recorder.

Grew out of the integration-test helper in ``tests/onepipe/conftest.py``;
promoted here so tests, examples, the CLI, and the chaos campaign all
share one implementation.  It subscribes to every endpoint's delivery
stream and failure callbacks and offers the two classic total-order
assertions (per-receiver sortedness and pairwise agreement).

For a verdict on the whole §2.1 contract, trace the run and feed it to
:class:`repro.verify.oracle.ReferenceOracle` through
:func:`repro.verify.episodes.extract_observation`, as chaos campaigns
do; :class:`repro.chaos.monitor.InvariantMonitor` builds on the same
``on_recv`` subscription to abort at the first out-of-order delivery.
"""

from __future__ import annotations


class Recorder:
    """Record deliveries, send failures, and process-failure callbacks
    for every endpoint of a cluster."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.deliveries = {i: [] for i in range(cluster.n_processes)}
        self.delivery_times = {i: [] for i in range(cluster.n_processes)}
        self.send_failures = {i: [] for i in range(cluster.n_processes)}
        self.proc_failures = {i: [] for i in range(cluster.n_processes)}
        for i in range(cluster.n_processes):
            ep = cluster.endpoint(i)
            ep.on_recv(self._recv(i))
            ep.set_send_fail_callback(self._fail(i))
            ep.set_proc_fail_callback(self._proc_fail(i))

    def _recv(self, i):
        def cb(message):
            self.deliveries[i].append(message)
            self.delivery_times[i].append(self.sim.now)

        return cb

    def _fail(self, i):
        def cb(ts, dst, payload):
            self.send_failures[i].append((ts, dst, payload))

        return cb

    def _proc_fail(self, i):
        def cb(proc, ts):
            self.proc_failures[i].append((proc, ts))

        return cb

    def total_delivered(self):
        return sum(len(v) for v in self.deliveries.values())

    def keys(self, i):
        """Total-order keys of receiver i's delivery sequence."""
        return [(m.ts, m.src) for m in self.deliveries[i]]

    def assert_per_receiver_order(self):
        for i, msgs in self.deliveries.items():
            keys = [(m.ts, m.src) for m in msgs]
            assert keys == sorted(keys), f"receiver {i} violated total order"

    def assert_pairwise_consistent_order(self):
        """Any two receivers deliver their common messages in the same
        relative order (the paper's total order property)."""
        sequences = {
            i: [(m.ts, m.src, m.payload) for m in msgs]
            for i, msgs in self.deliveries.items()
        }
        for i, seq_i in sequences.items():
            index_i = {key: n for n, key in enumerate(seq_i)}
            for j, seq_j in sequences.items():
                if j <= i:
                    continue
                common = [key for key in seq_j if key in index_i]
                positions = [index_i[key] for key in common]
                assert positions == sorted(positions), (
                    f"receivers {i} and {j} disagree on message order"
                )
