"""Route tables equal the per-host shortest-path walk, entry for entry.

``compute_routes`` shares one reverse BFS among destination hosts with
the same predecessor set.  The reference below is the straightforward
computation it replaced: one reverse BFS per destination host over a
(filtered) copy of the graph, installing at every switch each out-link
that descends the distance gradient.  Key order and link order of
``Switch.routes`` decide ECMP picks and therefore every simulated
result, so the comparison is on ordered lists, not sets.
"""

import random

import networkx as nx
import pytest

from repro.bench.scalebench import fat_tree_params
from repro.net import (
    FailureInjector,
    TopologyParams,
    build_fat_tree,
    build_single_rack,
    build_testbed,
)
from repro.net.nic import Host
from repro.net.routing import clear_routes, compute_routes
from repro.net.switch import Switch
from repro.net.topology import Topology
from repro.onepipe import OnePipeCluster
from repro.sim import Simulator

from tests.net.test_topology_variants import big_params
from tests.onepipe.conftest import Recorder

DAG_ERROR = "switch routing graph must be a DAG (up/down logical split)"


def reference_routes(graph, hosts, exclude_links=frozenset()):
    """``{switch id: {dst: [links]}}`` and the entry count, per-host walk."""
    if exclude_links:
        working = nx.DiGraph()
        working.add_nodes_from(graph.nodes(data=True))
        for u, v, data in graph.edges(data=True):
            if data.get("link") not in exclude_links:
                working.add_edge(u, v, **data)
        graph = working
    switch_ids = [
        node_id
        for node_id, data in graph.nodes(data=True)
        if isinstance(data.get("obj"), Switch)
    ]
    if not nx.is_directed_acyclic_graph(graph.subgraph(switch_ids)):
        raise ValueError(DAG_ERROR)
    tables = {node_id: {} for node_id in switch_ids}
    installed = 0
    for host in hosts:
        dst = host.node_id
        dist = {dst: 0}
        queue = [dst]
        for node_id in queue:
            if node_id != dst and isinstance(
                graph.nodes[node_id].get("obj"), Host
            ):
                continue
            for pred in graph.predecessors(node_id):
                if pred not in dist:
                    dist[pred] = dist[node_id] + 1
                    queue.append(pred)
        for node_id, node_dist in dist.items():
            if node_id == dst or node_id not in tables:
                continue
            for _, nbr, data in graph.out_edges(node_id, data=True):
                if dist.get(nbr, -1) == node_dist - 1:
                    tables[node_id].setdefault(dst, []).append(data["link"])
                    installed += 1
    return tables, installed


def installed_tables(topo):
    return {
        node_id: dict(switch.routes)
        for node_id, switch in topo.switches.items()
    }


def assert_identical(actual, expected):
    """Same switches, same destination order, same link order."""
    assert list(actual) == list(expected)
    for node_id, routes in expected.items():
        got = actual[node_id]
        assert list(got) == list(routes), node_id
        for dst, links in routes.items():
            assert got[dst] == links, (node_id, dst)


def recompute_and_compare(topo, hosts=None, exclude_links=frozenset()):
    hosts = topo.hosts if hosts is None else hosts
    expected, count = reference_routes(topo.graph, hosts, exclude_links)
    clear_routes(topo.graph)
    installed = compute_routes(topo.graph, hosts, exclude_links=exclude_links)
    assert installed == count
    assert_identical(installed_tables(topo), expected)


def single_rack():
    return build_single_rack(Simulator(seed=1))[0]


def two_host_rack():
    return build_fat_tree(
        Simulator(seed=1),
        TopologyParams(
            n_pods=1, tors_per_pod=1, spines_per_pod=1, n_cores=1,
            hosts_per_tor=2,
        ),
    )


TOPOLOGIES = {
    "testbed": lambda: build_testbed(Simulator(seed=1)),
    "single_rack": single_rack,
    "k4": lambda: build_fat_tree(Simulator(seed=1), fat_tree_params(4)),
    "k8": lambda: build_fat_tree(Simulator(seed=1), fat_tree_params(8)),
    "oversubscribed": lambda: build_fat_tree(
        Simulator(seed=1), TopologyParams(oversubscription=2.0)
    ),
    "big_params": lambda: build_fat_tree(Simulator(seed=1), big_params()),
    "two_host_rack": two_host_rack,
}


class TestBuildTables:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_build_installs_reference_tables(self, name):
        topo = TOPOLOGIES[name]()
        expected, _count = reference_routes(topo.graph, topo.hosts)
        assert_identical(installed_tables(topo), expected)

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_recompute_count_and_tables(self, name):
        recompute_and_compare(TOPOLOGIES[name]())

    def test_host_subset_in_shuffled_order(self):
        topo = build_testbed(Simulator(seed=1))
        hosts = list(topo.hosts)
        random.Random(3).shuffle(hosts)
        recompute_and_compare(topo, hosts=hosts[:13])

    def test_recompute_without_clear_appends(self):
        # Installing over existing tables appends to them.
        topo = build_single_rack(Simulator(seed=1), n_hosts=3)[0]
        expected, count = reference_routes(topo.graph, topo.hosts)
        assert compute_routes(topo.graph, topo.hosts) == count
        for node_id, routes in expected.items():
            for dst, links in routes.items():
                assert topo.switches[node_id].routes[dst] == links + links


def core_links(topo, name):
    core = topo.switches[name]
    return frozenset(core.in_links) | frozenset(core.out_links)


class TestExcludedLinks:
    def test_host_links(self):
        topo = build_testbed(Simulator(seed=1))
        host = topo.host(5)
        recompute_and_compare(
            topo, exclude_links=frozenset({host.uplink, host.downlink})
        )

    def test_spine_loopback(self):
        topo = build_testbed(Simulator(seed=1))
        loopback = topo.link("spine0.0.up", "spine0.0.down")
        recompute_and_compare(topo, exclude_links=frozenset({loopback}))

    def test_every_link_of_one_core(self):
        topo = build_fat_tree(Simulator(seed=1), fat_tree_params(8))
        recompute_and_compare(topo, exclude_links=core_links(topo, "core0"))

    @pytest.mark.parametrize("seed", range(24))
    def test_random_exclusions(self, seed):
        rng = random.Random(seed)
        topo = TOPOLOGIES["testbed" if seed % 2 else "k4"]()
        links = sorted(topo.links.values(), key=lambda link: link.name)
        dead = set(rng.sample(links, rng.randint(1, 12)))
        if seed % 3 == 0:
            dead |= {topo.host(rng.randrange(len(topo.hosts))).uplink}
        if seed % 4 == 0:
            dead |= core_links(topo, "core0")
        recompute_and_compare(topo, exclude_links=frozenset(dead))


def random_topology(seed):
    """An irregular switch DAG with hosts wired to random switches.

    Some hosts share a predecessor set, some hosts send to other hosts,
    and some switches are reachable only through a host.
    """
    rng = random.Random(seed)
    topo = Topology(Simulator(seed=seed), TopologyParams())
    n_switches = rng.randint(3, 9)
    switches = [topo.add_switch(f"s{i}", 250) for i in range(n_switches)]
    for i, src in enumerate(switches):
        for dst in switches[i + 1:]:
            if rng.random() < 0.35:
                topo.add_link(src, dst, 100.0)
    hosts = [topo.add_host(f"h{i}") for i in range(rng.randint(2, 10))]
    for i, host in enumerate(hosts):
        for switch in rng.sample(switches, rng.randint(1, 2)):
            topo.add_link(host, switch, 100.0)
        if i and rng.random() < 0.5:
            # share the previous host's predecessors
            preds = [link.src for link in hosts[i - 1].in_links]
        else:
            preds = rng.sample(switches, rng.randint(1, 2))
        for pred in preds:
            topo.add_link(pred, host, 100.0)
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(hosts, 2)
        if f"{a.node_id}->{b.node_id}" not in topo.links:
            topo.add_link(a, b, 100.0)
    return topo


class TestIrregularGraphs:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_dag(self, seed):
        topo = random_topology(seed)
        recompute_and_compare(topo)
        links = sorted(topo.links.values(), key=lambda link: link.name)
        dead = frozenset(random.Random(seed).sample(links, min(3, len(links))))
        recompute_and_compare(topo, exclude_links=dead)


class TestSwitchCycle:
    def error_text(self, graph, hosts):
        with pytest.raises(ValueError) as expected:
            reference_routes(graph, hosts)
        with pytest.raises(ValueError) as actual:
            compute_routes(graph, hosts)
        return str(actual.value), str(expected.value)

    def test_loopback_reversed(self):
        topo = build_testbed(Simulator(seed=1))
        topo.add_link(
            topo.switches["spine1.0.down"], topo.switches["spine1.0.up"], 100.0
        )
        actual, expected = self.error_text(topo.graph, topo.hosts)
        assert actual == expected == DAG_ERROR

    def test_switch_self_loop(self):
        topo = build_single_rack(Simulator(seed=1))[0]
        tor = topo.switches["tor0.0.up"]
        topo.add_link(tor, tor, 100.0)
        actual, expected = self.error_text(topo.graph, topo.hosts)
        assert actual == expected == DAG_ERROR


class TestControllerReroute:
    def test_reroute_after_core_failure_installs_reference_tables(self):
        sim = Simulator(seed=52)
        cluster = OnePipeCluster(sim, n_processes=32)
        rec = Recorder(cluster)
        topo = cluster.topology
        FailureInjector(topo).crash_switch("core0", at=100_000)

        def traffic(r):
            for s in range(0, 8):
                cluster.endpoint(s).reliable_send([(s + 16, f"{r}:{s}")])

        for r in range(20):
            sim.schedule(r * 20_000, traffic, r)
        sim.run(until=3_000_000)
        controller = cluster.controller
        assert controller.recoveries
        dead = frozenset(controller._all_dead_links)
        assert dead and dead <= core_links(topo, "core0")
        alive = [
            host for host in topo.hosts
            if host.node_id not in controller.failed_hosts
        ]
        expected, _count = reference_routes(topo.graph, alive, dead)
        assert_identical(installed_tables(topo), expected)
        assert rec.total_delivered() == 20 * 8
