"""Shortest-path DAG routing with ECMP.

Routes are computed over the *logical* routing graph (up/down switch
halves, paper Fig. 3).  Among switches this graph is a DAG — that is the
property hierarchical barrier aggregation relies on — while hosts appear
as both sources (uplink edges) and sinks (downlink edges) and never
forward, so the BFS below refuses to traverse *through* a host.

Every switch gets, for every destination host, every outgoing link that
lies on a shortest path.  Ties form the ECMP set; the switch picks among
them by flow hash (default) or per-packet spraying.

Destination hosts with the same predecessor set (all hosts under one
ToR) share one reverse BFS.  The grouping is exact: a link into a host of
the group can only leave one of the shared predecessors, which sit at
distance 1, so every switch further away has the same distance and the
same candidate links for every host of the group.  Only the last hop is
per host.

This generic computation reproduces up/down (valley-free) routing on
fat-trees without hard-coding the tier structure, so tests can build
irregular topologies and the controller can recompute routes after
failures.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Set, Tuple

import networkx as nx

from repro.net.link import Link
from repro.net.nic import Host
from repro.net.switch import Switch


def _check_acyclic(switch_succ: Dict[str, List[str]]) -> None:
    """Kahn's algorithm over switch-to-switch edges; raise on a cycle."""
    indegree = dict.fromkeys(switch_succ, 0)
    for nbrs in switch_succ.values():
        for nbr in nbrs:
            indegree[nbr] += 1
    ready = [node_id for node_id, deg in indegree.items() if deg == 0]
    removed = 0
    while ready:
        node_id = ready.pop()
        removed += 1
        for nbr in switch_succ[node_id]:
            indegree[nbr] -= 1
            if indegree[nbr] == 0:
                ready.append(nbr)
    if removed != len(indegree):
        raise ValueError(
            "switch routing graph must be a DAG (up/down logical split)"
        )


def check_switch_dag(graph: nx.DiGraph) -> None:
    """Verify the switch-to-switch subgraph is acyclic.

    Cycles through hosts are fine (hosts never forward); a cycle among
    switches would break both forwarding and barrier aggregation.
    """
    switch_ids = {
        node_id
        for node_id, data in graph.nodes(data=True)
        if isinstance(data.get("obj"), Switch)
    }
    _check_acyclic(
        {
            node_id: [nbr for nbr in graph.succ[node_id] if nbr in switch_ids]
            for node_id in switch_ids
        }
    )


def _reverse_bfs_distances(graph: nx.DiGraph, dst: str) -> Dict[str, int]:
    """Hop distance to ``dst`` for every node with a forwarding path.

    Walks reversed edges, never expanding out of a host node other than
    the destination itself (packets cannot be forwarded through a host).
    """
    dist = {dst: 0}
    queue = deque([dst])
    while queue:
        node_id = queue.popleft()
        if node_id != dst and isinstance(
            graph.nodes[node_id].get("obj"), Host
        ):
            continue  # hosts are leaves of the forwarding graph
        for pred in graph.predecessors(node_id):
            if pred not in dist:
                dist[pred] = dist[node_id] + 1
                queue.append(pred)
    return dist


def _group_routes(
    last_hops: Iterable[str],
    in_edges: Dict[str, List[Tuple[str, Link]]],
    out_edges: Dict[str, List[Tuple[str, Link]]],
    host_ids: Set[str],
    switch_routes: Dict[str, dict],
) -> List[Tuple[dict, Tuple[Link, ...]]]:
    """ECMP candidates of every switch two or more hops from a host group.

    ``last_hops`` is the group's shared predecessor set (distance 1); the
    BFS walks reversed edges from it, never expanding out of a host.
    Returns ``(routes dict, candidate links)`` per switch that reaches the
    group, links in out-edge order.
    """
    dist = dict.fromkeys(last_hops, 1)
    frontier = [node_id for node_id in dist if node_id not in host_ids]
    hops = 1
    while frontier:
        hops += 1
        next_frontier = []
        for node_id in frontier:
            for pred, _link in in_edges[node_id]:
                if pred not in dist:
                    dist[pred] = hops
                    if pred not in host_ids:
                        next_frontier.append(pred)
        frontier = next_frontier
    shared = []
    for node_id, node_dist in dist.items():
        routes = switch_routes.get(node_id)
        if node_dist < 2 or routes is None:
            continue
        want = node_dist - 1
        shared.append(
            (
                routes,
                tuple(
                    link
                    for nbr, link in out_edges[node_id]
                    if dist.get(nbr) == want
                ),
            )
        )
    return shared


def compute_routes(
    graph: nx.DiGraph, hosts: Iterable[Host], exclude_links=frozenset()
) -> int:
    """Populate ``Switch.routes`` for every switch in ``graph``.

    ``graph`` nodes are node ids; edges carry ``link=Link`` attributes.
    ``exclude_links`` removes dead links before computation (the SDN
    controller reconfiguring routing tables on failure, paper §3.1).
    Returns the number of route entries installed (for diagnostics).
    """
    host_ids = set()
    switch_routes: Dict[str, dict] = {}
    for node_id, data in graph.nodes(data=True):
        obj = data.get("obj")
        if isinstance(obj, Host):
            host_ids.add(node_id)
        elif isinstance(obj, Switch):
            switch_routes[node_id] = obj.routes
    # Adjacency read once into plain lists, dead links dropped.
    out_edges: Dict[str, List[Tuple[str, Link]]] = {}
    in_edges: Dict[str, List[Tuple[str, Link]]] = {
        node_id: [] for node_id in graph.succ
    }
    for node_id, nbrs in graph.succ.items():
        live = [
            (nbr, data["link"])
            for nbr, data in nbrs.items()
            if data.get("link") not in exclude_links
        ]
        out_edges[node_id] = live
        for nbr, link in live:
            in_edges[nbr].append((node_id, link))
    _check_acyclic(
        {
            node_id: [
                nbr for nbr, _link in out_edges[node_id] if nbr in switch_routes
            ]
            for node_id in switch_routes
        }
    )

    tables: Dict[frozenset, Tuple[list, int]] = {}
    installed = 0
    for host in hosts:
        dst = host.node_id
        last_hops = in_edges[dst]
        group = frozenset(pred for pred, _link in last_hops)
        table = tables.get(group)
        if table is None:
            shared = _group_routes(
                group, in_edges, out_edges, host_ids, switch_routes
            )
            table = tables[group] = (
                shared, sum(len(links) for _routes, links in shared)
            )
        shared, shared_count = table
        for pred, link in last_hops:
            routes = switch_routes.get(pred)
            if routes is not None:
                routes.setdefault(dst, []).append(link)
                installed += 1
        for routes, links in shared:
            entry = routes.get(dst)
            if entry is None:
                routes[dst] = list(links)
            else:
                entry.extend(links)
        installed += shared_count
    return installed


def clear_routes(graph: nx.DiGraph) -> None:
    """Remove all installed routes (before a recompute)."""
    for _node_id, data in graph.nodes(data=True):
        node = data.get("obj")
        if isinstance(node, Switch):
            node.routes.clear()
