"""Overlay topologies for the MPI-plane subnet: multicast hub, star, and heap tree.

Node 0 is always the master (star center / tree root).  The multicast kind has
no explicit edges: a hub delivers every send to all other nodes in one step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from bee.model import NetworkSolution

Send = tuple[int, int, int]  # (src, dst, nbytes)

HUB = "hub"


@dataclass(frozen=True)
class Topology:
    kind: NetworkSolution
    n: int
    edges: frozenset[tuple[int, int]]

    @property
    def master(self) -> int:
        return 0


@dataclass
class CommCost:
    messages_on_wire: int = 0
    total_hops: int = 0
    per_node_relay_load: dict[int, int] = field(default_factory=dict)


def build_topology(kind: NetworkSolution, n: int) -> Topology:
    if n <= 0:
        raise ValueError(f"node count must be positive, got {n}")
    if kind is NetworkSolution.P2P_STAR:
        edges = {(0, i) for i in range(1, n)}
    elif kind is NetworkSolution.P2P_TREE:
        edges = set()
        for i in range(n):
            for child in (2 * i + 1, 2 * i + 2):
                if child < n:
                    edges.add((i, child))
    else:
        edges = set()
    return Topology(kind=kind, n=n, edges=frozenset(edges))


def _check_node(topo: Topology, node: int) -> None:
    if not (0 <= node < topo.n):
        raise ValueError(f"node {node} out of range for topology of {topo.n}")


def _tree_path(src: int, dst: int) -> list[int]:
    # Walk both endpoints up to the root; splice at the lowest common ancestor.
    up_src = [src]
    while up_src[-1] != 0:
        up_src.append((up_src[-1] - 1) // 2)
    up_dst = [dst]
    while up_dst[-1] != 0:
        up_dst.append((up_dst[-1] - 1) // 2)
    ancestors = set(up_src)
    lca = next(n for n in up_dst if n in ancestors)
    down = up_dst[: up_dst.index(lca)]
    return up_src[: up_src.index(lca) + 1] + list(reversed(down))


def route(topo: Topology, src: int, dst: int) -> list[int]:
    """Delivery path from src to dst; multicast counts as one delivery step."""
    _check_node(topo, src)
    _check_node(topo, dst)
    if src == dst:
        return [src]
    if topo.kind is NetworkSolution.MULTICAST:
        return [src, dst]
    if topo.kind is NetworkSolution.P2P_STAR:
        if src == 0 or dst == 0:
            return [src, dst]
        return [src, 0, dst]
    return _tree_path(src, dst)


def cost_of_trace(topo: Topology, trace: Iterable[Send]) -> CommCost:
    """Wire and relay cost of a message trace under this topology.

    Multicast charges n-1 wire deliveries per send no matter the destination;
    point-to-point kinds charge one transmission per path edge and count every
    interior path node as a relay.
    """
    cost = CommCost(per_node_relay_load={i: 0 for i in range(topo.n)})
    for src, dst, _nbytes in trace:
        path = route(topo, src, dst)
        cost.total_hops += len(path) - 1
        if topo.kind is NetworkSolution.MULTICAST:
            cost.messages_on_wire += topo.n - 1
        else:
            cost.messages_on_wire += len(path) - 1
            for relay in path[1:-1]:
                cost.per_node_relay_load[relay] += 1
    return cost


def predict_link_frames(topo: Topology, trace: Iterable[Send]) -> dict[tuple, int]:
    """Frames each receiving end of a link should observe for a trace.

    Keys are (from, to) node pairs for p2p kinds and (HUB, node) for multicast,
    where the hub forwards every send to all nodes except the sender.
    """
    counts: dict[tuple, int] = {}
    for src, dst, _nbytes in trace:
        if topo.kind is NetworkSolution.MULTICAST:
            for node in range(topo.n):
                if node != src:
                    key = (HUB, node)
                    counts[key] = counts.get(key, 0) + 1
        else:
            path = route(topo, src, dst)
            for u, v in zip(path, path[1:]):
                counts[(u, v)] = counts.get((u, v), 0) + 1
    return counts


def per_node_tx_bytes(topo: Topology | None, trace: Iterable[Send]) -> dict:
    """Bytes transmitted per node (plus the hub for multicast, keyed HUB).

    With topo=None the network is flat: every sender transmits directly to the
    destination with no relays, which models a provider-managed subnet.
    """
    tx: dict = {}
    for src, dst, nbytes in trace:
        if topo is None or src == dst:
            if src != dst:
                tx[src] = tx.get(src, 0) + nbytes
            continue
        if topo.kind is NetworkSolution.MULTICAST:
            tx[src] = tx.get(src, 0) + nbytes
            tx[HUB] = tx.get(HUB, 0) + nbytes * (topo.n - 1)
        else:
            path = route(topo, src, dst)
            for node in path[:-1]:
                tx[node] = tx.get(node, 0) + nbytes
    return tx
