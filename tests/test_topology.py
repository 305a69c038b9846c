import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from bee.model import NetworkSolution
from bee.netvirt.topology import (
    HUB,
    build_topology,
    cost_of_trace,
    per_node_tx_bytes,
    predict_link_frames,
    route,
)

STAR = NetworkSolution.P2P_STAR
TREE = NetworkSolution.P2P_TREE
MCAST = NetworkSolution.MULTICAST


def nx_graph(topo):
    g = nx.Graph()
    g.add_nodes_from(range(topo.n))
    g.add_edges_from(topo.edges)
    return g


class TestBuild:
    def test_star_edges(self):
        topo = build_topology(STAR, 5)
        assert topo.edges == frozenset({(0, 1), (0, 2), (0, 3), (0, 4)})

    def test_tree_edges_heap(self):
        topo = build_topology(TREE, 7)
        assert topo.edges == frozenset({(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)})

    def test_multicast_has_no_edges(self):
        assert build_topology(MCAST, 1).edges == frozenset()
        assert build_topology(MCAST, 9).edges == frozenset()

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_n_rejected(self, n):
        with pytest.raises(ValueError):
            build_topology(STAR, n)

    @pytest.mark.parametrize("kind", [STAR, TREE])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33])
    def test_p2p_connected(self, kind, n):
        assert nx.is_connected(nx_graph(build_topology(kind, n)))


class TestRoute:
    def test_star_via_center(self):
        topo = build_topology(STAR, 5)
        assert route(topo, 2, 4) == [2, 0, 4]

    def test_star_center_endpoint_direct(self):
        topo = build_topology(STAR, 5)
        assert route(topo, 0, 3) == [0, 3]
        assert route(topo, 3, 0) == [3, 0]

    def test_tree_sibling_pair(self):
        topo = build_topology(TREE, 7)
        assert route(topo, 3, 4) == [3, 1, 4]

    def test_tree_cross_root(self):
        topo = build_topology(TREE, 7)
        assert route(topo, 3, 5) == [3, 1, 0, 2, 5]

    def test_multicast_single_step(self):
        topo = build_topology(MCAST, 4)
        assert route(topo, 1, 2) == [1, 2]

    def test_out_of_range_rejected(self):
        topo = build_topology(STAR, 3)
        with pytest.raises(ValueError):
            route(topo, 0, 3)

    @pytest.mark.parametrize("kind", [STAR, TREE])
    @pytest.mark.parametrize("n", [2, 5, 16, 31])
    def test_paths_match_shortest_paths(self, kind, n):
        # independent oracle: the overlay graphs have unique shortest paths
        topo = build_topology(kind, n)
        g = nx_graph(topo)
        for src in range(n):
            for dst in range(n):
                path = route(topo, src, dst)
                assert path == nx.shortest_path(g, src, dst)


class TestRouteInvariants:
    @pytest.mark.parametrize("n", list(range(1, 65)))
    def test_star_diameter_at_most_two(self, n):
        topo = build_topology(STAR, n)
        for src in range(n):
            for dst in range(n):
                hops = len(route(topo, src, dst)) - 1
                assert hops <= 2
                if src != dst and (src == 0 or dst == 0):
                    assert hops == 1

    @pytest.mark.parametrize("n", list(range(1, 65)))
    def test_tree_hop_bound(self, n):
        topo = build_topology(TREE, n)
        bound = 2 * int(math.log2(n)) if n > 1 else 0
        for src in range(n):
            for dst in range(n):
                assert len(route(topo, src, dst)) - 1 <= bound

    @pytest.mark.parametrize("kind", [STAR, TREE])
    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_paths_simple_and_edge_consistent(self, kind, n):
        topo = build_topology(kind, n)
        for src in range(n):
            for dst in range(n):
                path = route(topo, src, dst)
                assert len(set(path)) == len(path)
                for u, v in zip(path, path[1:]):
                    assert (min(u, v), max(u, v)) in topo.edges
                assert route(topo, dst, src) == list(reversed(path))


class TestCost:
    def test_multicast_send_costs_n_minus_one(self):
        topo = build_topology(MCAST, 8)
        cost = cost_of_trace(topo, [(0, 3, 100)])
        assert cost.messages_on_wire == 7

    def test_star_all_pairs_relay_concentrates_at_center(self):
        n = 8
        topo = build_topology(STAR, n)
        trace = [(s, d, 1) for s in range(n) for d in range(n) if s != d]
        cost = cost_of_trace(topo, trace)
        interior_hops = sum(len(route(topo, s, d)) - 2
                            for s, d, _ in trace if len(route(topo, s, d)) > 2)
        assert cost.per_node_relay_load[0] == interior_hops
        assert all(cost.per_node_relay_load[i] == 0 for i in range(1, n))

    def test_tree_spreads_relay_hotspot_below_star(self):
        # synthetic heavy one-to-one traffic: the tree's worst relay carries
        # less than the star's center
        rng = random.Random(42)
        n = 16
        trace = []
        while len(trace) < 1000:
            s, d = rng.randrange(n), rng.randrange(n)
            if s != d:
                trace.append((s, d, 1))
        star_cost = cost_of_trace(build_topology(STAR, n), trace)
        tree_cost = cost_of_trace(build_topology(TREE, n), trace)
        assert max(tree_cost.per_node_relay_load.values()) < \
            max(star_cost.per_node_relay_load.values())

    def test_empty_trace_zero(self):
        cost = cost_of_trace(build_topology(TREE, 4), [])
        assert cost.messages_on_wire == 0 and cost.total_hops == 0

    @given(st.sampled_from([STAR, TREE, MCAST]), st.integers(min_value=2, max_value=12),
           st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_cost_monotone_in_trace(self, kind, n, length, seed):
        rng = random.Random(seed)
        topo = build_topology(kind, n)
        trace = []
        for _ in range(length):
            s, d = rng.randrange(n), rng.randrange(n)
            if s != d:
                trace.append((s, d, 64))
        base = cost_of_trace(topo, trace).messages_on_wire
        extended = cost_of_trace(topo, trace + [(0, n - 1, 64)]).messages_on_wire
        assert extended >= base


class TestLinkPrediction:
    def test_p2p_counts_sum_to_wire_messages(self):
        topo = build_topology(TREE, 7)
        trace = [(3, 5, 10), (3, 4, 10), (0, 6, 10)]
        frames = predict_link_frames(topo, trace)
        assert sum(frames.values()) == cost_of_trace(topo, trace).messages_on_wire

    def test_multicast_counts_every_non_sender(self):
        topo = build_topology(MCAST, 4)
        frames = predict_link_frames(topo, [(1, 2, 5)])
        assert frames == {(HUB, 0): 1, (HUB, 2): 1, (HUB, 3): 1}

    def test_tx_bytes_flat_network(self):
        tx = per_node_tx_bytes(None, [(0, 1, 100), (2, 1, 50)])
        assert tx == {0: 100, 2: 50}

    def test_tx_bytes_multicast_hub_amplifies(self):
        topo = build_topology(MCAST, 5)
        tx = per_node_tx_bytes(topo, [(1, 2, 10)])
        assert tx[1] == 10 and tx[HUB] == 40
