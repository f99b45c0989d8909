import networkx as nx
import pytest

from levicycles.oracle import (
    TooLarge,
    circumference,
    oracle_induced_cycle_lengths,
    oracle_longest_induced_cycle,
)


def test_complete_bipartite_k33():
    g = nx.complete_bipartite_graph(3, 3)
    # every 6-cycle of K_{3,3} has a chord, so only the 4-cycles are induced
    assert oracle_induced_cycle_lengths(g) == {4}
    assert oracle_longest_induced_cycle(g) == 4
    assert circumference(g) == 6


def test_complete_graph_has_only_triangles_induced():
    g = nx.complete_graph(4)
    assert oracle_induced_cycle_lengths(g) == {3}
    assert oracle_longest_induced_cycle(g) == 3
    assert circumference(g) == 4


def test_petersen_graph():
    g = nx.petersen_graph()
    assert oracle_induced_cycle_lengths(g) == {5, 6}
    assert oracle_longest_induced_cycle(g) == 6
    # hypohamiltonian: longest cycle misses exactly one vertex
    assert circumference(g) == 9


def test_plain_cycle():
    g = nx.cycle_graph(7)
    assert oracle_induced_cycle_lengths(g) == {7}
    assert circumference(g) == 7


def test_acyclic_graphs():
    assert oracle_induced_cycle_lengths(nx.path_graph(6)) == set()
    assert oracle_longest_induced_cycle(nx.random_labeled_tree(12, seed=5)) is None
    assert circumference(nx.path_graph(4)) is None
    assert oracle_longest_induced_cycle(nx.Graph()) is None


def test_vertex_cap():
    big = nx.path_graph(41)
    with pytest.raises(TooLarge):
        oracle_induced_cycle_lengths(big)
    with pytest.raises(TooLarge):
        oracle_longest_induced_cycle(big)
    with pytest.raises(TooLarge):
        circumference(big)
    with pytest.raises(TooLarge):
        oracle_longest_induced_cycle(nx.path_graph(5), cap=4)
    # explicit cap raises it
    assert oracle_longest_induced_cycle(nx.cycle_graph(41), cap=41) == 41


def test_accepts_edge_list_input():
    assert oracle_induced_cycle_lengths([(0, 1), (1, 2), (2, 0)]) == {3}


def test_accepts_dict_of_lists_input():
    # a Levi hexagon (the triangle arrangement) plus a pendant path, as
    # adjacency lists naming points x<i> and lines y<j>
    adj = {
        "x0": ["y0", "y1"],
        "x1": ["y1", "y2"],
        "x2": ["y2", "y0"],
        "y0": ["x0", "x2"],
        "y1": ["x0", "x1"],
        "y2": ["x1", "x2", "x3"],
        "x3": ["y2"],
    }
    assert oracle_induced_cycle_lengths(adj) == {6}
    assert circumference(adj) == 6
    assert oracle_longest_induced_cycle({"a": [], "b": []}) is None
    with pytest.raises(TooLarge):
        oracle_induced_cycle_lengths({"a": [], "b": [], "c": []}, cap=2)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_matches_chordless_cycles_on_random_graphs(seed):
    g = nx.gnp_random_graph(9, 0.35, seed=seed)
    expected = {len(c) for c in nx.chordless_cycles(g)}
    assert oracle_induced_cycle_lengths(g) == expected
    assert oracle_longest_induced_cycle(g) == (max(expected) if expected else None)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_matches_chordless_cycles_on_sparse_graphs(seed):
    g = nx.gnp_random_graph(14, 0.18, seed=seed)
    expected = {len(c) for c in nx.chordless_cycles(g)}
    assert oracle_induced_cycle_lengths(g) == expected


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_circumference_matches_simple_cycles(seed):
    g = nx.gnp_random_graph(8, 0.3, seed=seed)
    lengths = [len(c) for c in nx.simple_cycles(g)]
    assert circumference(g) == (max(lengths) if lengths else None)


def test_bipartite_double_cover_of_triangle():
    # subdivision-style sanity: C6 as the Levi graph of a triangle
    assert oracle_induced_cycle_lengths(nx.cycle_graph(6)) == {6}
