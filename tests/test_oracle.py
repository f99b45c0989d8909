import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levicycles.levi import build_levi
from levicycles.oracle import (
    DEFAULT_VERTEX_CAP,
    TooLarge,
    _indexed_adjacency,
    circumference,
    oracle_induced_cycle_lengths,
    oracle_longest_induced_cycle,
)

from conftest import levi_networkx


# Reference oracles: the set-based kernels the bitmask ones replaced, kept
# so that the two can be compared on any graph.  Same vertex indexing, same
# canonical orientation (smallest vertex first, second below last) and the
# same pruning, on sets and path lists.


def reference_induced_cycle_lengths(g) -> set[int]:
    _, adj = _indexed_adjacency(g)
    lengths: set[int] = set()

    def extend(path: list[int], members: set[int], blocked: set[int]) -> None:
        # Invariant: path is an induced path whose interior vertices are
        # non-adjacent to path[0]; blocked holds every vertex adjacent to an
        # interior vertex.
        start = path[0]
        tip = path[-1]
        for nxt in adj[tip]:
            if nxt <= start or nxt in members or nxt in blocked:
                continue
            if len(path) >= 2 and start in adj[nxt]:
                if path[1] < nxt:
                    lengths.add(len(path) + 1)
                continue
            members.add(nxt)
            if len(path) >= 2:
                newly_blocked = [v for v in adj[tip] if v != nxt and v not in blocked]
                blocked.update(newly_blocked)
            else:
                newly_blocked = []
            extend(path + [nxt], members, blocked)
            blocked.difference_update(newly_blocked)
            members.remove(nxt)

    for start in range(len(adj)):
        extend([start], {start}, set())
    return lengths


def reference_circumference(g) -> int | None:
    _, adj = _indexed_adjacency(g)
    best: int | None = None

    def extend(path: list[int], members: set[int]) -> None:
        nonlocal best
        start = path[0]
        tip = path[-1]
        for nxt in adj[tip]:
            if nxt <= start or nxt in members:
                continue
            if start in adj[nxt] and len(path) >= 2 and path[1] < nxt:
                size = len(path) + 1
                if best is None or size > best:
                    best = size
            members.add(nxt)
            extend(path + [nxt], members)
            members.remove(nxt)

    for start in range(len(adj)):
        extend([start], {start})
    return best


@st.composite
def graphs(draw, max_vertices: int):
    """A graph in one of the oracle's input forms.

    Edge lists may repeat an edge, in either direction, and hold self-loops;
    mappings list every vertex, isolated ones included, and may give an
    edge from one side only.  Vertices are integers or strings, whose repr
    order differs from their numeric order ("v10" < "v2").
    """
    n = draw(st.integers(0, max_vertices))
    names = draw(st.sampled_from([list(range(n)), [f"v{i}" for i in range(n)]]))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)) if n else []
    edges = [(names[u], names[v]) for u, v in pairs]
    if draw(st.booleans()):
        return edges
    adj = {v: [] for v in names}
    for u, v in edges:
        adj[u].append(v)
    return adj


DIFFERENTIAL = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@DIFFERENTIAL
@given(graphs(12))
def test_induced_lengths_match_the_reference(g):
    assert oracle_induced_cycle_lengths(g) == reference_induced_cycle_lengths(g)


@DIFFERENTIAL
@given(graphs(8))
def test_circumference_matches_the_reference(g):
    # n <= 8: simple-path enumeration blows up on dense graphs.
    assert circumference(g) == reference_circumference(g)


def test_induced_lengths_match_the_reference_on_the_pool(full_pool):
    checked = 0
    for name, arr in full_pool:
        if arr.k + arr.s <= DEFAULT_VERTEX_CAP:
            g = levi_networkx(build_levi(arr))
            assert oracle_induced_cycle_lengths(g) == reference_induced_cycle_lengths(g), name
            checked += 1
    assert checked == 20


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
