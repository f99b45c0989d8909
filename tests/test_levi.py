import json
import math
import random

import networkx as nx
import pytest

from levicycles import families
from levicycles.arrangement import MAX_LINES, ArrangementError
from levicycles.levi import (
    LeviGraph,
    build_levi,
    export_dot,
    export_json,
    girth,
    levi_from_json,
    recover_arrangement,
    subdivide,
)
from levicycles.oracle import oracle_longest_induced_cycle


def test_nine_three_levi_shape():
    g = build_levi(families.nine_three())
    assert (g.s, g.k) == (18, 9)
    assert g.n_vertices == 27
    assert g.n_edges == 45
    assert girth(g) == 6


def test_hesse_levi_shape():
    g = build_levi(families.hesse())
    assert g.n_vertices == 33
    assert g.n_edges == 60
    assert girth(g) == 6


def test_edge_count_is_multiplicity_sum():
    for arr in (families.ten_line(), families.two_modular(5, 6)):
        g = build_levi(arr)
        assert g.n_edges == sum(arr.multiplicity(p) for p in range(arr.s))


def test_triangle_levi_is_hexagon():
    g = build_levi(families.generic(3)).to_networkx()
    assert nx.is_isomorphic(g, nx.cycle_graph(6))


def test_forest_girth_is_infinite():
    g = build_levi(families.generic(2))
    assert girth(g) == math.inf


def test_girth_at_least_six_across_families():
    for arr in (families.near_pencil(6), families.mu4(), families.a_w_k(5, 1)):
        assert girth(build_levi(arr)) >= 6


def test_girth_matches_networkx_on_families(full_pool):
    for name, arr in full_pool + [("generic(2)", families.generic(2))]:
        g = build_levi(arr)
        assert girth(g) == nx.girth(g.to_networkx()), name


@pytest.mark.parametrize("seed", range(10))
def test_girth_matches_networkx_on_random_graphs(seed):
    # every point picks a line and every line a point: sparse bipartite
    # graphs with 4-cycles, long cycles, forests and several components
    rng = random.Random(seed)
    s, k = rng.randint(6, 16), rng.randint(6, 16)
    edges = {(p, rng.randrange(k)) for p in range(s)}
    edges |= {(rng.randrange(s), j) for j in range(k)}
    g = LeviGraph(s, k, edges)
    assert girth(g) == nx.girth(g.to_networkx())


def test_levigraph_rejects_bad_edges():
    with pytest.raises(ArrangementError, match="unknown point"):
        LeviGraph(1, 2, [(3, 0)])
    with pytest.raises(ArrangementError, match="unknown line"):
        LeviGraph(1, 2, [(0, 2)])
    with pytest.raises(ArrangementError, match="duplicate edge"):
        LeviGraph(1, 2, [(0, 1), (0, 1)])


def test_levigraph_equality_and_repr():
    a = build_levi(families.mu4())
    b = LeviGraph(a.s, a.k, list(a.edges))
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == "LeviGraph(s=7, k=6, edges=18)"
    with pytest.raises(AttributeError):
        a.s = 0


def test_recover_arrangement_roundtrip(full_pool):
    for name, arr in full_pool:
        assert recover_arrangement(build_levi(arr)) == arr, name


def test_to_networkx_bipartition():
    g = build_levi(families.nine_three())
    nxg = g.to_networkx()
    assert nxg.number_of_nodes() == 27
    assert nxg.number_of_edges() == 45
    points = {v for v, d in nxg.nodes(data=True) if d["bipartite"] == 0}
    lines = {v for v, d in nxg.nodes(data=True) if d["bipartite"] == 1}
    assert points == {f"x{p}" for p in range(18)}
    assert lines == {f"y{j}" for j in range(9)}
    assert nx.is_bipartite(nxg)
    assert all((u in points) != (v in points) for u, v in nxg.edges())


def test_subdivide_triangle():
    out = subdivide(nx.cycle_graph(3))
    assert out.number_of_nodes() == 6
    assert nx.is_isomorphic(out, nx.cycle_graph(6))


def test_subdivision_longest_cycle_doubles_circumference_not_girth():
    # K4 has girth 3 but circumference 4; its subdivision's longest induced
    # cycle tracks the circumference
    out = subdivide(nx.complete_graph(4))
    assert out.number_of_nodes() == 10
    assert oracle_longest_induced_cycle(out) == 8


def test_subdivide_is_bipartite_and_skips_self_loops():
    g = nx.complete_graph(4)
    g.add_edge(0, 0)
    out = subdivide(g)
    assert nx.is_bipartite(out)
    assert out.number_of_nodes() == 10  # no vertex for the discarded loop
    assert all(out.degree(v) == 2 for v in out.nodes() if isinstance(v, tuple))


def test_export_dot_golden():
    g = build_levi(families.generic(2))
    assert export_dot(g) == (
        "graph levi {\n"
        '  x0 [shape=circle, part="point"];\n'
        '  y0 [shape=box, part="line"];\n'
        '  y1 [shape=box, part="line"];\n'
        "  x0 -- y0;\n"
        "  x0 -- y1;\n"
        "}\n"
    )


def test_export_dot_deterministic():
    g = build_levi(families.hesse())
    assert export_dot(g) == export_dot(build_levi(families.hesse()))


def test_json_roundtrip():
    g = build_levi(families.ten_line())
    assert levi_from_json(export_json(g)) == g
    assert levi_from_json(export_json(g, indent=2)) == g


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"s": 1, "k": 2}',
        '{"s": 1, "k": 2, "edges": 5}',
        '{"s": 1, "k": 2, "edges": [[0]]}',
        '{"s": 1, "k": 2, "edges": [[0, 5]]}',
        '{"s": 1, "k": 1, "edges": [5]}',
        '{"s": "1", "k": 2, "edges": []}',
        '{"s": 1, "k": true, "edges": []}',
        '{"s": -1, "k": 2, "edges": []}',
        pytest.param("[" * 100000, id="deeply-nested"),
    ],
)
def test_json_rejects_malformed(text):
    with pytest.raises(ArrangementError):
        levi_from_json(text)


def test_json_rejects_counts_above_bound():
    with pytest.raises(ArrangementError):
        levi_from_json(json.dumps({"s": 0, "k": MAX_LINES + 1, "edges": []}))
    with pytest.raises(ArrangementError):
        levi_from_json(json.dumps({"s": math.comb(MAX_LINES, 2) + 1, "k": 2, "edges": []}))
    assert levi_from_json(json.dumps({"s": 0, "k": MAX_LINES, "edges": []})).k == MAX_LINES


def test_boolean_edge_ids_rejected():
    with pytest.raises(ArrangementError):
        LeviGraph(1, 2, [(0, True), (0, 0)])
    with pytest.raises(ArrangementError):
        LeviGraph(2, 1, [(True, 0), (0, 0)])
    with pytest.raises(ArrangementError):
        levi_from_json('{"s": 1, "k": 2, "edges": [[0, true], [0, 0]]}')
