import json
import math
import random

import networkx as nx
import pytest

from levicycles import families
from levicycles.levi import LeviGraph, build_levi, export_dot, export_json, girth, subdivide
from levicycles.oracle import oracle_longest_induced_cycle

from conftest import levi_networkx


def incidences(arr):
    return tuple(sorted((p, j) for p, fs in enumerate(arr.point_lines) for j in fs))


def test_nine_three_levi_shape():
    g = build_levi(families.nine_three())
    assert (g.s, g.k, len(g.edges)) == (18, 9, 45)
    assert girth(g) == 6


def test_hesse_levi_shape():
    g = build_levi(families.hesse())
    assert (g.s + g.k, len(g.edges)) == (33, 60)
    assert girth(g) == 6


def test_edge_count_is_multiplicity_sum():
    for arr in (families.ten_line(), families.two_modular(5, 6)):
        g = build_levi(arr)
        assert len(g.edges) == sum(arr.multiplicity(p) for p in range(arr.s))


def test_triangle_levi_is_hexagon():
    g = levi_networkx(build_levi(families.generic(3)))
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
        assert girth(g) == nx.girth(levi_networkx(g)), name


@pytest.mark.parametrize("seed", range(10))
def test_girth_matches_networkx_on_random_graphs(seed):
    # every point picks a line and every line a point: sparse bipartite
    # graphs with 4-cycles, long cycles, forests and several components
    rng = random.Random(seed)
    s, k = rng.randint(6, 16), rng.randint(6, 16)
    edges = {(p, rng.randrange(k)) for p in range(s)}
    edges |= {(rng.randrange(s), j) for j in range(k)}
    g = LeviGraph(s, k, tuple(sorted(edges)))
    assert girth(g) == nx.girth(levi_networkx(g))


def test_edges_are_the_sorted_incidences(full_pool):
    for name, arr in full_pool:
        assert build_levi(arr).edges == incidences(arr), name


def test_levi_networkx_bipartition():
    nxg = levi_networkx(build_levi(families.nine_three()))
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


def test_export_json_gives_s_k_and_edges(full_pool):
    for name, arr in full_pool:
        for indent in (None, 2):
            doc = json.loads(export_json(build_levi(arr), indent=indent))
            assert doc == {"s": arr.s, "k": arr.k, "edges": [list(e) for e in incidences(arr)]}, name
