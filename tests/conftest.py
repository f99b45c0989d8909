import warnings

import networkx as nx
import pytest

from levicycles import families
from levicycles.arrangement import Arrangement


def cyclic_nine_three():
    """The cyclic (9_3) arrangement: its nine doubles form one 9-cycle.

    Tests that use a (9_3) only as a fixture for the solver, the validator
    or the CLI pin answers of this table (longest length 18, an induced C18,
    absence at i = 8, golden node counts), so they build it here rather
    than from ``families.nine_three``, which is the C6 + C3 type.
    """
    triples = [(1, 2, 3), (1, 5, 9), (1, 6, 8), (2, 4, 7), (2, 8, 9),
               (3, 4, 8), (3, 5, 7), (4, 5, 6), (6, 7, 9)]
    doubles = [(1, 4), (1, 7), (2, 5), (2, 6), (3, 6), (3, 9), (4, 9),
               (5, 8), (7, 8)]
    pts = [set(x - 1 for x in fs) for fs in triples + doubles]
    return Arrangement(9, pts, line_names=[f"L{j + 1}" for j in range(9)],
                       point_names=[f"e{i + 1}" for i in range(18)])


def levi_networkx(g):
    """networkx graph of a LeviGraph: points 'x<p>' (bipartite 0), lines 'y<j>' (bipartite 1)."""
    out = nx.Graph()
    out.add_nodes_from((f"x{p}" for p in range(g.s)), bipartite=0)
    out.add_nodes_from((f"y{j}" for j in range(g.k)), bipartite=1)
    out.add_edges_from((f"x{p}", f"y{j}") for p, j in g.edges)
    return out


def build_small_pool():
    """Every builder arrangement with at most 10 lines (oracle-range pool)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [
            ("near_pencil(4)", families.near_pencil(4)),
            ("near_pencil(5)", families.near_pencil(5)),
            ("near_pencil(6)", families.near_pencil(6)),
            ("near_pencil(7)", families.near_pencil(7)),
            ("near_pencil(8)", families.near_pencil(8)),
            ("two_modular(2,3)", families.two_modular(2, 3)),
            ("two_modular(3,4)", families.two_modular(3, 4)),
            ("two_modular(5,6)", families.two_modular(5, 6)),
            ("generic(3)", families.generic(3)),
            ("generic(4)", families.generic(4)),
            ("generic(5)", families.generic(5)),
            ("ceva(3)", families.ceva(3)),
            ("nine_three", families.nine_three()),
            ("ten_line", families.ten_line()),
            ("mu4", families.mu4()),
            ("a_w_k(5,0)", families.a_w_k(5, 0)),
            ("a_w_k(5,1)", families.a_w_k(5, 1)),
        ]


def build_full_pool():
    """The small pool plus the larger family instances the claims cover."""
    return build_small_pool() + [
        ("hesse", families.hesse()),
        ("ceva(4)", families.ceva(4)),
        ("ceva(5)", families.ceva(5)),
        ("supersolvable_mu3(5)", families.supersolvable_mu3(5)),
        ("supersolvable_mu3(6)", families.supersolvable_mu3(6)),
        ("a_w_k(6,2)", families.a_w_k(6, 2)),
    ]


@pytest.fixture(scope="session")
def small_pool():
    return build_small_pool()


@pytest.fixture(scope="session")
def full_pool():
    return build_full_pool()
