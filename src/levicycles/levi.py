"""Levi graphs of arrangements, the edge-subdivision transform, and exports.

The Levi graph has one vertex per singular point (``x0..x{s-1}``) and one per
line (``y0..y{k-1}``), joined exactly when the point lies on the line.  Since
two lines of an arrangement share at most one point, Levi graphs contain no
4-cycle, so their girth is at least 6.  An induced cycle necessarily
alternates between the two sides and therefore has even length 2i, visiting i
points and i lines.
"""

from __future__ import annotations

import json
import math
from collections import deque

from .arrangement import MAX_LINES, Arrangement, ArrangementError, _is_index, _load_json

__all__ = [
    "LeviGraph",
    "build_levi",
    "recover_arrangement",
    "girth",
    "subdivide",
    "export_dot",
    "export_json",
    "levi_from_json",
]


class LeviGraph:
    """
    Immutable bipartite incidence graph of an arrangement.

    ``point_adj[p]`` is the set of line ids through point p, ``line_adj[j]``
    the set of point ids on line j; ``edges`` lists (point, line) pairs in
    sorted order.  Vertex identity is index-based, so exports and witnesses
    are stable across runs.
    """

    __slots__ = ("s", "k", "edges", "point_adj", "line_adj")

    def __init__(self, s: int, k: int, edges) -> None:
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "k", k)
        pa: list[set[int]] = [set() for _ in range(s)]
        la: list[set[int]] = [set() for _ in range(k)]
        seen = set()
        for p, j in edges:
            if not _is_index(p, s):
                raise ArrangementError(f"edge references unknown point {p!r}")
            if not _is_index(j, k):
                raise ArrangementError(f"edge references unknown line {j!r}")
            if (p, j) in seen:
                raise ArrangementError(f"duplicate edge ({p}, {j})")
            seen.add((p, j))
            pa[p].add(j)
            la[j].add(p)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        object.__setattr__(self, "point_adj", tuple(frozenset(x) for x in pa))
        object.__setattr__(self, "line_adj", tuple(frozenset(x) for x in la))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("LeviGraph is immutable")

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__.
        return LeviGraph, (self.s, self.k, self.edges)

    @property
    def n_vertices(self) -> int:
        return self.s + self.k

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LeviGraph):
            return NotImplemented
        return (self.s, self.k, self.edges) == (other.s, other.k, other.edges)

    def __hash__(self) -> int:
        return hash((self.s, self.k, self.edges))

    def __repr__(self) -> str:
        return f"LeviGraph(s={self.s}, k={self.k}, edges={self.n_edges})"

    def to_networkx(self):
        """
        networkx graph with nodes 'x<i>' (points) and 'y<j>' (lines).

        networkx is imported here, not at module level: it is a test-time
        dependency only.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from((f"x{p}" for p in range(self.s)), bipartite=0)
        g.add_nodes_from((f"y{j}" for j in range(self.k)), bipartite=1)
        g.add_edges_from((f"x{p}", f"y{j}") for p, j in self.edges)
        return g


def build_levi(arr: Arrangement) -> LeviGraph:
    """Levi graph of an arrangement; |E| = sum of point multiplicities."""
    edges = [(p, j) for p, fs in enumerate(arr.point_lines) for j in fs]
    return LeviGraph(arr.s, arr.k, edges)


def recover_arrangement(g: LeviGraph) -> Arrangement:
    """Rebuild the incidence structure from line-vertex neighborhoods."""
    return Arrangement(g.k, [sorted(fs) for fs in g.point_adj])


def girth(g: LeviGraph) -> float:
    """
    Length of a shortest cycle (inf for forests).

    One breadth-first search per vertex.  A non-tree edge u-v closes a
    cycle of length at most depth[u] + depth[v] + 1, which is exact when
    the root lies on a shortest cycle; every cycle closed from u is at least
    2 * depth[u] long, so a search stops once that reaches the best found.
    """
    adj = [[g.s + j for j in js] for js in g.point_adj] + [list(ps) for ps in g.line_adj]
    best = math.inf
    for root in range(len(adj)):
        depth = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if 2 * depth[u] >= best:
                break
            for v in adj[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u]:
                    best = min(best, depth[u] + depth[v] + 1)
    return best


def subdivide(g):
    """
    Subdivide every edge of a simple networkx graph once.

    The result is bipartite between original vertices and edge vertices
    ``('e', u, v)``.  Cycles of g correspond to cycles of twice the length;
    because chords are subdivided too, the lift of *any* cycle of g is an
    induced cycle of the subdivision, so the longest induced cycle of the
    output has length 2 * circumference(g) whenever g has a cycle.
    networkx is imported here; only tests call this.
    """
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(g.nodes())
    for u, v in g.edges():
        if u == v:
            continue
        a, b = sorted((u, v), key=repr)
        mid = ("e", a, b)
        out.add_edge(a, mid)
        out.add_edge(mid, b)
    return out


def export_dot(g: LeviGraph) -> str:
    """
    Deterministic DOT text: points as circles, lines as boxes.

    Vertex names follow the index convention (``x0``.., ``y0``..); edges are
    emitted in sorted order so output is byte-stable.
    """
    lines = ["graph levi {"]
    for p in range(g.s):
        lines.append(f'  x{p} [shape=circle, part="point"];')
    for j in range(g.k):
        lines.append(f'  y{j} [shape=box, part="line"];')
    for p, j in g.edges:
        lines.append(f"  x{p} -- y{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: LeviGraph, indent: int | None = None) -> str:
    """JSON mirror of the structure; round-trips through levi_from_json."""
    doc = {"s": g.s, "k": g.k, "edges": [[p, j] for p, j in g.edges]}
    return json.dumps(doc, indent=indent)


def levi_from_json(text: str) -> LeviGraph:
    """Parse export_json output; rejects malformed documents and unknown vertices."""
    doc = _load_json(text)
    if not isinstance(doc, dict) or not {"s", "k", "edges"} <= set(doc):
        raise ArrangementError("document must be an object with 's', 'k', 'edges'")
    s, k, edges = doc["s"], doc["k"], doc["edges"]
    # A valid arrangement of at most MAX_LINES lines has at most C(MAX_LINES, 2) points.
    if not _is_index(k, MAX_LINES + 1) or not _is_index(s, math.comb(MAX_LINES, 2) + 1):
        raise ArrangementError(f"'s' and 'k' must be integers in 0..{math.comb(MAX_LINES, 2)} and 0..{MAX_LINES}")
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise ArrangementError("'edges' must be a list of [point, line] pairs")
    return LeviGraph(s, k, [tuple(e) for e in edges])
