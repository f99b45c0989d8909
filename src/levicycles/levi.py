"""Levi graphs of arrangements, their girth, the edge-subdivision transform, and exports.

The Levi graph has one vertex per singular point (``x0..x{s-1}``) and one per
line (``y0..y{k-1}``), joined exactly when the point lies on the line.  Since
two lines of an arrangement share at most one point, Levi graphs contain no
4-cycle, so their girth is at least 6.  An induced cycle necessarily
alternates between the two sides and therefore has even length 2i, visiting i
points and i lines.

``Arrangement`` validates the incidences and already holds the graph as
``point_lines``/``line_points``; ``LeviGraph`` is only the (s, k, edges)
record that the exports and ``girth`` read.
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import NamedTuple

from .arrangement import Arrangement

__all__ = [
    "LeviGraph",
    "build_levi",
    "girth",
    "subdivide",
    "export_dot",
    "export_json",
]


class LeviGraph(NamedTuple):
    """
    The Levi graph of an arrangement with s points and k lines.

    ``edges`` lists the (point, line) incidences in sorted order.  Vertex
    identity is index-based, so exports and witnesses are stable across runs.
    """

    s: int
    k: int
    edges: tuple[tuple[int, int], ...]


def build_levi(arr: Arrangement) -> LeviGraph:
    """Levi graph of an arrangement; |E| = sum of point multiplicities."""
    edges = tuple((p, j) for p, fs in enumerate(arr.point_lines) for j in sorted(fs))
    return LeviGraph(arr.s, arr.k, edges)


def girth(g: LeviGraph) -> float:
    """
    Length of a shortest cycle (inf for forests).

    One breadth-first search per vertex.  A non-tree edge u-v closes a
    cycle of length at most depth[u] + depth[v] + 1, which is exact when
    the root lies on a shortest cycle; every cycle closed from u is at least
    2 * depth[u] long, so a search stops once that reaches the best found.
    """
    adj: list[list[int]] = [[] for _ in range(g.s + g.k)]
    for p, j in g.edges:
        adj[p].append(g.s + j)
        adj[g.s + j].append(p)
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
    """The record as a JSON object with keys s, k and edges (a list of [point, line] pairs)."""
    doc = {"s": g.s, "k": g.k, "edges": [[p, j] for p, j in g.edges]}
    return json.dumps(doc, indent=indent)
