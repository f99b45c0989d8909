"""Brute-force cycle oracles for arbitrary graphs.

These are deliberately independent of the specialized arrangement solver in
:mod:`levicycles.cycles`: they work on plain graphs at the vertex level, use
no arrangement-specific pruning, and exist so the solver can be checked
against a second implementation that shares no code with it.

A graph is given as a mapping from each vertex to its neighbours (a
networkx graph counts as one through ``g.adj``) or as an iterable of (u, v)
edges; vertices are any hashable values.
"""

from __future__ import annotations

from typing import Hashable, Mapping

__all__ = [
    "TooLarge",
    "oracle_longest_induced_cycle",
    "oracle_induced_cycle_lengths",
    "circumference",
]

DEFAULT_VERTEX_CAP = 40


class TooLarge(ValueError):
    """Raised when a graph exceeds the oracle's vertex cap."""


def _indexed_adjacency(g) -> tuple[list[Hashable], list[set[int]]]:
    """Relabel vertices as 0..n-1 (sorted by repr) and return adjacency sets."""
    g = getattr(g, "adj", g)
    if isinstance(g, Mapping):
        edges = [(u, v) for u, nbrs in g.items() for v in nbrs]
        order = list(g)
    else:
        edges = [(u, v) for u, v in g]
        order = []
    nodes = sorted(dict.fromkeys(order + [x for e in edges for x in e]), key=repr)
    index = {v: i for i, v in enumerate(nodes)}
    adj: list[set[int]] = [set() for _ in nodes]
    for u, v in edges:
        if u == v:
            continue
        adj[index[u]].add(index[v])
        adj[index[v]].add(index[u])
    return nodes, adj


def oracle_induced_cycle_lengths(g, cap: int = DEFAULT_VERTEX_CAP) -> set[int]:
    """
    Enumerate the set of lengths of induced cycles of an arbitrary graph.

    Exhaustive DFS over induced paths.  Every cycle is generated exactly once
    in a canonical orientation: its smallest vertex comes first and its second
    vertex is smaller than its last.  No pruning beyond correctness-preserving
    ones (path extensions must keep the path induced).

    Parameters
    ----------
    g : mapping from each vertex to its neighbours, or iterable of edges
    cap : maximum vertex count accepted (guards against accidental blowups)

    Returns
    -------
    set of cycle lengths (number of vertices); empty if the graph is acyclic.
    """
    _, adj = _indexed_adjacency(g)
    n = len(adj)
    if n > cap:
        raise TooLarge(f"graph has {n} vertices, oracle cap is {cap}")

    lengths: set[int] = set()

    def extend(path: list[int], members: set[int], blocked: set[int]) -> None:
        # Invariant: path is an induced path whose interior vertices (all but
        # the endpoints) are non-adjacent to path[0]; blocked holds every
        # vertex adjacent to an interior vertex.
        start = path[0]
        tip = path[-1]
        for nxt in adj[tip]:
            if nxt <= start or nxt in members or nxt in blocked:
                continue
            if len(path) >= 2 and start in adj[nxt]:
                # Closing edge: the cycle start..tip..nxt..start is induced
                # by construction; path[1] < nxt breaks the mirror symmetry.
                if path[1] < nxt:
                    lengths.add(len(path) + 1)
                # nxt cannot be interior to any longer induced cycle through
                # start (the chord nxt-start would survive), so do not
                # extend through it.
                continue
            members.add(nxt)
            if len(path) >= 2:
                # The old tip becomes an interior vertex; its neighbors are
                # now chord ends.  path[0]'s neighbors are never blocked
                # this way, which is what keeps closure possible.
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


def oracle_longest_induced_cycle(g, cap: int = DEFAULT_VERTEX_CAP) -> int | None:
    """
    Length of a longest induced cycle of ``g``, or None if ``g`` is acyclic.

    Exhaustive; see :func:`oracle_induced_cycle_lengths`.
    """
    lengths = oracle_induced_cycle_lengths(g, cap=cap)
    return max(lengths) if lengths else None


def circumference(g, cap: int = DEFAULT_VERTEX_CAP) -> int | None:
    """
    Length of a longest (not necessarily induced) cycle, or None if acyclic.

    Brute-force DFS over simple paths with the same canonical orientation as
    the induced-cycle oracle.  Subdividing every edge of ``g`` turns each
    cycle of ``g`` into an induced cycle of the subdivision (all chords get
    subdivided away), so this is the quantity that the subdivision transform
    doubles.
    """
    _, adj = _indexed_adjacency(g)
    n = len(adj)
    if n > cap:
        raise TooLarge(f"graph has {n} vertices, oracle cap is {cap}")

    best: int | None = None

    def extend(path: list[int], members: set[int]) -> None:
        nonlocal best
        start = path[0]
        tip = path[-1]
        for nxt in adj[tip]:
            if nxt <= start:
                continue
            if nxt in members:
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
