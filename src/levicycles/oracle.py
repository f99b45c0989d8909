"""Brute-force cycle oracles for arbitrary graphs.

These are deliberately independent of the specialized arrangement solver in
:mod:`levicycles.cycles`: they work on plain graphs at the vertex level, use
no arrangement-specific pruning, and exist so the solver can be checked
against a second implementation that shares no code with it.

A graph is given as a mapping from each vertex to its neighbours (a
networkx graph counts as one through ``g.adj``) or as an iterable of (u, v)
edges; vertices are any hashable values.

Both oracles index the vertices 0..n-1 and give vertex v the Python int
bitmask of its neighbours, so the DFS keeps the path and the vertices it
may not enter as one int and picks its candidates by ``&`` and ``~``.  The
bitmasks are built here from the plain graph; nothing is shared with the
solver, whose masks are over the lines and points of an arrangement.
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


def _masks(g, cap: int) -> list[int]:
    """Adjacency bitmasks of ``g`` over its indexed vertices, within ``cap``."""
    _, adj = _indexed_adjacency(g)
    if len(adj) > cap:
        raise TooLarge(f"graph has {len(adj)} vertices, oracle cap is {cap}")
    return [sum(1 << v for v in nbrs) for nbrs in adj]


def _first_edges(masks: list[int]):
    """
    Each edge (start, second) with start < second, as the start's
    neighbours, the second vertex and the mask of the second vertex and of
    every vertex <= start, which no path from this start may enter.
    """
    for start, close in enumerate(masks):
        below = (2 << start) - 1
        seconds = close & ~below
        while seconds:
            bit = seconds & -seconds
            seconds ^= bit
            yield close, bit.bit_length() - 1, below | bit


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
    masks = _masks(g, cap)
    lengths: set[int] = set()

    def extend(tip: int, second: int, size: int, forbidden: int) -> None:
        # Invariant: the path start, second, ..., tip has ``size`` vertices
        # and is induced, and its interior vertices are non-adjacent to the
        # start.  ``forbidden`` holds the path, every neighbour of an interior
        # vertex (a chord end) and every vertex <= start.
        cand = masks[tip] & ~forbidden
        # A candidate next to the start closes an induced cycle; one above
        # ``second`` breaks the mirror symmetry.
        if (cand & close) >> (second + 1):
            lengths.add(size + 1)
        # A closing candidate cannot be interior to a longer induced cycle
        # through the start (its chord to the start would survive), so only
        # the others extend.  The old tip becomes interior, so its
        # neighbours become chord ends; the start never becomes interior,
        # which is what keeps closure possible.
        forbidden |= masks[tip]
        rest = cand & ~close
        while rest:
            bit = rest & -rest
            rest ^= bit
            extend(bit.bit_length() - 1, second, size + 1, forbidden | bit)

    for close, second, seen in _first_edges(masks):  # ``extend`` reads ``close``
        extend(second, second, 2, seen)
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
    masks = _masks(g, cap)
    best = 0

    def extend(tip: int, second: int, size: int, used: int) -> None:
        nonlocal best
        cand = masks[tip] & ~used
        if size >= best and (cand & close) >> (second + 1):
            best = size + 1
        while cand:
            bit = cand & -cand
            cand ^= bit
            extend(bit.bit_length() - 1, second, size + 1, used | bit)

    for close, second, seen in _first_edges(masks):  # ``extend`` reads ``close``
        extend(second, second, 2, seen)
    return best or None
