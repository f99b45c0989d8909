"""Exact induced-cycle search over arrangement incidence data.

An induced cycle of length 2i in the Levi graph alternates i lines and i
points, so the search runs over *line sequences*: extend a partial sequence
(j1, p1, j2, ..., jt) by a point on jt lying on no earlier chosen line, then
by a new line through that point avoiding every chosen point.  Closing
requires the meet of the last and first lines to avoid all interior lines.
Inducedness is maintained incrementally with the arrangement's own incidence
bitsets (``line_masks``, ``point_masks``), so accepted sequences never need a
post-hoc filter and a call builds no table of its own.

Two root plans share one recursion.  The canonical plan breaks the
dihedral symmetry of a cycle: the first line is the smallest chosen line
and the second is smaller than the last.  The orbit plan breaks the
symmetry of the arrangement as well: it roots one line per orbit of the
incidence automorphism group, and on it one first point per orbit of that
line's stabiliser, so an absence proof searches one copy of each symmetric
subtree (McKay's orderly scheme, "Isomorph-free exhaustive generation",
1998).  The group comes from individualisation-refinement on the Levi
graph, and every generator is checked to preserve incidences before use.
The recursion also carries ``closable``, the lines that can still close the
cycle, and never places a last line outside it.

`Absent` is only reported after a plan has been exhausted; hitting the
node budget yields `Unknown`, never a silent under-search.  Each call first
searches the orbit plan's first root prefix, line 0 with its least point,
which needs no group; if that finds nothing, the rest of the orbit plan
decides the status.  A found witness is always the canonical plan's first
one, so it does not depend on the group.  When no symmetry is found, or
some line pair does not meet exactly once, the canonical plan runs alone
after the first prefix.

The search is serial with one fixed schedule: root prefixes (first line,
first point, second line) in plan order, each exhausted before the next,
stopping at the first witness.  Statuses, witnesses and node counts are
therefore deterministic; node counts include every plan a call ran.  The
budget caps the nodes of one `exists_cycle` call; `longest_cycle` and
`spectrum` apply it to each length.  Progress goes to the
``levicycles.cycles`` logger at debug level: one record per exhausted
root and one per settled length.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from heapq import heapify, heappop, heappush
from itertools import chain

from .arrangement import Arrangement, ArrangementError, ValidationReport, _first_bad_pair, _is_index, _load_json

__all__ = [
    "FOUND",
    "ABSENT",
    "UNKNOWN",
    "NO_INDUCED_CYCLE",
    "BadLength",
    "InducedCycleWitness",
    "validate_witness",
    "SearchResult",
    "LongestResult",
    "CycleSpectrum",
    "exists_cycle",
    "longest_cycle",
    "spectrum",
]

FOUND = "found"
ABSENT = "absent"
UNKNOWN = "unknown"
NO_INDUCED_CYCLE = "no-induced-cycle"


class BadLength(ArrangementError):
    """Requested cycle length is impossible for a Levi graph (i < 3)."""


@dataclass(frozen=True)
class InducedCycleWitness:
    """
    Alternating certificate for an induced cycle of length 2 * len(lines).

    ``points[t]`` is the meet of ``lines[t]`` and ``lines[t+1]`` (cyclically),
    matching the traversal line, point, line, ..., point, back to the first
    line.  Validity is checked by validate_witness, not the constructor, so
    deliberately broken witnesses can be expressed in tests.
    """

    lines: tuple[int, ...]
    points: tuple[int, ...]

    @property
    def length(self) -> int:
        return 2 * len(self.lines)

    def canonical(self) -> InducedCycleWitness:
        """
        Rotation/reflection representative: smallest line first, second
        line smaller than the last.
        """
        i = len(self.lines)
        best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        for lines, points in (
            (self.lines, self.points),
            # reversed traversal: same first line, lines backwards, and
            # points shifted so points[t] still meets lines[t], lines[t+1]
            (self.lines[:1] + self.lines[:0:-1], self.points[::-1]),
        ):
            for r in range(i):
                cand = (lines[r:] + lines[:r], points[r:] + points[:r])
                if cand[0][0] == min(lines) and (best is None or cand < best):
                    best = cand
        assert best is not None
        return InducedCycleWitness(*best)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(asdict(self), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> InducedCycleWitness:
        doc = _load_json(text)
        if not isinstance(doc, dict) or not all(isinstance(doc.get(key), list) for key in ("lines", "points")):
            raise ArrangementError("witness JSON needs 'lines' and 'points' lists")
        return cls(tuple(doc["lines"]), tuple(doc["points"]))


def validate_witness(arr: Arrangement, w: InducedCycleWitness) -> ValidationReport:
    """
    Check a witness against an arrangement, reporting every violated
    condition: shape, index range, distinctness, adjacency (each point on
    exactly its two cyclic neighbor lines), inducedness (no other incidence
    among chosen vertices), and agreement with the Levi-graph reading.

    Rotated or reflected witnesses are accepted; canonical form is a solver
    output convention, not a validity requirement.
    """
    checks: dict[str, bool] = {}
    failures: list[str] = []

    def fail(check: str, message: str) -> None:
        checks[check] = False
        failures.append(f"{check}: {message}")

    i = len(w.lines)
    checks["shape"] = True
    if len(w.points) != i:
        fail("shape", f"{i} lines but {len(w.points)} points")
    if i < 3:
        fail("shape", f"needs at least 3 lines, got {i}")
    if failures:
        return ValidationReport(checks, tuple(failures))

    checks["range"] = True
    for j in w.lines:
        if not _is_index(j, arr.k):
            fail("range", f"unknown line {j!r}")
    for p in w.points:
        if not _is_index(p, arr.s):
            fail("range", f"unknown point {p!r}")
    if failures:
        return ValidationReport(checks, tuple(failures))

    checks["distinctness"] = True
    if len(set(w.lines)) != i:
        fail("distinctness", "repeated line")
    if len(set(w.points)) != i:
        fail("distinctness", "repeated point")

    checks["adjacency"] = True
    for t in range(i):
        p, here, after = w.points[t], w.lines[t], w.lines[(t + 1) % i]
        on = arr.point_lines[p]
        if here not in on or after not in on:
            fail("adjacency", f"point {p} is not the meet of lines {here} and {after}")

    checks["inducedness"] = True
    chosen = set(w.lines)
    for t in range(i):
        p = w.points[t]
        extra = (arr.point_lines[p] & chosen) - {w.lines[t], w.lines[(t + 1) % i]}
        if extra:
            fail("inducedness", f"point {p} also lies on chosen line {min(extra)}")

    if not failures:
        # Independent reading, from the line side of the incidences: in the
        # Levi graph the alternating vertex set must induce exactly the 2i
        # cycle edges.  Only the chosen lines' neighbourhoods are read, so no
        # whole graph is built per witness.
        checks["levi-agreement"] = True
        pts = set(w.points)
        induced = sum(len(arr.line_points[j] & pts) for j in set(w.lines))
        if induced != 2 * i:
            fail("levi-agreement", f"vertex set induces {induced} edges, not {2 * i}")
    return ValidationReport(checks, tuple(failures))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one existence query.  nodes counts visited search states."""

    status: str
    witness: InducedCycleWitness | None
    nodes: int


@dataclass(frozen=True)
class LongestResult:
    status: str  # found | no-induced-cycle | unknown
    i: int | None
    witness: InducedCycleWitness | None
    nodes: int

    @property
    def length(self) -> int | None:
        return None if self.i is None else 2 * self.i


@dataclass(frozen=True)
class CycleSpectrum:
    """Per-length results for i = 3 .. i_max."""

    results: dict[int, SearchResult]

    @property
    def found(self) -> tuple[int, ...]:
        return tuple(i for i, r in sorted(self.results.items()) if r.status == FOUND)

    @property
    def longest(self) -> int | None:
        return max(self.found, default=None)

    def to_json(self, indent: int | None = None) -> str:
        doc = {}
        for i, r in sorted(self.results.items()):
            entry: dict[str, object] = {"status": r.status}
            if r.witness is not None:
                entry["witness"] = asdict(r.witness)
            doc[str(i)] = entry
        return json.dumps(doc, indent=indent)


class _BudgetHit(Exception):
    pass


def _debug(message: str, *args) -> None:
    """
    Log on the ``levicycles.cycles`` logger at debug level.

    A debug record reaches only a handler that someone configured, which
    imports logging; until then there is nothing to do, and the CLI starts
    without importing it.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).debug(message, *args)


# -- symmetry: verified incidence automorphisms and the orbit root plan

# Work cap of _automorphisms, in vertices and incidences visited.  Every
# arrangement the benchmark builds needs at most about 6 000 units (2-3 ms
# on a 2-core VM for ceva(6), mu3(7) and a_w_k(7,3)), ceva(9) 13 000 and
# generic(30), with 30 lines and 435 points, 400 000 (0.11 s).  generic(40)
# and near_pencil(120) reach the cap, after 0.28 s and 0.11 s, and keep a
# subgroup.
_AUT_CAP = 1_000_000


class _CapHit(Exception):
    pass


def _is_automorphism(arr: Arrangement, perm: list[int]) -> bool:
    """
    Whether ``perm`` is an incidence automorphism of ``arr``.

    Vertices are numbered as in the Levi graph with lines first: line j is
    vertex j and point p is vertex k + p.  ``perm`` must be a bijection of
    the lines and of the points that maps the line set of every point onto
    the line set of the point it is sent to.  This check is the soundness
    certificate of the orbit plan: a map that fails it is never used.
    """
    k, n = arr.k, arr.k + arr.s
    if len(perm) != n or sorted(perm[:k]) != list(range(k)) or sorted(perm[k:]) != list(range(k, n)):
        return False
    pmask = arr.point_masks
    for p, lines in enumerate(arr.point_lines):
        image = 0
        for j in lines:
            image |= 1 << perm[j]
        if image != pmask[perm[k + p] - k]:
            return False
    return True


def _automorphisms(arr: Arrangement) -> list[list[int]]:
    """
    Generators of the incidence automorphism group of ``arr``.

    Individualisation-refinement on the Levi graph (McKay & Piperno,
    "Practical graph isomorphism, II", 2014), with lines and points in
    separate cells from the start.  A node of the search tree is an ordered
    partition of the vertices refined to the coarsest equitable one; a
    child individualises one line of the largest non-singleton line cell.
    The first path ends in a discrete partition, the first leaf.  Then, from
    the deepest level up, every line of the level's target cell that is not
    yet known to be equivalent to the path's choice is tried: its subtree is
    searched, pruned by the refinement trace of the first path, for a leaf
    whose map from the first leaf passes :func:`_is_automorphism`.  The maps
    found generate the whole group.

    Returns permutations in :func:`_is_automorphism`'s numbering.  The work
    is capped: past ``_AUT_CAP`` units, which took at most 0.3 s in every
    case measured (generic(40), 40 lines and 780 points, on a 2-core VM),
    it returns the generators verified so far.  They generate a subgroup,
    whose orbits are finer, still sound, and only prune less.
    """
    k, n = arr.k, arr.k + arr.s
    adj = [tuple(k + p for p in arr.line_points[j]) for j in range(k)]
    adj += [tuple(lines) for lines in arr.point_lines]
    work = 0

    # A partition is (lab, cell, end): lab lists the vertices by position,
    # cell[v] is the first position of v's cell and end[a] the position after
    # the cell that starts at a.  Cells are named by position, and fragments
    # are ordered by their neighbour counts, so the trace of a refinement,
    # the list of its splits, does not depend on vertex labels.
    def refine(lab, cell, end, queue, expect):
        """Refine in place until equitable; the trace, or None when it leaves ``expect``."""
        nonlocal work
        trace: list = []
        queued = set(queue)
        heapify(queue)
        while queue:
            a = heappop(queue)
            queued.discard(a)
            counts: dict[int, int] = {}
            for x in lab[a:end[a]]:
                for u in adj[x]:
                    counts[u] = counts.get(u, 0) + 1
            work += len(counts) + end[a] - a
            for c in sorted({cell[u] for u in counts}):
                e = end[c]
                if e - c == 1:
                    continue
                groups: dict[int, list[int]] = {}
                for u in lab[c:e]:
                    groups.setdefault(counts.get(u, 0), []).append(u)
                work += e - c
                if len(groups) == 1:
                    continue
                step = (a, c, tuple((m, len(groups[m])) for m in sorted(groups)))
                if expect is not None and (len(trace) == len(expect) or expect[len(trace)] != step):
                    return None
                trace.append(step)
                frags = []
                pos = c
                for m in sorted(groups):
                    group = groups[m]
                    lab[pos:pos + len(group)] = group
                    for u in group:
                        cell[u] = pos
                    end[pos] = pos + len(group)
                    frags.append(pos)
                    pos += len(group)
                # A cell already queued splits by all its fragments; otherwise
                # the largest one (the first among equals) is implied.
                if c not in queued:
                    frags.remove(max(frags, key=lambda f: (end[f] - f, -f)))
                for f in frags:
                    if f not in queued:
                        queued.add(f)
                        heappush(queue, f)
            if work > _AUT_CAP:
                raise _CapHit
        if expect is not None and len(trace) != len(expect):
            return None
        return tuple(trace)

    def individualise(node, v, expect):
        nonlocal work
        work += n
        lab, cell, end = (list(x) for x in node)
        c, e = cell[v], end[cell[v]]
        at = lab.index(v, c, e)
        lab[c], lab[at] = v, lab[c]
        end[c], end[c + 1] = c + 1, e
        for u in lab[c + 1:e]:
            cell[u] = c + 1
        trace = refine(lab, cell, end, [c], expect)
        return None if trace is None else ((lab, cell, end), trace)

    def target(node):
        """The first largest non-singleton line cell, or None when lines are discrete."""
        _, _, end = node
        best, a = None, 0
        while a < k:
            if end[a] - a > 1 and (best is None or end[a] - a > end[best] - best):
                best = a
            a = end[a]
        return best

    def leaf_map(node, m):
        """A verified automorphism from a leaf below node (at depth m) onto the first leaf, or None."""
        nonlocal work
        if m == len(path):
            work += n
            perm = [0] * n
            for u, v in zip(first_leaf, node[0]):
                perm[u] = v
            return perm if _is_automorphism(arr, perm) else None
        _, a, _, trace = path[m]
        for x in node[0][a:node[2][a]]:
            child = individualise(node, x, trace)
            if child is not None:
                perm = leaf_map(child[0], m + 1)
                if perm is not None:
                    return perm
        return None

    parent = list(range(k))  # union-find over lines: orbits of the generators so far
    gens: list[list[int]] = []
    path: list = []  # per level: (node, target cell, chosen line, trace of the child)
    try:
        lab, cell, end = list(range(n)), [0] * k + [k] * (n - k), [0] * n
        end[0], end[k] = k, n
        refine(lab, cell, end, [0, k] if n > k else [0], None)
        node = (lab, cell, end)
        while (a := target(node)) is not None:
            v = min(node[0][a:node[2][a]])
            child, trace = individualise(node, v, None)
            path.append((node, a, v, trace))
            node = child
        first_leaf = node[0]
        for m in reversed(range(len(path))):
            node, a, v, trace = path[m]
            # Every generator so far fixes the lines chosen above level m.
            failed = set()
            for w in sorted(node[0][a:node[2][a]]):
                if _find(parent, w) == _find(parent, v) or _find(parent, w) in failed:
                    continue
                child = individualise(node, w, trace)
                perm = None if child is None else leaf_map(child[0], m + 1)
                if perm is None:
                    failed.add(_find(parent, w))
                    continue
                gens.append(perm)
                for j in range(k):
                    x, y = _find(parent, j), _find(parent, perm[j])
                    if x != y:
                        parent[x] = y
    except _CapHit:
        pass
    return gens


def _find(parent, x: int) -> int:
    """The root of x in a union-find forest (a list or dict of parents), halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _orbits(vertices, moves) -> list[list[int]]:
    """Classes of ``vertices`` joined by the pairs in ``moves``, each sorted, ordered by least member."""
    parent = {v: v for v in vertices}
    for x, y in moves:
        x, y = _find(parent, x), _find(parent, y)
        if x != y:
            parent[max(x, y)] = min(x, y)
    classes: dict[int, list[int]] = {}
    for v in sorted(parent):
        classes.setdefault(_find(parent, v), []).append(v)
    return sorted(classes.values())


def _stabiliser_point_orbits(arr: Arrangement, gens: list[list[int]], r: int) -> list[list[int]]:
    """
    Orbits on the points of line r of the group fixing r.

    By Schreier's lemma the stabiliser is generated by u_{g(x)}^-1 g u_x
    for every generator g and every x in the orbit of r, where u_x is a
    product of generators taking r to x.
    """
    k = arr.k
    coset = {r: list(range(k + arr.s))}
    queue = [r]
    for x in queue:  # the queue grows while it is walked: a breadth-first orbit
        for g in gens:
            if g[x] not in coset:
                coset[g[x]] = [g[v] for v in coset[x]]
                queue.append(g[x])
    back = {}
    for x, u in coset.items():
        inv = [0] * len(u)
        for v, image in enumerate(u):
            inv[image] = v
        back[x] = inv
    points = [k + p for p in sorted(arr.line_points[r])]
    moves = [(p, back[g[x]][g[u[p]]]) for x, u in coset.items() for g in gens for p in points]
    return [[v - k for v in orbit] for orbit in _orbits(points, moves)]


def _lines_through(pmask, points: int) -> int:
    """The lines through any of the points in the bitmask ``points``."""
    lines = 0
    while points:
        low = points & -points
        points ^= low
        lines |= pmask[low.bit_length() - 1]
    return lines


def _orbit_plan(arr: Arrangement):
    """
    Root plan over orbit representatives, or None when no symmetry is found.

    Line orbits are taken in order of their least line r.  The cycles through
    r may use every line outside the orbits taken before; their first point
    p1 runs over the least points of the orbits of the stabiliser of r on
    the points of r, and a point in an orbit taken before p1's cannot close
    the cycle.  Each entry is (r, allowed lines, ((p1, closable lines),
    ...)), the shape of :func:`_canonical_roots`.  The plan's first root
    prefix, line 0 with its least point, is left out: every search takes it
    first (see :func:`_search`).
    """
    gens = [g for g in _automorphisms(arr) if _is_automorphism(arr, g)]
    if not gens:
        return None
    k = arr.k
    lmask, pmask = arr.line_masks, arr.point_masks
    plan = []
    taken = 0
    for orbit in _orbits(range(k), [(j, g[j]) for g in gens for j in range(k)]):
        r = orbit[0]
        allowed = ((1 << k) - 1) & ~taken & ~(1 << r)
        firsts = []
        closed = 0
        for points in _stabiliser_point_orbits(arr, gens, r):
            p1 = points[0]
            if plan or closed:  # not line 0 with its least point
                firsts.append((p1, _lines_through(pmask, lmask[r] & ~closed & ~(1 << p1)) & allowed))
            closed |= sum(1 << p for p in points)
        plan.append((r, allowed, tuple(firsts)))
        taken |= sum(1 << j for j in orbit)
    return tuple(plan)


_PENDING = object()  # the orbit plan has not been needed yet


class _Symmetry:
    """What the search computes at most once per arrangement (``Arrangement._symmetry``)."""

    __slots__ = ("covered", "plan")

    def __init__(self, arr: Arrangement) -> None:
        self.covered = _first_bad_pair(arr) is None  # every line pair meets in exactly one point
        self.plan = _PENDING  # then the orbit plan, or None


def _symmetry(arr: Arrangement) -> _Symmetry:
    if arr._symmetry is None:
        object.__setattr__(arr, "_symmetry", _Symmetry(arr))  # Arrangement blocks plain assignment
    return arr._symmetry


def _canonical_roots(arr: Arrangement):
    """
    Every line j1 in turn, above it the lines > j1, and each point p1 of j1
    as first point, with the lines through the other points of j1 as
    closable.
    """
    lmask, pmask, k = arr.line_masks, arr.point_masks, arr.k
    for j1 in range(k):
        above = ((1 << k) - 1) >> (j1 + 1) << (j1 + 1)
        firsts = []
        rest = lmask[j1]
        while rest:
            b1 = rest & -rest
            rest ^= b1
            firsts.append((b1.bit_length() - 1, _lines_through(pmask, lmask[j1] ^ b1) & above))
        yield j1, above, firsts


def _search(arr: Arrangement, i: int, budget: int | None) -> SearchResult:
    """
    Line-sequence DFS over one arrangement, under two root plans.

    All incidence tests are bitmask operations on the arrangement's own
    views: lmask[j] is the point set of line j, pmask[p] the line set
    through p, and the meet of lines a and b is the single bit of
    ``lmask[a] & lmask[b]`` (its highest bit where the data breaks pair
    coverage).  A root is a line j1 with ``above``, the lines that may
    follow it, and its first points p1; a root prefix (j1, p1, j2) takes
    j2 from ``pmask[p1] & above``.

    The recursion carries ``hit``, the OR of pmask[q] over every chosen
    point q: the set of lines through some chosen point.  Every chosen line
    passes through a chosen point (j1 and j2 through p1, each later line
    through the point it entered by), so ``hit`` contains the chosen lines,
    and a new line through exit point p must lie in
    ``pmask[p] & above & ~hit``.  The same mask drives the pool check: every
    line placed after the next one enters through a point not yet chosen,
    so it must avoid ``hit | pmask[p]``, and an exit point p is skipped when
    ``above & ~(hit | pmask[p])`` has fewer lines than are still needed.

    It also carries ``closable``, the lines that may still close the cycle:
    lines through a free point of j1, one on no interior line and not ruled
    out by the plan.  The last line is taken from it, an exit point p is
    skipped when ``closable & ~(hit | pmask[p])`` is empty, and each interior
    line c removes the lines through its meet with j1.  When every line pair
    meets exactly once, a last line from ``closable`` always closes the
    cycle; otherwise the update is skipped and the closure is tested.

    - The canonical plan takes every line j1 in order with the lines above
      it, every point of j1 as p1, and keeps only lines > j2 in
      ``closable``, so the second line is smaller than the last.
    - The orbit plan (:func:`_orbit_plan`) takes one line per orbit of the
      automorphism group and, on it, one first point per orbit of the
      line's stabiliser, with no tie-break.  Its first root prefix is
      always line 0 with its least point, with every line above 0 allowed.

    A call first searches that prefix, which needs no group.  When it finds
    nothing and pair coverage holds, the orbit plan is computed (once per
    arrangement) and the rest of it decides the status.  When a cycle
    exists, or no symmetry is known, the witness is the canonical plan's
    first one, so witnesses do not depend on the group.  The canonical
    plan's first prefix is the same prefix with fewer leaves, in the same
    order: a cycle found there first with its last line above j2 is that
    witness, and the canonical plan runs only after an empty or a reversed
    find, from its second or its first prefix.  ``nodes`` and the budget
    count every run.
    """
    lmask, pmask = arr.line_masks, arr.point_masks
    sym = _symmetry(arr)
    covered = sym.covered
    nodes = 0
    j1 = above = 0  # the root line and the lines that may follow it, set by explore

    def rec(
        seq: list[int],
        pts: list[int],
        chosen_lines: int,
        hit: int,
        cover_prev: int,
        cover_all: int,
        closable: int,
    ) -> InducedCycleWitness | None:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise _BudgetHit
        tip = seq[-1]
        if len(seq) == i:
            # close: the meet of the last and first lines must avoid every
            # interior line (which also forces it off all chosen points)
            pc = (lmask[tip] & lmask[j1]).bit_length() - 1
            if covered or (pc >= 0 and pmask[pc] & chosen_lines == (1 << j1) | (1 << tip)):
                return InducedCycleWitness(tuple(seq), tuple(pts + [pc]))
            return None

        final = len(seq) == i - 1
        remaining = i - len(seq) - 1  # lines still needed after the next one
        avail = lmask[tip] & ~cover_prev
        while avail:
            pb = avail & -avail
            avail ^= pb
            p = pb.bit_length() - 1
            hit_p = hit | pmask[p]
            if final:
                cands = pmask[p] & closable & ~hit
            else:
                # lines placed after the next one, the last among them, enter
                # through points not yet chosen, so they must miss every point
                # chosen so far including p
                if not closable & ~hit_p:
                    continue
                if remaining > 1 and (above & ~hit_p).bit_count() < remaining:
                    continue
                cands = pmask[p] & above & ~hit
            while cands:
                cb = cands & -cands
                cands ^= cb
                cand = cb.bit_length() - 1
                nxt = closable
                if not final:
                    if not lmask[cand] & ~cover_all & ~pb:
                        continue  # no exit point: cand would dead-end
                    if covered:
                        nxt &= ~pmask[(lmask[cand] & lmask[j1]).bit_length() - 1]
                seq.append(cand)
                pts.append(p)
                w = rec(seq, pts, chosen_lines | cb, hit_p, cover_all, cover_all | lmask[cand], nxt)
                if w is not None:
                    return w
                seq.pop()
                pts.pop()
        return None

    def explore(roots, tiebreak: bool, plan: str) -> InducedCycleWitness | None:
        nonlocal j1, above
        for j1, above, firsts in roots:
            for p1, closable in firsts:
                rest = pmask[p1] & above
                while rest:
                    low = rest & -rest
                    rest ^= low
                    j2 = low.bit_length() - 1
                    # canonical form: the last line is above j2; -(low << 1)
                    # has the bits of the lines above j2
                    clos = closable & -(low << 1) if tiebreak else closable
                    w = rec([j1, j2], [p1], (1 << j1) | low, pmask[p1], lmask[j1], lmask[j1] | lmask[j2], clos)
                    if w is not None:
                        return w
            _debug("i=%d %s: root line %d, %d first points exhausted, %d nodes", i, plan, j1, len(firsts), nodes)
        return None

    canonical = _canonical_roots(arr)
    line0, above0, firsts0 = next(canonical)
    try:
        # line 0 with its least point in both orientations: the orbit plan's
        # first root prefix, for which no group is needed
        w = explore([(line0, above0, firsts0[:1])], False, "first prefix")
        if w is None and covered:
            if sym.plan is _PENDING:
                sym.plan = _orbit_plan(arr)
            if sym.plan is not None and explore(sym.plan, False, "orbit plan") is None:
                return SearchResult(ABSENT, None, nodes)
        # A cycle exists, or no symmetry is known.  The canonical plan's first
        # prefix is the one above with the last line kept above j2: a subtree
        # of it, walked in the same order, so a first find with its last line
        # above j2 is the canonical witness too.
        if w is None:
            w = explore(chain([(line0, above0, firsts0[1:])], canonical), True, "canonical plan")
        elif w.lines[-1] < w.lines[1]:
            w = explore(chain([(line0, above0, firsts0)], canonical), True, "canonical plan")
    except _BudgetHit:
        return SearchResult(UNKNOWN, None, nodes)
    finally:
        # rec reaches itself through its closure; breaking that cycle frees
        # the call's functions at once instead of at a full collection
        rec = None
    if w is None:
        return SearchResult(ABSENT, None, nodes)
    return SearchResult(FOUND, w, nodes)


def _check_i(i: int) -> None:
    if not isinstance(i, int) or i < 3:
        raise BadLength(
            f"induced cycles in a Levi graph have length 2i with i >= 3, got i={i}"
        )


def _check_budget(budget: int | None) -> None:
    # the rule ids follow: an int, but not a bool (True is not one node)
    if budget is not None and (not isinstance(budget, int) or isinstance(budget, bool) or budget < 0):
        raise ArrangementError(f"budget must be a non-negative node count, got {budget!r}")


def exists_cycle(
    arr: Arrangement,
    i: int,
    budget: int | None = None,
) -> SearchResult:
    """
    Decide whether the Levi graph of arr has an induced cycle of length 2i.

    Returns Found with a canonical witness, Absent after exhausting the
    canonical enumeration, or Unknown when the search visited more than
    ``budget`` nodes first.  The budget must be None or a non-negative node
    count for the whole call; a negative one raises ArrangementError.
    """
    _check_i(i)
    _check_budget(budget)
    res = SearchResult(ABSENT, None, 0) if i > min(arr.k, arr.s) else _search(arr, i, budget)
    _debug("i=%d settled: %s after %d nodes", i, res.status, res.nodes)
    return res


def longest_cycle(
    arr: Arrangement,
    budget: int | None = None,
) -> LongestResult:
    """
    Longest induced cycle via a descending scan from i = min(k, s).

    The first Found wins.  An Unknown at any length aborts the scan (a
    longer cycle might exist beyond the budget); all-Absent means the Levi
    graph is an induced-cycle-free forest-like graph, reported as
    no-induced-cycle.
    """
    _check_budget(budget)
    nodes = 0
    for i in range(min(arr.k, arr.s), 2, -1):
        r = exists_cycle(arr, i, budget=budget)
        nodes += r.nodes
        if r.status == FOUND:
            return LongestResult(FOUND, i, r.witness, nodes)
        if r.status == UNKNOWN:
            return LongestResult(UNKNOWN, None, None, nodes)
    return LongestResult(NO_INDUCED_CYCLE, None, None, nodes)


def spectrum(
    arr: Arrangement,
    i_max: int | None = None,
    budget: int | None = None,
) -> CycleSpectrum:
    """Existence per length for i = 3 .. i_max (default min(k, s))."""
    _check_budget(budget)
    if i_max is None:
        i_max = min(arr.k, arr.s)
    elif not isinstance(i_max, int) or i_max < 3:
        raise BadLength(f"spectrum needs i_max >= 3, got {i_max!r}")
    results = {i: exists_cycle(arr, i, budget=budget) for i in range(3, i_max + 1)}
    return CycleSpectrum(results)
