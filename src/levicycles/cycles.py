"""Exact induced-cycle search over arrangement incidence data.

An induced cycle of length 2i in the Levi graph alternates i lines and i
points, so the search runs over *line sequences*: extend a partial sequence
(j1, p1, j2, ..., jt) by a point on jt lying on no earlier chosen line, then
by a new line through that point avoiding every chosen point.  Closing
requires the meet of the last and first lines to avoid all interior lines.
Inducedness is maintained incrementally with the arrangement's own incidence
bitsets (``line_masks``, ``point_masks``), so accepted sequences never need a
post-hoc filter and a call builds no table of its own.

One loop walks the roots of a lazily produced root plan through one
recursion.  Its first root prefix is line 0 at its least point, in both
orientations, which needs no group.  The orbit plan follows: one root line
per orbit of the incidence automorphism group, and on it one first point
per orbit of that line's stabiliser, so an absence proof searches one copy
of each symmetric subtree (McKay's orderly scheme, "Isomorph-free
exhaustive generation", 1998).  The group comes from
individualisation-refinement on the Levi graph, once per arrangement and
only when the first prefix found nothing, and every generator is checked
to preserve incidences before use.  The stabilisers' point orbits are the
group's orbits on flags, incident (line, point) pairs, cut down to each
line, so no stabiliser is formed.  When no symmetry is verified, or some
line pair does not meet exactly once (then no group is computed), the
group is trivial and its plan takes every line as root with the lines
above it.  The recursion also carries ``closable``, the lines that can
still close the cycle, and never places a last line outside it.

`Absent` is only reported after the plan has been exhausted; hitting the
node budget yields `Unknown`, never a silent under-search.  A found
witness is the plan's first find in rotation/reflection normal form, so it
depends on the labelled arrangement and its verified group.

The search is serial with one fixed schedule: root prefixes (first line,
first point, second line) in plan order, each exhausted before the next,
stopping at the first find.  Statuses, witnesses and node counts are
therefore deterministic.  The budget caps the nodes of one `exists_cycle`
call; `longest_cycle` and `spectrum` apply it to each length.  Progress
goes to the ``levicycles.cycles`` logger at debug level: one record per
exhausted root and one per settled length.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from heapq import heapify, heappop, heappush
from itertools import groupby
from operator import itemgetter

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
    """A cycle length no Levi graph has (i < 3), or a witness that cannot describe a cycle."""


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

        Raises BadLength for a witness that has no such form: fewer than 3
        lines, a point count other than its line count, or an id that is
        not an integer.
        """
        i = len(self.lines)
        if i < 3 or len(self.points) != i:
            raise BadLength(f"a witness needs i >= 3 lines and as many points, got {i} lines and {len(self.points)} points")
        for x in (*self.lines, *self.points):
            if not isinstance(x, int) or isinstance(x, bool):
                raise BadLength(f"witness ids must be integers, got {x!r}")
        least = min(self.lines)
        return InducedCycleWitness(*min(
            (lines[r:] + lines[:r], points[r:] + points[:r])
            for lines, points in (
                (self.lines, self.points),
                # reversed traversal: same first line, lines backwards, and
                # points shifted so points[t] still meets lines[t], lines[t+1]
                (self.lines[:1] + self.lines[:0:-1], self.points[::-1]),
            )
            for r in range(i)
            if lines[r] == least
        ))

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


def _point_orbits(arr: Arrangement, gens: list[list[int]]) -> dict[int, list[list[int]]]:
    """
    Per line j, the orbits on the points of j of the group fixing j, each
    sorted and ordered by least point.

    A flag is an incident (line, point) pair.  Some automorphism maps the
    flag (j, p) to (j, q) exactly when one fixing j maps p to q, so these
    orbits are the group's orbits on flags, cut down to each line; the
    generators' moves on flags give them without forming the stabiliser.
    """
    k = arr.k
    flags = [(j, p) for j in range(k) for p in arr.line_points[j]]
    orbits: dict[int, list[list[int]]] = {j: [] for j in range(k)}
    for orbit in _orbits(flags, [((j, p), (g[j], g[k + p] - k)) for g in gens for j, p in flags]):
        for j, cut in groupby(orbit, key=itemgetter(0)):  # the orbit is sorted, so each cut is
            orbits[j].append([p for _, p in cut])
    return {j: sorted(cuts) for j, cuts in orbits.items()}


def _firsts(arr: Arrangement, r: int, allowed: int, covered: bool, orbits) -> list[tuple[int, int]]:
    """
    The first points of root line r, each with its closable lines.

    ``orbits`` are the point orbits of the stabiliser of r, in order: each
    gives its least point as p1, and its points are closed for the orbits
    after it, because a cycle through one of them was searched from its
    orbit, in the orientation that enters r there.  The closable lines of p1
    are the allowed lines through a point of r other than p1.  When every
    line pair meets once, each allowed line meets r in exactly one point, so
    they are the allowed lines through neither p1 nor a closed point, and
    the work is linear in the points of r.  Otherwise a line may meet r in
    several points or in none, so the union over every other point is
    taken, closed or not: a superset of the closable lines, which stays
    sound and searches each cycle in both orientations.
    """
    pmask = arr.point_masks
    firsts, through = [], 0  # the lines through the points of the orbits taken
    for points in orbits:
        p1 = points[0]
        if covered:
            lines = ~(pmask[p1] | through)
        else:
            lines = 0
            for p in arr.line_points[r] - {p1}:
                lines |= pmask[p]
        firsts.append((p1, allowed & lines))
        for p in points:
            through |= pmask[p]
    return firsts


def _orbit_plan(arr: Arrangement, covered: bool) -> tuple:
    """
    Root plan over orbit representatives of the verified automorphism group.

    Line orbits are taken in order of their least line r.  The cycles through
    r may use every line outside the orbits taken before; their first point
    p1 runs over the least points of the orbits of the stabiliser of r on
    the points of r, and a point in an orbit taken before p1's cannot close
    the cycle.  Those point orbits come from one pass over the flags, for
    every line at once (:func:`_point_orbits`).  Each entry is (r, allowed
    lines, ((p1, closable lines), ...)); the first is line 0 with its least
    point first.  Without pair coverage no group is computed, and with it
    none may be found: the trivial group gives the plan of singleton orbits,
    every line r with the lines above it and every point of r in order.
    """
    gens = [g for g in _automorphisms(arr) if _is_automorphism(arr, g)] if covered else []
    k = arr.k
    points = _point_orbits(arr, gens)
    plan = []
    taken = 0
    for orbit in _orbits(range(k), [(j, g[j]) for g in gens for j in range(k)]):
        r = orbit[0]
        allowed = ((1 << k) - 1) & ~taken & ~(1 << r)
        plan.append((r, allowed, tuple(_firsts(arr, r, allowed, covered, points[r]))))
        taken |= sum(1 << j for j in orbit)
    return tuple(plan)


def _roots(arr: Arrangement, covered: bool):
    """
    The root plan, produced lazily: per root, (root line, allowed lines,
    first points with their closable lines).

    Line 0 at its least point comes first, with every other line allowed;
    it needs no group.  The orbit plan follows, without its own copy of
    that root prefix.  It is computed once per arrangement, only when the
    first prefix found nothing, and kept in ``arr._symmetry``.
    """
    every = (1 << arr.k) - 1
    yield 0, every - 1, _firsts(arr, 0, every - 1, covered, [[p] for p in sorted(arr.line_points[0])[:1]])
    plan = arr._symmetry[1]
    if plan is None:
        plan = _orbit_plan(arr, covered)
        object.__setattr__(arr, "_symmetry", (covered, plan))
    for r, allowed, firsts in plan:
        yield r, allowed, firsts[r == 0:]  # r == 0 only at the first entry


def _search(arr: Arrangement, i: int, budget: int | None) -> SearchResult:
    """
    Line-sequence DFS over one arrangement, one root at a time.

    All incidence tests are bitmask operations on the arrangement's own
    views: lmask[j] is the point set of line j, pmask[p] the line set
    through p, and the meet of lines a and b is the single bit of
    ``lmask[a] & lmask[b]`` where every line pair meets exactly once.  A
    root is a line j1 with ``above``, the lines that may follow it, and its
    first points p1; a root prefix (j1, p1, j2) takes j2 from
    ``pmask[p1] & above``.

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
    cycle; otherwise the update is skipped, and the closure tests every
    point the last and first lines share, lowest first.

    The roots come from :func:`_roots`, and the first one to find a cycle
    settles the length; when none does, the length is absent.  The first
    find, put in rotation/reflection normal form, is the witness, so it is
    determined by the labelled arrangement and its verified group, and
    ``nodes`` and the budget count one walk of the plan.
    """
    lmask, pmask = arr.line_masks, arr.point_masks
    if arr._symmetry is None:  # pair coverage now, the orbit plan once a root needs it
        object.__setattr__(arr, "_symmetry", (_first_bad_pair(arr) is None, None))  # Arrangement blocks plain assignment
    covered = arr._symmetry[0]
    nodes = 0

    def rec(
        seq: list[int],
        pts: list[int],
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
            # interior line (which also forces it off all chosen points); with
            # pair coverage, closable already made sure of that
            meets = lmask[tip] & lmask[j1]
            if covered:
                return InducedCycleWitness(tuple(seq), tuple(pts + [meets.bit_length() - 1]))
            # otherwise the two lines may share several points, or none
            ends, chosen = (1 << j1) | (1 << tip), sum(1 << j for j in seq)
            while meets:
                low = meets & -meets
                meets ^= low
                pc = low.bit_length() - 1
                if pmask[pc] & chosen == ends:
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
                w = rec(seq, pts, hit_p, cover_all, cover_all | lmask[cand], nxt)
                if w is not None:
                    return w
                seq.pop()
                pts.pop()
        return None

    try:
        # rec reads j1, the root line, and above, the lines that may follow it
        for j1, above, firsts in _roots(arr, covered):
            for p1, closable in firsts:
                rest = pmask[p1] & above
                while rest:
                    low = rest & -rest
                    rest ^= low
                    j2 = low.bit_length() - 1
                    w = rec([j1, j2], [p1], pmask[p1], lmask[j1], lmask[j1] | lmask[j2], closable)
                    if w is not None:
                        return SearchResult(FOUND, w.canonical(), nodes)
            _debug("i=%d root line %d: %d first points exhausted, %d nodes", i, j1, len(firsts), nodes)
    except _BudgetHit:
        return SearchResult(UNKNOWN, None, nodes)
    finally:
        # rec reaches itself through its closure; breaking that cycle frees
        # the call's functions at once instead of at a full collection
        rec = None
    return SearchResult(ABSENT, None, nodes)


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

    Returns Found with a witness, the root plan's first find in canonical
    form; Absent after exhausting the plan; or Unknown when the search
    visited more than ``budget`` nodes first.  The budget must be None or a
    non-negative node count for the whole call; a negative one raises
    ArrangementError.
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
