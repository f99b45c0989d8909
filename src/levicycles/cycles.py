"""Exact induced-cycle search over arrangement incidence data.

An induced cycle of length 2i in the Levi graph alternates i lines and i
points, so the search runs over *line sequences*: extend a partial sequence
(j1, p1, j2, ..., jt) by a point on jt lying on no earlier chosen line, then
by a new line through that point avoiding every chosen point.  Closing
requires the meet of the last and first lines to avoid all interior lines.
Inducedness is maintained incrementally with the arrangement's own incidence
bitsets (``line_masks``, ``point_masks``), so accepted sequences never need a
post-hoc filter and a call builds no table of its own.

Symmetry is broken by canonical form: the first line is the smallest chosen
line and the second is smaller than the last, which kills the dihedral
symmetry of the cycle.  `Absent` is only reported after the canonical
enumeration has been exhausted; hitting the node budget yields `Unknown`,
never a silent under-search.

The search is serial with one fixed schedule: root prefixes (first line,
first point, second line) in lexicographic order, each exhausted before the
next, stopping at the first witness.  Statuses, witnesses and node counts
are therefore deterministic.  The budget caps the nodes of one
`exists_cycle` call; `longest_cycle` and `spectrum` apply it to each length.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .arrangement import Arrangement, ArrangementError, ValidationReport, _is_index, _load_json
from .levi import build_levi

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
        # Independent reading: the alternating vertex set must induce
        # exactly the 2i cycle edges in the Levi graph.
        checks["levi-agreement"] = True
        g = build_levi(arr)
        pts, lns = set(w.points), set(w.lines)
        induced = [(p, j) for p, j in g.edges if p in pts and j in lns]
        if len(induced) != 2 * i:
            fail(
                "levi-agreement",
                f"vertex set induces {len(induced)} edges, not {2 * i}",
            )
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


def _search(arr: Arrangement, i: int, budget: int | None) -> SearchResult:
    """
    Canonical line-sequence DFS over one arrangement.

    All incidence tests are bitmask operations on the arrangement's own
    views: lmask[j] is the point set of line j, pmask[p] the line set
    through p, and the meet of lines a and b is the single bit of
    ``lmask[a] & lmask[b]`` (its highest bit where the data breaks pair
    coverage).  j1 is the cycle minimum, so only j2 > j1 can follow it in a
    root prefix (j1, p1, j2).

    The recursion carries ``hit``, the OR of pmask[q] over every chosen
    point q: the set of lines through some chosen point.  Every chosen line
    passes through a chosen point (j1 and j2 through p1, each later line
    through the point it entered by), so ``hit`` contains the chosen lines,
    and a new line through exit point p must lie in
    ``pmask[p] & above & ~hit``, where ``above`` holds the lines greater
    than j1.  The same mask drives the pool check: every line placed after
    the next one enters through a point not yet chosen, so it must avoid
    ``hit | pmask[p]``, and an exit point p is skipped when
    ``above & ~(hit | pmask[p])`` has fewer lines than are still needed.
    """
    lmask, pmask = arr.line_masks, arr.point_masks
    nodes = 0

    # j1 and above are set by the root loop below, once per first line
    def rec(
        seq: list[int],
        pts: list[int],
        chosen_lines: int,
        hit: int,
        cover_prev: int,
        cover_all: int,
    ) -> InducedCycleWitness | None:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise _BudgetHit
        tip = seq[-1]
        if len(seq) == i:
            # close: the meet of the last and first lines must avoid every
            # interior line (which also forces it off all chosen points)
            if tip <= seq[1]:
                return None
            pc = (lmask[tip] & lmask[j1]).bit_length() - 1
            if pc >= 0 and pmask[pc] & chosen_lines == (1 << j1) | (1 << tip):
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
            # lines placed after the next one enter through points not yet
            # chosen, so they must miss every point chosen so far including p
            if remaining > 1 and (above & ~hit_p).bit_count() < remaining:
                continue
            cands = pmask[p] & above & ~hit
            while cands:
                cb = cands & -cands
                cands ^= cb
                cand = cb.bit_length() - 1
                if not final and not lmask[cand] & ~cover_all & ~pb:
                    continue  # no exit point: cand would dead-end
                seq.append(cand)
                pts.append(p)
                w = rec(seq, pts, chosen_lines | cb, hit_p, cover_all, cover_all | lmask[cand])
                if w is not None:
                    return w
                seq.pop()
                pts.pop()
        return None

    try:
        for j1 in range(arr.k):
            above = ((1 << arr.k) - 1) >> (j1 + 1) << (j1 + 1)
            firsts = lmask[j1]
            while firsts:
                b1 = firsts & -firsts
                firsts ^= b1
                p1 = b1.bit_length() - 1
                rest = pmask[p1] & above
                while rest:
                    low = rest & -rest
                    rest ^= low
                    j2 = low.bit_length() - 1
                    w = rec([j1, j2], [p1], (1 << j1) | low, pmask[p1], lmask[j1], lmask[j1] | lmask[j2])
                    if w is not None:
                        return SearchResult(FOUND, w, nodes)
    except _BudgetHit:
        return SearchResult(UNKNOWN, None, nodes)
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

    Returns Found with a canonical witness, Absent after exhausting the
    canonical enumeration, or Unknown when the search visited more than
    ``budget`` nodes first.  The budget must be None or a non-negative node
    count for the whole call; a negative one raises ArrangementError.
    """
    _check_i(i)
    _check_budget(budget)
    if i > min(arr.k, arr.s):
        return SearchResult(ABSENT, None, 0)
    return _search(arr, i, budget)


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
