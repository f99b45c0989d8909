"""Line arrangements as pure incidence structures.

An arrangement of k projective lines is recorded combinatorially: each
singular point is the set of lines through it.  Coordinates are optional
metadata (see :mod:`levicycles.projective`); every algorithm in this package
works from the incidence data alone.

Two counting identities characterize consistent data and are checked by
:func:`validate_arrangement`: with m_p the number of lines through point p,

    sum_p C(m_p, 2) = C(k, 2)                     (pair coverage, aggregated)
    sum_{p on l} (m_p - 1) = k - 1   for each l   (per-line pair coverage)

both of which follow from "every pair of distinct lines meets in exactly one
point".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb
from typing import Iterable, Mapping, Sequence

__all__ = [
    "ArrangementError",
    "Arrangement",
    "MultiplicityProfile",
    "ValidationReport",
    "multiplicity_profile",
    "validate_arrangement",
    "modular_points",
    "subarrangement",
    "relabeled",
    "arrangement_to_json",
    "arrangement_from_json",
    "MAX_LINES",
]

# Largest line count arrangement_from_json accepts.  validate_arrangement is
# quadratic in k, and a document at this bound with few points loads, or is
# rejected, in about 0.02 s.  The Python constructors stay unbounded.
MAX_LINES = 256


class ArrangementError(ValueError):
    """Malformed incidence data (bad ids, multiplicity < 2, duplicates)."""


def _is_index(value, bound: int) -> bool:
    """An id in 0..bound-1: an int, but not a bool (JSON true is not line 1)."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < bound


def _load_json(text: str):
    """json.loads, with undecodable input raised as ArrangementError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder caps nesting by recursion
        raise ArrangementError(f"not valid JSON: {exc}") from None


@dataclass(frozen=True)
class MultiplicityProfile:
    """Point-multiplicity census: t[r] = number of r-fold points."""

    t: Mapping[int, int]
    s: int
    q: int

    def t_r(self, r: int) -> int:
        return self.t.get(r, 0)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural check; ``failures`` lists violated conditions."""

    checks: Mapping[str, bool]
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def __bool__(self) -> bool:
        return self.passed


class Arrangement:
    """
    Immutable incidence structure of a line arrangement.

    Parameters
    ----------
    k : number of lines (ids 0..k-1)
    point_lines : iterable of line-id sets, one per singular point, in point
        id order.  Every set must have size >= 2 (points are intersection
        points, never free markers).
    line_names, point_names : optional display names, same order as ids.
    coordinates : optional tuple of projective lines (exact coordinates) in
        line id order; carried for cross-checking, never consulted by the
        combinatorial algorithms.

    The constructor verifies shape only (ids in range, multiplicity >= 2,
    no duplicate incidence); the pairwise-intersection laws are checked by
    :func:`validate_arrangement` so that deliberately broken structures can
    still be represented and reported on.

    Incidence is stored in both directions, plus bitmask views (``line_masks``
    bit p = point p lies on the line; ``point_masks`` bit j = line j passes
    through the point) for O(1) membership tests in the cycle solver.
    Instances are immutable; the one private slot, ``_symmetry``, holds what
    the cycle solver computes once per arrangement: None until the first
    search, then the pair (first root prefix's plan entry, orbit root
    plan), whose plan stays None until a search gets past that prefix.
    """

    __slots__ = (
        "k",
        "point_lines",
        "line_points",
        "point_masks",
        "line_masks",
        "line_names",
        "point_names",
        "coordinates",
        "_symmetry",
    )

    def __init__(
        self,
        k: int,
        point_lines: Iterable[Iterable[int]],
        line_names: Sequence[str] | None = None,
        point_names: Sequence[str] | None = None,
        coordinates: Sequence | None = None,
    ) -> None:
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ArrangementError(f"line count must be a positive integer, got {k!r}")
        pts: list[frozenset[int]] = []
        for pid, lines in enumerate(point_lines):
            lines = list(lines)
            for j in lines:
                if not _is_index(j, k):
                    raise ArrangementError(f"point {pid}: line id {j!r} is not an integer in 0..{k - 1}")
            fs = frozenset(lines)
            if len(fs) != len(lines):
                raise ArrangementError(f"point {pid}: duplicate incidence in {sorted(lines)}")
            if len(fs) < 2:
                raise ArrangementError(f"point {pid}: multiplicity {len(fs)} < 2")
            pts.append(fs)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "point_lines", tuple(pts))
        lp: list[set[int]] = [set() for _ in range(k)]
        pmask = []
        for pid, fs in enumerate(pts):
            m = 0
            for j in fs:
                lp[j].add(pid)
                m |= 1 << j
            pmask.append(m)
        object.__setattr__(self, "line_points", tuple(frozenset(x) for x in lp))
        object.__setattr__(self, "point_masks", tuple(pmask))
        lmask = []
        for j in range(k):
            m = 0
            for pid in lp[j]:
                m |= 1 << pid
            lmask.append(m)
        object.__setattr__(self, "line_masks", tuple(lmask))
        if line_names is not None:
            line_names = tuple(str(x) for x in line_names)
            if len(line_names) != k:
                raise ArrangementError("line_names length != k")
        if point_names is not None:
            point_names = tuple(str(x) for x in point_names)
            if len(point_names) != len(pts):
                raise ArrangementError("point_names length != point count")
        object.__setattr__(self, "line_names", line_names)
        object.__setattr__(self, "point_names", point_names)
        object.__setattr__(self, "coordinates", tuple(coordinates) if coordinates is not None else None)
        object.__setattr__(self, "_symmetry", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Arrangement is immutable")

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__; the
        # rebuilt copy starts without the solver's ``_symmetry`` cache.
        return Arrangement, (self.k, self.point_lines, self.line_names, self.point_names, self.coordinates)

    @property
    def s(self) -> int:
        """Number of singular points."""
        return len(self.point_lines)

    def multiplicity(self, point: int) -> int:
        return len(self.point_lines[point])

    def incident(self, point: int, line: int) -> bool:
        return line in self.point_lines[point]

    def line_name(self, j: int) -> str:
        return self.line_names[j] if self.line_names else f"l{j}"

    def point_name(self, p: int) -> str:
        return self.point_names[p] if self.point_names else f"p{p}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Arrangement):
            return NotImplemented
        return self.k == other.k and self.point_lines == other.point_lines

    def __hash__(self) -> int:
        return hash((self.k, self.point_lines))

    def __repr__(self) -> str:
        return f"Arrangement(k={self.k}, s={self.s})"


def multiplicity_profile(arr: Arrangement) -> MultiplicityProfile:
    """Census of point multiplicities: t_r, total s, and top multiplicity q."""
    t: dict[int, int] = {}
    for fs in arr.point_lines:
        t[len(fs)] = t.get(len(fs), 0) + 1
    q = max(t) if t else 0
    return MultiplicityProfile(t=dict(sorted(t.items())), s=arr.s, q=q)


def _first_bad_pair(arr: Arrangement) -> tuple[int, int] | None:
    """
    A line pair that does not share exactly one point, or None.

    Pairs are counted point by point up to the first pair met twice, and
    only then are missing pairs looked for, so one failing pair is named
    after at most C(k, 2) + s steps.
    """
    seen: set[tuple[int, int]] = set()
    for bad in chain.from_iterable(combinations(sorted(fs), 2) for fs in arr.point_lines):
        if bad in seen:
            return bad
        seen.add(bad)
    return next((pair for pair in combinations(range(arr.k), 2) if pair not in seen), None)


def validate_arrangement(arr: Arrangement) -> ValidationReport:
    """
    Check the incidence laws of a projective line arrangement.

    Performed checks (all exact integer identities, no tolerances):

    - ``pair-coverage``: every unordered pair of distinct lines shares
      exactly one point; one failing pair is named after at most
      C(k, 2) + s steps;
    - ``eq1``: sum_p C(m_p, 2) = C(k, 2);
    - ``eq2``: sum_{p on l} (m_p - 1) = k - 1 for every line l.

    Multiplicity >= 2 and agreement of ``point_lines`` with ``line_points``
    are not checked: the constructor rejects the first and derives
    ``line_points`` from ``point_lines``, so neither can fail.

    Never raises; failures come back as a structured report.
    """
    failures: list[str] = []
    checks: dict[str, bool] = {}

    bad = _first_bad_pair(arr)
    checks["pair-coverage"] = bad is None
    if bad is not None:
        a, b = bad
        shared = len(arr.line_points[a] & arr.line_points[b])
        failures.append(f"pair-coverage: lines ({a},{b}) share {shared} points, expected 1")

    lhs = sum(comb(len(fs), 2) for fs in arr.point_lines)
    rhs = comb(arr.k, 2)
    checks["eq1"] = lhs == rhs
    if lhs != rhs:
        failures.append(f"eq1: sum_p C(m_p,2) = {lhs} != C(k,2) = {rhs}")

    ok = True
    for j in range(arr.k):
        total = sum(len(arr.point_lines[p]) - 1 for p in arr.line_points[j])
        if total != arr.k - 1:
            ok = False
            failures.append(f"eq2: line {j}: sum (m_p - 1) = {total} != k - 1 = {arr.k - 1}")
    checks["eq2"] = ok

    return ValidationReport(checks=checks, failures=tuple(failures))


def modular_points(arr: Arrangement) -> frozenset[int]:
    """
    Points that share a line with every other singular point.

    Brute-force pairwise test over the point bitmasks; an arrangement whose
    modular set is nonempty is supersolvable.
    """
    out = []
    masks = arr.point_masks
    for p in range(arr.s):
        mp = masks[p]
        if all(mp & masks[q] for q in range(arr.s) if q != p):
            out.append(p)
    return frozenset(out)


def subarrangement(arr: Arrangement, lines: Iterable[int]) -> Arrangement:
    """
    The arrangement induced by a subset of lines.

    Kept lines are relabeled in increasing id order; points surviving are
    exactly those with >= 2 kept lines.  A subarrangement of a valid
    arrangement is always valid (every kept pair still meets exactly once).
    """
    lines = list(lines)
    for j in lines:  # before sorting: False would stand for line 0, and 1.0 for line 1
        if not _is_index(j, arr.k):
            raise ArrangementError(f"line id {j!r} is not an integer in 0..{arr.k - 1}")
    keep = sorted(set(lines))
    if len(keep) < 1:
        raise ArrangementError("subarrangement needs at least one line")
    relabel = {j: i for i, j in enumerate(keep)}
    pts: list[frozenset[int]] = []
    names: list[str] = []
    for pid, fs in enumerate(arr.point_lines):
        inter = fs.intersection(keep)
        if len(inter) >= 2:
            pts.append(frozenset(relabel[j] for j in inter))
            names.append(arr.point_name(pid))
    return Arrangement(
        len(keep),
        pts,
        line_names=[arr.line_name(j) for j in keep],
        point_names=names if pts else None,
        coordinates=[arr.coordinates[j] for j in keep] if arr.coordinates else None,
    )


def relabeled(arr: Arrangement, line_perm: Sequence[int], point_perm: Sequence[int]) -> Arrangement:
    """
    Apply permutations to line and point ids (new_id = perm[old_id]).

    Used by the relabeling-invariance tests; names and coordinates travel
    with their lines/points.
    """
    ids_ok = all(_is_index(j, arr.k) for j in line_perm) and all(_is_index(p, arr.s) for p in point_perm)
    if not ids_ok or sorted(line_perm) != list(range(arr.k)) or sorted(point_perm) != list(range(arr.s)):
        raise ArrangementError("relabeled: not a permutation")
    new_pts: list[frozenset[int] | None] = [None] * arr.s
    new_pnames: list[str | None] = [None] * arr.s
    for pid, fs in enumerate(arr.point_lines):
        new_pts[point_perm[pid]] = frozenset(line_perm[j] for j in fs)
        new_pnames[point_perm[pid]] = arr.point_name(pid)
    new_lnames: list[str | None] = [None] * arr.k
    new_coords = [None] * arr.k if arr.coordinates else None
    for j in range(arr.k):
        new_lnames[line_perm[j]] = arr.line_name(j)
        if new_coords is not None:
            new_coords[line_perm[j]] = arr.coordinates[j]
    return Arrangement(
        arr.k,
        new_pts,
        line_names=new_lnames,
        point_names=new_pnames,
        coordinates=new_coords,
    )


def arrangement_to_json(arr: Arrangement, indent: int | None = None) -> str:
    """Serialize to the interchange format (sorted line lists, stable order)."""
    doc: dict = {
        "k": arr.k,
        "points": [{"id": pid, "lines": sorted(fs)} for pid, fs in enumerate(arr.point_lines)],
    }
    if arr.line_names is not None:
        doc["line_names"] = list(arr.line_names)
    if arr.point_names is not None:
        doc["point_names"] = list(arr.point_names)
    if arr.coordinates is not None:
        from .projective import coordinates_to_payload  # projective imports this module

        doc["coordinates"] = coordinates_to_payload(arr.coordinates)
    return json.dumps(doc, indent=indent)


def arrangement_from_json(text: str, require_valid: bool = True) -> Arrangement:
    """
    Parse the interchange format.

    Rejects malformed documents (missing keys, duplicate or gapped point ids,
    duplicate incidences, more than :data:`MAX_LINES` lines) and, when
    ``require_valid`` holds, any structure failing
    :func:`validate_arrangement`.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict) or "k" not in doc or "points" not in doc:
        raise ArrangementError("document must be an object with 'k' and 'points'")
    k = doc["k"]
    if isinstance(k, int) and k > MAX_LINES:
        raise ArrangementError(f"line count {k} exceeds the limit of {MAX_LINES}")
    entries = doc["points"]
    if not isinstance(entries, list):
        raise ArrangementError("'points' must be a list")
    by_id: dict[int, list[int]] = {}
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry or "lines" not in entry:
            raise ArrangementError("each point needs 'id' and 'lines'")
        pid = entry["id"]
        if not isinstance(pid, int) or isinstance(pid, bool) or not isinstance(entry["lines"], list):
            raise ArrangementError(f"point {pid!r}: needs an integer 'id' and a list 'lines'")
        if pid in by_id:
            raise ArrangementError(f"duplicate point id {pid}")
        by_id[pid] = entry["lines"]
    if by_id.keys() != set(range(len(entries))):
        raise ArrangementError("point ids must be exactly 0..s-1")
    for key in ("line_names", "point_names"):
        if not isinstance(doc.get(key, []), list):
            raise ArrangementError(f"'{key}' must be a list")
    coordinates = None
    if "coordinates" in doc:
        from .projective import _check_realised, coordinates_from_payload

        coordinates = coordinates_from_payload(doc["coordinates"], k)
    arr = Arrangement(
        k,
        [by_id[i] for i in range(len(entries))],
        line_names=doc.get("line_names"),
        point_names=doc.get("point_names"),
        coordinates=coordinates,
    )
    if require_valid:
        report = validate_arrangement(arr)
        if not report.passed:
            raise ArrangementError("invalid arrangement: " + "; ".join(report.failures[:5]))
        if coordinates is not None:
            _check_realised(arr)
    return arr

