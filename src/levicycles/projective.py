"""Exact projective points and lines over Q or a cyclotomic field.

Points and lines live in P^2 with homogeneous coordinates drawn from one
field per object (all-rational or all one conductor); the canonical
representative scales the first nonzero coordinate to 1, which turns
projective equality into plain tuple comparison.

:func:`arrangement_from_lines` finds the singular points of a line list
without normalising each meet, which costs a field inverse.  It clusters
the C(k, 2) meets by their images in F_p under the standard reduction
Z[e] -> F_p, e -> w, for a prime p = 1 (mod n) and a primitive n-th root
of unity w mod p (H. Cohen, *A Course in Computational Algebraic Number
Theory*, GTM 138, Springer 1993).  Equal points stay equal mod p, so a
cluster can only merge points; each cluster of three or more lines is
confirmed exactly, one cross product and one dot product per further
line.  Whenever the images cannot decide, the exact path computes and
normalises every meet, so the answer never depends on p.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .arrangement import Arrangement, ArrangementError
from .exact_field import ConductorMismatch, CycloNumber, format_scalar, parse_scalar

__all__ = [
    "GeometryError",
    "IdenticalLines",
    "IdenticalPoints",
    "DuplicateLine",
    "ProjPoint",
    "ProjLine",
    "meet",
    "line_through",
    "incident",
    "arrangement_from_lines",
    "coordinates_to_payload",
    "coordinates_from_payload",
    "MAX_CONDUCTOR",
    "MAX_COEFFICIENT_DIGITS",
    "MAX_SCALAR_CHARS",
]

# Largest conductor coordinates_from_payload accepts.  Phi_n costs time and
# memory superlinear in n, and every field operation grows with deg Phi_n.
MAX_CONDUCTOR = 32

# Bounds on a cyclotomic coordinate scalar in a document; rational scalars
# are one term and cost nothing to invert.  A line's canonical form inverts
# its lead entry, and the inverse of a over Q(e) has about phi(n) times the
# digits of a written as integers over their least common denominator.
# MAX_COEFFICIENT_DIGITS bounds those integers, which drive that cost, and
# MAX_SCALAR_CHARS bounds the parse, which could otherwise sum any number
# of terms.  The written form of any value within MAX_COEFFICIENT_DIGITS has
# at most phi(n) <= 30 terms such as "-a/b*e^29" of at most 33 characters,
# so every such value fits in MAX_SCALAR_CHARS.  The costliest documents
# within these bounds, 256 lines whose entries have thirty 13-digit
# numerators over one 13-digit denominator at conductor 31, are answered in
# about 1.1 s (2-core x86-64 VM, Python 3.11), whether the rows realise the
# listed points or not; one row takes about 4 ms to read, and the check
# that the rows meet in the listed points, run on the rows as written, adds
# about 0.1 s to a 255-fold point.
MAX_COEFFICIENT_DIGITS = 13
MAX_SCALAR_CHARS = 1024


class GeometryError(ValueError):
    pass


class IdenticalLines(GeometryError):
    pass


class IdenticalPoints(GeometryError):
    pass


class DuplicateLine(GeometryError):
    pass


def _normalize_triple(coords) -> tuple:
    """Validate a homogeneous triple (uniform field) and canonicalize it."""
    if len(coords) != 3:
        raise GeometryError(f"need 3 homogeneous coordinates, got {len(coords)}")
    conductor = None
    for c in coords:
        if isinstance(c, CycloNumber):
            if conductor is None:
                conductor = c.n
            elif c.n != conductor:
                raise ConductorMismatch(f"mixed conductors {conductor} and {c.n}")
        elif not isinstance(c, (int, Fraction)):
            raise GeometryError(f"unsupported coordinate type {type(c).__name__}")
    if conductor is None:
        vals = [Fraction(c) for c in coords]
    else:
        vals = [c if isinstance(c, CycloNumber) else CycloNumber.from_rational(conductor, c) for c in coords]
    lead = next((v for v in vals if v), None)
    if lead is None:
        raise GeometryError("all three homogeneous coordinates are zero")
    inv = 1 / lead if conductor is None else lead.inverse()
    return tuple(v * inv for v in vals)


class _Homogeneous:
    __slots__ = ("coords",)

    def __init__(self, coords) -> None:
        object.__setattr__(self, "coords", _normalize_triple(tuple(coords)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__.
        return type(self), (self.coords,)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coords))

    def __repr__(self) -> str:
        inner = ", ".join(format_scalar(c) for c in self.coords)
        return f"{type(self).__name__}(({inner}))"


class ProjPoint(_Homogeneous):
    """Point of P^2 in canonical form (first nonzero coordinate = 1)."""


class ProjLine(_Homogeneous):
    """Line of P^2 via its coefficient triple, same canonical form."""


def _cross(u, v) -> tuple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def meet(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    """The unique common point of two distinct lines (coordinate cross product)."""
    raw = _cross(l1.coords, l2.coords)
    if not any(raw):
        raise IdenticalLines(f"{l1!r} and {l2!r} are the same projective line")
    return ProjPoint(raw)


def line_through(p1: ProjPoint, p2: ProjPoint) -> ProjLine:
    """The unique line through two distinct points (dual cross product)."""
    raw = _cross(p1.coords, p2.coords)
    if not any(raw):
        raise IdenticalPoints(f"{p1!r} and {p2!r} are the same projective point")
    return ProjLine(raw)


def incident(p: ProjPoint, l: ProjLine) -> bool:
    """Exact incidence test: a*x + b*y + c*z = 0."""
    total = p.coords[0] * l.coords[0] + p.coords[1] * l.coords[1] + p.coords[2] * l.coords[2]
    return not total


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin: these bases decide every m < 3.4 * 10^14."""
    bases = (2, 3, 5, 7, 11, 13, 17)
    if m < 2 or m in bases:
        return m in bases
    if any(m % b == 0 for b in bases):
        return False
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _field_map(n: int) -> tuple[int, int]:
    """
    A prime p > 2^30 with p = 1 (mod n), and a primitive n-th root of unity
    w mod p, so that e -> w is a ring map from Z[e] onto F_p.

    p is the first such prime above a random start in [2^30, 2^31), drawn
    once per conductor and process.  Only the time to an answer depends on
    p, never the answer; a fixed p would let a document list two lines
    that are distinct but proportional mod p and so force every meet onto
    the exact path, which costs about a second per meet of dense lines at
    conductor 31.
    """
    start = 2**30 + int.from_bytes(os.urandom(4), "big") % 2**30
    p = (start // n + 1) * n + 1
    while not _is_prime(p):
        p += n
    factors = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
    g = 2
    while True:
        w = pow(g, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in factors):
            return p, w
        g += 1


def _residue(c, p: int, w: int) -> int | None:
    """The image of a scalar in F_p under e -> w, or None when p divides its denominator."""
    if isinstance(c, CycloNumber):
        value, den = 0, c._den
        for a in reversed(c._num):
            value = (value * w + a) % p
    else:
        value, den = c.numerator, c.denominator
    if den % p == 0:
        return None
    return value * pow(den, -1, p) % p


def _exact_points(lines: Sequence[ProjLine]) -> list[set[int]]:
    """The line set of every meet, from all C(k, 2) meets computed exactly."""
    through: dict[ProjPoint, set[int]] = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            try:
                p = meet(lines[i], lines[j])
            except IdenticalLines:
                raise DuplicateLine(f"lines {i} and {j} coincide") from None
            through.setdefault(p, set()).add(i)
            through[p].add(j)
    return list(through.values())


def _points_mod_p(lines: Sequence[ProjLine], rows: Sequence[tuple]) -> list[set[int]] | None:
    """
    The line set of every meet, from the meets' images in F_p, each cluster
    of three or more lines confirmed exactly; None when that fails.

    ``rows`` holds one coordinate triple per line, any multiple of it:
    small written rows keep the exact confirmation cheap.
    """
    conductors = {c.n for row in rows for c in row if isinstance(c, CycloNumber)}
    if len(conductors) > 1:
        return None
    p, w = _field_map(conductors.pop() if conductors else 1)
    images = []
    for row in rows:
        image = [_residue(c, p, w) for c in row]
        if None in image:
            return None
        images.append(image)
    through: dict[tuple[int, int, int], set[int]] = {}
    for i, (a0, a1, a2) in enumerate(images):
        for j in range(i + 1, len(images)):
            b0, b1, b2 = images[j]
            x, y, z = (a1 * b2 - a2 * b1) % p, (a2 * b0 - a0 * b2) % p, (a0 * b1 - a1 * b0) % p
            if x:
                inv = pow(x, -1, p)
                key = (1, y * inv % p, z * inv % p)
            elif y:
                key = (0, 1, z * pow(y, -1, p) % p)
            elif z:
                key = (0, 0, 1)
            elif lines[i] == lines[j]:  # the first equal pair, as the exact path finds it
                raise DuplicateLine(f"lines {i} and {j} coincide")
            else:  # distinct lines, proportional mod p
                return None
            found = through.get(key)
            if found is None:
                through[key] = {i, j}
            else:
                found.add(i)
                found.add(j)
    # Equal exact meets have equal images, so a cluster is a union of exact
    # points; it is one point exactly when its lines are concurrent.
    for found in through.values():
        if len(found) > 2:
            a, b, *rest = sorted(found)
            x, y, z = _cross(rows[a], rows[b])
            for j in rest:
                u, v, t = rows[j]
                if x * u + y * v + z * t:
                    return None
    return list(through.values())


def _realised_points(lines: Sequence[ProjLine], rows: Sequence[tuple]) -> list[set[int]]:
    """The line set of every meet of ``lines``, whose coordinates are ``rows`` up to scaling."""
    points = _points_mod_p(lines, rows)
    return _exact_points(lines) if points is None else points


def arrangement_from_lines(lines: Sequence[ProjLine]) -> Arrangement:
    """
    The incidence structure of a list of pairwise distinct lines.

    Every singular point is the set of lines through one of the C(k, 2)
    pairwise meets.  The meets are clustered by their normalised images in
    F_p under the ring map e -> w, for a prime p = 1 (mod n) and a
    primitive n-th root of unity w mod p (n the lines' conductor, 1 over
    Q).  Equal exact meets have equal images, so a cluster can merge points
    but never split one: a two-line cluster is one point, and a larger one
    is one point exactly when one exact cross product of two of its lines
    is orthogonal to each further line.  When a denominator is a multiple
    of p, the lines mix conductors, two distinct lines are proportional mod
    p or a cluster is not concurrent, every meet is computed exactly and
    normalised instead; that path raises ConductorMismatch for mixed
    conductors.  Equal lines raise DuplicateLine.  Points are ordered by
    their sorted line-id signature, which is deterministic and independent
    of the field.  The produced arrangement carries the input lines as
    coordinate metadata.
    """
    lines = list(lines)
    if len(lines) < 2:
        raise GeometryError("need at least two lines")
    points = _realised_points(lines, [line.coords for line in lines])
    return Arrangement(len(lines), sorted(points, key=sorted), coordinates=lines)


# ---------------------------------------------------------------------------
# JSON payload for coordinate metadata: field descriptor plus one coefficient
# triple of exact strings per line.


def _height(scalar) -> int:
    """The height of a scalar read back as a CycloNumber."""
    if isinstance(scalar, CycloNumber):
        return scalar.height
    return max(abs(scalar.numerator), scalar.denominator)


_TOO_HIGH = f"a scalar has an integer of more than {MAX_COEFFICIENT_DIGITS} digits over its least common denominator"


def coordinates_to_payload(lines) -> dict:
    """
    The JSON payload of coordinate lines, which
    :func:`coordinates_from_payload` reads back.

    One field descriptor covers every row, so rational rows may join
    cyclotomic ones of one conductor.  Raises ArrangementError for a row
    over another conductor, which would read back as another line, and for
    a line with a scalar that :func:`coordinates_from_payload` would
    refuse, so nothing is written that cannot be read as it was.
    """
    conductor = next((c.n for line in lines for c in line.coords if isinstance(c, CycloNumber)), None)
    rows = []
    for j, line in enumerate(lines):
        n = line.coords[0].n if isinstance(line.coords[0], CycloNumber) else conductor  # one field per line
        if n != conductor:
            raise ArrangementError(f"coordinate row {j}: conductor {n}, but an earlier row has conductor {conductor}")
        if conductor is not None and max(map(_height, line.coords)) >= 10**MAX_COEFFICIENT_DIGITS:
            raise ArrangementError(f"coordinate row {j}: {_TOO_HIGH}")
        try:
            rows.append([format_scalar(c) for c in line.coords])
        except ValueError as exc:  # a rational past Python's int-to-string digit limit
            raise ArrangementError(f"coordinate row {j}: {exc}") from None
    return {
        "field": {"type": "rational"} if conductor is None else {"type": "cyclotomic", "conductor": conductor},
        "lines": rows,
    }


def coordinates_from_payload(payload, k: int):
    """The lines of a coordinate payload, as :func:`coordinates_to_payload` writes it."""
    return _read_payload(payload, k)[0]


def _read_payload(payload, k: int) -> tuple[list[ProjLine], list[tuple]]:
    """The lines of a coordinate payload and the scalar rows as written."""
    if not isinstance(payload, dict) or "field" not in payload or "lines" not in payload:
        raise ArrangementError("coordinate payload needs 'field' and 'lines'")
    field = payload["field"]
    if not isinstance(field, dict):
        raise ArrangementError(f"coordinate field must be an object, got {field!r}")
    conductor = None
    if field.get("type") == "cyclotomic":
        conductor = field.get("conductor")
        if not isinstance(conductor, int) or isinstance(conductor, bool) or not 1 <= conductor <= MAX_CONDUCTOR:
            raise ArrangementError(f"conductor must be an integer in 1..{MAX_CONDUCTOR}, got {conductor!r}")
    elif field.get("type") != "rational":
        raise ArrangementError(f"unknown coordinate field {field!r}")
    rows = payload["lines"]
    if not isinstance(rows, list):
        raise ArrangementError("coordinate 'lines' must be a list")
    if len(rows) != k:
        raise ArrangementError(f"coordinate payload has {len(rows)} lines, arrangement has {k}")
    lines, written = [], []
    for j, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 3 or not all(isinstance(t, str) for t in row):
            raise ArrangementError(f"coordinate row {j}: need a list of 3 scalar strings")
        if conductor is not None and any(len(text) > MAX_SCALAR_CHARS for text in row):
            raise ArrangementError(f"coordinate row {j}: a scalar is longer than {MAX_SCALAR_CHARS} characters")
        try:
            scalars = tuple(parse_scalar(text, conductor) for text in row)
            if conductor is not None and max(map(_height, scalars)) >= 10**MAX_COEFFICIENT_DIGITS:
                raise ValueError(_TOO_HIGH)
            lines.append(ProjLine(scalars))
        except (ValueError, ZeroDivisionError) as exc:  # GeometryError is a ValueError
            raise ArrangementError(f"coordinate row {j}: {exc}") from None
        written.append(scalars)
    return lines, written
