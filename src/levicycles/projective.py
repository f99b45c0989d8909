"""Exact projective points and lines over Q or a cyclotomic field.

Points and lines live in P^2 with homogeneous coordinates drawn from one
field per object (all-rational or all one conductor); the canonical
representative scales the first nonzero coordinate to 1, which turns
projective equality into plain tuple comparison.
"""

from __future__ import annotations

from fractions import Fraction
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
# so every such value fits in MAX_SCALAR_CHARS.  The costliest document
# within these bounds, 256 lines whose entries have thirty 13-digit
# numerators over one 13-digit denominator at conductor 31, loads in about
# 1.1 s (2-core x86-64 VM, Python 3.11); one row takes about 4 ms.
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


def arrangement_from_lines(lines: Sequence[ProjLine]) -> Arrangement:
    """
    The incidence structure of a list of pairwise distinct lines.

    All C(k,2) pairwise meets are computed exactly and clustered by canonical
    coordinates; each cluster becomes one singular point whose line set is
    everything passing through it.  Points are ordered by their sorted line-id
    signature, which is deterministic and independent of the field.  The
    produced arrangement carries the input lines as coordinate metadata.
    """
    lines = list(lines)
    if len(lines) < 2:
        raise GeometryError("need at least two lines")
    through: dict[ProjPoint, set[int]] = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            try:
                p = meet(lines[i], lines[j])
            except IdenticalLines:
                raise DuplicateLine(f"lines {i} and {j} coincide") from None
            through.setdefault(p, set()).add(i)
            through[p].add(j)
    ordered = sorted(through.items(), key=lambda item: sorted(item[1]))
    return Arrangement(len(lines), [m for _, m in ordered], coordinates=lines)


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
    out = []
    for j, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 3 or not all(isinstance(t, str) for t in row):
            raise ArrangementError(f"coordinate row {j}: need a list of 3 scalar strings")
        if conductor is not None and any(len(text) > MAX_SCALAR_CHARS for text in row):
            raise ArrangementError(f"coordinate row {j}: a scalar is longer than {MAX_SCALAR_CHARS} characters")
        try:
            scalars = tuple(parse_scalar(text, conductor) for text in row)
            if conductor is not None and max(map(_height, scalars)) >= 10**MAX_COEFFICIENT_DIGITS:
                raise ValueError(_TOO_HIGH)
            out.append(ProjLine(scalars))
        except (ValueError, ZeroDivisionError) as exc:  # GeometryError is a ValueError
            raise ArrangementError(f"coordinate row {j}: {exc}") from None
    return out
