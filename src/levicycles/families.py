"""Builders for the named arrangement families.

Every family is produced from a closed-form combinatorial incidence rule, so
builders are exact, deterministic, and fast; coordinate-based construction
(see :func:`levicycles.projective.arrangement_from_lines` and the
``*_coordinate_lines`` helpers below) is a cross-check path, not the source
of truth.

Line and point orderings are fixed and documented per family so that cycle
witnesses mentioning ids stay reproducible across runs and versions.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .arrangement import Arrangement, ArrangementError, _is_index
from .exact_field import CycloNumber
from .projective import ProjLine

__all__ = [
    "BadParam",
    "ExponentOutOfRange",
    "DuplicateExponent",
    "near_pencil",
    "two_modular",
    "generic",
    "ceva",
    "hesse",
    "nine_three",
    "ten_line",
    "mu4",
    "supersolvable_mu3",
    "a_w_k",
    "FAMILIES",
    "build_family",
    "ceva_coordinate_lines",
    "mu4_coordinate_lines",
    "nine_three_coordinate_lines",
    "supersolvable_mu3_coordinate_lines",
    "a_w_k_coordinate_lines",
]


class BadParam(ArrangementError):
    """Family parameter outside its documented range."""


class ExponentOutOfRange(BadParam):
    pass


class DuplicateExponent(BadParam):
    pass


def _arrangement(k: int, points: Mapping[str, Iterable[int]],
                 line_names: Sequence[str] | None = None, base: int = 0) -> Arrangement:
    """
    The arrangement whose points, in table order, are the entries of the
    name -> lines table ``points``.  ``base`` is the number of the first line
    in the table (1 for the published 1-based tables); lines default to
    L1..Lk.
    """
    return Arrangement(
        k,
        [{j - base for j in lines} for lines in points.values()],
        line_names=[f"L{j + 1}" for j in range(k)] if line_names is None else line_names,
        point_names=list(points),
    )


def near_pencil(k: int) -> Arrangement:
    """
    k lines, the first k-1 concurrent.

    Lines 0..k-2 share the (k-1)-fold point (id 0); line k-1 crosses each of
    them in a double point (ids 1..k-1, in line order).  Profile: t_2 = k-1,
    t_{k-1} = 1 (for k = 3 the two counts merge into t_2 = 3).
    """
    if not isinstance(k, int) or k < 3:
        raise BadParam(f"near_pencil needs k >= 3, got {k!r}")
    points: dict[str, Iterable[int]] = {"C": range(k - 1)}
    points.update({f"L{k}^L{i + 1}": (i, k - 1) for i in range(k - 1)})
    return _arrangement(k, points)


def two_modular(a: int, b: int) -> Arrangement:
    """
    Two pencils joined by a shared line: k = a + b - 1.

    Line 0 is shared; lines 1..a-1 pass through the a-fold point P1 (id 0)
    and lines a..a+b-2 through the b-fold point P2 (id 1); every cross pair
    A_i, B_j meets in its own double point (row-major in (i, j), ids from 2).
    Both P1 and P2 are modular.  Profile: t_2 = (a-1)(b-1) plus P1/P2 when
    a or b equals 2 (e.g. a=2, b=3 has t_2 = 3, t_3 = 1).
    """
    if not (isinstance(a, int) and isinstance(b, int) and 2 <= a < b):
        raise BadParam(f"two_modular needs 2 <= a < b, got a={a!r}, b={b!r}")
    k = a + b - 1
    points: dict[str, Iterable[int]] = {"P1": range(a), "P2": [0, *range(a, k)]}
    points.update({f"A{i}B{j - a + 1}": (i, j) for i in range(1, a) for j in range(a, k)})
    line_names = ["L0"] + [f"A{i}" for i in range(1, a)] + [f"B{j}" for j in range(1, b)]
    return _arrangement(k, points, line_names)


def generic(k: int) -> Arrangement:
    """k lines in general position: C(k,2) double points, ids in (i,j) lex order."""
    if not isinstance(k, int) or k < 2:
        raise BadParam(f"generic needs k >= 2, got {k!r}")
    return _arrangement(k, {f"p{i}-{j}": (i, j) for i, j in combinations(range(k), 2)})


def _ceva_triples(n: int, xy: int, xz: int, yz: dict[int, int]) -> dict[str, Iterable[int]]:
    """
    The Ceva triple points T(i, j) = {XY_{(i-j) mod n}, XZ_i, YZ_j}, i outer.

    XY_i and XZ_i are lines xy + i and xz + i; yz maps each exponent j, in
    order, to the id of its YZ line.
    """
    return {f"T({i},{j})": (xy + (i - j) % n, xz + i, yz_line)
            for i in range(n) for j, yz_line in yz.items()}


def ceva(n: int) -> Arrangement:
    """
    The 3n lines of (x^n - y^n)(y^n - z^n)(x^n - z^n).

    Line ids: XY_i = i, YZ_i = n + i, XZ_i = 2n + i (i in Z_n).  The triple
    T(i, j) = {XY_{(i-j) mod n}, YZ_j, XZ_i} has point id i*n + j; the three
    n-fold coordinate vertices follow: Nxy = n^2 (all XY lines), Nyz, Nxz.
    Profile: t_3 = n^2, t_n = 3.  For n = 3 the two counts merge (t_3 = 12),
    which is flagged with a warning.
    """
    if not isinstance(n, int) or n < 3:
        raise BadParam(f"ceva needs n >= 3, got {n!r}")
    if n == 3:
        warnings.warn("ceva(3): the n-fold vertices are themselves triple points (t_3 = 12)")
    points = _ceva_triples(n, 0, 2 * n, {j: n + j for j in range(n)})
    points.update(Nxy=range(n), Nyz=range(n, 2 * n), Nxz=range(2 * n, 3 * n))
    return _arrangement(3 * n, points, [f"{p}{i}" for p in ("XY", "YZ", "XZ") for i in range(n)])


# The Hesse arrangement: 12 lines, nine 4-fold points, twelve doubles.  The
# 4-fold incidences and the four "no shared quadruple point" line groups
# below are the standard published table (1-based line numbers).
_HESSE_QUADRUPLES = [
    (1, 4, 7, 10),
    (1, 5, 9, 12),
    (1, 6, 8, 11),
    (2, 4, 11, 12),
    (2, 5, 7, 8),
    (2, 6, 9, 10),
    (3, 4, 8, 9),
    (3, 5, 10, 11),
    (3, 6, 7, 12),
]
_HESSE_DOUBLE_GROUPS = [(1, 2, 3), (4, 5, 6), (7, 9, 11), (8, 10, 12)]


def hesse() -> Arrangement:
    """
    The 12-line Hesse arrangement: t_2 = 12, t_4 = 9, s = 21.

    Point ids: the nine 4-fold points p1..p9 first (ids 0..8), then the 12
    doubles in group order (1,2),(1,3),(2,3),(4,5),...,(10,12) (ids 9..20).
    Every line carries exactly three 4-fold points and two doubles.
    """
    points = {f"p{i + 1}": quad for i, quad in enumerate(_HESSE_QUADRUPLES)}
    for group in _HESSE_DOUBLE_GROUPS:
        points.update({f"p{a}{b}": (a, b) for a, b in combinations(group, 2)})
    return _arrangement(12, points, base=1)


# The (9_3) configuration whose nine double points form a 6-cycle and a
# disjoint triangle (the C6 + C3 type; the other two (9_3) types have a single
# 9-cycle, or three triangles for Pappus).  Nine lines, nine triple points (the
# configuration table), nine doubles.  1-based line numbers.
# nine_three_coordinate_lines() realizes it over Q.
_NINE_THREE_TRIPLES = [
    (1, 2, 3),
    (1, 4, 5),
    (1, 6, 7),
    (2, 4, 6),
    (2, 5, 8),
    (3, 4, 9),
    (3, 7, 8),
    (5, 7, 9),
    (6, 8, 9),
]
_NINE_THREE_DOUBLES = [
    (1, 8),
    (1, 9),
    (2, 7),
    (2, 9),
    (3, 5),
    (3, 6),
    (4, 7),
    (4, 8),
    (5, 6),
]


def nine_three() -> Arrangement:
    """
    The (9_3) configuration of type C6 + C3, completed with its nine doubles.

    Of the three (9_3) types this is the one whose double points, read as
    edges between lines, form a 6-cycle (L1 L8 L4 L7 L2 L9) and a disjoint
    triangle (L3 L5 L6).  Point ids follow the table: triples e1..e9 are ids
    0..8, doubles e10..e18 are ids 9..17.  Profile: t_2 = 9, t_3 = 9, s = 18.
    """
    table = _NINE_THREE_TRIPLES + _NINE_THREE_DOUBLES
    return _arrangement(9, {f"e{i + 1}": pt for i, pt in enumerate(table)}, base=1)


# The cyclic (9_3) configuration, whose nine double points form a single
# 9-cycle (L1 L4 L9 L3 L6 L2 L5 L8 L7); the base of ten_line.  1-based.
_CYCLIC_NINE_THREE_TRIPLES = [
    (1, 2, 3),
    (1, 5, 9),
    (1, 6, 8),
    (2, 4, 7),
    (2, 8, 9),
    (3, 4, 8),
    (3, 5, 7),
    (4, 5, 6),
    (6, 7, 9),
]
_TEN_LINE_TRIPLES = _CYCLIC_NINE_THREE_TRIPLES + [(2, 5, 10), (3, 6, 10), (4, 9, 10)]
_TEN_LINE_DOUBLES = [
    (1, 4),
    (1, 7),
    (1, 10),
    (2, 6),
    (3, 9),
    (5, 8),
    (7, 8),
    (7, 10),
    (8, 10),
]


def ten_line() -> Arrangement:
    """
    The cyclic (9_3) configuration extended by a tenth line.

    The base is the (9_3) type whose nine doubles form a 9-cycle, not the
    C6 + C3 type of :func:`nine_three`.  L10 picks up three of its doubles,
    turning them into the triples e10 = {2,5,10}, e11 = {3,6,10},
    e12 = {4,9,10}.  Point ids: triples e1..e12 (ids 0..11), doubles e13..e21
    (ids 12..20).  Profile: t_2 = 9, t_3 = 12, s = 21.  PAPER.md does not
    settle whether this is the ten-line arrangement of the source.
    """
    table = _TEN_LINE_TRIPLES + _TEN_LINE_DOUBLES
    return _arrangement(10, {f"e{i + 1}": pt for i, pt in enumerate(table)}, base=1)


def mu4() -> Arrangement:
    """
    The six lines x, y, z, x-y, x-z, y-z: t_2 = 3, t_3 = 4, s = 7.

    Line ids: Lx=0, Ly=1, Lz=2, Lxy=3, Lxz=4, Lyz=5.  Points: the four
    triples (0,0,1), (0,1,0), (1,0,0), (1,1,1) (ids 0..3) then the doubles
    (0,1,1), (1,0,1), (1,1,0) (ids 4..6).  Every point of multiplicity 3 is
    modular, giving the smallest 4-homogeneous supersolvable example.
    """
    points = {
        "P001": (0, 1, 3),  # on x, y, x-y
        "P010": (0, 2, 4),  # on x, z, x-z
        "P100": (1, 2, 5),  # on y, z, y-z
        "P111": (3, 4, 5),  # on x-y, x-z, y-z
        "P011": (0, 5),  # on x, y-z
        "P101": (1, 4),  # on y, x-z
        "P110": (2, 3),  # on z, x-y
    }
    return _arrangement(6, points, ["Lx", "Ly", "Lz", "Lxy", "Lxz", "Lyz"])


def supersolvable_mu3(m: int) -> Arrangement:
    """
    The 3(m-1) lines of xyz(x^n - y^n)(x^n - z^n)(y^n - z^n), n = m - 2.

    Line ids extend :func:`ceva`: XY_i = i, YZ_i = n+i, XZ_i = 2n+i, then
    Lx = 3n, Ly = 3n+1, Lz = 3n+2.  The ceva triples T(i,j) keep their ids
    (i*n + j); the coordinate vertices become the three modular m-fold
    points Mz = (0,0,1) (id n^2), Mx = (1,0,0) (id n^2+1), My = (0,1,0)
    (id n^2+2); then the 3n doubles Lz^XY_i, Lx^YZ_i, Ly^XZ_i (ids from
    n^2+3 in that order).  Profile: t_2 = 3(m-2), t_3 = (m-2)^2, t_m = 3.
    """
    if not isinstance(m, int) or m < 4:
        raise BadParam(f"supersolvable_mu3 needs m >= 4, got {m!r}")
    n = m - 2
    lx, ly, lz = 3 * n, 3 * n + 1, 3 * n + 2
    points = _ceva_triples(n, 0, 2 * n, {j: n + j for j in range(n)})
    points["Mz"] = [*range(n), lx, ly]
    points["Mx"] = [*range(n, 2 * n), ly, lz]
    points["My"] = [*range(2 * n, 3 * n), lx, lz]
    points.update({f"Lz^XY{i}": (i, lz) for i in range(n)})
    points.update({f"Lx^YZ{i}": (n + i, lx) for i in range(n)})
    points.update({f"Ly^XZ{i}": (2 * n + i, ly) for i in range(n)})
    line_names = [f"{p}{i}" for p in ("XY", "YZ", "XZ") for i in range(n)] + ["Lx", "Ly", "Lz"]
    return _arrangement(3 * n + 3, points, line_names)


def _a_w_k_exponents(m: int, k: int, chosen: Sequence[int] | None) -> list[int]:
    """Check the a_w_k parameters; return the chosen exponents in increasing order."""
    if not isinstance(m, int) or m < 5:
        raise BadParam(f"a_w_k needs m >= 5, got {m!r}")
    if not _is_index(k, m - 2):
        raise BadParam(f"a_w_k needs 0 <= k <= m-3 = {m - 3}, got k={k!r}")
    try:
        chosen = list(range(1, k + 1)) if chosen is None else list(chosen)
    except TypeError:
        raise BadParam(f"a_w_k needs a sequence of exponents, got chosen={chosen!r}")
    if len(chosen) != k:
        raise BadParam(f"need exactly {k} exponents, got {len(chosen)}")
    # Every exponent is a plain int before the duplicate check hashes them.
    for e in chosen:
        if not _is_index(e, m - 2):
            raise ExponentOutOfRange(f"exponent {e!r} outside 0..{m - 3}")
    if len(set(chosen)) != len(chosen):
        raise DuplicateExponent(f"duplicate exponents in {chosen}")
    return sorted(chosen)


def a_w_k(m: int, k: int, chosen: Sequence[int] | None = None) -> Arrangement:
    """
    The supersolvable family xyz(x^n - y^n)(x^n - z^n) * prod(y - e^{i_j} z),
    n = m - 2, with k chosen exponents i_1 < ... < i_k.

    Line ids: Lx=0, Ly=1, Lz=2, XY_i = 3+i, XZ_i = 3+n+i (i in Z_n), then
    the k YZ lines in increasing exponent order.  Points, in id order:

    - P001 = (0,0,1) on all XY lines plus Lx, Ly  (multiplicity m, modular)
    - P010 = (0,1,0) on all XZ lines plus Lx, Lz  (multiplicity m, modular)
    - P100 = (1,0,0) on all YZ lines plus Ly, Lz  (multiplicity 2 + k)
    - triples T(i,j) = {XY_{(i-j) mod n}, XZ_i, YZ_j} for j in chosen
      (i outer, j inner ascending)
    - doubles D(i,j) = XY_{(i-j) mod n} ^ XZ_i for j not in chosen
    - doubles Lz^XY_i, Ly^XZ_i (i in Z_n), Lx^YZ_j (j in chosen)

    Defaults: chosen = {1, ..., k}.
    """
    chosen = _a_w_k_exponents(m, k, chosen)
    n = m - 2
    xy, xz = 3, 3 + n
    yz = {e: 3 + 2 * n + idx for idx, e in enumerate(chosen)}
    points: dict[str, Iterable[int]] = {
        "P001": [0, 1, *range(xy, xy + n)],
        "P010": [0, 2, *range(xz, xz + n)],
        "P100": [1, 2, *yz.values()],
    }
    points.update(_ceva_triples(n, xy, xz, yz))
    points.update({f"D({i},{j})": (xy + (i - j) % n, xz + i)
                   for i in range(n) for j in range(n) if j not in yz})
    points.update({f"Lz^XY{i}": (2, xy + i) for i in range(n)})
    points.update({f"Ly^XZ{i}": (1, xz + i) for i in range(n)})
    points.update({f"Lx^YZ{j}": (0, yz[j]) for j in chosen})
    line_names = ["Lx", "Ly", "Lz"] + [f"{p}{i}" for p in ("XY", "XZ") for i in range(n)]
    line_names += [f"YZ{j}" for j in chosen]
    return _arrangement(3 + 2 * n + k, points, line_names)


# Registry used by the CLI: family name -> (callable, parameter names).
FAMILIES = {
    "near_pencil": (near_pencil, ("k",)),
    "two_modular": (two_modular, ("a", "b")),
    "generic": (generic, ("k",)),
    "ceva": (ceva, ("n",)),
    "hesse": (hesse, ()),
    "nine_three": (nine_three, ()),
    "ten_line": (ten_line, ()),
    "mu4": (mu4, ()),
    "supersolvable_mu3": (supersolvable_mu3, ("m",)),
    "a_w_k": (a_w_k, ("m", "k", "chosen")),
}


def build_family(name: str, **params) -> Arrangement:
    """Build a family by name; unknown names or parameters raise BadParam."""
    if name not in FAMILIES:
        raise BadParam(f"unknown family {name!r}; known: {', '.join(sorted(FAMILIES))}")
    fn, wanted = FAMILIES[name]
    args = {}
    for key, value in params.items():
        if value is None:
            continue
        if key not in wanted:
            raise BadParam(f"family {name!r} does not take parameter {key!r}")
        args[key] = value
    missing = [w for w in wanted if w not in args and w != "chosen"]
    if missing:
        raise BadParam(f"family {name!r} needs parameters: {', '.join(missing)}")
    return fn(**args)


# ---------------------------------------------------------------------------
# Coordinate realizations (cross-check path; exact fields only)


_AXES = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def _rows(rows, n: int | None = None) -> list[ProjLine]:
    """One line per integer coefficient row, over Q, or over Q(e), e^n = 1, when n is given."""
    scalar = Fraction if n is None else (lambda c: CycloNumber.from_rational(n, c))
    return [ProjLine(tuple(map(scalar, row))) for row in rows]


def _pencil(n: int, a: int, b: int, exponents: Iterable[int]) -> list[ProjLine]:
    """The lines x_a - e^j x_b over Q(e), e^n = 1, for j in exponents (x_0, x_1, x_2 = x, y, z)."""
    zero, one = CycloNumber.zero(n), CycloNumber.one(n)
    lines = []
    for j in exponents:
        coords = [zero] * 3
        coords[a], coords[b] = one, -CycloNumber.root(n, j)
        lines.append(ProjLine(tuple(coords)))
    return lines


def ceva_coordinate_lines(n: int):
    """
    The 3n lines of (x^n-y^n)(y^n-z^n)(x^n-z^n) over Q(e), e^n = 1, in
    builder order.  n = 2 is accepted here (conductor 2 means e = -1) since
    the larger coordinate families reuse these pencils.
    """
    if not isinstance(n, int) or n < 2:
        raise BadParam(f"coordinate pencils need n >= 2, got {n!r}")
    return _pencil(n, 0, 1, range(n)) + _pencil(n, 1, 2, range(n)) + _pencil(n, 0, 2, range(n))


def mu4_coordinate_lines():
    """x, y, z, x-y, x-z, y-z over Q, in builder order."""
    return _rows(_AXES + [(1, -1, 0), (1, 0, -1), (0, 1, -1)])


def nine_three_coordinate_lines():
    """
    x, y, x-y, z, 3x+z, y+z, x+y+z, 3x-y+z, 3x-3y-z over Q, in builder order.
    """
    rows = [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1), (3, 0, 1),
            (0, 1, 1), (1, 1, 1), (3, -1, 1), (3, -3, -1)]
    return _rows(rows)


def supersolvable_mu3_coordinate_lines(m: int):
    """The ceva(m-2) lines followed by x, y, z over Q(e), in builder order."""
    if not isinstance(m, int) or m < 4:
        raise BadParam(f"supersolvable_mu3 needs m >= 4, got {m!r}")
    n = m - 2
    return ceva_coordinate_lines(n) + _rows(_AXES, n)


def a_w_k_coordinate_lines(m: int, k: int, chosen: Sequence[int] | None = None):
    """x, y, z, the XY and XZ pencils, then the chosen YZ lines, over Q(e)."""
    chosen = _a_w_k_exponents(m, k, chosen)
    n = m - 2
    pencils = _pencil(n, 0, 1, range(n)) + _pencil(n, 0, 2, range(n)) + _pencil(n, 1, 2, chosen)
    return _rows(_AXES, n) + pencils
