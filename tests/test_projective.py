from fractions import Fraction

import pytest

from levicycles import families
from levicycles.arrangement import ArrangementError, arrangement_from_json, arrangement_to_json
from levicycles.exact_field import ConductorMismatch, CycloNumber
from levicycles.projective import (
    MAX_CONDUCTOR,
    DuplicateLine,
    GeometryError,
    IdenticalLines,
    IdenticalPoints,
    ProjLine,
    ProjPoint,
    arrangement_from_lines,
    coordinates_from_payload,
    coordinates_to_payload,
    incident,
    line_through,
    meet,
)


X, Y, Z = ProjLine((1, 0, 0)), ProjLine((0, 1, 0)), ProjLine((0, 0, 1))


def test_normalization_makes_scalings_equal():
    assert ProjPoint((2, 4, 6)) == ProjPoint((1, 2, 3))
    assert ProjPoint((0, 0, 5)) == ProjPoint((0, 0, 1))
    assert ProjPoint((2, 4, 6)).coords == (1, Fraction(2), Fraction(3))
    assert ProjLine((Fraction(1, 2), 0, 1)) == ProjLine((1, 0, 2))


def test_normalization_over_cyclotomic_field():
    eps = CycloNumber.root(3)
    a = ProjLine((eps, CycloNumber.one(3), CycloNumber.zero(3)))
    b = ProjLine((CycloNumber.one(3), eps.inverse(), CycloNumber.zero(3)))
    assert a == b
    assert a.coords[0] == 1


@pytest.mark.parametrize(
    "coords",
    [(1, 2), (1, 2, 3, 4), (0, 0, 0), (1.5, 0, 0), (1, "x", 0)],
)
def test_bad_coordinates_rejected(coords):
    with pytest.raises(GeometryError):
        ProjPoint(coords)


def test_mixed_conductors_rejected():
    with pytest.raises(ConductorMismatch):
        ProjPoint((CycloNumber.root(3), CycloNumber.root(4), CycloNumber.one(3)))


def test_points_and_lines_are_distinct_types():
    assert ProjPoint((1, 0, 0)) != ProjLine((1, 0, 0))
    assert hash(ProjPoint((1, 0, 0))) != hash(ProjLine((1, 0, 0)))


def test_immutable():
    with pytest.raises(AttributeError):
        X.coords = (1, 1, 1)


def test_meet_of_coordinate_axes():
    assert meet(X, Y) == ProjPoint((0, 0, 1))
    assert meet(Y, Z) == ProjPoint((1, 0, 0))


def test_meet_rejects_identical_lines():
    with pytest.raises(IdenticalLines):
        meet(X, ProjLine((3, 0, 0)))


def test_line_through_and_duality():
    p, q = ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0))
    assert line_through(p, q) == Z
    with pytest.raises(IdenticalPoints):
        line_through(p, ProjPoint((5, 0, 0)))
    # meet and line_through are mutually inverse on generic inputs
    l1, l2 = ProjLine((1, 1, 1)), ProjLine((1, 2, 3))
    p = meet(l1, l2)
    assert incident(p, l1) and incident(p, l2)
    q = ProjPoint((1, 1, -2))
    assert incident(q, l1)
    assert line_through(p, q) == l1


def test_incident():
    assert incident(ProjPoint((0, 1, -1)), ProjLine((1, 1, 1)))
    assert not incident(ProjPoint((1, 1, 1)), ProjLine((1, 1, 1)))


def test_arrangement_from_triangle_matches_generic():
    arr = arrangement_from_lines([X, Y, Z])
    assert arr == families.generic(3)
    assert arr.coordinates == (X, Y, Z)


def test_arrangement_from_pencil_clusters_common_point():
    arr = arrangement_from_lines([X, Y, ProjLine((1, 1, 0))])
    assert arr.s == 1
    assert arr.point_lines == (frozenset({0, 1, 2}),)


def test_arrangement_from_lines_errors():
    with pytest.raises(GeometryError):
        arrangement_from_lines([X])
    with pytest.raises(DuplicateLine):
        arrangement_from_lines([X, Y, ProjLine((2, 0, 0))])


def test_point_order_is_line_signature_order():
    # generic quadrilateral: six double points, ordered by sorted line pairs
    lines = [X, Y, Z, ProjLine((1, 1, 1))]
    arr = arrangement_from_lines(lines)
    assert [sorted(fs) for fs in arr.point_lines] == [
        [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]
    ]


def test_rational_payload_roundtrip():
    lines = [X, Y, Z, ProjLine((1, Fraction(-2, 3), 1))]
    payload = coordinates_to_payload(lines)
    assert payload["field"] == {"type": "rational"}
    assert coordinates_from_payload(payload, 4) == lines


def test_cyclotomic_payload_roundtrip():
    eps = CycloNumber.root(6)
    one, zero = CycloNumber.one(6), CycloNumber.zero(6)
    lines = [ProjLine((one, -(eps * eps), zero)), ProjLine((one, eps, one))]
    payload = coordinates_to_payload(lines)
    assert payload["field"] == {"type": "cyclotomic", "conductor": 6}
    assert coordinates_from_payload(payload, 2) == lines


@pytest.mark.parametrize(
    "payload,k",
    [
        ({"lines": []}, 0),
        ({"field": {"type": "rational"}}, 0),
        ({"field": {"type": "finite"}, "lines": []}, 0),
        ({"field": {"type": "cyclotomic", "conductor": 0}, "lines": []}, 0),
        ({"field": {"type": "rational"}, "lines": [["1", "0", "0"]]}, 2),
        ({"field": {"type": "rational"}, "lines": [["1", "0"]]}, 1),
    ],
)
def test_payload_errors(payload, k):
    with pytest.raises(ArrangementError):
        coordinates_from_payload(payload, k)


def test_payload_conductor_bound():
    rows = [["1", "0", "0"], ["0", "1", "0"]]
    at_bound = coordinates_from_payload({"field": {"type": "cyclotomic", "conductor": MAX_CONDUCTOR}, "lines": rows}, 2)
    assert at_bound[0].coords[0] == CycloNumber.one(MAX_CONDUCTOR)
    for conductor in (MAX_CONDUCTOR + 1, True):
        with pytest.raises(ArrangementError, match="conductor"):
            coordinates_from_payload({"field": {"type": "cyclotomic", "conductor": conductor}, "lines": rows}, 2)


def test_arrangement_json_carries_coordinates():
    arr = arrangement_from_lines([X, Y, Z, ProjLine((1, 1, 1))])
    back = arrangement_from_json(arrangement_to_json(arr))
    assert back == arr
    assert back.coordinates == arr.coordinates
