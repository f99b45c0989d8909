import json
import random
import time
from fractions import Fraction

import pytest

from levicycles import families
from levicycles.arrangement import (
    Arrangement,
    ArrangementError,
    arrangement_from_json,
    arrangement_to_json,
    validate_arrangement,
)
from levicycles.exact_field import ConductorMismatch, CycloNumber, format_scalar, parse_scalar
from levicycles.projective import (
    MAX_COEFFICIENT_DIGITS,
    MAX_CONDUCTOR,
    MAX_SCALAR_CHARS,
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


def test_rational_and_cyclotomic_meets_cluster_together():
    # The meet of two rational lines has Fraction coordinates, a meet with a
    # cyclotomic line CycloNumber ones; both are the point (0:0:1).
    e = CycloNumber.root(5)
    arr = arrangement_from_lines([X, Y, ProjLine((1, e, 0))])
    assert arr.point_lines == (frozenset({0, 1, 2}),)
    assert validate_arrangement(arr).passed
    assert len({X, ProjLine((CycloNumber.one(5), 0, 0))}) == 1


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


def test_payload_scalar_length_bound():
    field = {"type": "cyclotomic", "conductor": 12}
    at_bound = "-1" + "+e^3" * ((MAX_SCALAR_CHARS - 2) // 4) + "+1" * ((MAX_SCALAR_CHARS - 2) % 4 // 2)
    assert len(at_bound) == MAX_SCALAR_CHARS
    lines = coordinates_from_payload({"field": field, "lines": [[at_bound, "e", "0"]]}, 1)
    assert lines == [ProjLine((parse_scalar(at_bound, 12), CycloNumber.root(12), CycloNumber.zero(12)))]
    for row in ([at_bound + "0", "e", "0"], ["1", "0", " " * (MAX_SCALAR_CHARS + 1)]):
        with pytest.raises(ArrangementError, match=f"longer than {MAX_SCALAR_CHARS}"):
            coordinates_from_payload({"field": field, "lines": [row]}, 1)
    # A rational scalar is one term, cheap to invert at any length.
    long_rational = "1/" + "7" * MAX_SCALAR_CHARS
    lines = coordinates_from_payload({"field": {"type": "rational"}, "lines": [[long_rational, "1", "0"]]}, 1)
    assert lines == [ProjLine((1, Fraction("7" * MAX_SCALAR_CHARS), 0))]


def test_payload_coefficient_digit_bound():
    top = 10**MAX_COEFFICIENT_DIGITS - 1
    field = {"type": "cyclotomic", "conductor": 31}
    for text in (f"{top}*e^2-1", f"{top - 1}/{top}*e-1/{top}", f"1/{top}+1/{top}*e^5"):
        assert coordinates_from_payload({"field": field, "lines": [[text, "e", "1"]]}, 1)[0].coords[0] == 1
    # Within the bound term by term, not once written over one denominator.
    for text in (f"{top + 1}*e", f"1/{top + 1}", f"1/{top}+1/{top - 1}*e", "+".join(f"1/{p}*e^{i}" for i, p in enumerate([1009, 1013, 1019, 1021, 1031]))):
        with pytest.raises(ArrangementError, match=f"more than {MAX_COEFFICIENT_DIGITS} digits"):
            coordinates_from_payload({"field": field, "lines": [["1", "e", text]]}, 1)


@pytest.mark.parametrize("n", range(1, MAX_CONDUCTOR + 1))
def test_every_value_within_the_digit_bound_fits_the_length_bound(n):
    # Coprime numerators and denominator of the largest size make every
    # written term as long as it gets: "-a/b*e^k".
    top = 10**MAX_COEFFICIENT_DIGITS - 1
    phi = len(CycloNumber.one(n).coeffs)
    value = CycloNumber(n, [Fraction(-top, top - 1)] * phi)
    assert value.height == top
    row = [format_scalar(value), "1", "e"]
    assert len(row[0]) <= MAX_SCALAR_CHARS
    field = {"type": "cyclotomic", "conductor": n}
    assert coordinates_from_payload({"field": field, "lines": [row]}, 1) == [
        ProjLine((value, CycloNumber.one(n), CycloNumber.root(n)))
    ]


def test_coordinate_families_round_trip_at_every_conductor():
    for n in range(2, MAX_CONDUCTOR + 1):
        m = n + 2
        built = [families.ceva_coordinate_lines(n), families.supersolvable_mu3_coordinate_lines(m)]
        if m >= 5:
            built += [families.a_w_k_coordinate_lines(m, 1), families.a_w_k_coordinate_lines(m, m - 3)]
        for lines in built:
            payload = json.loads(json.dumps(coordinates_to_payload(lines)))
            assert coordinates_from_payload(payload, len(lines)) == lines, n
    # The whole document at a prime conductor, whose pencil entries -e^(n-1)
    # are written as phi(n) terms.
    arr = arrangement_from_lines(families.ceva_coordinate_lines(11))
    back = arrangement_from_json(arrangement_to_json(arr))
    assert back == arr and back.coordinates == arr.coordinates


def test_dense_conductor_31_row_loads_quickly():
    # Thirty 10-digit coefficients at conductor 31, the largest degree under
    # MAX_CONDUCTOR: inverting the lead entry by extended Euclid over Q took
    # 1.1 s, against about 4 ms as the product of its Galois conjugates.
    rng = random.Random(31)
    lead = "+".join(f"{rng.randrange(10**9, 10**10)}*e^{i}" for i in range(30))
    row = [lead, "1-e", "e^3"]
    start = time.perf_counter()
    [line] = coordinates_from_payload({"field": {"type": "cyclotomic", "conductor": 31}, "lines": [row]}, 1)
    assert time.perf_counter() - start < 0.1
    assert line.coords[0] == CycloNumber.one(31)
    assert line.coords[1] * parse_scalar(lead, 31) == parse_scalar("1-e", 31)


def test_arrangement_json_carries_coordinates():
    arr = arrangement_from_lines([X, Y, Z, ProjLine((1, 1, 1))])
    back = arrangement_from_json(arrangement_to_json(arr))
    assert back == arr
    assert back.coordinates == arr.coordinates


def test_payload_writer_refuses_mixed_conductors():
    # Rows over conductors 5 and 7 were both written as conductor 5, with
    # the same strings, and read back as two equal lines without an error.
    e5, e7 = CycloNumber.root(5), CycloNumber.root(7)
    lines = [ProjLine((1, e5, 0)), Z, ProjLine((1, e7, 0))]
    with pytest.raises(ArrangementError, match="row 2: conductor 7, but an earlier row has conductor 5"):
        coordinates_to_payload(lines)
    with pytest.raises(ArrangementError, match="row 2: conductor 7"):
        arrangement_to_json(Arrangement(3, [(0, 1, 2)], coordinates=lines))
    # A rational row fits any conductor and reads back as written.
    mixed = [Z, ProjLine((1, e5, 0))]
    assert coordinates_from_payload(coordinates_to_payload(mixed), 2) == mixed


def test_payload_writer_refuses_what_the_reader_refuses():
    # A line built in Python can have canonical entries the reader refuses:
    # here 1/a has integers of thousands of digits, and writing it raised a
    # bare ValueError from Python's int-to-string digit limit.
    rng = random.Random(31)
    a = CycloNumber(31, [rng.randrange(10**199, 10**200) for _ in range(2)])
    huge = ProjLine((a, 1, 0))
    with pytest.raises(ArrangementError, match=f"row 1: .*more than {MAX_COEFFICIENT_DIGITS} digits"):
        coordinates_to_payload([ProjLine((CycloNumber.one(31), 0, 0)), huge])
    arr = Arrangement(2, [(0, 1)], coordinates=[Y, huge])
    with pytest.raises(ArrangementError, match=f"more than {MAX_COEFFICIENT_DIGITS} digits"):
        arrangement_to_json(arr)
    # At the digit bound the writer and the reader agree on both sides.
    top = 10**MAX_COEFFICIENT_DIGITS - 1
    field = {"type": "cyclotomic", "conductor": 31}
    for value in (CycloNumber(31, [top, 1]), CycloNumber(31, [1, Fraction(1, top)]), Fraction(-top)):
        line = ProjLine((1, value, CycloNumber.root(31)))
        payload = coordinates_to_payload([line])
        assert coordinates_from_payload(payload, 1) == [line]
    for value in (CycloNumber(31, [top + 1, 1]), CycloNumber(31, [1, Fraction(1, top + 1)]), Fraction(-top - 1)):
        text = format_scalar(value)
        with pytest.raises(ArrangementError, match=f"more than {MAX_COEFFICIENT_DIGITS} digits"):
            coordinates_from_payload({"field": field, "lines": [["1", text, "e"]]}, 1)
        with pytest.raises(ArrangementError, match=f"more than {MAX_COEFFICIENT_DIGITS} digits"):
            coordinates_to_payload([ProjLine((1, value, CycloNumber.root(31)))])
    # A rational scalar past the int-to-string digit limit is refused by both.
    past_limit = 10**5000 + 1
    with pytest.raises(ArrangementError, match="row 0"):
        coordinates_to_payload([ProjLine((1, past_limit, 0))])
    with pytest.raises(ArrangementError, match="row 0"):
        coordinates_from_payload({"field": {"type": "rational"}, "lines": [["1", "1" + "0" * 5000, "0"]]}, 1)
