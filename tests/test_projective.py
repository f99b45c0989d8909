import json
import random
import time
import warnings
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levicycles import families, projective
from levicycles.arrangement import (
    Arrangement,
    ArrangementError,
    arrangement_from_json,
    arrangement_to_json,
    relabeled,
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
    assert hash(ProjLine((Fraction(1, 2), 0, 1))) == hash(ProjLine((1, 0, 2)))
    assert ProjLine((1, 0, 2)) != ProjLine((1, 1, 2))


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
    # Lines over two conductors are never equal, rational values included.
    assert ProjLine((CycloNumber.one(5), 0, 0)) != ProjLine((CycloNumber.one(7), 0, 0))


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
    lines = [X, Y, Z, ProjLine((1, Fraction(-2, 3), 1)), ProjLine((3, 0, 1))]
    payload = coordinates_to_payload(lines)
    assert payload["field"] == {"type": "rational"}
    assert payload["lines"][4] == ["3", "0", "1"]  # as written, not scaled to (1, 0, 1/3)
    assert coordinates_from_payload(payload, 5) == lines


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
        ({"field": {"type": "rational"}, "lines": 5}, 0),
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
    # MAX_CONDUCTOR.  Reading keeps the row as written and inverts nothing;
    # the canonical form, whose lead entry's inverse has about 30 times
    # their digits, is built only when ``coords`` is read.
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


def test_small_rows_with_a_wide_canonical_form_round_trip():
    # The canonical form of a*x + y + z divides by a, and 1/a has integers
    # far past MAX_COEFFICIENT_DIGITS digits; the document carries the rows
    # as written, whose integers have one digit.
    one, zero = CycloNumber.one(31), CycloNumber.zero(31)
    a = CycloNumber(31, [(-1) ** i * (i % 9 + 1) for i in range(30)])
    arr = arrangement_from_lines([ProjLine((one, zero, zero)), ProjLine((zero, one, zero)),
                                  ProjLine((zero, zero, one)), ProjLine((a, one, one))])
    assert max(map(projective._height, arr.coordinates[3].coords)) >= 10**MAX_COEFFICIENT_DIGITS
    text = arrangement_to_json(arr)
    back = arrangement_from_json(text)
    assert back == arr and back.coordinates == arr.coordinates
    assert arrangement_to_json(back) == text


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
    # A line built in Python can have entries the reader refuses: here a
    # has two 200-digit integers.
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


# -- the realisation routine: meets clustered mod p and confirmed exactly,
# with another prime drawn whenever p cannot decide


def _exact(lines):
    """
    Point line sets from every meet computed exactly with ``meet``, in
    signature order; the first equal pair (i, j) raises DuplicateLine.
    """
    through = {}
    for i, j in combinations(range(len(lines)), 2):
        try:
            point = meet(lines[i], lines[j])
        except IdenticalLines:
            raise DuplicateLine(f"lines {i} and {j} coincide") from None
        through.setdefault(point, set()).update((i, j))
    return tuple(frozenset(fs) for fs in sorted(through.values(), key=sorted))


def _quiet(build, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ceva(3) warns that its n-fold points are triple points
        return build(*args)


_FAMILY_LINES = (
    [(f"ceva({n})", families.ceva_coordinate_lines, (n,)) for n in range(3, 17)]
    + [(f"mu3({m})", families.supersolvable_mu3_coordinate_lines, (m,)) for m in range(4, 11)]
    + [(f"a_w_k({m},{k})", families.a_w_k_coordinate_lines, (m, k)) for m in range(5, 10) for k in range(m - 2)]
    + [("mu4", families.mu4_coordinate_lines, ()), ("nine_three", families.nine_three_coordinate_lines, ())]
)


@pytest.mark.parametrize("build,args", [case[1:] for case in _FAMILY_LINES], ids=[case[0] for case in _FAMILY_LINES])
def test_clustered_meets_match_the_exact_path_on_the_families(build, args):
    lines = build(*args)
    arr = arrangement_from_lines(lines)
    assert arr.point_lines == _exact(lines)
    assert arr.coordinates == tuple(lines)


def _conductor_sets(n):
    """The coordinate families at conductor n, with the builder each realises."""
    m = n + 2
    sets = [(families.ceva_coordinate_lines(n), families.ceva, (n,)),
            (families.supersolvable_mu3_coordinate_lines(m), families.supersolvable_mu3, (m,))]
    if m >= 5:
        sets += [(families.a_w_k_coordinate_lines(m, 1), families.a_w_k, (m, 1)),
                 (families.a_w_k_coordinate_lines(m, m - 3), families.a_w_k, (m, m - 3))]
    return sets


@pytest.mark.parametrize("n", range(2, MAX_CONDUCTOR + 1))
def test_clustered_meets_at_every_conductor(n):
    # The round-trip sets of test_coordinate_families_round_trip_at_every_conductor.
    # The exact reference costs 35 s over all of them, so here it checks the
    # conductors up to 10 and the closed-form builders check every one.
    for lines, build, args in _conductor_sets(n):
        points = arrangement_from_lines(lines).point_lines
        if n <= 10:
            assert points == _exact(lines), (build.__name__, args)
        if n >= 3:
            assert set(points) == set(_quiet(build, *args).point_lines), (build.__name__, args)


@pytest.mark.slow
def test_clustered_meets_match_the_exact_path_at_every_conductor():
    for n in range(2, MAX_CONDUCTOR + 1):
        for lines, build, args in _conductor_sets(n):
            assert arrangement_from_lines(lines).point_lines == _exact(lines), (build.__name__, args)


_small = st.integers(-4, 4)
_triples = st.tuples(_small, _small, _small).filter(any)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(_triples, min_size=1, max_size=4), st.lists(_triples, max_size=8),
       st.lists(st.tuples(st.integers(0, 3), _triples), max_size=9))
def test_clustered_meets_match_the_exact_path_on_forced_concurrencies(centres, free, through):
    # A line u x c passes through the centre c, so these force points of
    # higher multiplicity; the free lines add collisions at random.
    rows = free + [projective._cross(u, centres[i % len(centres)]) for i, u in through]
    lines = list(dict.fromkeys(ProjLine(row) for row in rows if any(row)))
    assume(len(lines) >= 2)
    assert arrangement_from_lines(lines).point_lines == _exact(lines)


def _small_prime_first(monkeypatch):
    """
    Make the first prime drawn p = 11, with 3 a primitive 5th root of unity
    mod 11, and every later one a fresh random prime; return the primes drawn.
    """
    draw, drawn, current = projective._field_map.__wrapped__, [], {}

    def field_map(n):
        if n not in current:
            current[n] = draw(n) if drawn else {1: (11, 1), 5: (11, 3)}[n]
            drawn.append(current[n][0])
        return current[n]

    field_map.cache_clear = current.clear
    monkeypatch.setattr(projective, "_field_map", field_map)
    return drawn


@pytest.mark.parametrize(
    "lines",
    [families.ceva_coordinate_lines(5), families.supersolvable_mu3_coordinate_lines(7),
     families.a_w_k_coordinate_lines(7, 2), families.mu4_coordinate_lines(),
     families.nine_three_coordinate_lines(), [ProjLine((a, b, 1)) for a in range(4) for b in range(3)]],
    ids=["ceva(5)", "mu3(7)", "a_w_k(7,2)", "mu4", "nine_three", "grid"],
)
def test_a_small_prime_gives_the_exact_answer(monkeypatch, lines):
    expected = _exact(lines)
    drawn = _small_prime_first(monkeypatch)
    assert arrangement_from_lines(lines).point_lines == expected
    assert drawn[0] == 11 and len(drawn) <= 2


def test_a_small_prime_confirms_or_draws_again(monkeypatch):
    drawn = _small_prime_first(monkeypatch)
    # Three concurrent lines: one cluster of three, confirmed exactly.
    assert arrangement_from_lines([X, Y, ProjLine((1, 1, 0))]).point_lines == (frozenset({0, 1, 2}),)
    assert drawn == [11]
    for lines in (
        # Distinct but proportional mod 11.
        [X, ProjLine((1, 11, 0)), Z],
        # A denominator that 11 divides.
        [X, ProjLine((1, Fraction(1, 11), 1)), Z],
        # No two of these lines are proportional mod 11, but their meets
        # (0:1:0), (0:-1:11) and (-11:1:0) are all (0:1:0) mod 11: a cluster
        # of three lines that are not concurrent, which confirmation refuses.
        [X, Z, ProjLine((1, 11, 1))],
    ):
        expected = _exact(lines)
        assert expected == (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}))
        monkeypatch.undo()
        drawn = _small_prime_first(monkeypatch)
        assert arrangement_from_lines(lines).point_lines == expected
        assert drawn[0] == 11 and len(drawn) == 2 and drawn[1] > 2**30


def test_equal_lines_are_named_as_the_exact_path_names_them(monkeypatch):
    e = CycloNumber.root(5)
    for lines, draws in (([X, Y, Z, ProjLine((2, 0, 0)), ProjLine((0, 3, 0))], 1),
                         ([ProjLine((1, e, 0)), Z, ProjLine((1, e, 0)), ProjLine((1, e * e, 1))], 1),
                         # Lines 0 and 1 are proportional mod 11, so the equal
                         # pair (0, 3) is named after a second draw.
                         ([X, ProjLine((1, 11, 0)), Z, ProjLine((2, 0, 0))], 2)):
        with pytest.raises(DuplicateLine) as exact:
            _exact(lines)
        drawn = _small_prime_first(monkeypatch)
        with pytest.raises(DuplicateLine) as clustered:
            arrangement_from_lines(lines)
        assert str(clustered.value) == str(exact.value)
        assert len(drawn) == draws
        monkeypatch.undo()


def test_mixed_conductors_raise_conductor_mismatch():
    lines = [ProjLine((1, CycloNumber.root(5), 0)), Z, ProjLine((1, CycloNumber.root(7), 0))]
    with pytest.raises(ConductorMismatch, match="mixed conductors 5 and 7"):
        arrangement_from_lines(lines)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 31, 32])
def test_field_map_is_a_prime_with_a_primitive_root(n):
    p, w = projective._field_map(n)
    assert p > 2**30 and (p - 1) % n == 0
    assert all(p % q for q in range(2, 50000))  # trial division past sqrt(p): p is prime
    assert pow(w, n, p) == 1
    assert all(pow(w, d, p) != 1 for d in range(1, n))
    # The map e -> w respects the arithmetic: the image of a product is the product of the images.
    a, b = CycloNumber(n, [3, Fraction(-1, 2), 5]), CycloNumber(n, [Fraction(7, 3), 0, 1, -4])
    image = lambda c: projective._residue(c, p, w)  # noqa: E731
    assert image(a * b) == image(a) * image(b) % p


# -- documents whose coordinates contradict their points


def _document(lines):
    return json.loads(arrangement_to_json(arrangement_from_lines(lines)))


def _swapped_ceva_three():
    doc = _document(families.ceva_coordinate_lines(3))
    rows = doc["coordinates"]["lines"]
    rows[0], rows[1] = rows[1], rows[0]
    return doc


def _perturbed_ceva_four():
    doc = _document(families.ceva_coordinate_lines(4))
    doc["coordinates"]["lines"][5][2] = "-e^3+1"  # was -e^3: YZ_3 leaves its triple points
    return doc


def _repeated_mu4_row():
    doc = _document(families.mu4_coordinate_lines())
    doc["coordinates"]["lines"][4] = doc["coordinates"]["lines"][1]
    return doc


@pytest.mark.parametrize(
    "make,message",
    [(_swapped_ceva_three, "coordinates do not realise point"),
     (_perturbed_ceva_four, "coordinates do not realise point"),
     (_repeated_mu4_row, "coordinates: lines 1 and 4 coincide")],
    ids=["swapped-rows", "perturbed-scalar", "repeated-row"],
)
def test_coordinates_that_contradict_the_points_are_refused(make, message):
    text = json.dumps(make())
    with pytest.raises(ArrangementError, match=message):
        arrangement_from_json(text)
    # Without validation a document loads as written.
    assert arrangement_from_json(text, require_valid=False).coordinates is not None


def test_coordinates_that_realise_relabelled_points_load():
    # The points may be listed in any order, the lines in any order that the rows follow.
    arr = arrangement_from_lines(families.ceva_coordinate_lines(4))
    rng = random.Random(4)
    line_perm, point_perm = list(range(arr.k)), list(range(arr.s))
    rng.shuffle(line_perm)
    rng.shuffle(point_perm)
    moved = relabeled(arr, line_perm, point_perm)
    back = arrangement_from_json(arrangement_to_json(moved))
    assert back == moved and back.coordinates == moved.coordinates
