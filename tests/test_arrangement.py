import copy
import json
import pickle

import pytest

from levicycles.arrangement import (
    MAX_LINES,
    Arrangement,
    ArrangementError,
    arrangement_from_json,
    arrangement_to_json,
    modular_points,
    multiplicity_profile,
    relabeled,
    subarrangement,
    validate_arrangement,
)
from levicycles import families
from levicycles.cycles import longest_cycle
from levicycles.levi import build_levi
from levicycles.projective import arrangement_from_lines, meet


def triangle():
    return Arrangement(3, [(0, 1), (0, 2), (1, 2)])


def test_construction_basics():
    arr = triangle()
    assert arr.k == 3
    assert arr.s == 3
    assert arr.multiplicity(0) == 2
    assert arr.incident(0, 1)
    assert not arr.incident(0, 2)
    assert arr.point_lines == (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}))
    assert arr.line_points[0] == frozenset({0, 1})
    assert repr(arr) == "Arrangement(k=3, s=3)"


def test_masks_agree_with_incidence():
    arr = families.nine_three()
    for p in range(arr.s):
        for j in range(arr.k):
            assert bool(arr.point_masks[p] >> j & 1) == arr.incident(p, j)
            assert bool(arr.line_masks[j] >> p & 1) == arr.incident(p, j)


def test_default_and_custom_names():
    arr = triangle()
    assert arr.line_name(2) == "l2"
    assert arr.point_name(0) == "p0"
    named = Arrangement(2, [(0, 1)], line_names=["L1", "L2"], point_names=["e1"])
    assert named.line_name(1) == "L2"
    assert named.point_name(0) == "e1"


@pytest.mark.parametrize(
    "k,points",
    [
        (0, []),
        (3, [(0,)]),
        (3, [(0, 0, 1)]),
        (3, [(0, 3)]),
        (3, [(0, -1)]),
        # a boolean would alias line 0 or 1; a list used to raise TypeError
        (2, [(True, 0)]),
        (2, [(0, False)]),
        (2, [([0], 1)]),
        (2, [(0, 1.0)]),
    ],
)
def test_constructor_rejects_bad_shape(k, points):
    with pytest.raises(ArrangementError):
        Arrangement(k, points)


def test_json_line_count_bound():
    at_bound = arrangement_from_json(arrangement_to_json(families.near_pencil(MAX_LINES)))
    assert at_bound.k == MAX_LINES
    with pytest.raises(ArrangementError, match="exceeds"):
        arrangement_from_json(json.dumps({"k": MAX_LINES + 1, "points": []}))


def test_constructor_rejects_bad_names():
    with pytest.raises(ArrangementError):
        Arrangement(2, [(0, 1)], line_names=["only-one"])
    with pytest.raises(ArrangementError):
        Arrangement(2, [(0, 1)], point_names=[])


def test_immutable():
    arr = triangle()
    with pytest.raises(AttributeError):
        arr.k = 5


def test_equality_ignores_names():
    a = Arrangement(3, [(0, 1), (0, 2), (1, 2)], line_names=["a", "b", "c"])
    b = triangle()
    assert a == b
    assert hash(a) == hash(b)
    assert a != Arrangement(3, [(0, 1, 2)])


def test_multiplicity_profile_near_pencil():
    prof = multiplicity_profile(families.near_pencil(5))
    assert prof.t == {2: 4, 4: 1}
    assert prof.s == 5
    assert prof.q == 4
    assert prof.t_r(4) == 1
    assert prof.t_r(3) == 0


def test_validate_passes_on_real_arrangements():
    for arr in (triangle(), families.hesse(), families.ten_line()):
        report = validate_arrangement(arr)
        assert report.passed
        assert bool(report)
        assert report.failures == ()


def test_validate_flags_double_counted_pair():
    # lines 0 and 1 meet in two "points": impossible in a projective plane
    arr = Arrangement(3, [(0, 1), (0, 1), (1, 2), (0, 2)])
    report = validate_arrangement(arr)
    assert not report.passed
    assert not report.checks["pair-coverage"]
    assert any("pair-coverage" in f for f in report.failures)


def test_validate_flags_missing_pair():
    arr = Arrangement(3, [(0, 1), (1, 2)])
    report = validate_arrangement(arr)
    assert not report.passed
    assert any("(0,2)" in f.replace(" ", "") for f in report.failures)


def test_modular_points():
    assert modular_points(families.near_pencil(5)) == frozenset(range(5))
    assert modular_points(families.generic(4)) == frozenset()
    assert len(modular_points(families.two_modular(5, 6))) == 2
    assert len(modular_points(families.supersolvable_mu3(5))) == 3


def test_subarrangement_of_generic_is_generic():
    sub = subarrangement(families.generic(5), [0, 2, 4])
    assert sub == families.generic(3)
    assert validate_arrangement(sub).passed


def test_subarrangement_drops_starving_points():
    arr = families.near_pencil(5)
    # keep the pencil lines only: the double points (one per dropped pair) vanish
    sub = subarrangement(arr, range(arr.k - 1))
    assert sub.k == 4
    assert sub.s == 1
    assert sub.point_lines == (frozenset({0, 1, 2, 3}),)


def test_subarrangement_validates_everywhere():
    arr = families.ten_line()
    for keep in ([0, 1, 2], [3, 4, 5, 6], list(range(9))):
        assert validate_arrangement(subarrangement(arr, keep)).passed


def test_subarrangement_rejects_bad_lines():
    with pytest.raises(ArrangementError):
        subarrangement(triangle(), [])
    with pytest.raises(ArrangementError):
        subarrangement(triangle(), [0, 7])
    # ids are integers, not bools or floats that compare equal to one
    mu4 = families.mu4()
    for lines in ([False, 1, 2], [0, 1.0, 2], [0, "1", 2]):
        with pytest.raises(ArrangementError):
            subarrangement(mu4, lines)


def test_relabeled_roundtrip():
    arr = families.nine_three()
    lperm = [(j + 3) % arr.k for j in range(arr.k)]
    pperm = [(p + 7) % arr.s for p in range(arr.s)]
    moved = relabeled(arr, lperm, pperm)
    assert moved != arr
    assert validate_arrangement(moved).passed
    linv = [0] * arr.k
    pinv = [0] * arr.s
    for j, jj in enumerate(lperm):
        linv[jj] = j
    for p, pp in enumerate(pperm):
        pinv[pp] = p
    assert relabeled(moved, linv, pinv) == arr


def test_relabeled_rejects_non_permutation():
    with pytest.raises(ArrangementError):
        relabeled(triangle(), [0, 0, 1], [0, 1, 2])
    mu4 = families.mu4()
    for lperm, pperm in (
        (list(range(6)), [True, 0, 2, 3, 4, 5, 6]),
        ([0, 1.0, 2, 3, 4, 5], list(range(7))),
        (list(range(6)), [0, 1, 2, 3, 4, 5, "6"]),
    ):
        with pytest.raises(ArrangementError):
            relabeled(mu4, lperm, pperm)


def test_json_roundtrip():
    arr = families.nine_three()
    text = arrangement_to_json(arr, indent=2)
    back = arrangement_from_json(text)
    assert back == arr
    doc = json.loads(text)
    assert doc["k"] == 9
    assert doc["points"][0]["lines"] == sorted(arr.point_lines[0])


def test_json_preserves_names():
    arr = Arrangement(2, [(0, 1)], line_names=["L1", "L2"], point_names=["e1"])
    back = arrangement_from_json(arrangement_to_json(arr))
    assert back.line_names == ("L1", "L2")
    assert back.point_names == ("e1",)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"k": 3}',
        '{"k": 3, "points": 7}',
        '{"k": 3, "points": [{"id": 0}]}',
        '{"k": 3, "points": [{"id": 0, "lines": [0, 1]}, {"id": 0, "lines": [1, 2]}]}',
        '{"k": 3, "points": [{"id": 1, "lines": [0, 1]}]}',
        # structurally fine, but lines 0 and 1 never meet
        '{"k": 3, "points": [{"id": 0, "lines": [0, 2]}, {"id": 1, "lines": [1, 2]}]}',
    ],
)
def test_json_rejects_malformed(text):
    with pytest.raises(ArrangementError):
        arrangement_from_json(text)



def test_copy_and_pickle_keep_equality_and_hash():
    # The immutable types' __setattr__ refused the slot restore that copy and
    # pickle do by default.
    built = arrangement_from_lines(families.ceva_coordinate_lines(4))
    arr = relabeled(built, list(range(built.k))[::-1], list(range(built.s)))  # names, too
    longest_cycle(arr)  # fills the solver's per-arrangement cache
    line = arr.coordinates[1]
    objects = [line.coords[1], line, meet(line, arr.coordinates[2]), arr, build_levi(arr)]
    text = arrangement_to_json(arr)
    for round_trip in (copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))):
        for obj in objects:
            back = round_trip(obj)
            assert type(back) is type(obj)
            assert back == obj and hash(back) == hash(obj)
        back = round_trip(arr)
        assert back._symmetry is None
        assert arrangement_to_json(back) == text
