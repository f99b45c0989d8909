import hashlib
import itertools
import json
import warnings

import pytest

from levicycles import families
from levicycles.arrangement import (
    MAX_LINES,
    arrangement_to_json,
    modular_points,
    multiplicity_profile,
    validate_arrangement,
)
from levicycles.families import (
    BadParam,
    DuplicateExponent,
    ExponentOutOfRange,
    build_family,
)
from levicycles.projective import arrangement_from_lines, coordinates_to_payload


def quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args)


def same_incidences(a, b):
    """Equal incidence structures up to point order (line labels must match)."""
    return a.k == b.k and sorted(map(sorted, a.point_lines)) == sorted(map(sorted, b.point_lines))


# (builder args, expected t-profile, expected modular point count)
PROFILES = [
    (("near_pencil", 5), {2: 4, 4: 1}, 5),
    (("near_pencil", 3), {2: 3}, 3),
    (("two_modular", 2, 3), {2: 3, 3: 1}, 4),
    (("two_modular", 3, 4), {2: 6, 3: 1, 4: 1}, 2),
    (("two_modular", 5, 6), {2: 20, 5: 1, 6: 1}, 2),
    (("generic", 5), {2: 10}, 0),
    (("generic", 2), {2: 1}, 1),
    (("ceva", 3), {3: 12}, 0),
    (("ceva", 4), {3: 16, 4: 3}, 0),
    (("ceva", 5), {3: 25, 5: 3}, 0),
    (("hesse",), {2: 12, 4: 9}, 0),
    (("nine_three",), {2: 9, 3: 9}, 0),
    (("ten_line",), {2: 9, 3: 12}, 0),
    (("mu4",), {2: 3, 3: 4}, 4),
    (("supersolvable_mu3", 4), {2: 6, 3: 4, 4: 3}, 3),
    (("supersolvable_mu3", 5), {2: 9, 3: 9, 5: 3}, 3),
    (("supersolvable_mu3", 6), {2: 12, 3: 16, 6: 3}, 3),
    (("a_w_k", 5, 0), {2: 16, 5: 2}, 2),
    (("a_w_k", 5, 1), {2: 13, 3: 4, 5: 2}, 2),
    (("a_w_k", 5, 2, (0, 1)), {2: 11, 3: 6, 4: 1, 5: 2}, 2),
    (("a_w_k", 6, 2), {2: 18, 3: 8, 4: 1, 6: 2}, 2),
]


@pytest.mark.parametrize("spec,profile,n_modular", PROFILES, ids=[str(p[0]) for p in PROFILES])
def test_builder_profiles(spec, profile, n_modular):
    name, *args = spec
    arr = quiet(getattr(families, name), *args)
    prof = multiplicity_profile(arr)
    assert prof.t == profile
    assert prof.s == sum(profile.values()) == arr.s
    assert len(modular_points(arr)) == n_modular
    assert validate_arrangement(arr).passed


def test_line_counts():
    assert quiet(families.ceva, 4).k == 12
    assert families.hesse().k == 12
    assert families.supersolvable_mu3(6).k == 15
    assert families.a_w_k(6, 2).k == 13
    assert families.two_modular(5, 6).k == 10


@pytest.mark.parametrize(
    "fn,args,message",
    [
        (families.near_pencil, (2,), "near_pencil needs k >= 3"),
        (families.near_pencil, ("5",), "near_pencil needs k >= 3"),
        (families.two_modular, (1, 3), "2 <= a < b"),
        (families.two_modular, (2, 2), "2 <= a < b"),
        (families.generic, (1,), "generic needs k >= 2"),
        (families.ceva, (2,), "ceva needs n >= 3"),
        (families.supersolvable_mu3, (3,), "supersolvable_mu3 needs m >= 4"),
        (families.a_w_k, (4, 0), "a_w_k needs m >= 5"),
        (families.a_w_k, (5, 3), "0 <= k <= m-3 = 2"),
        (families.supersolvable_mu3_coordinate_lines, (3,), "supersolvable_mu3 needs m >= 4"),
    ],
)
def test_builder_param_errors(fn, args, message):
    with pytest.raises(BadParam, match=message.replace("(", "\\(")):
        fn(*args)


def test_a_w_k_chosen_validation():
    with pytest.raises(DuplicateExponent, match=r"duplicate exponents in \[1, 1\]"):
        families.a_w_k(5, 2, (1, 1))
    with pytest.raises(ExponentOutOfRange, match="exponent 9 outside 0..2"):
        families.a_w_k(5, 1, (9,))
    # any valid subset of exponents is accepted, not just a prefix
    arr = families.a_w_k(5, 2, (0, 2))
    assert validate_arrangement(arr).passed
    assert arr.k == 11


def test_ceva_three_warns_about_merged_vertices():
    with pytest.warns(UserWarning, match=r"ceva\(3\)"):
        families.ceva(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        families.ceva(4)  # no warning for n >= 4


def test_build_family_dispatch():
    assert build_family("generic", k=4) == families.generic(4)
    assert build_family("hesse") == families.hesse()
    assert build_family("two_modular", a=3, b=4) == families.two_modular(3, 4)
    assert build_family("a_w_k", m=5, k=2, chosen=(0, 2)) == families.a_w_k(5, 2, (0, 2))
    # chosen may be omitted; other None-valued parameters are ignored
    assert build_family("a_w_k", m=5, k=1) == families.a_w_k(5, 1)
    assert build_family("generic", k=4, m=None) == families.generic(4)


@pytest.mark.parametrize(
    "name,params,message",
    [
        ("no_such_family", {}, "unknown family"),
        ("hesse", {"k": 3}, "does not take parameter"),
        ("two_modular", {"a": 2}, "needs parameters: b"),
        ("generic", {}, "needs parameters: k"),
    ],
)
def test_build_family_errors(name, params, message):
    with pytest.raises(BadParam, match=message):
        build_family(name, **params)


# One past MAX_LINES = 256 lines for each builder with a size parameter, and
# the line count its message names.
_OVERSIZE = [
    (families.near_pencil, (257,), 257),
    (families.generic, (257,), 257),
    (families.two_modular, (2, 256), 257),
    (families.ceva, (86,), 258),
    (families.supersolvable_mu3, (87,), 258),
    (families.a_w_k, (128, 2), 257),
    (families.a_w_k, (129, 0), 257),
    (families.ceva_coordinate_lines, (86,), 258),
    (families.supersolvable_mu3_coordinate_lines, (87,), 258),
    (families.a_w_k_coordinate_lines, (128, 2), 257),
]


@pytest.mark.parametrize("build,args,count", _OVERSIZE, ids=[f"{b.__name__}{a}" for b, a, _ in _OVERSIZE])
def test_builders_refuse_more_than_max_lines_before_building(monkeypatch, build, args, count):
    def built(*_args, **_kwargs):
        raise AssertionError(f"{build.__name__}{args} built something past the line limit")

    for helper in ("_arrangement", "_ceva_triples", "_pencil", "_rows"):
        monkeypatch.setattr(families, helper, built)
    with pytest.raises(BadParam, match=f"^line count {count} exceeds the limit of {MAX_LINES}$"):
        build(*args)


def test_builders_build_at_max_lines():
    for arr in (families.two_modular(2, 255), families.generic(256), families.a_w_k(128, 1)):
        assert arr.k == MAX_LINES
    assert len(families.a_w_k_coordinate_lines(127, 3)) == MAX_LINES
    with pytest.raises(BadParam, match="line count 257"):
        families.a_w_k_coordinate_lines(127, 4)


# -- coordinate realizations agree with the combinatorial builders


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ceva_coordinates_match_builder(n):
    arr = arrangement_from_lines(families.ceva_coordinate_lines(n))
    assert same_incidences(arr, quiet(families.ceva, n))


def test_ceva_coordinate_pencils_allow_n_two():
    lines = families.ceva_coordinate_lines(2)
    assert len(lines) == 6
    prof = multiplicity_profile(arrangement_from_lines(lines))
    assert prof.t == {2: 3, 3: 4}
    with pytest.raises(BadParam):
        families.ceva_coordinate_lines(1)


def test_mu4_coordinates_match_builder():
    arr = arrangement_from_lines(families.mu4_coordinate_lines())
    assert same_incidences(arr, families.mu4())


def test_nine_three_coordinates_match_builder():
    arr = arrangement_from_lines(families.nine_three_coordinate_lines())
    assert same_incidences(arr, families.nine_three())


@pytest.mark.parametrize("m", [4, 5, 6])
def test_supersolvable_mu3_coordinates_match_builder(m):
    arr = arrangement_from_lines(families.supersolvable_mu3_coordinate_lines(m))
    assert same_incidences(arr, families.supersolvable_mu3(m))


@pytest.mark.parametrize(
    "args",
    [(5, 0), (5, 1), (5, 2, (0, 1)), (6, 2)],
    ids=str,
)
def test_a_w_k_coordinates_match_builder(args):
    arr = arrangement_from_lines(families.a_w_k_coordinate_lines(*args))
    assert same_incidences(arr, families.a_w_k(*args))


@pytest.mark.parametrize(
    "m, k, chosen, error",
    [
        (5, 1, [7], ExponentOutOfRange),
        (5, 1, [-1], ExponentOutOfRange),
        (6, 1, [0, 1], BadParam),
        (6, 2, [1, 1], DuplicateExponent),
        (5, True, None, BadParam),
        (5, 1, [True], ExponentOutOfRange),
        (5, 1, [[0]], ExponentOutOfRange),
        (5, 1, 7, BadParam),
    ],
    ids=[
        "exponent-7",
        "exponent-minus-1",
        "two-exponents-for-k-1",
        "repeated-exponent",
        "bool-k",
        "bool-exponent",
        "list-exponent",
        "chosen-not-iterable",
    ],
)
def test_a_w_k_coordinate_lines_reject_what_the_builder_rejects(m, k, chosen, error):
    for build in (families.a_w_k, families.a_w_k_coordinate_lines):
        with pytest.raises(BadParam) as info:
            build(m, k, chosen)
        assert type(info.value) is error, build.__name__


def test_coordinate_incidences_are_exact():
    # every recorded singular point really lies on all of its lines
    from levicycles.projective import incident, meet

    lines = families.supersolvable_mu3_coordinate_lines(5)
    arr = arrangement_from_lines(lines)
    for fs in arr.point_lines:
        ids = sorted(fs)
        p = meet(lines[ids[0]], lines[ids[1]])
        assert all(incident(p, lines[j]) for j in ids)


# Every a_w_k(m, k, chosen) with 5 <= m <= 8 and chosen sorted.
_AWK_GRID = [
    (m, k, list(chosen))
    for m in range(5, 9)
    for k in range(m - 2)
    for chosen in itertools.combinations(range(m - 2), k)
]
JSON_GRID = {
    "near_pencil": [(k,) for k in range(3, 9)],
    "two_modular": [(a, b) for b in range(3, 8) for a in range(2, b)],
    "generic": [(k,) for k in range(2, 9)],
    "ceva": [(n,) for n in range(3, 9)],
    "supersolvable_mu3": [(m,) for m in range(4, 10)],
    "hesse": [()],
    "nine_three": [()],
    "ten_line": [()],
    "mu4": [()],
    "a_w_k": _AWK_GRID,
    "ceva_coordinate_lines": [(n,) for n in range(2, 9)],
    "mu4_coordinate_lines": [()],
    "nine_three_coordinate_lines": [()],
    "supersolvable_mu3_coordinate_lines": [(m,) for m in range(4, 10)],
    "a_w_k_coordinate_lines": _AWK_GRID,
}
# sha256 of the newline-joined documents over JSON_GRID: arrangement_to_json
# for builders, json.dumps(coordinates_to_payload(...)) for coordinate helpers.
# Pins line and point ids, names and coordinates.
JSON_GOLDEN = {
    "near_pencil": "64df67fee947b4d869dea7626e388b485375544f7a7993c1a3e565651aa70c47",
    "two_modular": "27f047dd4394ec56951ff6e5c7962fcb381c2695a9fd6695be43485ad8523619",
    "generic": "c2dfb775a0ff694542f0973850959692c815ec9624baa7f2931e1388a964d13d",
    "ceva": "1de08cc2f97571d91d3b97c1551df36cf77c21a585b1abc242bae2ef7493623e",
    "supersolvable_mu3": "c64cb2e4e7a2b3e77908b50ecb7c119bf8a54e4af955122a8e0f124951514492",
    "hesse": "3e4d74900b7fc9579c805603ca91c8b81243688c256e0a8e1d4ef8274c9bcd37",
    "nine_three": "7debfac2b160e9b2afde8b45d79d8a3f564bd9bfb74431e5bf8b7a26c60cc49f",
    "ten_line": "0aa9c6e8cc6b8e2fdd0a6341fc5f50c50c8273443ea7e93adde8a4772bb2345d",
    "mu4": "8d2199c6f1d3157a922f11bbaae390dec72c09165d13257f2f6b03df91b2f894",
    "a_w_k": "07a488277df02badfd45c79e55b28e7be90af16c6240e02a007d668a7e2af1a6",
    "ceva_coordinate_lines": "871688b3210395bf868d4ab2cc261e8645cd3e6f477c5cfb28e81781c166919f",
    "mu4_coordinate_lines": "ab64bdce6c586ca3dfe9b8f71ee88892d7305c22dea51041679e2d917e4af443",
    "nine_three_coordinate_lines": "df6a547b2ffb8966ed6a271c93e8b6a253ea7a8abcb2d0523a4c7b2d18e7cd2e",
    "supersolvable_mu3_coordinate_lines": "1c196678726db8cd59e94732bbc8522005a3b1e2502f932ea2f7f3c98cb03e20",
    "a_w_k_coordinate_lines": "9f0326b432a254687baa943ac9a3731bc51de71bbd4ac9d92353884dfab8ef3a",
}


@pytest.mark.parametrize("name", sorted(JSON_GOLDEN))
def test_builder_json_golden(name):
    docs = []
    for args in JSON_GRID[name]:
        out = quiet(getattr(families, name), *args)
        if name.endswith("_coordinate_lines"):
            docs.append(json.dumps(coordinates_to_payload(out)))
        else:
            docs.append(arrangement_to_json(out))
    assert hashlib.sha256("\n".join(docs).encode()).hexdigest() == JSON_GOLDEN[name]
