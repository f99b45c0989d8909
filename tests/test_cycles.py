import random

import pytest

from levicycles import families
from levicycles.arrangement import ArrangementError, Arrangement, modular_points, relabeled
from levicycles.cycles import (
    ABSENT,
    FOUND,
    NO_INDUCED_CYCLE,
    UNKNOWN,
    BadLength,
    InducedCycleWitness,
    exists_cycle,
    longest_cycle,
    spectrum,
    validate_witness,
)

from conftest import cyclic_nine_three


def pt(arr, *lines):
    """The unique point lying on all the given lines (1-based labels)."""
    want = {j - 1 for j in lines}
    matches = [p for p, fs in enumerate(arr.point_lines) if want <= fs]
    assert len(matches) == 1, f"lines {lines} meet in {len(matches)} points"
    return matches[0]


def witness(arr, line_labels):
    """Build the alternating witness for a 1-based line sequence."""
    lines = tuple(j - 1 for j in line_labels)
    n = len(line_labels)
    points = tuple(
        pt(arr, line_labels[t], line_labels[(t + 1) % n]) for t in range(n)
    )
    return InducedCycleWitness(lines, points)


# -- witness mechanics


def test_witness_length_and_json_roundtrip():
    w = InducedCycleWitness((0, 1, 2), (0, 1, 2))
    assert w.length == 6
    assert InducedCycleWitness.from_json(w.to_json()) == w
    assert InducedCycleWitness.from_json(w.to_json(indent=2)) == w


@pytest.mark.parametrize(
    "text",
    [
        "nope",
        "[]",
        '{"lines": [0, 1, 2]}',
        '{"points": [0, 1, 2]}',
        '{"lines": 5, "points": []}',
        pytest.param("[" * 100000, id="deeply-nested"),
    ],
)
def test_witness_from_json_rejects_malformed(text):
    with pytest.raises(ArrangementError):
        InducedCycleWitness.from_json(text)


def test_canonical_identifies_rotations_and_reflections():
    arr = cyclic_nine_three()
    base = witness(arr, [1, 2, 4, 6])
    rotated = InducedCycleWitness(
        base.lines[1:] + base.lines[:1], base.points[1:] + base.points[:1]
    )
    reflected = InducedCycleWitness(
        base.lines[:1] + base.lines[:0:-1], base.points[::-1]
    )
    assert rotated != base
    assert rotated.canonical() == base.canonical()
    assert reflected.canonical() == base.canonical()
    # all three are genuinely the same cycle
    for w in (base, rotated, reflected):
        assert validate_witness(arr, w).passed


@pytest.mark.parametrize(
    "text,problem",
    [
        ('{"lines": [], "points": []}', "0 lines and 0 points"),
        ('{"lines": [0, 1, 2], "points": [5]}', "3 lines and 1 points"),
        ('{"lines": [0, "a", 2], "points": [1, 2, 3]}', "got 'a'"),
        ('{"lines": [0, 1, 2], "points": [1, true, 3]}', "got True"),
    ],
)
def test_canonical_rejects_malformed_witnesses(text, problem):
    # from_json loads these; canonical() names what is wrong instead of
    # failing an assertion, comparing a string or rotating a bad shape
    w = InducedCycleWitness.from_json(text)
    with pytest.raises(BadLength, match=problem):
        w.canonical()


def test_solver_witnesses_are_canonical():
    arr = cyclic_nine_three()
    r = exists_cycle(arr, 9)
    assert r.status == FOUND
    assert r.witness == r.witness.canonical()
    assert r.witness.lines[0] == min(r.witness.lines)


# -- validate_witness


def test_validate_accepts_handmade_square():
    arr = cyclic_nine_three()
    w = witness(arr, [1, 2, 4, 6])
    report = validate_witness(arr, w)
    assert report.passed
    assert report.checks["levi-agreement"]


def test_validate_shape_failures():
    arr = families.nine_three()
    bad = InducedCycleWitness((0, 1, 2), (0, 1))
    report = validate_witness(arr, bad)
    assert not report.checks["shape"]
    short = InducedCycleWitness((0, 1), (0, 1))
    assert not validate_witness(arr, short).checks["shape"]


def test_validate_range_failures():
    arr = families.mu4()
    assert not validate_witness(
        arr, InducedCycleWitness((0, 1, 99), (0, 1, 2))
    ).checks["range"]
    assert not validate_witness(
        arr, InducedCycleWitness((0, 1, 2), (0, 1, 99))
    ).checks["range"]


def test_validate_rejects_boolean_ids():
    # (0, 1, 2) / (0, 2, 1) is a valid triangle of mu4; true and false must
    # not stand in for line 1 and point 0.
    arr = families.mu4()
    assert validate_witness(arr, InducedCycleWitness((0, 1, 2), (0, 2, 1))).passed
    for w in (InducedCycleWitness((0, True, 2), (0, 2, 1)), InducedCycleWitness((0, 1, 2), (False, 2, 1))):
        report = validate_witness(arr, w)
        assert not report.checks["range"]
        assert not report.passed


def test_validate_distinctness_failure():
    arr = cyclic_nine_three()
    good = witness(arr, [1, 2, 4, 6])
    bad = InducedCycleWitness(good.lines[:3] + good.lines[:1], good.points)
    report = validate_witness(arr, bad)
    assert not report.checks["distinctness"]
    assert "distinctness: repeated line" in report.failures
    bad = InducedCycleWitness(good.lines, good.points[:3] + good.points[:1])
    report = validate_witness(arr, bad)
    assert not report.checks["distinctness"]
    assert "distinctness: repeated point" in report.failures
    assert "distinctness: repeated line" not in report.failures


def test_validate_adjacency_failure():
    arr = cyclic_nine_three()
    good = witness(arr, [1, 2, 4, 6])
    # swap in a point that is not the meet of its neighbor lines
    wrong = pt(arr, 7, 8)
    bad = InducedCycleWitness(good.lines, (wrong,) + good.points[1:])
    report = validate_witness(arr, bad)
    assert not report.checks["adjacency"]
    assert any("adjacency" in f for f in report.failures)


def test_validate_inducedness_failure():
    # L1-L2-L4-L3-L6 closes up, but the L1/L2 meet is a triple point whose
    # third line L3 is also chosen: a chord, so the cycle is not induced
    arr = families.nine_three()
    bad = witness(arr, [1, 2, 4, 3, 6])
    report = validate_witness(arr, bad)
    assert report.checks["adjacency"]
    assert not report.checks["inducedness"]
    assert any("also lies on chosen line" in f for f in report.failures)


def test_validate_accepts_every_solver_witness(small_pool):
    for name, arr in small_pool:
        r = longest_cycle(arr)
        if r.status == FOUND:
            assert validate_witness(arr, r.witness).passed, name


# -- exists_cycle


def test_bad_length_rejected():
    arr = families.mu4()
    with pytest.raises(BadLength):
        exists_cycle(arr, 2)
    with pytest.raises(BadLength):
        exists_cycle(arr, "6")


def test_too_long_is_absent_without_search():
    r = exists_cycle(families.generic(3), 4)
    assert r.status == ABSENT
    assert r.nodes == 0


def test_absent_requires_search_nodes():
    r = exists_cycle(families.nine_three(), 8)
    assert r.status == ABSENT
    assert r.witness is None
    assert r.nodes > 0


def test_budget_zero_reports_unknown():
    r = exists_cycle(families.hesse(), 6, budget=0)
    assert r.status == UNKNOWN
    assert r.witness is None
    lr = longest_cycle(families.hesse(), budget=0)
    assert lr.status == UNKNOWN
    assert lr.i is None and lr.length is None


@pytest.mark.parametrize("budget", [-1, -10**9, "5", 2.5, True])
def test_negative_budget_rejected(budget):
    arr = families.nine_three()
    with pytest.raises(ArrangementError, match="non-negative"):
        exists_cycle(arr, 9, budget=budget)
    with pytest.raises(ArrangementError, match="non-negative"):
        longest_cycle(arr, budget=budget)
    with pytest.raises(ArrangementError, match="non-negative"):
        spectrum(arr, budget=budget)
    # rejected before any early return that would skip the search
    with pytest.raises(ArrangementError, match="non-negative"):
        exists_cycle(families.generic(3), 4, budget=budget)
    with pytest.raises(ArrangementError, match="non-negative"):
        longest_cycle(families.generic(2), budget=budget)


def test_generous_budget_changes_nothing():
    arr = cyclic_nine_three()
    assert exists_cycle(arr, 9, budget=10**9).status == FOUND
    assert exists_cycle(arr, 8, budget=10**9).status == ABSENT


def test_found_results_carry_valid_witness_of_right_length():
    arr = families.two_modular(5, 6)
    for i in (3, 4, 6, 8):
        r = exists_cycle(arr, i)
        assert r.status == FOUND
        assert len(r.witness.lines) == i
        assert r.witness.length == 2 * i
        assert validate_witness(arr, r.witness).passed


# -- frozen spectra for the named families


SPECTRA = [
    ("near_pencil5", lambda: families.near_pencil(5), (3,), 3),
    ("two_modular56", lambda: families.two_modular(5, 6), (3, 4, 6, 8), 8),
    ("mu4", families.mu4, (3, 4), 4),
    ("nine_three", families.nine_three, (3, 4, 5, 6, 7), 7),
    ("ten_line", families.ten_line, tuple(range(3, 10)), 9),
    ("hesse", families.hesse, (3, 4, 5, 6), 6),
    ("ceva4", lambda: families.ceva(4), tuple(range(3, 9)), 8),
    ("ceva5", lambda: families.ceva(5), tuple(range(3, 12)), 11),
    ("mu3_5", lambda: families.supersolvable_mu3(5), (3, 4, 5, 6, 8, 9), 9),
    ("mu3_6", lambda: families.supersolvable_mu3(6), tuple(range(3, 13)), 12),
    ("awk62", lambda: families.a_w_k(6, 2), tuple(range(3, 13)), 12),
]


@pytest.mark.parametrize("name,make,found,longest_i", SPECTRA, ids=[s[0] for s in SPECTRA])
def test_frozen_spectra(name, make, found, longest_i):
    arr = make()
    spec = spectrum(arr)
    assert spec.found == found
    assert spec.longest == longest_i
    assert set(spec.results) == set(range(3, min(arr.k, arr.s) + 1))
    for i, r in spec.results.items():
        assert r.status == (FOUND if i in found else ABSENT)
        if r.status == FOUND:
            assert validate_witness(arr, r.witness).passed


def _shuffled(arr, rng):
    """arr with its lines, then its points, relabeled by rng's shuffles."""
    lperm, pperm = list(range(arr.k)), list(range(arr.s))
    rng.shuffle(lperm)
    rng.shuffle(pperm)
    return relabeled(arr, lperm, pperm)


# Unbudgeted serial node totals are deterministic and machine-independent,
# so they are the regression gate for solver changes: a pruning rewrite must
# keep them, the found sets and the witnesses, the plan's first finds in
# canonical form, exactly.
GOLDEN = [
    (
        "hesse", families.hesse, 854, 845,
        {
            3: ((0, 1, 3), (9, 3, 0)),
            4: ((0, 3, 1, 4), (0, 3, 4, 1)),
            5: ((0, 2, 4, 1, 3), (10, 7, 4, 3, 0)),
            6: ((0, 3, 1, 4, 2, 5), (0, 3, 4, 7, 8, 2)),
        },
    ),
    (
        "ceva4", lambda: families.ceva(4), 401, 379,
        {
            3: ((0, 1, 4), (16, 4, 0)),
            4: ((0, 4, 1, 7), (0, 4, 3, 15)),
            5: ((0, 4, 1, 7, 10), (0, 4, 3, 11, 10)),
            6: ((0, 4, 1, 7, 2, 6), (0, 4, 3, 7, 2, 10)),
            7: ((0, 4, 1, 7, 2, 11, 10), (0, 4, 3, 7, 13, 18, 10)),
            8: ((0, 4, 1, 7, 2, 6, 3, 5), (0, 4, 3, 7, 2, 6, 1, 5)),
        },
    ),
    (
        "mu3_5", lambda: families.supersolvable_mu3(5), 750, 349,
        {
            3: ((0, 1, 3), (9, 3, 0)),
            4: ((0, 3, 1, 5), (0, 3, 2, 8)),
            5: ((0, 3, 1, 8, 11), (0, 3, 7, 11, 12)),
            6: ((0, 3, 1, 5, 2, 4), (0, 3, 2, 5, 1, 4)),
            8: ((0, 3, 1, 5, 2, 4, 9, 11), (0, 3, 2, 5, 1, 16, 11, 12)),
            9: (
                (0, 3, 9, 4, 8, 10, 7, 2, 11),
                (0, 15, 16, 7, 20, 19, 5, 14, 12),
            ),
        },
    ),
    (
        "nine_three", cyclic_nine_three, 173, 14,
        {
            3: ((0, 1, 3), (0, 3, 9)),
            4: ((0, 1, 3, 7), (0, 3, 5, 2)),
            5: ((0, 1, 3, 7, 4), (0, 3, 5, 16, 1)),
            6: ((0, 1, 7, 3, 4, 6), (0, 4, 5, 7, 6, 10)),
            7: ((0, 1, 4, 6, 8, 3, 7), (0, 11, 6, 8, 15, 5, 2)),
            9: (
                (0, 3, 8, 2, 5, 1, 4, 7, 6),
                (9, 15, 14, 13, 12, 11, 16, 17, 10),
            ),
        },
    ),
    (
        "awk62", lambda: families.a_w_k(6, 2), 643, 70,
        {
            3: ((0, 1, 2), (0, 2, 1)),
            4: ((0, 1, 11, 7), (0, 2, 3, 1)),
            5: ((0, 3, 11, 12, 7), (0, 5, 2, 4, 1)),
            6: ((0, 1, 7, 11, 8, 12), (0, 23, 3, 5, 6, 28)),
            7: ((0, 11, 6, 9, 1, 10, 12), (27, 3, 16, 25, 26, 10, 28)),
            8: (
                (0, 11, 6, 9, 5, 8, 4, 12),
                (27, 3, 16, 15, 14, 13, 10, 28),
            ),
            9: (
                (0, 11, 6, 9, 5, 8, 1, 10, 12),
                (27, 3, 16, 15, 14, 24, 26, 10, 28),
            ),
            10: (
                (0, 11, 6, 9, 1, 8, 4, 2, 5, 12),
                (27, 3, 16, 25, 24, 13, 20, 21, 4, 28),
            ),
            11: (
                (0, 11, 6, 9, 1, 8, 5, 2, 3, 10, 12),
                (27, 3, 16, 25, 24, 14, 21, 19, 18, 10, 28),
            ),
            12: (
                (0, 11, 6, 9, 1, 10, 3, 2, 4, 8, 5, 12),
                (27, 3, 16, 25, 26, 18, 19, 20, 13, 14, 4, 28),
            ),
        },
    ),
    (
        "mu3_5_relabeled", lambda: _shuffled(families.supersolvable_mu3(5), random.Random(3)), 695, 276,
        {
            3: ((0, 5, 10), (0, 4, 10)),
            4: ((0, 1, 10, 5), (1, 2, 4, 0)),
            5: ((0, 3, 1, 10, 5), (16, 14, 2, 4, 0)),
            6: ((0, 5, 10, 1, 2, 6), (0, 4, 2, 3, 9, 16)),
            8: ((0, 5, 10, 3, 1, 2, 6, 8), (0, 4, 19, 14, 3, 9, 6, 20)),
            9: ((0, 5, 9, 2, 1, 3, 10, 6, 8), (0, 8, 15, 3, 14, 19, 5, 6, 20)),
        },
    ),
]


@pytest.mark.parametrize(
    "name,make,spectrum_nodes,longest_nodes,witnesses",
    GOLDEN,
    ids=[g[0] for g in GOLDEN],
)
def test_golden_node_counts_and_witnesses(
    name, make, spectrum_nodes, longest_nodes, witnesses
):
    arr = make()
    spec = spectrum(arr)
    assert sum(r.nodes for r in spec.results.values()) == spectrum_nodes
    assert spec.found == tuple(sorted(witnesses))
    got = {i: (r.witness.lines, r.witness.points) for i, r in spec.results.items() if r.witness}
    assert got == witnesses
    lr = longest_cycle(arr)
    assert lr.nodes == longest_nodes
    assert lr.i == max(witnesses)
    assert (lr.witness.lines, lr.witness.points) == witnesses[lr.i]


@pytest.mark.parametrize(
    "make,expect",
    [
        (lambda: families.a_w_k(5, 0), 8),
        (lambda: families.a_w_k(5, 1), 8),
        (lambda: families.a_w_k(6, 0), 10),
        (lambda: families.a_w_k(6, 1), 10),
        (lambda: families.a_w_k(7, 2), 14),
    ],
    ids=["awk50", "awk51", "awk60", "awk61", "awk72"],
)
def test_longest_in_pencil_families(make, expect):
    r = longest_cycle(make())
    assert r.status == FOUND
    assert r.i == expect
    assert r.length == 2 * expect


def test_longest_matches_spectrum(small_pool):
    for name, arr in small_pool:
        r = longest_cycle(arr)
        spec = spectrum(arr)
        if spec.longest is None:
            assert r.status == NO_INDUCED_CYCLE, name
        else:
            assert (r.status, r.i) == (FOUND, spec.longest), name


def test_no_induced_cycle_statuses():
    assert longest_cycle(families.generic(2)).status == NO_INDUCED_CYCLE
    pencil = Arrangement(3, [(0, 1, 2)])
    assert longest_cycle(pencil).status == NO_INDUCED_CYCLE


def test_spectrum_i_max():
    spec = spectrum(families.nine_three(), i_max=5)
    assert sorted(spec.results) == [3, 4, 5]
    assert spec.found == (3, 4, 5)


@pytest.mark.parametrize("i_max", [2, 0, -5])
def test_spectrum_rejects_explicit_i_max_below_three(i_max):
    with pytest.raises(BadLength):
        spectrum(families.nine_three(), i_max=i_max)


def test_spectrum_default_i_max_on_tiny_arrangements_is_empty():
    assert spectrum(families.generic(2)).results == {}
    assert spectrum(Arrangement(3, [(0, 1, 2)])).results == {}


def test_spectrum_json():
    import json

    spec = spectrum(families.mu4())
    doc = json.loads(spec.to_json())
    assert set(doc) == {"3", "4", "5", "6"}
    assert doc["3"]["status"] == FOUND
    assert doc["5"]["status"] == ABSENT
    assert "witness" in doc["4"] and "witness" not in doc["6"]


# -- determinism and invariance


def test_budget_caps_whole_call():
    # one node counter spans every root prefix, so the budget bounds the call
    r = exists_cycle(families.supersolvable_mu3(5), 7, budget=100)
    assert r.status == UNKNOWN
    assert r.nodes == 101


@pytest.mark.parametrize("seed", [7, 8])
def test_relabeling_invariance(seed):
    rng = random.Random(seed)
    arr = families.supersolvable_mu3(5)
    lperm = list(range(arr.k))
    pperm = list(range(arr.s))
    rng.shuffle(lperm)
    rng.shuffle(pperm)
    moved = relabeled(arr, lperm, pperm)
    assert spectrum(moved).found == spectrum(arr).found
    r = longest_cycle(moved)
    assert r.i == 9
    assert validate_witness(moved, r.witness).passed


def test_modular_arrangements_have_no_full_length_cycle(small_pool):
    # with 4+ lines, a modular point obstructs any induced cycle through all
    # k lines; the triangle is the boundary case where the whole Levi graph
    # is itself such a cycle
    for name, arr in small_pool:
        if not modular_points(arr) or arr.s < arr.k:
            continue
        status = exists_cycle(arr, arr.k).status
        assert status == (FOUND if arr.k == 3 else ABSENT), name
