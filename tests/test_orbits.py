"""The orbit step of the cycle search: automorphisms, root plans, parity."""

import logging
import random
from itertools import permutations

import pytest

from levicycles import cycles, families
from levicycles.arrangement import Arrangement, relabeled, validate_arrangement
from levicycles.cycles import ABSENT, FOUND, exists_cycle, spectrum

from conftest import build_full_pool, cyclic_nine_three


def _fresh(arr):
    """A copy of arr with nothing cached by earlier searches."""
    return Arrangement(arr.k, arr.point_lines)


def _shuffled(arr, seed):
    rng = random.Random(seed)
    lperm, pperm = list(range(arr.k)), list(range(arr.s))
    rng.shuffle(lperm)
    rng.shuffle(pperm)
    return relabeled(arr, lperm, pperm)


def _answers(spec):
    """Everything a spectrum answers except node counts."""
    return {i: (r.status, r.witness) for i, r in spec.results.items()}


def _line_orbits(arr, gens):
    return cycles._orbits(range(arr.k), [(j, g[j]) for g in gens for j in range(arr.k)])


def _brute_force(arr):
    """Line orbits and, per line, stabiliser point orbits, from all k! line permutations."""
    index = {lines: p for p, lines in enumerate(arr.point_lines)}
    auts = []
    for perm in permutations(range(arr.k)):
        image = [frozenset(perm[j] for j in lines) for lines in arr.point_lines]
        if all(lines in index for lines in image):
            auts.append((perm, [index[lines] for lines in image]))
    line_moves = [(j, perm[j]) for perm, _ in auts for j in range(arr.k)]
    stabiliser = {
        r: cycles._orbits(
            sorted(arr.line_points[r]),
            [(p, pmap[p]) for perm, pmap in auts if perm[r] == r for p in arr.line_points[r]],
        )
        for r in range(arr.k)
    }
    return len(auts), cycles._orbits(range(arr.k), line_moves), stabiliser


def _group_order(arr, gens):
    """Size of the group the generators' line maps generate (closure by search)."""
    seen = {tuple(range(arr.k))}
    frontier = list(seen)
    while frontier:
        frontier = [
            image
            for perm in frontier
            for g in gens
            if (image := tuple(g[j] for j in perm)) not in seen and not seen.add(image)
        ]
    return len(seen)


SMALL = [(name, arr) for name, arr in build_full_pool() if arr.k <= 8]


@pytest.mark.parametrize("name,arr", SMALL, ids=[name for name, _ in SMALL])
def test_orbits_match_brute_force(name, arr):
    gens = cycles._automorphisms(arr)
    assert all(cycles._is_automorphism(arr, g) for g in gens)
    order, line_orbits, stabiliser = _brute_force(arr)
    # With every line pair meeting once, a line map fixes the point map, so
    # the line maps the generators produce are the whole group.
    assert _group_order(arr, gens) == order
    assert _line_orbits(arr, gens) == line_orbits
    for r in range(arr.k):
        assert cycles._stabiliser_point_orbits(arr, gens, r) == stabiliser[r], r


def test_orbit_plan_takes_one_root_per_line_orbit():
    arr = families.ceva(6)  # line-transitive; line 0 has six triple points and a 6-fold point
    plan = cycles._orbit_plan(arr)
    assert [r for r, _, _ in plan] == [0]
    r, allowed, firsts = plan[0]
    assert allowed == ((1 << arr.k) - 1) & ~1
    # The triple points form one orbit, whose least point 0 is the first
    # root prefix every search takes before the plan.  The 6-fold point 36
    # can close only a cycle whose first point is a triple point, so no
    # line is left to close from it.
    assert firsts == ((36, 0),)


# -- soundness of the generators


def test_wrong_automorphism_is_rejected(monkeypatch):
    arr = families.supersolvable_mu3(5)
    gens = cycles._automorphisms(arr)
    n = arr.k + arr.s
    orbits = _line_orbits(arr, gens)
    assert len(orbits) >= 2
    # Swap two lines of different orbits and fix everything else: a
    # bijection of lines and of points that breaks incidences.
    a, b = orbits[0][0], orbits[1][0]
    wrong = list(range(n))
    wrong[a], wrong[b] = b, a
    assert not cycles._is_automorphism(arr, wrong)
    assert not cycles._is_automorphism(arr, [0] * n)  # not a bijection
    assert not cycles._is_automorphism(arr, list(range(n))[::-1])  # lines to points
    assert not cycles._is_automorphism(arr, list(range(n - 1)))  # too short
    assert cycles._is_automorphism(arr, list(range(n)))
    # Used, the wrong map would join two line orbits that are not symmetric.
    assert len(_line_orbits(arr, gens + [wrong])) < len(orbits)

    expected_plan = cycles._orbit_plan(arr)
    expected = _answers(spectrum(_fresh(arr)))
    real = cycles._automorphisms
    monkeypatch.setattr(cycles, "_automorphisms", lambda x: [wrong] + real(x))
    assert cycles._orbit_plan(arr) == expected_plan
    assert _answers(spectrum(_fresh(arr))) == expected


# -- laziness and the work cap


def test_orbits_are_computed_lazily(monkeypatch):
    calls = []
    real = cycles._automorphisms
    monkeypatch.setattr(cycles, "_automorphisms", lambda x: calls.append(x) or real(x))
    arr = families.ceva(5)
    r = exists_cycle(arr, 3)  # found under line 0 and its first point
    assert (r.status, r.witness.lines[:1], r.witness.points[0]) == (FOUND, (0,), min(arr.line_points[0]))
    assert exists_cycle(arr, arr.k + 1).nodes == 0  # i > min(k, s): absent by counting
    assert calls == []
    assert arr._symmetry.plan is cycles._PENDING
    spec = spectrum(arr)
    assert spec.results[13].status == ABSENT
    assert calls == [arr]  # once per arrangement, however many lengths need it


@pytest.mark.parametrize("cap", [0, 1000, 1500])
def test_capped_orbit_search_keeps_answers(monkeypatch, cap):
    # At cap 0 no generator is found and the canonical plan runs alone; the
    # others stop with a proper subset of the generators, a subgroup.
    makers = [families.hesse, lambda: families.ceva(4), lambda: families.supersolvable_mu3(5), lambda: families.a_w_k(6, 2)]
    expected = [_answers(spectrum(make())) for make in makers]
    full = [len(cycles._automorphisms(make())) for make in makers]
    monkeypatch.setattr(cycles, "_AUT_CAP", cap)
    for make, want, gens in zip(makers, expected, full):
        arr = make()
        assert len(cycles._automorphisms(arr)) < gens
        assert _answers(spectrum(arr)) == want


# -- parity of the two plans


POOL = build_full_pool()


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_orbit_plan_statuses_match_canonical_plan(monkeypatch, seed):
    pool = [(name, arr if seed is None else _shuffled(arr, seed)) for name, arr in POOL]
    with_orbits = {name: _answers(spectrum(_fresh(arr))) for name, arr in pool}
    monkeypatch.setattr(cycles, "_orbit_plan", lambda arr: None)  # the canonical plan alone
    for name, arr in pool:
        assert _answers(spectrum(_fresh(arr))) == with_orbits[name], name


# Spectra of arrangements whose line pairs do not all meet once, from the
# search before the orbit plan and the closing-line mask: found lengths with
# their witnesses; every other length up to min(k, s) is absent.
def _broken():
    ceva, hesse, nine = families.ceva(4), families.hesse(), cyclic_nine_three()
    return [
        ("ceva4-minus-point", Arrangement(ceva.k, ceva.point_lines[1:]), {
            3: ((0, 5, 10), (4, 8, 9)),
            4: ((0, 5, 3, 6), (4, 0, 5, 9)),
            5: ((0, 5, 3, 6, 11), (4, 0, 5, 13, 14)),
            6: ((0, 5, 3, 6, 2, 7), (4, 0, 5, 1, 6, 14)),
            7: ((0, 5, 3, 6, 2, 10, 11), (4, 0, 5, 1, 7, 17, 14)),
            8: ((0, 5, 3, 6, 2, 4, 1, 7), (4, 0, 5, 1, 7, 3, 2, 14)),
        }),
        ("hesse-minus-point", Arrangement(hesse.k, hesse.point_lines[:-1]), {
            3: ((0, 3, 10), (0, 3, 2)),
            4: ((0, 3, 1, 4), (0, 3, 4, 1)),
            5: ((0, 3, 1, 4, 5), (0, 3, 4, 14, 2)),
            6: ((0, 3, 1, 4, 2, 5), (0, 3, 4, 7, 8, 2)),
        }),
        ("nine-extra-double", Arrangement(nine.k, nine.point_lines + (frozenset({0, 1}),)), {
            3: ((0, 1, 3), (0, 3, 9)),
            4: ((0, 1, 3, 7), (0, 3, 5, 2)),
            5: ((0, 1, 3, 7, 4), (0, 3, 5, 16, 1)),
            6: ((0, 1, 7, 3, 4, 6), (0, 4, 5, 7, 6, 10)),
            7: ((0, 1, 4, 6, 8, 3, 7), (0, 11, 6, 8, 15, 5, 2)),
            9: ((0, 3, 8, 2, 5, 1, 4, 7, 6), (9, 15, 14, 13, 12, 11, 16, 17, 10)),
        }),
    ]


@pytest.mark.parametrize("name,arr,found", _broken(), ids=[b[0] for b in _broken()])
def test_broken_pair_coverage_runs_canonical_plan_only(monkeypatch, name, arr, found):
    assert not validate_arrangement(arr).checks["pair-coverage"]
    monkeypatch.setattr(cycles, "_automorphisms", lambda x: pytest.fail("orbits computed"))
    spec = spectrum(arr)
    assert {i: (r.witness.lines, r.witness.points) for i, r in spec.results.items() if r.status == FOUND} == found
    assert all(r.status == ABSENT for i, r in spec.results.items() if i not in found)
    assert not arr._symmetry.covered


# -- progress logging


def test_progress_is_logged_at_debug_level(caplog):
    caplog.set_level(logging.DEBUG, logger="levicycles.cycles")
    arr = families.ceva(4)
    r = exists_cycle(arr, 9)
    assert r.status == ABSENT
    messages = [rec.getMessage() for rec in caplog.records if rec.name == "levicycles.cycles"]
    assert messages[0].startswith("i=9 first prefix: root line 0, 1 first points exhausted, ")
    roots = [m for m in messages if m.startswith("i=9 orbit plan: root line ")]
    assert len(roots) == len(arr._symmetry.plan)
    assert messages[-1] == f"i=9 settled: absent after {r.nodes} nodes"
    assert len(messages) == 2 + len(roots)
