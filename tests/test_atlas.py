"""Certified longest induced cycles of the Ceva, supersolvable and A(w, k) families.

Each value is the exhaustive answer of ``longest_cycle`` (the cycle has
length 2i): every longer length was proved absent, and the witness found
at i is checked by ``validate_witness``.  Where the Levi graph has at
most the oracle's 40 vertices, the brute-force oracle must find the same
longest length; every other value lies above that cap, so nothing else in
the suite freezes it.
"""

import pytest

from levicycles import families
from levicycles.cycles import FOUND, InducedCycleWitness, longest_cycle, validate_witness
from levicycles.levi import build_levi
from levicycles.oracle import DEFAULT_VERTEX_CAP, oracle_longest_induced_cycle
from levicycles.projective import arrangement_from_lines, incident, meet

from conftest import levi_networkx

ATLAS = [
    *[(f"ceva({n})", lambda n=n: families.ceva(n), i) for n, i in zip(range(3, 8), (6, 8, 11, 13, 16))],
    *[(f"supersolvable_mu3({m})", lambda m=m: families.supersolvable_mu3(m), i)
      for m, i in zip(range(4, 10), (6, 9, 12, 14, 18, 21))],
    *[(f"a_w_k(8,{k})", lambda k=k: families.a_w_k(8, k), i) for k, i in zip(range(5), (14, 14, 16, 16, 17))],
    *[(f"a_w_k({m},{k})", lambda m=m, k=k: families.a_w_k(m, k), i)
      for m, k, i in ((5, 0, 8), (5, 1, 8), (5, 2, 9), (6, 0, 10), (6, 1, 10), (6, 2, 12), (6, 3, 12),
                      (7, 0, 12), (7, 1, 12), (7, 2, 14), (7, 3, 14), (7, 4, 14), (8, 5, 18),
                      (9, 0, 16), (9, 2, 18), (9, 5, 20), (9, 6, 21),
                      (10, 0, 18), (10, 2, 20), (10, 6, 23), (11, 0, 20), (11, 2, 22))],
]
# These take about 4, 25, 45, 3, 23, 15 and 4 s (2-core x86-64 VM, Python
# 3.11), so they run only under ``-m slow``.
SLOW_ATLAS = [
    ("ceva(8)", lambda: families.ceva(8), 19),
    ("ceva(9)", lambda: families.ceva(9), 22),
    ("supersolvable_mu3(10)", lambda: families.supersolvable_mu3(10), 23),
    ("a_w_k(9,4)", lambda: families.a_w_k(9, 4), 19),
    ("a_w_k(9,1)", lambda: families.a_w_k(9, 1), 16),
    ("a_w_k(9,3)", lambda: families.a_w_k(9, 3), 18),
    ("a_w_k(10,7)", lambda: families.a_w_k(10, 7), 23),
]


@pytest.mark.filterwarnings(r"ignore:ceva\(3\)")  # the builder warns that its n-fold points are triple points
@pytest.mark.parametrize("name,make,i", [
    *[pytest.param(*case, id=case[0]) for case in ATLAS],
    *[pytest.param(*case, id=case[0], marks=pytest.mark.slow) for case in SLOW_ATLAS],
])
def test_certified_longest_cycle(name, make, i):
    arr = make()
    res = longest_cycle(arr)
    assert (res.status, res.i) == (FOUND, i), name
    assert len(res.witness.lines) == i
    assert validate_witness(arr, res.witness).passed
    if arr.k + arr.s <= DEFAULT_VERTEX_CAP:
        assert oracle_longest_induced_cycle(levi_networkx(build_levi(arr))) == 2 * i


def test_a_w_k_8_4_witness_holds_in_the_exact_coordinates():
    # The 34-cycle that refutes the claimed maximum 4m = 32 of A(w, k) at
    # m = 8, k = 4, read in the arrangement that the exact coordinate lines
    # realise: lines keep their ids there, points are matched by their lines.
    arr = families.a_w_k(8, 4)
    witness = longest_cycle(arr).witness
    lines = families.a_w_k_coordinate_lines(8, 4)
    rebuilt = arrangement_from_lines(lines)
    assert set(rebuilt.point_lines) == set(arr.point_lines)
    ids = {fs: p for p, fs in enumerate(rebuilt.point_lines)}
    moved = InducedCycleWitness(witness.lines, tuple(ids[arr.point_lines[p]] for p in witness.points))
    assert len(moved.lines) == 17 and validate_witness(rebuilt, moved).passed
    # Each meet of neighbouring cycle lines lies on no other cycle line.
    for t, here in enumerate(witness.lines):
        after = witness.lines[(t + 1) % 17]
        point = meet(lines[here], lines[after])
        assert {j for j in witness.lines if incident(point, lines[j])} == {here, after}
