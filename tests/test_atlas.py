"""Certified longest induced cycles of the Ceva and supersolvable families.

Each value is the exhaustive answer of ``longest_cycle`` (the cycle has
length 2i): every longer length was proved absent, and the witness found
at i is checked by ``validate_witness``.  All of them lie above the
oracle's vertex cap, so nothing else in the suite freezes them.
"""

import pytest

from levicycles import families
from levicycles.cycles import FOUND, longest_cycle, validate_witness

ATLAS = [
    *[(f"ceva({n})", lambda n=n: families.ceva(n), i) for n, i in zip(range(3, 8), (6, 8, 11, 13, 16))],
    *[(f"supersolvable_mu3({m})", lambda m=m: families.supersolvable_mu3(m), i)
      for m, i in zip(range(4, 10), (6, 9, 12, 14, 18, 21))],
]
# These take about 4, 25 and 45 s (2-core x86-64 VM, Python 3.11), so they
# run only under ``-m slow``.
SLOW_ATLAS = [
    ("ceva(8)", lambda: families.ceva(8), 19),
    ("ceva(9)", lambda: families.ceva(9), 22),
    ("supersolvable_mu3(10)", lambda: families.supersolvable_mu3(10), 23),
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
