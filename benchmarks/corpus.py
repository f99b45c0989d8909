"""Inputs and reference answers for the levicycles benchmark.

Every arrangement the benchmark times is built here from a family spec and,
where the workload asks for it, relabeled with a seeded random permutation
of its line ids.  Relabeling keeps every spectrum and verdict but changes
the solver's search order, so node counts are fixed for one seed and move
by several per cent between seeds (``absent_spectrum``: 0.98 to 1.14 M
nodes per pass over seeds 0 to 9 and 100 to 109).

Point ids keep the builder's order.  Permuting them as well makes node
counts heavy-tailed: over seeds 0 to 9, ``spectrum(supersolvable_mu3(7))``
ranged from 0.46 M to 2.47 M nodes and ``spectrum(a_w_k(7, 3))`` from 14 k
to 0.82 M, because the time to the first witness of a *found* length
depends on the order in which points are tried.  A run holds a handful of
passes, so such a benchmark would measure the luck of the permutation, not
the program.

The frozen answers below were computed with the builders at their own
labels.  They are invariant under relabeling.  ``nine_three`` and
``ten_line`` have no frozen answers on purpose: their builders may be
corrected later, so they are checked only against the brute-force oracle.
"""

from __future__ import annotations

import copy
import json
import random
import warnings

import levicycles as lc

# Found lengths i (cycle length 2i) of the coordinate-realized families.
FROZEN_FOUND = {
    "ceva(3)": (3, 4, 6),
    "ceva(4)": (3, 4, 5, 6, 7, 8),
    "ceva(5)": (3, 4, 5, 6, 7, 8, 9, 10, 11),
    "ceva(6)": (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13),
    "supersolvable_mu3(5)": (3, 4, 5, 6, 8, 9),
    "supersolvable_mu3(6)": (3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
    "supersolvable_mu3(7)": (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14),
    "a_w_k(5,0)": (3, 4, 6, 8),
    "a_w_k(5,1)": (3, 4, 5, 6, 8),
    "a_w_k(6,2)": (3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
    "a_w_k(7,3)": (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14),
    "hesse": (3, 4, 5, 6),
    "mu4": (3, 4),
}

# all_checkers verdicts, keyed by arrangement and then by claim id.
_CHECKERS = ("c6", "c8", "c10", "t3-bounds", "tq-bounds", "no-2k-supersolvable")
_C, _R, _N = "Confirmed", "Refuted", "NotApplicable"
FROZEN_VERDICTS = {
    name: dict(zip(_CHECKERS, verdicts))
    for name, verdicts in {
        "near_pencil(4)": (_C, _N, _N, _C, _R, _C),
        "near_pencil(5)": (_C, _N, _N, _N, _C, _C),
        "near_pencil(6)": (_C, _N, _N, _N, _C, _C),
        "near_pencil(7)": (_C, _N, _N, _N, _C, _C),
        "near_pencil(8)": (_C, _N, _N, _N, _C, _C),
        "two_modular(2,3)": (_C, _N, _N, _C, _R, _C),
        "two_modular(3,4)": (_C, _C, _N, _N, _C, _C),
        "two_modular(5,6)": (_C, _C, _C, _N, _C, _C),
        "generic(3)": (_C, _N, _N, _N, _N, _R),
        "generic(4)": (_C, _C, _N, _N, _N, _N),
        "generic(5)": (_C, _C, _N, _N, _N, _N),
        "ceva(3)": (_C, _C, _N, _C, _C, _N),
        "mu4": (_C, _C, _N, _C, _C, _C),
        "a_w_k(5,0)": (_C, _C, _N, _N, _C, _C),
        "a_w_k(5,1)": (_C, _C, _R, _N, _C, _C),
        "hesse": (_C, _C, _N, _N, _C, _N),
        "ceva(4)": (_C, _C, _N, _N, _C, _N),
        "ceva(5)": (_C, _C, _N, _N, _C, _N),
        "supersolvable_mu3(5)": (_C, _C, _N, _N, _C, _C),
        "supersolvable_mu3(6)": (_C, _C, _N, _N, _C, _C),
        "a_w_k(6,2)": (_C, _C, _N, _N, _C, _C),
    }.items()
}

# Named claims: (claim id, parameters, the family it is about, frozen
# verdict).  None marks an oracle-only claim.
NAMED_CLAIMS = (
    ("ceva-range", {"n": 4}, ("ceva", (4,)), _R),
    ("ceva-range", {"n": 5}, ("ceva", (5,)), _C),
    ("ceva-range", {"n": 6}, ("ceva", (6,)), _C),
    ("mu3-range", {"m": 5}, ("supersolvable_mu3", (5,)), _R),
    ("mu3-range", {"m": 6}, ("supersolvable_mu3", (6,)), _C),
    ("awk-max", {"m": 6, "k": 2}, ("a_w_k", (6, 2)), _C),
    ("awk-max", {"m": 7, "k": 3}, ("a_w_k", (7, 3)), _C),
    ("nine-three-longest", {}, ("nine_three", ()), None),
    ("ten-line-longest", {}, ("ten_line", ()), None),
    ("hesse-longest", {}, ("hesse", ()), _C),
    ("mu4-longest", {}, ("mu4", ()), _C),
)

SMALL_POOL = (
    ("near_pencil", (4,)),
    ("near_pencil", (5,)),
    ("near_pencil", (6,)),
    ("near_pencil", (7,)),
    ("near_pencil", (8,)),
    ("two_modular", (2, 3)),
    ("two_modular", (3, 4)),
    ("two_modular", (5, 6)),
    ("generic", (3,)),
    ("generic", (4,)),
    ("generic", (5,)),
    ("ceva", (3,)),
    ("nine_three", ()),
    ("ten_line", ()),
    ("mu4", ()),
    ("a_w_k", (5, 0)),
    ("a_w_k", (5, 1)),
)
FULL_POOL = SMALL_POOL + (
    ("hesse", ()),
    ("ceva", (4,)),
    ("ceva", (5,)),
    ("supersolvable_mu3", (5,)),
    ("supersolvable_mu3", (6,)),
    ("a_w_k", (6, 2)),
)

# Families with exact coordinate realizations timed by claims_coords.
COORDINATE_FAMILIES = tuple(("ceva", (n,)) for n in range(3, 8)) + tuple(
    ("supersolvable_mu3", (m,)) for m in range(4, 8)
) + (("a_w_k", (7, 3)), ("mu4", ()))


def label(spec) -> str:
    family, args = spec
    return f"{family}({','.join(map(str, args))})" if args else family


def build(spec) -> lc.Arrangement:
    family, args = spec
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ceva(3) warns about its triple points
        return getattr(lc.families, family)(*args)


def coordinate_lines(spec):
    family, args = spec
    return getattr(lc.families, f"{family}_coordinate_lines")(*args)


def realized(spec) -> lc.Arrangement:
    """The builder's arrangement carrying its exact coordinates."""
    return lc.arrangement_from_lines(coordinate_lines(spec))


def relabel(arr: lc.Arrangement, rng: random.Random) -> lc.Arrangement:
    """A seeded permutation of the line ids; point ids are kept."""
    lines = list(range(arr.k))
    rng.shuffle(lines)
    return lc.relabeled(arr, lines, list(range(arr.s)))


# Malformed inputs for cli_small, after the input-hardening list in ROADMAP
# item 5.  Each is (name, subcommand argv with {doc} for the document path,
# document mutation or None).  A clean rejection is exit 2 with an
# ``error:`` line and no traceback.
def _set_point_lines(doc):
    doc["points"][0]["lines"] = 5


def _set_line_names(doc):
    doc["line_names"] = 7


def _bad_scalar(doc):
    doc["coordinates"]["lines"][0][1] = "1+*x"


def _zero_triple(doc):
    doc["coordinates"]["lines"][0] = ["0", "0", "0"]


def _bad_field(doc):
    doc["coordinates"]["field"] = "q"


def _bool_k(doc):
    # A lone line has no points, so nothing else in the document is wrong.
    doc.clear()
    doc.update({"k": True, "points": []})


HOSTILE = (
    ("lines-int", ["stats", "{doc}"], _set_point_lines),
    ("line-names-int", ["levi", "{doc}", "--json"], _set_line_names),
    ("bad-scalar", ["cycles", "{doc}", "--exists", "3"], _bad_scalar),
    ("zero-triple", ["verify", "{doc}", "--all"], _zero_triple),
    ("field-string", ["oracle-check", "{doc}"], _bad_field),
    ("k-bool", ["stats", "{doc}"], _bool_k),
    ("budget-negative", ["cycles", "{doc}", "--exists", "3", "--budget", "-1"], None),
    ("spectrum-negative", ["cycles", "{doc}", "--spectrum", "-5"], None),
)
# The well-formed control document; it must succeed.
CONTROL = ("control", ["stats", "{doc}"], None)


def hostile_documents(base_json: str):
    """(name, argv template, document text) for the hostile slice and control."""
    base = json.loads(base_json)
    out = []
    for name, argv, mutate in HOSTILE + (CONTROL,):
        doc = copy.deepcopy(base)
        if mutate is not None:
            mutate(doc)
        out.append((name, argv, json.dumps(doc)))
    return out
