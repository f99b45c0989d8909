"""Executable verdicts for structural claims about induced cycles.

Each checker evaluates its hypotheses directly on incidence data, runs the
exhaustive induced-cycle solver for the conclusion, and packages the outcome
as a :class:`ClaimReport`.  Every solver call goes through one wrapper
(``_Session.solve``), which totals the nodes of the report, and every claim
about a set of lengths goes through one rule (:func:`_lengths_claim`):

* ``NotApplicable``: a hypothesis failed; the conclusion is not tested.
* ``Refuted``: an exhaustive answer contradicts the conclusion -- an absent
  length for an existence claim, a validated witness for an absence claim.
  The report carries that certificate.
* ``Unknown``: nothing refutes, but some length hit the node budget.
* ``Confirmed``: every length was settled the way the claim says.

The longest-cycle claims compare the exhaustive maximum with the claimed
value, and ``c10`` tests each matching case of its case analysis against one
exhaustive answer; both degrade to ``Unknown`` when the budget runs out.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

from .arrangement import (
    Arrangement,
    ArrangementError,
    modular_points,
    multiplicity_profile,
)
from .cycles import (
    ABSENT,
    FOUND,
    NO_INDUCED_CYCLE,
    UNKNOWN,
    InducedCycleWitness,
    _check_budget,
    exists_cycle,
    longest_cycle,
)
from . import families

__all__ = [
    "CONFIRMED",
    "REFUTED",
    "NOT_APPLICABLE",
    "VERDICT_UNKNOWN",
    "NAMED_CLAIMS",
    "UnknownClaim",
    "Hypothesis",
    "ClaimReport",
    "verify_c6",
    "verify_c8",
    "verify_c10",
    "verify_t3_bounds",
    "verify_tq_bounds",
    "verify_no_2k_supersolvable",
    "verify_named_claim",
    "all_checkers",
]

CONFIRMED = "Confirmed"
REFUTED = "Refuted"
NOT_APPLICABLE = "NotApplicable"
VERDICT_UNKNOWN = "Unknown"


class UnknownClaim(ArrangementError):
    """Named claim id is not one of the registered claims."""


@dataclass(frozen=True)
class Hypothesis:
    name: str
    holds: bool
    evidence: str


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of checking one claim on one arrangement."""

    claim: str
    hypotheses: tuple[Hypothesis, ...]
    verdict: str
    witnesses: tuple[InducedCycleWitness, ...] = ()
    notes: tuple[str, ...] = ()
    nodes: int = 0
    budget: int | None = None
    wall_time: float = 0.0

    @property
    def applicable(self) -> bool:
        return all(h.holds for h in self.hypotheses)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(asdict(self), indent=indent)

    def summary(self) -> str:
        lines = [f"{self.claim}: {self.verdict}"]
        for h in self.hypotheses:
            mark = "+" if h.holds else "-"
            lines.append(f"  [{mark}] {h.name} ({h.evidence})")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.witnesses:
            w = max(self.witnesses, key=lambda w: w.length)
            lines.append(f"  witness (length {w.length}): lines={list(w.lines)} points={list(w.points)}")
        return "\n".join(lines)


class _Session:
    """Runs the solver calls of one report under its budget and totals their nodes."""

    def __init__(self, claim: str, budget: int | None) -> None:
        _check_budget(budget)
        self.claim = claim
        self.budget = budget
        self.nodes = 0
        self.started = time.perf_counter()

    def solve(self, search, arr: Arrangement, *args):
        """``search(arr, *args, budget=...)``: exists_cycle or longest_cycle."""
        res = search(arr, *args, budget=self.budget)
        self.nodes += res.nodes
        return res

    def report(
        self,
        hypotheses: tuple[Hypothesis, ...],
        verdict: str,
        witnesses: tuple[InducedCycleWitness, ...] = (),
        notes: tuple[str, ...] = (),
    ) -> ClaimReport:
        return ClaimReport(
            claim=self.claim,
            hypotheses=hypotheses,
            verdict=verdict,
            witnesses=witnesses,
            notes=notes,
            nodes=self.nodes,
            budget=self.budget,
            wall_time=time.perf_counter() - self.started,
        )


def _profile_evidence(arr: Arrangement) -> str:
    nz = multiplicity_profile(arr).t
    if not nz:
        return "no intersection points"
    return ", ".join(f"t_{r} = {c}" for r, c in nz.items())


def _lengths_note(template: str, lengths: list[int]) -> tuple[str, ...]:
    return (template.format(", ".join(map(str, lengths))),) if lengths else ()


def _lengths_claim(
    session: _Session,
    hyps: tuple[Hypothesis, ...],
    arr: Arrangement,
    lengths: range | list[int],
    notes: tuple[str, ...] = (),
    exist: bool = True,
) -> ClaimReport:
    """
    The hypotheses imply an induced 2i-cycle for every i in lengths (with
    ``exist=False``: for none of them).  Test each length once they all hold.
    """
    if not all(h.holds for h in hyps):
        return session.report(hyps, NOT_APPLICABLE)
    witnesses: list[InducedCycleWitness] = []
    settled: dict[str, list[int]] = {FOUND: [], ABSENT: [], UNKNOWN: []}
    for i in lengths:
        res = session.solve(exists_cycle, arr, i)
        settled[res.status].append(2 * i)
        if res.status == FOUND:
            witnesses.append(res.witness)
    found, absent, unknown = settled[FOUND], settled[ABSENT], settled[UNKNOWN]
    notes = (
        tuple(notes)
        + _lengths_note("exhaustive search found no induced cycle of length {}", absent)
        + _lengths_note("induced cycle of length {} exists", [] if exist else found)
        + _lengths_note("budget exhausted at length {}", unknown)
    )
    if absent if exist else found:
        verdict = REFUTED
    else:
        verdict = VERDICT_UNKNOWN if unknown else CONFIRMED
    return session.report(hyps, verdict, tuple(witnesses), notes)


def verify_c6(arr: Arrangement, *, budget: int | None = None) -> ClaimReport:
    """Not all lines concurrent (t_k = 0) implies an induced 6-cycle."""
    session = _Session("c6", budget)
    tk = multiplicity_profile(arr).t_r(arr.k)
    hyp = Hypothesis("not all lines concurrent (t_k = 0)", tk == 0, f"t_{arr.k} = {tk}")
    return _lengths_claim(session, (hyp,), arr, [3])


def verify_c8(arr: Arrangement, *, budget: int | None = None) -> ClaimReport:
    """t_k = t_{k-1} = 0 implies an induced 8-cycle."""
    session = _Session("c8", budget)
    prof = multiplicity_profile(arr)
    tk = prof.t_r(arr.k)
    tk1 = prof.t_r(arr.k - 1)
    hyps = (
        Hypothesis("no k-fold point (t_k = 0)", tk == 0, f"t_{arr.k} = {tk}"),
        Hypothesis("no (k-1)-fold point (t_{k-1} = 0)", tk1 == 0, f"t_{arr.k - 1} = {tk1}"),
    )
    return _lengths_claim(session, hyps, arr, [4])


def _has_common_point(arr: Arrangement, lines: list[int]) -> bool:
    need = set(lines)
    return any(need <= set(pls) for pls in arr.point_lines)


def verify_c10(arr: Arrangement, *, budget: int | None = None) -> ClaimReport:
    """
    Case analysis for existence of an induced 10-cycle when k >= 10.

    With q the maximal point multiplicity, the claim is quantified over
    every q-fold point P (lines through P playing the role of the
    distinguished pencil, the other k - q lines its complement):

    * (i)   t_{k-q} = 0, t_{k-q+1} = 0 and k <= 2q - 2: a 10-cycle exists.
    * (i')  t_{k-q} != 0: a 10-cycle exists iff the complement lines have
            no common point.
    * (ii)  k = 2q - 1 and t_{k-q} = 0: exists iff t_q = 1.
    * (iii) k = 2q: exists iff t_q = 1.
    * (ext) t_{k-q} = 0, t_{k-q+1} != 0 and k <= 2q - 2: exists iff the
            complement lines have no common point.  (Documented extension:
            the published cases miss this configuration, which the
            two-pencil worked example occupies.)

    Every matching case's prediction is tested against the exhaustive
    solver answer; if no case matches at any q-fold point the claim is out
    of scope and the report is NotApplicable.
    """
    session = _Session("c10", budget)
    hyp_k = Hypothesis("at least ten lines", arr.k >= 10, f"k = {arr.k}")
    if not hyp_k.holds or arr.s == 0:
        scope = Hypothesis("some case's side conditions match", False, "not evaluated")
        return session.report((hyp_k, scope), NOT_APPLICABLE)

    prof = multiplicity_profile(arr)
    q = prof.q
    k = arr.k
    tq = prof.t_r(q)
    tkq = prof.t_r(k - q)
    tkq1 = prof.t_r(k - q + 1)
    qpoints = [p for p in range(arr.s) if arr.multiplicity(p) == q]

    # predicted := None marks a one-directional case (existence asserted,
    # absence of a cycle refutes; presence never does).
    matches: list[tuple[int, str, bool | None]] = []
    for p in qpoints:
        through = set(arr.point_lines[p])
        complement = [j for j in range(k) if j not in through]
        blocked = _has_common_point(arr, complement)
        if tkq == 0 and tkq1 == 0 and k <= 2 * q - 2:
            matches.append((p, "(i)", None))
        if tkq != 0:
            matches.append((p, "(i')", not blocked))
        if k == 2 * q - 1 and tkq == 0:
            matches.append((p, "(ii)", tq == 1))
        if k == 2 * q:
            matches.append((p, "(iii)", tq == 1))
        if tkq == 0 and tkq1 != 0 and k <= 2 * q - 2:
            matches.append((p, "(ext)", not blocked))

    scope = Hypothesis(
        "some case's side conditions match",
        bool(matches),
        "; ".join(f"point {p}: case {c}" for p, c, _ in matches) or
        f"q = {q}, k = {k}: no case applies",
    )
    if not matches:
        return session.report(
            (hyp_k, scope), NOT_APPLICABLE,
            notes=("theorem out of scope: no case's side conditions match",),
        )

    res = session.solve(exists_cycle, arr, 5)
    if res.status == UNKNOWN:
        return session.report(
            (hyp_k, scope), VERDICT_UNKNOWN, notes=("budget exhausted at length 10",)
        )
    exists = res.status == FOUND

    notes: list[str] = []
    bad = False
    for p, case, predicted in matches:
        if predicted is None:
            ok = exists
            want = "exists"
        else:
            ok = predicted == exists
            want = "exists" if predicted else "does not exist"
        notes.append(
            f"point {p} case {case}: predicted 10-cycle {want}; "
            f"solver says {'exists' if exists else 'does not exist'}"
        )
        bad = bad or not ok
    witnesses = (res.witness,) if exists else ()
    return session.report((hyp_k, scope), REFUTED if bad else CONFIRMED, witnesses, tuple(notes))


def _double_counts(arr: Arrangement) -> list[int]:
    counts = [0] * arr.k
    for pls in arr.point_lines:
        if len(pls) == 2:
            for j in pls:
                counts[j] += 1
    return counts


def verify_t3_bounds(arr: Arrangement, *, budget: int | None = None) -> ClaimReport:
    """
    Triple points only: induced cycles of every even length up to a bound.

    For t_3 != 0 and no higher multiplicities, the claimed guarantee is an
    induced 2i-cycle for every i up to floor((k+9)/4) when k is odd,
    floor((k+11)/4) when k is even and some line carries more than one
    double point, and min(floor((k+11)/4), floor((2k+16)/7)) when k is even
    and no line does.
    """
    session = _Session("t3-bounds", budget)
    prof = multiplicity_profile(arr)
    t3 = prof.t_r(3)
    high = {r: c for r, c in prof.t.items() if r > 3}
    hyps = (
        Hypothesis("some triple point (t_3 != 0)", t3 > 0, f"t_3 = {t3}"),
        Hypothesis(
            "no point of multiplicity above three",
            not high,
            _profile_evidence(arr),
        ),
    )
    k = arr.k
    if k % 2 == 1:
        bound = (k + 9) // 4
        branch = f"k = {k} odd: bound floor((k+9)/4) = {bound}"
    else:
        multi = any(c >= 2 for c in _double_counts(arr))
        if multi:
            bound = (k + 11) // 4
            branch = (
                f"k = {k} even, some line carries >= 2 double points: "
                f"bound floor((k+11)/4) = {bound}"
            )
        else:
            bound = min((k + 11) // 4, (2 * k + 16) // 7)
            branch = (
                f"k = {k} even, every line carries at most one double point: "
                f"bound min(floor((k+11)/4), floor((2k+16)/7)) = {bound}"
            )
    return _lengths_claim(session, hyps, arr, range(3, bound + 1), (branch,))


def verify_tq_bounds(arr: Arrangement, *, budget: int | None = None) -> ClaimReport:
    """
    Maximal multiplicity q >= 3: induced cycles up to the general bounds.

    Part (i) guarantees an induced 2i-cycle for every i up to
    floor((k + 9q - 18)/(3q - 5)).  Part (ii) sharpens the bound to
    floor((k + 10q - 18)/(3q - 5)) when exactly two multiplicities t_q and
    t_p occur (2 <= p < q) and q - 1 does not divide k - 1; when part (ii)
    does not apply, only part (i) is tested and a note records why.
    """
    session = _Session("tq-bounds", budget)
    nz = multiplicity_profile(arr).t
    q = max(nz, default=0)
    hyp = Hypothesis("maximal multiplicity at least three", q >= 3, f"q = {q}")
    if not hyp.holds:
        return session.report((hyp,), NOT_APPLICABLE)

    k = arr.k
    bound_i = (k + 9 * q - 18) // (3 * q - 5)
    notes: list[str] = [f"part (i): bound floor((k+9q-18)/(3q-5)) = {bound_i}"]

    two_entries = len(nz) == 2 and min(nz) >= 2
    coprime = (k - 1) % (q - 1) != 0
    if two_entries and coprime:
        bound = (k + 10 * q - 18) // (3 * q - 5)
        notes.append(f"part (ii) applies: bound floor((k+10q-18)/(3q-5)) = {bound}")
    else:
        bound = bound_i
        if not two_entries:
            notes.append(
                "part (ii) not applicable: nonzero multiplicities are "
                + ", ".join(f"t_{r}" for r in nz)
                + " (need exactly two, the smaller below q)"
            )
        else:
            notes.append(
                f"part (ii) not applicable: q - 1 = {q - 1} divides k - 1 = {k - 1}"
            )
    return _lengths_claim(session, (hyp,), arr, range(3, bound + 1), tuple(notes))


def verify_no_2k_supersolvable(
    arr: Arrangement, *, budget: int | None = None
) -> ClaimReport:
    """A modular point rules out an induced cycle through all k lines."""
    session = _Session("no-2k-supersolvable", budget)
    mods = sorted(modular_points(arr))
    hyp = Hypothesis(
        "has a modular point",
        bool(mods),
        "modular points: " + (", ".join(map(str, mods)) if mods else "none"),
    )
    if hyp.holds and arr.k < 3:
        return session.report(
            (hyp,), CONFIRMED,
            notes=(f"k = {arr.k} < 3: a 2k-cycle is shorter than the girth",),
        )
    return _lengths_claim(session, (hyp,), arr, [arr.k], exist=False)


def _longest_claim(session: _Session, hyps, arr: Arrangement, claimed: int, extra=()):
    res = session.solve(longest_cycle, arr)
    verdict = REFUTED
    if res.status == UNKNOWN:
        verdict, note = VERDICT_UNKNOWN, "budget exhausted before the longest length settled"
    elif res.status == NO_INDUCED_CYCLE:
        note = f"no induced cycle at all; claimed longest {claimed}"
    elif res.length == claimed:
        verdict, note = CONFIRMED, f"longest induced cycle length is {claimed} (exhaustive)"
    else:
        note = f"exhaustive longest induced cycle length is {res.length}, claimed {claimed}"
    witnesses = (res.witness,) if res.witness is not None else ()
    return session.report(hyps, verdict, witnesses, tuple(extra) + (note,))


# Builders are named and looked up on ``families`` at call time, so a
# wrapper installed on that module (a profiler, a tracer) sees the call.
# claim id -> (builder, claimed longest induced cycle length)
_LONGEST_CLAIMS = {
    "nine-three-longest": ("nine_three", 14),
    "ten-line-longest": ("ten_line", 18),
    "hesse-longest": ("hesse", 12),
    "mu4-longest": ("mu4", 8),
}
# claim id -> (parameter, builder, top i of the claimed range 4 <= i <= top)
_RANGE_CLAIMS = {
    "ceva-range": ("n", "ceva", lambda n: 2 * n + 1),
    "mu3-range": ("m", "supersolvable_mu3", lambda m: 2 * m - 2),
}
NAMED_CLAIMS = (*_LONGEST_CLAIMS, *_RANGE_CLAIMS, "awk-max")

_AWK_GUARD_M = 7


def verify_named_claim(
    claim: str,
    params: dict | None = None,
    *,
    budget: int | None = None,
) -> ClaimReport:
    """
    Check one named worked-result claim.

    ``ceva-range`` needs ``n``; ``mu3-range`` needs ``m``; ``awk-max``
    needs ``m`` and ``k`` (and accepts ``chosen``).  The range claims test
    existence for every claimed length; the longest claims compare the
    exhaustive maximum against the claimed value.
    """
    params = dict(params or {})
    session = _Session(claim, budget)

    def need(key: str) -> int:
        if key not in params:
            raise families.BadParam(f"claim {claim!r} requires parameter {key!r}")
        return params[key]

    if claim in _LONGEST_CLAIMS:
        builder, claimed = _LONGEST_CLAIMS[claim]
        return _longest_claim(session, (), getattr(families, builder)(), claimed)

    if claim in _RANGE_CLAIMS:
        key, builder, top = _RANGE_CLAIMS[claim]
        value = need(key)
        arr = getattr(families, builder)(value)
        top_i = top(value)
        claim_note = f"claimed: induced 2i-cycles for every 4 <= i <= {top_i}"
        return _lengths_claim(session, (), arr, range(4, top_i + 1), (claim_note,))

    if claim == "awk-max":
        m = need("m")
        k = need("k")
        arr = families.a_w_k(m, k, params.get("chosen"))
        if k in (0, 1):
            hyp = Hypothesis(
                "extra-line count covered by the maximum claim",
                True,
                f"k = {k} in {{0, 1}}",
            )
            claimed = 2 * (2 * m - 2)
            extra = (f"claimed maximum 2(2m-2) = {claimed} for k = {k}",)
        else:
            ok = 2 <= k <= min(4, m - 4)
            hyp = Hypothesis(
                "extra-line count covered by the maximum claim",
                ok,
                f"k = {k}, needs 2 <= k <= min(4, m - 4) = {min(4, m - 4)}",
            )
            if not ok:
                return session.report((hyp,), NOT_APPLICABLE)
            claimed = 4 * m
            extra = (
                f"claimed maximum 4m = {claimed} for k = {k}",
                "statement says maximum 4m; the proof's closing line says 2m; "
                "the statement is what is tested",
            )
        if m > _AWK_GUARD_M:
            return session.report(
                (hyp,), VERDICT_UNKNOWN,
                notes=extra + (f"m = {m} exceeds the search guard (m <= {_AWK_GUARD_M})",),
            )
        return _longest_claim(session, (hyp,), arr, claimed, extra)

    raise UnknownClaim(f"unknown claim {claim!r}; known: {', '.join(NAMED_CLAIMS)}")


# The arrangement-level checkers by claim id, in report order.
CHECKERS = {
    "c6": verify_c6,
    "c8": verify_c8,
    "c10": verify_c10,
    "t3-bounds": verify_t3_bounds,
    "tq-bounds": verify_tq_bounds,
    "no-2k-supersolvable": verify_no_2k_supersolvable,
}


def all_checkers(arr: Arrangement, *, budget: int | None = None) -> list[ClaimReport]:
    """Run every arrangement-level checker (not the named claims) on arr, in ``CHECKERS`` order."""
    return [verify(arr, budget=budget) for verify in CHECKERS.values()]
