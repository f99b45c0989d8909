import json

import pytest

from levicycles import families
from levicycles.arrangement import Arrangement, ArrangementError
from levicycles.claims import (
    CHECKERS,
    CONFIRMED,
    NOT_APPLICABLE,
    REFUTED,
    VERDICT_UNKNOWN,
    NAMED_CLAIMS,
    UnknownClaim,
    all_checkers,
    verify_c6,
    verify_c8,
    verify_c10,
    verify_named_claim,
    verify_no_2k_supersolvable,
    verify_t3_bounds,
    verify_tq_bounds,
)
from levicycles.cycles import validate_witness
from levicycles.families import BadParam


def pencil():
    return Arrangement(3, [(0, 1, 2)])


def ten_line_one_pencil():
    """Ten lines: six concurrent, the other four generic to everything."""
    pts = [tuple(range(6))]
    pts += [(j, j2) for j in range(6) for j2 in range(6, 10)]
    pts += [(a, b) for a in range(6, 10) for b in range(a + 1, 10)]
    return Arrangement(10, pts)


# -- report mechanics


def test_report_json_shape():
    report = verify_c6(families.nine_three())
    doc = json.loads(report.to_json())
    assert set(doc) == {
        "claim", "hypotheses", "verdict", "witnesses", "notes",
        "nodes", "budget", "wall_time",
    }
    assert doc["claim"] == "c6"
    assert doc["verdict"] == CONFIRMED
    assert doc["hypotheses"][0]["holds"] is True
    assert doc["witnesses"][0]["lines"]
    assert doc["budget"] is None
    assert doc["nodes"] > 0


def test_report_summary_format():
    report = verify_c6(families.nine_three())
    lines = report.summary().splitlines()
    assert lines[0] == "c6: Confirmed"
    assert any(line.startswith("  [+]") for line in lines)
    assert any("witness (length 6)" in line for line in lines)


def test_applicable_tracks_hypotheses():
    good = verify_c6(families.nine_three())
    assert good.applicable
    bad = verify_c6(pencil())
    assert not bad.applicable
    assert bad.verdict == NOT_APPLICABLE


# -- c6 / c8


def test_c6_confirmed_with_valid_witness():
    arr = families.nine_three()
    report = verify_c6(arr)
    assert report.verdict == CONFIRMED
    assert validate_witness(arr, report.witnesses[0]).passed


def test_c6_not_applicable_on_pencil():
    report = verify_c6(pencil())
    assert report.verdict == NOT_APPLICABLE
    assert report.nodes == 0


def test_c8_confirmed_when_no_big_points():
    for arr in (families.ceva(4), families.two_modular(5, 6)):
        report = verify_c8(arr)
        assert report.verdict == CONFIRMED
        assert report.witnesses[0].length == 8


def test_c8_not_applicable_on_near_pencil():
    report = verify_c8(families.near_pencil(6))
    assert report.verdict == NOT_APPLICABLE
    marks = {h.name: h.holds for h in report.hypotheses}
    assert marks["no k-fold point (t_k = 0)"]
    assert not marks["no (k-1)-fold point (t_{k-1} = 0)"]


# -- c10 case analysis


def test_c10_needs_ten_lines():
    report = verify_c10(families.nine_three())
    assert report.verdict == NOT_APPLICABLE
    assert not report.applicable


def test_c10_out_of_scope_when_no_case_matches():
    report = verify_c10(families.hesse())
    assert report.verdict == NOT_APPLICABLE
    assert any("out of scope" in n for n in report.notes)


def test_c10_confirmed_absence_on_two_pencils():
    # the complement of the 6-fold pencil shares the 5-fold point, so the
    # matching case predicts no 10-cycle; exhaustive search agrees
    report = verify_c10(families.two_modular(5, 6))
    assert report.verdict == CONFIRMED
    assert report.witnesses == ()
    assert all("does not exist" in n for n in report.notes)


def test_c10_confirmed_existence_on_single_pencil():
    arr = ten_line_one_pencil()
    report = verify_c10(arr)
    assert report.verdict == CONFIRMED
    assert any("case (i)" in n for n in report.notes)
    assert validate_witness(arr, report.witnesses[0]).passed
    assert report.witnesses[0].length == 10


def test_c10_refuted_when_cases_disagree():
    # k = 2q with two q-fold points: one case predicts a 10-cycle (the
    # complements have no common point), another predicts none (t_q != 1);
    # the search finds the cycle, refuting the second prediction
    arr = families.a_w_k(5, 1)
    report = verify_c10(arr)
    assert report.verdict == REFUTED
    text = "\n".join(report.notes)
    assert "case (i')" in text and "case (iii)" in text
    assert validate_witness(arr, report.witnesses[0]).passed


# -- t3 / tq bounds


def test_t3_bounds_odd_branch():
    report = verify_t3_bounds(families.nine_three())
    assert report.verdict == CONFIRMED
    assert any("k = 9 odd" in n and "= 4" in n for n in report.notes)
    assert {w.length for w in report.witnesses} == {6, 8}


def test_t3_bounds_even_branch_with_stacked_doubles():
    report = verify_t3_bounds(families.ten_line())
    assert report.verdict == CONFIRMED
    assert any("k = 10 even" in n and "= 5" in n for n in report.notes)
    assert {w.length for w in report.witnesses} == {6, 8, 10}


def test_t3_bounds_not_applicable():
    assert verify_t3_bounds(families.hesse()).verdict == NOT_APPLICABLE
    assert verify_t3_bounds(families.generic(5)).verdict == NOT_APPLICABLE


def test_tq_bounds_part_one_only():
    report = verify_tq_bounds(families.supersolvable_mu3(6))
    assert report.verdict == CONFIRMED
    text = "\n".join(report.notes)
    assert "part (i): bound" in text
    assert "part (ii) not applicable" in text


def test_tq_bounds_part_two_applies():
    report = verify_tq_bounds(families.ceva(5))
    assert report.verdict == CONFIRMED
    assert any("part (ii) applies" in n and "= 4" in n for n in report.notes)


def test_tq_bounds_not_applicable_without_big_point():
    report = verify_tq_bounds(families.generic(4))
    assert report.verdict == NOT_APPLICABLE


def test_tq_bounds_refuted_on_small_near_pencil():
    # the sharpened part-(ii) bound promises an 8-cycle through all four
    # lines, but any such cycle would revisit the triple point
    for arr in (families.near_pencil(4), families.two_modular(2, 3)):
        report = verify_tq_bounds(arr)
        assert report.verdict == REFUTED
        assert any("no induced cycle of length 8" in n for n in report.notes)


# -- no-2k for arrangements with a modular point


def test_no_2k_confirmed():
    for arr in (families.near_pencil(5), families.supersolvable_mu3(5)):
        report = verify_no_2k_supersolvable(arr)
        assert report.verdict == CONFIRMED


def test_no_2k_not_applicable_without_modular_point():
    report = verify_no_2k_supersolvable(families.generic(4))
    assert report.verdict == NOT_APPLICABLE


def test_no_2k_refuted_on_triangle():
    # the triangle's Levi graph is itself a 6-cycle through all three lines
    arr = families.generic(3)
    report = verify_no_2k_supersolvable(arr)
    assert report.verdict == REFUTED
    assert report.witnesses[0].length == 6
    assert validate_witness(arr, report.witnesses[0]).passed


# -- named worked-result claims


def test_nine_three_longest_refuted():
    """The claimed longest length 14 holds for the (9_3) of type C6 + C3.

    The claim used to be Refuted (longest 18) because ``nine_three`` built
    the cyclic (9_3), whose doubles form a 9-cycle and which does have an
    induced C18; the quoted spectrum (i = 3..7, longest 14) is that of the
    C6 + C3 type, which the builder now produces.
    """
    report = verify_named_claim("nine-three-longest")
    assert report.verdict == CONFIRMED
    assert any("length is 14" in n for n in report.notes)
    w = report.witnesses[0]
    assert w.length == 14
    assert validate_witness(families.nine_three(), w).passed


@pytest.mark.parametrize(
    "claim,length",
    [("ten-line-longest", 18), ("hesse-longest", 12), ("mu4-longest", 8)],
)
def test_longest_claims_confirmed(claim, length):
    report = verify_named_claim(claim)
    assert report.verdict == CONFIRMED
    assert report.witnesses[0].length == length


def test_ceva_range():
    assert verify_named_claim("ceva-range", {"n": 5}).verdict == CONFIRMED
    report = verify_named_claim("ceva-range", {"n": 4})
    assert report.verdict == REFUTED
    assert any("no induced cycle of length 18" in n for n in report.notes)


def test_mu3_range():
    assert verify_named_claim("mu3-range", {"m": 6}).verdict == CONFIRMED
    report = verify_named_claim("mu3-range", {"m": 5})
    assert report.verdict == REFUTED
    assert any("no induced cycle of length 14" in n for n in report.notes)


def test_awk_max_claims():
    assert verify_named_claim("awk-max", {"m": 5, "k": 0}).verdict == CONFIRMED
    assert verify_named_claim("awk-max", {"m": 6, "k": 2}).verdict == CONFIRMED
    out_of_range = verify_named_claim("awk-max", {"m": 5, "k": 2})
    assert out_of_range.verdict == NOT_APPLICABLE
    guarded = verify_named_claim("awk-max", {"m": 8, "k": 2})
    assert guarded.verdict == VERDICT_UNKNOWN
    assert any("search guard" in n for n in guarded.notes)


def test_named_claim_errors():
    with pytest.raises(UnknownClaim):
        verify_named_claim("not-a-claim")
    with pytest.raises(BadParam):
        verify_named_claim("ceva-range")
    with pytest.raises(BadParam):
        verify_named_claim("awk-max", {"m": 5})
    assert "awk-max" in NAMED_CLAIMS


# -- budget protocol


def test_budget_zero_degrades_to_unknown():
    assert verify_c6(families.nine_three(), budget=0).verdict == VERDICT_UNKNOWN
    assert (
        verify_no_2k_supersolvable(families.near_pencil(5), budget=0).verdict
        == VERDICT_UNKNOWN
    )
    report = verify_named_claim("nine-three-longest", budget=0)
    assert report.verdict == VERDICT_UNKNOWN
    assert report.budget == 0


def test_negative_budget_rejected():
    # rejected up front, even where a hypothesis fails before any search
    with pytest.raises(ArrangementError, match="non-negative"):
        verify_c6(pencil(), budget=-1)
    with pytest.raises(ArrangementError, match="non-negative"):
        verify_named_claim("nine-three-longest", budget=-1)
    with pytest.raises(ArrangementError, match="non-negative"):
        all_checkers(families.nine_three(), budget=-1)


@pytest.mark.parametrize("budget", ["5", 2.5, True])
def test_budget_of_wrong_type_rejected(budget):
    # budgets follow the rule for ids: None, or a non-bool int >= 0
    with pytest.raises(ArrangementError, match="non-negative"):
        verify_c6(pencil(), budget=budget)
    with pytest.raises(ArrangementError, match="non-negative"):
        verify_named_claim("nine-three-longest", budget=budget)
    with pytest.raises(ArrangementError, match="non-negative"):
        all_checkers(families.nine_three(), budget=budget)


def test_budget_zero_keeps_not_applicable():
    # hypothesis checks never consult the solver, so the verdict stands
    assert verify_c6(pencil(), budget=0).verdict == NOT_APPLICABLE
    assert verify_t3_bounds(families.hesse(), budget=0).verdict == NOT_APPLICABLE


def test_unknown_never_leaks_into_definite_verdicts():
    for report in all_checkers(families.supersolvable_mu3(5), budget=0):
        assert report.verdict in (VERDICT_UNKNOWN, NOT_APPLICABLE)


# -- pool-wide invariants


def test_not_applicable_iff_hypothesis_fails(full_pool):
    for name, arr in full_pool:
        for report in all_checkers(arr):
            assert (report.verdict == NOT_APPLICABLE) == (not report.applicable), (
                name,
                report.claim,
            )


def test_existence_theorems_hold_on_pool(full_pool):
    # the 6- and 8-cycle guarantees have no known counterexamples
    for name, arr in full_pool:
        for verify in (verify_c6, verify_c8):
            assert verify(arr).verdict in (CONFIRMED, NOT_APPLICABLE), name


def test_all_checkers_order():
    claims = [r.claim for r in all_checkers(families.mu4())]
    assert claims == ["c6", "c8", "c10", "t3-bounds", "tq-bounds", "no-2k-supersolvable"]
    assert list(CHECKERS) == claims  # the CLI's --claim ids


def test_reports_are_deterministic():
    a = verify_named_claim("hesse-longest").to_json()
    b = verify_named_claim("hesse-longest").to_json()
    da, db = json.loads(a), json.loads(b)
    da.pop("wall_time"), db.pop("wall_time")
    assert da == db


# -- the verdict rule


def test_budget_zero_notes_share_one_wording():
    cases = [
        (verify_c6, families.nine_three(), "budget exhausted at length 6"),
        (verify_t3_bounds, families.nine_three(), "budget exhausted at length 6, 8"),
        (verify_tq_bounds, families.nine_three(), "budget exhausted at length 6, 8"),
        (verify_no_2k_supersolvable, families.near_pencil(5), "budget exhausted at length 10"),
    ]
    for verify, arr, note in cases:
        report = verify(arr, budget=0)
        assert report.verdict == VERDICT_UNKNOWN, report.claim
        assert report.notes[-1] == note, report.claim


def test_no_2k_notes_name_the_deciding_search():
    refuted = verify_no_2k_supersolvable(families.generic(3))
    assert refuted.verdict == REFUTED
    assert refuted.notes == ("induced cycle of length 6 exists",)
    confirmed = verify_no_2k_supersolvable(families.near_pencil(5))
    assert confirmed.verdict == CONFIRMED
    assert confirmed.notes == ("exhaustive search found no induced cycle of length 10",)


def test_named_claims_order():
    assert NAMED_CLAIMS == (
        "nine-three-longest",
        "ten-line-longest",
        "hesse-longest",
        "mu4-longest",
        "ceva-range",
        "mu3-range",
        "awk-max",
    )


# Verdicts of all_checkers (c6, c8, c10, t3-bounds, tq-bounds,
# no-2k-supersolvable; C = Confirmed, R = Refuted, N = NotApplicable,
# U = Unknown) and their total node count, unbudgeted and at budget 50.
GOLDEN_VERDICTS = {
    "near_pencil(4)": ("CNNCRC", 12, "CNNCRC", 12),
    "near_pencil(5)": ("CNNNCC", 8, "CNNNCC", 8),
    "near_pencil(6)": ("CNNNCC", 9, "CNNNCC", 9),
    "near_pencil(7)": ("CNNNCC", 10, "CNNNCC", 10),
    "near_pencil(8)": ("CNNNCC", 11, "CNNNCC", 11),
    "two_modular(2,3)": ("CNNCRC", 12, "CNNCRC", 12),
    "two_modular(3,4)": ("CCNNCC", 27, "CCNNCC", 27),
    "two_modular(5,6)": ("CCCNCC", 120, "CCUNCC", 104),
    "generic(3)": ("CNNNNR", 4, "CNNNNR", 4),
    "generic(4)": ("CCNNNN", 5, "CCNNNN", 5),
    "generic(5)": ("CCNNNN", 5, "CCNNNN", 5),
    "ceva(3)": ("CCNCCN", 15, "CCNCCN", 15),
    "nine_three": ("CCNCCN", 15, "CCNCCN", 15),
    "ten_line": ("CCNCCN", 23, "CCNCCN", 23),
    "mu4": ("CCNCCC", 21, "CCNCCC", 21),
    "a_w_k(5,0)": ("CCNNCC", 35, "CCNNCC", 35),
    "a_w_k(5,1)": ("CCRNCC", 61, "CCRNCC", 61),
    "hesse": ("CCNNCN", 10, "CCNNCN", 10),
    "ceva(4)": ("CCNNCN", 10, "CCNNCN", 10),
    "ceva(5)": ("CCNNCN", 10, "CCNNCN", 10),
    "supersolvable_mu3(5)": ("CCNNCC", 15, "CCNNCC", 15),
    "supersolvable_mu3(6)": ("CCNNCC", 16, "CCNNCC", 16),
    "a_w_k(6,2)": ("CCNNCC", 29, "CCNNCC", 29),
}
_LETTER = {CONFIRMED: "C", REFUTED: "R", NOT_APPLICABLE: "N", VERDICT_UNKNOWN: "U"}


def test_golden_verdicts_and_nodes(full_pool):
    assert [name for name, _ in full_pool] == list(GOLDEN_VERDICTS)
    for name, arr in full_pool:
        got = ()
        for budget in (None, 50):
            reports = all_checkers(arr, budget=budget)
            got += ("".join(_LETTER[r.verdict] for r in reports), sum(r.nodes for r in reports))
        assert got == GOLDEN_VERDICTS[name], name
