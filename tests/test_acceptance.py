"""Acceptance suite: one test per criterion, exact tolerances throughout.

Criterion 3 is parametrized per formula so each identity family reports its
own pass/fail line.  The f_As_fdes_fmaj case asserts the stated range
2 <= n <= 8 and is expected to FAIL at n = 2: the printed closed form
provably differs from the 8-element brute force there (it sums 16 weighted
terms).  See the decisions ledger for the analysis; every other instance
passes.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import itertools

import pytest

from arcperm.arcsets import (
    generate_arc,
    generate_b_arc,
    generate_hyperoctahedral,
    generate_signed_arc,
    generate_symmetric,
    is_arc,
    is_b_arc,
    is_signed_arc,
)
from arcperm.canonical import (
    ExponentVectorA,
    ExponentVectorB,
    decompose_A,
    decompose_B,
    fmaj_from_exponents,
    is_arc_by_exponents,
    is_b_arc_by_exponents,
    maj_from_exponents,
    recompose_A,
    recompose_B,
)
from arcperm.cli import main
from arcperm.formulas import (
    MISMATCH,
    REGISTRY,
    f_AB_fdes_fmaj,
    f_sign_des_set,
    f_sign_des_set_even,
    verify_formula,
)
from arcperm.patterns import arc_forbidden, b_arc_forbidden, signed_arc_forbidden
from arcperm.perms import Character
from arcperm.poly import var
from arcperm.walk import WeightSpec, enumerator

T = var("t")
Q = var("q")


def test_criterion_1_cardinalities():
    for n in range(2, 13):
        assert len(generate_arc(n)) == n * 2 ** (n - 2), f"|arc({n})|"
    for n in range(1, 13):
        assert len(generate_signed_arc(n)) == n * 2**n, f"|signed-arc({n})|"
        assert len(generate_b_arc(n)) == n * 2**n, f"|b-arc({n})|"
    print("\nACCEPTANCE 1 (cardinalities, n <= 12): PASS")


def _rank_word(values):
    rank = {v: r for r, v in enumerate(sorted(values), 1)}
    return tuple(rank[v] for v in values)


def _rank_word_signed(values):
    rank = {v: r for r, v in enumerate(sorted(abs(x) for x in values), 1)}
    return tuple(rank[abs(v)] if v > 0 else -rank[abs(v)] for v in values)


def test_criterion_2_pattern_characterizations():
    arc_words = {p.word for p in arc_forbidden()}
    for n in range(1, 8):
        for p in generate_symmetric(n):
            avoids = not any(
                _rank_word(sub) in arc_words
                for sub in itertools.combinations(p.word, 4)
            )
            assert is_arc(p) == avoids, f"arc characterization fails at {p}"

    signed_words = {p.word for p in signed_arc_forbidden()}
    b_words = {p.word for p in b_arc_forbidden()}
    for n in range(1, 7):
        for p in generate_hyperoctahedral(n):
            profiles = {
                _rank_word_signed(sub) for sub in itertools.combinations(p.word, 3)
            }
            assert is_signed_arc(p) == (not profiles & signed_words), p
            assert is_b_arc(p) == (not profiles & b_words), p
    print("\nACCEPTANCE 2 (pattern characterizations, S_7 and B_6): PASS")


# stated verification ranges for criterion 3, straight from the criteria text
CRITERION_3 = [
    ("f_A_inv_des", range(2, 9)),
    ("f_A_des_set", range(2, 9)),
    ("f_A_maj", range(2, 9)),
    ("f_A_signed_maj", range(2, 9)),
    ("f_sign_des_variants", range(2, 9)),
    ("f_A_des_maj", range(3, 9)),
    ("f_A_des", range(3, 9)),
    ("f_As_des_neg", range(1, 9)),
    ("f_As_des_neg_inv", range(1, 9)),
    ("f_As_character_fmaj.trivial", range(1, 9)),
    ("f_As_character_fmaj.sign", range(1, 9)),
    ("f_As_character_fmaj.neg_parity", range(1, 9)),
    ("f_As_character_fmaj.sign_abs", range(1, 9)),
    ("f_As_fdes_fmaj", range(2, 9)),
    ("f_As_fdes", range(3, 9)),
    ("f_AB_character_fmaj.trivial", range(1, 9)),
    ("f_AB_character_fmaj.sign", range(1, 9)),
    ("f_AB_character_fmaj.neg_parity", range(1, 9)),
    ("f_AB_character_fmaj.sign_abs", range(1, 9)),
    ("f_AB_fdes_fmaj", range(2, 9)),
    ("f_AB_des_set", range(2, 9)),
    ("f_AB_fdes", range(3, 9)),
]


@pytest.mark.parametrize("name,ns", CRITERION_3, ids=[row[0] for row in CRITERION_3])
def test_criterion_3_formula_identities(name, ns):
    if name == "f_sign_des_variants":
        spec = WeightSpec(descent_vars=True, character=Character.SIGN)
        for n in ns:
            brute = enumerator(generate_arc(n), spec)
            assert f_sign_des_set(n) == brute, f"substituted sign form at n={n}"
            if n % 2 == 0:
                assert f_sign_des_set_even(n) == f_sign_des_set(n), f"even form at n={n}"
        print(f"\nACCEPTANCE 3 (formula identities) {name}: PASS")
        return
    entry = REGISTRY[name]
    from arcperm.formulas import _FAMILIES

    for n in ns:
        closed = entry.build(n)
        brute = enumerator(_FAMILIES[entry.family](n), entry.weights)
        assert closed == brute, (
            f"{name} differs from the brute-force enumerator at n={n}; "
            f"diff = {closed - brute}"
            + (
                "  [known source defect: the printed form is invalid at n=2; "
                "see the decisions ledger]"
                if name == "f_As_fdes_fmaj" and n == 2
                else ""
            )
        )
    print(f"\nACCEPTANCE 3 (formula identities) {name}: PASS")


def test_criterion_4_canonical_forms():
    for n in range(1, 8):
        for p in generate_symmetric(n):
            e = decompose_A(p)
            assert recompose_A(e) == p
            assert maj_from_exponents(e) == p.maj()
            assert is_arc_by_exponents(e) == is_arc(p)
    for n in range(1, 7):
        for p in generate_hyperoctahedral(n):
            e = decompose_B(p)
            assert recompose_B(e) == p
            assert fmaj_from_exponents(e) == p.fmaj()
            assert is_b_arc_by_exponents(e) == is_b_arc(p)
    for n in range(2, 8):
        box = itertools.product(*(range(i + 1) for i in range(1, n)))
        count = sum(1 for k in box if is_arc_by_exponents(ExponentVectorA(n, k)))
        assert count == n * 2 ** (n - 2)
    for n in range(1, 7):
        box = itertools.product(*(range(2 * i + 2) for i in range(n)))
        count = sum(1 for k in box if is_b_arc_by_exponents(ExponentVectorB(n, k)))
        assert count == n * 2**n
    print("\nACCEPTANCE 4 (canonical forms, S_7 and B_6): PASS")


def test_criterion_5_equidistribution():
    fmaj = WeightSpec(q_stat="fmaj")
    signed_fmaj = WeightSpec(q_stat="fmaj", character=Character.SIGN)
    for n in range(1, 11):
        signed_arcs = generate_signed_arc(n)
        b_arcs = generate_b_arc(n)
        assert enumerator(signed_arcs, fmaj) == enumerator(b_arcs, fmaj), n
        lhs = enumerator(signed_arcs, signed_fmaj)
        rhs = enumerator(b_arcs, signed_fmaj)
        if n % 2 == 0:
            assert lhs == rhs, f"sign-twisted enumerators differ at even n={n}"
        elif n >= 3:
            assert lhs != rhs, f"sign-twisted enumerators agree at odd n={n}"
    print("\nACCEPTANCE 5 (equidistribution, n <= 10): PASS")


def test_criterion_6_spot_values():
    fdes_b2 = enumerator(generate_b_arc(2), WeightSpec(t_stat="fdes"))
    assert fdes_b2 == 1 + 3 * T + 3 * T**2 + T**3
    des_a3 = enumerator(generate_arc(3), WeightSpec(t_stat="des"))
    assert des_a3 == 1 + 4 * T + T**2
    signed_maj_a2 = enumerator(
        generate_arc(2), WeightSpec(q_stat="maj", character=Character.SIGN)
    )
    assert signed_maj_a2 == 1 - Q
    print("\nACCEPTANCE 6 (spot values): PASS")


def test_criterion_7_exact_division_never_fails():
    # the only cleared denominator in the suite; exercise it beyond the
    # verified range so the divisibility claim is checked computationally
    for n in range(2, 13):
        f_AB_fdes_fmaj(n)
    print("\nACCEPTANCE 7 (exact division remainder assertion): PASS")


def test_criterion_8_negative_control():
    rows = verify_formula("negative-control", range(2, 6))
    assert all(r.status == MISMATCH for r in rows)
    assert all(r.diff is not None and not r.diff.is_zero for r in rows)
    assert main(["verify", "--formula", "negative-control", "--n-max", "4"]) == 1
    assert main(["verify", "--formula", "all", "--n-max", "5"]) == 0
    print("\nACCEPTANCE 8 (negative control): PASS")
