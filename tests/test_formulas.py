"""Closed forms: spot values, substitution coherence, verification reports."""

import re

import pytest

from arcperm import poly
from arcperm.arcsets import generate_signed_arc
from arcperm.formulas import (
    EQUAL,
    MISMATCH,
    OUT_OF_STATED_RANGE,
    REGISTRY,
    f_A_des,
    f_A_des_maj,
    f_A_des_set,
    f_A_inv_des,
    f_A_maj,
    f_A_signed_maj,
    f_AB_character_fmaj,
    f_AB_des_set,
    f_AB_fdes,
    f_AB_fdes_fmaj,
    f_As_character_fmaj,
    f_As_des_neg,
    f_As_des_neg_inv,
    f_As_fdes,
    f_As_fdes_fmaj,
    f_L_des_set,
    f_sign_des_set,
    f_sign_des_set_even,
    formula_names,
    verify_formula,
    verify_many,
)
from arcperm.perms import Character
from arcperm.poly import const, poly_product, var
from arcperm.walk import WeightSpec, enumerator
from test_poly_oracle import long_div_spy, packed_spy

T = var("t")
Q = var("q")
X1 = var("x1")
Y1 = var("y1")


def _x(i):
    return var(f"x{i}")


def test_spot_values():
    assert f_A_inv_des(2) == 1 + T * X1
    assert f_A_des_set(2) == 1 + X1
    assert f_A_maj(3) == 1 + 2 * Q + 2 * Q**2 + Q**3
    assert f_A_signed_maj(2) == 1 - Q
    assert f_A_des(3) == 1 + 4 * T + T**2
    assert f_As_des_neg(1) == 1 + Y1
    assert f_AB_des_set(2) == 4 + 4 * X1
    assert f_L_des_set(1) == const(1)
    assert f_As_character_fmaj(2, Character.TRIVIAL) == 1 + 2 * Q + 2 * Q**2 + 2 * Q**3 + Q**4
    assert f_AB_fdes_fmaj(2) == (1 + T * Q) ** 2 * (1 + T * Q**2)


def test_range_errors():
    # each builder's own lower bound is its registry entry's evaluable_from;
    # a builder that raised inside the range would make verify exit 2
    for name, entry in REGISTRY.items():
        if entry.evaluable_from > 1:
            low = entry.evaluable_from
            message = f"formula requires n >= {low}, got {low - 1}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                entry.build(low - 1)
        entry.build(entry.evaluable_from)


def test_equidistribution_of_closed_forms():
    # the two families' fmaj forms agree for every character, except for
    # sign and sign_abs at odd n >= 3
    for n in range(1, 12):
        for chi in Character:
            differ = chi in (Character.SIGN, Character.SIGN_ABS) and n % 2 == 1 and n >= 3
            assert (f_As_character_fmaj(n, chi) != f_AB_character_fmaj(n, chi)) == differ, (n, chi)


def test_neg_parity_form_is_trivial_form_at_minus_q():
    for n in range(1, 7):
        twisted = f_As_character_fmaj(n, Character.TRIVIAL).substitute({"q": -Q})
        assert twisted == f_As_character_fmaj(n, Character.NEG_PARITY)


def test_substitution_coherence():
    for n in range(3, 7):
        assert f_A_des_set(n).substitute(
            {f"x{i}": T * Q**i for i in range(1, n)}
        ) == f_A_des_maj(n)
        assert f_A_inv_des(n).substitute({"t": 1}) == f_A_des_set(n)
        assert f_A_des_maj(n).substitute({"q": 1}) == f_A_des(n)
        assert f_A_des_maj(n).substitute({"t": 1}) == f_A_maj(n)
        assert f_sign_des_set(n).substitute(
            {f"x{i}": Q**i for i in range(1, n)}
        ) == f_A_signed_maj(n)
        assert f_As_des_neg_inv(n).substitute({"t": 1}) == f_As_des_neg(n)

        bindings = {"y1": T * Q}
        bindings.update({f"y{i}": Q for i in range(2, n + 1)})
        bindings.update({f"x{i}": T**2 * Q ** (2 * i) for i in range(1, n)})
        assert f_As_des_neg(n).substitute(bindings) == f_As_fdes_fmaj(n)

        assert f_As_fdes_fmaj(n).substitute({"q": 1}) == f_As_fdes(n)
        assert f_AB_fdes_fmaj(n).substitute({"q": 1}) == f_AB_fdes(n)
        assert f_AB_fdes_fmaj(n).substitute({"t": 1}) == f_AB_character_fmaj(
            n, Character.TRIVIAL
        )
        assert f_As_fdes_fmaj(n).substitute({"t": 1}) == f_As_character_fmaj(
            n, Character.TRIVIAL
        )
        assert f_AB_des_set(n) == n * poly_product(
            1 + _x(i) for i in range(1, n)
        ) + 2 * f_A_des_set(n)


# The 15 builds of the benchmark's closed-forms-large workload.
LARGE_BUILDS = [
    ("f_AB_fdes_fmaj", 16), ("f_As_des_neg_inv", 8), ("f_sign_des_set", 10), ("f_A_inv_des", 11),
    ("f_AB_des_set", 11), ("f_As_fdes_fmaj", 20), ("f_A_des_maj", 26),
] + [(f"f_{fam}_character_fmaj.{chi.value}", 24) for fam in ("As", "AB") for chi in Character]


def test_large_builds_match_the_dict_product(monkeypatch):
    """The packed product and the long division give real-size results as
    the dict product and the heap reduction compute them, term for term:
    every closed form to n = 12 by its terms (which fix its text), and the
    benchmark's large builds by their text."""
    small = [(name, n) for name, entry in REGISTRY.items() for n in range(entry.evaluable_from, 13)]
    with packed_spy() as taken, long_div_spy() as divided:
        packed = {(name, n): REGISTRY[name].build(n) for name, n in small + LARGE_BUILDS}
    assert sum(taken) >= 16  # two packed products in each character build at least
    assert sum(divided) >= 10  # f_AB_fdes_fmaj's division, n = 3 to 12 and 16
    texts = {build: str(packed[build]) for build in LARGE_BUILDS}
    monkeypatch.setattr(poly, "_packed_product", lambda factors: None)
    monkeypatch.setattr(poly, "_long_div", lambda p, d: None)
    for name, n in small:
        assert REGISTRY[name].build(n) == packed[name, n], (name, n)
    for (name, n), text in texts.items():
        assert str(REGISTRY[name].build(n)) == text, (name, n)


def test_f_AB_fdes_fmaj_divides_by_long_division():
    """The closed form's one division, by 1 - q, never needs the heap."""
    with long_div_spy() as divided:
        for n in range(3, 17):
            f_AB_fdes_fmaj(n)
    assert divided == [True] * 14


def test_sign_twisted_form_is_the_inversion_form_at_minus_one():
    """f_sign_des_set is built layer by layer at t = -1; its printed
    definition is f_A_inv_des via t -> -1."""
    for n in range(2, 13):
        assert f_sign_des_set(n) == f_A_inv_des(n).substitute({"t": -1}), n


def test_even_sign_variant_matches_substituted_form():
    for n in (2, 4, 6):
        assert f_sign_des_set_even(n) == f_sign_des_set(n)


def test_left_unimodal_descent_sets():
    from arcperm.arcsets import generate_left_unimodal

    for n in range(1, 9):
        brute = enumerator(generate_left_unimodal(n), WeightSpec(descent_vars=True))
        assert f_L_des_set(n) == brute


def test_cardinality_specializations():
    for n in range(2, 9):
        assert f_A_des_set(n).substitute({}, default=1).constant_value() == n * 2 ** (n - 2)
    for n in range(1, 9):
        assert f_As_des_neg(n).substitute({}, default=1).constant_value() == n * 2**n
        if n >= 2:
            assert f_AB_des_set(n).substitute({}, default=1).constant_value() == n * 2**n
        assert (
            f_As_character_fmaj(n, Character.TRIVIAL).substitute({}, default=1).constant_value()
            == n * 2**n
        )


def test_verify_statuses():
    rows = verify_formula("f_A_maj", range(1, 7))
    assert [r.status for r in rows] == [OUT_OF_STATED_RANGE] + [EQUAL] * 5
    # an EQUAL row keeps the walk's polynomial as both sides
    assert all(r.lhs is r.rhs for r in rows[1:])

    row = verify_formula("f_A_des_maj", [2])[0]
    assert row.status == OUT_OF_STATED_RANGE
    assert row.diff == T * Q + T**2 * Q**2 and row.lhs - row.rhs == row.diff

    row = verify_formula("f_A_des", [2])[0]
    assert row.status == OUT_OF_STATED_RANGE
    assert row.lhs is None and row.diff is None
    assert "n >= 3" in row.note


def test_documented_small_n_defect_of_signed_fdes_fmaj():
    # the printed fdes/fmaj product for signed arc permutations is wrong at
    # n = 2: it enumerates 16 weighted elements instead of 8
    brute = enumerator(generate_signed_arc(2), WeightSpec(t_stat="fdes", q_stat="fmaj"))
    assert brute == 1 + 2 * T * Q + T * Q**2 + T**2 * Q**2 + 2 * T**2 * Q**3 + T**3 * Q**4
    closed = f_As_fdes_fmaj(2)
    assert closed != brute
    assert closed.substitute({}, default=1).constant_value() == 16
    row = verify_formula("f_As_fdes_fmaj", [2])[0]
    assert row.status == OUT_OF_STATED_RANGE
    assert not row.diff.is_zero


def test_negative_control_mismatches():
    rows = verify_formula("negative-control", range(2, 5))
    assert all(r.status == MISMATCH for r in rows)
    assert all(r.diff == const(1) for r in rows)
    assert "negative-control" not in formula_names()
    assert "negative-control" in formula_names(include_hidden=True)


def test_report_json_schema():
    rows = verify_many(["f_A_maj", "f_A_des"], range(1, 4))
    for row in rows:
        data = row.to_json()
        assert set(data) == {"formula", "n", "status", "lhs", "rhs", "diff", "note"}
        assert data["status"] in (EQUAL, MISMATCH, OUT_OF_STATED_RANGE)
        assert isinstance(data["rhs"], list)


def test_registry_names_are_exact():
    expected = {
        "f_A_inv_des", "f_A_des_set", "f_A_des_maj", "f_A_des", "f_A_maj",
        "f_A_signed_maj", "f_sign_des_set", "f_sign_des_set_even", "f_L_des_set",
        "f_As_des_neg", "f_As_des_neg_inv", "f_As_fdes_fmaj", "f_As_fdes",
        "f_As_character_fmaj.trivial", "f_As_character_fmaj.sign",
        "f_As_character_fmaj.neg_parity", "f_As_character_fmaj.sign_abs",
        "f_AB_character_fmaj.trivial", "f_AB_character_fmaj.sign",
        "f_AB_character_fmaj.neg_parity", "f_AB_character_fmaj.sign_abs",
        "f_AB_fdes_fmaj", "f_AB_fdes", "f_AB_des_set",
    }
    assert set(formula_names()) == expected
    assert set(REGISTRY) == expected | {"negative-control"}
