"""Closed forms: spot values, substitution coherence, verification reports."""

import random
import re
from functools import partial

import pytest

from arcperm import formulas, poly
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
from arcperm.poly import SparsePolynomial, const, poly_product, q_bracket, var
from arcperm.walk import WeightSpec, enumerator
from test_poly_oracle import packed_spy

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
    # each builder's lower bound is declared once, as its entry's
    # evaluable_from (pinned by REGISTRY_TABLE): the builder refuses the n
    # below it and builds at it; a builder that raised inside the range
    # would make verify exit 2
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
    """The packed product gives real-size results as the dict product
    computes them, term for term: every closed form to n = 12 by its terms
    (which fix its text), and the benchmark's large builds by their text."""
    small = [(name, n) for name, entry in REGISTRY.items() for n in range(entry.evaluable_from, 13)]
    with packed_spy() as taken:
        packed = {(name, n): REGISTRY[name].build(n) for name, n in small + LARGE_BUILDS}
    assert sum(taken) >= 16  # one packed product in each character build at least
    texts = {build: str(packed[build]) for build in LARGE_BUILDS}
    monkeypatch.setattr(poly, "_packed_product", lambda factors: None)
    for name, n in small:
        assert REGISTRY[name].build(n) == packed[name, n], (name, n)
    for (name, n), text in texts.items():
        assert str(REGISTRY[name].build(n)) == text, (name, n)


# Each product form in t and q as it was grouped before it became one
# poly_product over all its factors, written out: its pieces multiplied by
# ``*``, each partial product decoded before the next.
SIGNS = {Character.TRIVIAL: (1, 1), Character.SIGN: (1, -1), Character.NEG_PARITY: (-1, 1),
         Character.SIGN_ABS: (-1, -1)}


def _fmaj_chain(n, a, b):
    return poly_product(1 + a * b**i * Q ** (2 * i - 1) for i in range(1, n))


def _signed_fmaj(n, a, b):
    if n % 2 and b == -1:
        return (1 - a * Q) * q_bracket(n, -(Q**2)) * _fmaj_chain(n, a, b)
    return q_bracket(2 * n, a * Q) * _fmaj_chain(n, a, b)


def _b_fmaj(n, a, b):
    return q_bracket(2 * n, a * b**n * Q) * _fmaj_chain(n, a, b)


def _signed_fdes_fmaj(n):
    head = (1 + T * Q * (1 + Q) + 2 * T**2 * Q**3 * q_bracket(2 * n - 3, Q)
            + T**3 * Q ** (2 * n) * (1 + Q) + T**4 * Q ** (2 * n + 2))
    return (1 + T * Q) * head * poly_product(1 + T**2 * Q ** (2 * i - 1) for i in range(3, n))


GROUPINGS = {
    "f_A_des_maj": lambda n: poly_product(1 + T * Q**i for i in range(2, n - 1))
    * (1 + 2 * T * Q * q_bracket(n - 1, Q) + T**2 * Q**n),
    "f_A_des": lambda n: (1 + T) ** (n - 3) * (1 + 2 * (n - 1) * T + T**2),
    "f_A_maj": lambda n: q_bracket(n, Q) * poly_product(1 + Q**i for i in range(1, n - 1)),
    "f_A_signed_maj": lambda n: q_bracket(n, Q if n % 2 else -Q)
    * poly_product(1 + (-Q) ** i for i in range(1, n - 1)),
    "f_As_fdes_fmaj": _signed_fdes_fmaj,
    "f_As_fdes": lambda n: (1 + T) * (1 + T**2) ** (n - 3)
    * (1 + 2 * T + (4 * n - 6) * T**2 + 2 * T**3 + T**4),
    "f_AB_fdes": lambda n: (1 + T) ** 3 * (1 + T**2) ** (n - 3) * (1 + (n - 2) * T + T**2),
    **{f"f_As_character_fmaj.{chi.value}": partial(_signed_fmaj, a=a, b=b)
       for chi, (a, b) in SIGNS.items()},
    **{f"f_AB_character_fmaj.{chi.value}": partial(_b_fmaj, a=a, b=b)
       for chi, (a, b) in SIGNS.items()},
}


def test_each_product_form_is_its_grouping():
    for name, grouped in GROUPINGS.items():
        for n in range(REGISTRY[name].evaluable_from, 31):
            assert REGISTRY[name].build(n) == grouped(n), (name, n)


def test_each_product_form_is_one_packed_product(monkeypatch):
    """Built at n = 24 with ``*`` refusing two operands of more than one
    term each, every product form builds through one ``poly_product``, and
    that product packs: no partial product is decoded and multiplied again."""
    multiply = SparsePolynomial.__mul__

    def refuse(a, b):
        if isinstance(b, SparsePolynomial) and len(a._terms) > 1 < len(b._terms):
            raise AssertionError(f"a product of {len(a._terms)} and {len(b._terms)} terms")
        return multiply(a, b)

    monkeypatch.setattr(SparsePolynomial, "__mul__", refuse)
    for name in GROUPINGS:
        with packed_spy() as taken:
            REGISTRY[name].build(24)
        assert taken == [True], name
    with pytest.raises(AssertionError, match="a product of"):
        GROUPINGS["f_A_maj"](24)


# The four forms whose pieces are multilinear in x's alone: _layered
# evaluates them at the letter point and decodes once.
LETTER_FORMS = ["f_A_des_set", "f_sign_des_set", "f_sign_des_set_even", "f_AB_des_set"]
# The three in t or y: _layered sums them in the polynomial ring.
RING_FORMS = ["f_A_inv_des", "f_As_des_neg", "f_As_des_neg_inv"]


@pytest.fixture
def letters_spy(monkeypatch):
    """Records, per layered sum, whether the letter point took it (True) or
    left it to the polynomial ring (False)."""
    original, taken = formulas._letters_sum, []

    def spy(*args):
        result = original(*args)
        taken.append(result is not None)
        return result

    monkeypatch.setattr(formulas, "_letters_sum", spy)
    return taken


def _display(lefts, heads, rights, scale):
    """The layered display expanded as printed, one ``poly_product`` per
    term: scale·∏ L_i + Σ_j H_j·∏_{i<j} L_i·∏_{i≥j+2} R_i, ``rights`` being
    R_3, ..., R_m.  It shares no code with the backward recursion."""
    total = poly_product([scale, *lefts])
    for j in range(1, len(lefts)):
        total = total + poly_product([heads[j - 1], *lefts[:j - 1], *rights[j - 1:]])
    return total


def _with_pieces(monkeypatch, build, n):
    """``build(n)`` and the (lefts, heads, rights, scale) of its layered sum."""
    original, seen = formulas._letters_sum, []

    def record(*pieces):
        seen.append(pieces)
        return original(*pieces)

    with monkeypatch.context() as patch:
        patch.setattr(formulas, "_letters_sum", record)
        built = build(n)
    (pieces,) = seen
    return built, pieces


def test_layered_forms_match_their_printed_display(monkeypatch, letters_spy):
    """Each layered form as built against its display expanded from the
    same pieces: the letter forms to n = 14, the forms in t or y to n = 10,
    past the brute force's n <= 8."""
    cases = [(name, n) for name in LETTER_FORMS for n in range(2, 15)]
    cases += [(name, n) for name in RING_FORMS for n in range(REGISTRY[name].evaluable_from, 11)]
    for name, n in cases:
        built, pieces = _with_pieces(monkeypatch, REGISTRY[name].build, n)
        assert letters_spy.pop() is (name in LETTER_FORMS), (name, n)
        assert built == _display(*pieces), (name, n)


def _random_pieces(rng, m):
    """x-only layered pieces with signed coefficients whose supports the
    layered shape keeps apart: layer i's letter is a random x_d, a left or
    right piece is in its layer's letter and a head in its two layers'."""
    letter = [var(f"x{d}") for d in rng.sample(range(1, m + 4), m + 1)]

    def coeff():
        return rng.choice([-3, -2, -1, 1, 2, 3, 10**20 + 1])

    def head(j):
        parts = [const(1), letter[j], letter[j + 1], letter[j] * letter[j + 1]]
        return sum([coeff() * part for part in rng.sample(parts, rng.randint(1, 4))], const(0))

    lefts = [coeff() + coeff() * letter[i] for i in range(1, m + 1)]
    rights = [coeff() + coeff() * letter[i] for i in range(3, m + 1)]
    return lefts, [head(j) for j in range(1, m)], rights


def _layered(lefts, heads, rights, scale):
    return formulas._layered(len(lefts), lambda i: lefts[i - 1], lambda j: heads[j - 1],
                             lambda i: rights[i - 3], scale)


def test_random_letter_pieces_match_the_printed_display(letters_spy):
    """At the letter point, and in the polynomial ring when the scale comes
    as a polynomial, which the letter point refuses."""
    rng = random.Random(20140211)
    for _ in range(60):
        pieces = _random_pieces(rng, rng.randint(1, 7))
        scale = rng.choice([1, -1, 7, -(2**64) - 3])
        want = _display(*pieces, scale)
        assert _layered(*pieces, scale) == want
        assert _layered(*pieces, const(scale)) == want
        assert letters_spy == [True, False]
        letters_spy.clear()


@pytest.mark.parametrize("width", [16, 24, 32, 64])
def test_the_bound_at_a_slot_width_edge(letters_spy, width):
    """With one-term pieces of one sign, every part of the sum lands on
    x_1...x_m with that sign, so its coefficient is +-B: at 2^(W-1) - 1 it
    fills a W-bit slot, and at 2^(W-1) it needs the next width.  The scale
    term is most of B."""
    m = 5
    xs = [var(f"x{i}") for i in range(1, m + 1)]
    rights = [4 * x for x in xs[2:]]
    heads_norm = sum([7 * 4 ** (m - j - 1) for j in range(1, m)])  # ‖H_j‖·∏_{i≥j+2} ‖R_i‖
    for target in (2 ** (width - 1) - 1, 2 ** (width - 1)):
        for sign in (1, -1):
            heads = [sign * 7 * xs[j - 1] * xs[j] for j in range(1, m)]
            packed = _layered(xs, heads, rights, sign * (target - heads_norm))
            assert letters_spy.pop() is True
            assert packed == sign * target * poly_product(xs)


def test_what_the_letter_point_cannot_hold_is_expanded(letters_spy):
    """A piece that squares a letter or carries another variable, a scale
    that is no int, or pieces whose supports meet inside one product of the
    sum: the letter point refuses them, and the polynomial ring sums them."""
    x = [var(f"x{i}") for i in range(6)]
    lefts = [1 + x[i] for i in range(1, 5)]
    heads = [x[j] + x[j + 1] for j in range(1, 4)]
    rights = lefts[2:]
    cases = [
        ([1 + x[1]] * 4, heads, rights, 1),  # the lefts meet
        (lefts, heads, [1 + x[5]] * 2, 1),  # the rights meet
        (lefts, [x[1] + x[j + 1] for j in range(1, 4)], rights, 1),  # a head meets its prefix
        (lefts, [x[j] + x[j + 2] for j in range(1, 4)], rights, 1),  # a head meets its suffix
        ([1 + x[1] ** 2, *lefts[1:]], heads, rights, 1),  # a letter squared
        ([1 + x[0], *lefts[1:]], heads, rights, 1),  # x0 is no letter
        (lefts, [T * x[1] + x[2], *heads[1:]], rights, 1),  # t
        (lefts, heads, [1 + var("y3"), rights[1]], -3),  # y
        (lefts, heads, rights, 2 + x[5]),  # a polynomial scale
    ]
    for case in cases:
        assert _layered(*case) == _display(*case), case
        assert letters_spy.pop() is False, case


def test_only_the_t_and_y_forms_reach_the_dict_product(monkeypatch):
    """The four x-only forms build without a dict product, scalar multiples
    included; the layered forms in t or y still expand through it."""

    def refuse(a, b):
        raise AssertionError("a dict product")

    monkeypatch.setattr(poly, "_dict_product", refuse)
    for name in LETTER_FORMS:
        for n in range(2, 11):
            REGISTRY[name].build(n)
    for name in ("f_A_inv_des", "f_As_des_neg_inv"):
        with pytest.raises(AssertionError, match="a dict product"):
            REGISTRY[name].build(6)


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
    # one key set per status: an EQUAL row writes its one polynomial once
    rows = [*verify_many(["f_A_maj", "f_A_des"], range(1, 4)),
            *verify_many(["negative-control"], range(2, 3))]
    assert {row.status for row in rows} == {EQUAL, MISMATCH, OUT_OF_STATED_RANGE}
    for row in rows:
        data = row.to_json()
        if row.status == EQUAL:
            assert list(data) == ["formula", "n", "status", "polynomial", "note"]
            assert data["polynomial"] == row.lhs.to_json() == row.rhs.to_json()
        else:
            assert list(data) == ["formula", "n", "status", "lhs", "rhs", "diff", "note"]
            assert isinstance(data["rhs"], list)


def test_verify_formula_returns_a_list():
    # a list, not a generator: callers time the call and then read its rows
    rows = verify_formula("f_A_maj", range(1, 4))
    assert type(rows) is list and [r.status for r in rows] == [OUT_OF_STATED_RANGE, EQUAL, EQUAL]


W = WeightSpec
FAILS_AT_2 = "printed claim starts at n = 2 but the identity fails there"
# Every registry entry in order: name, family, weights, claimed_from,
# evaluable_from, even_only, hidden, note.  Written out here rather than read
# from the declarations in formulas.py, so that a declaration that drifts
# (a range, a family, a skipped character) fails against it.
REGISTRY_TABLE = [
    ("f_A_inv_des", "arc", W(t_stat="inv", descent_vars=True), 2, 2, False, False, ""),
    ("f_A_des_set", "arc", W(descent_vars=True), 2, 2, False, False, ""),
    ("f_A_des_maj", "arc", W(t_stat="des", q_stat="maj"), 3, 2, False, False, FAILS_AT_2),
    ("f_A_des", "arc", W(t_stat="des"), 3, 3, False, False, "literal form carries (1+t)^(n-3)"),
    ("f_A_maj", "arc", W(q_stat="maj"), 2, 2, False, False, ""),
    ("f_A_signed_maj", "arc", W(q_stat="maj", character=Character.SIGN), 2, 2, False, False, ""),
    ("f_sign_des_set", "arc", W(descent_vars=True, character=Character.SIGN), 2, 2, False, False,
     ""),
    ("f_sign_des_set_even", "arc", W(descent_vars=True, character=Character.SIGN), 2, 2, True,
     False, ""),
    ("f_L_des_set", "left-unimodal", W(descent_vars=True), 1, 1, False, False, ""),
    ("f_As_des_neg", "signed-arc", W(descent_vars=True, neg_vars=True), 1, 1, False, False, ""),
    ("f_As_des_neg_inv", "signed-arc", W(t_stat="inv", descent_vars=True, neg_vars=True), 1, 1,
     False, False, ""),
    ("f_As_fdes_fmaj", "signed-arc", W(t_stat="fdes", q_stat="fmaj"), 3, 2, False, False,
     FAILS_AT_2),
    ("f_As_fdes", "signed-arc", W(t_stat="fdes"), 3, 3, False, False,
     "literal form carries (1+t^2)^(n-3)"),
    ("f_As_character_fmaj.trivial", "signed-arc", W(q_stat="fmaj", character=Character.TRIVIAL),
     1, 1, False, False, ""),
    ("f_As_character_fmaj.sign", "signed-arc", W(q_stat="fmaj", character=Character.SIGN),
     1, 1, False, False, ""),
    ("f_As_character_fmaj.neg_parity", "signed-arc",
     W(q_stat="fmaj", character=Character.NEG_PARITY), 1, 1, False, False, ""),
    ("f_As_character_fmaj.sign_abs", "signed-arc", W(q_stat="fmaj", character=Character.SIGN_ABS),
     1, 1, False, False, ""),
    ("f_AB_character_fmaj.trivial", "b-arc", W(q_stat="fmaj", character=Character.TRIVIAL),
     1, 1, False, False, ""),
    ("f_AB_character_fmaj.sign", "b-arc", W(q_stat="fmaj", character=Character.SIGN),
     1, 1, False, False, ""),
    ("f_AB_character_fmaj.neg_parity", "b-arc", W(q_stat="fmaj", character=Character.NEG_PARITY),
     1, 1, False, False, ""),
    ("f_AB_character_fmaj.sign_abs", "b-arc", W(q_stat="fmaj", character=Character.SIGN_ABS),
     1, 1, False, False, ""),
    ("f_AB_fdes_fmaj", "b-arc", W(t_stat="fdes", q_stat="fmaj"), 2, 2, False, False, ""),
    ("f_AB_fdes", "b-arc", W(t_stat="fdes"), 3, 3, False, False,
     "literal form carries (1+t^2)^(n-3)"),
    ("f_AB_des_set", "b-arc", W(descent_vars=True), 2, 2, False, False, ""),
    ("negative-control", "arc", W(q_stat="maj"), 2, 2, False, True,
     "deliberately corrupted fixture; a MISMATCH here is expected"),
]


def test_registry_is_the_recorded_table():
    assert [(name, e.family, e.weights, e.claimed_from, e.evaluable_from, e.even_only, e.hidden,
             e.note) for name, e in REGISTRY.items()] == REGISTRY_TABLE
    # each entry's build is the module's public builder (bound to its
    # character), so a direct call is refused exactly as verify refuses it
    for name, entry in REGISTRY.items():
        base, _, chi = name.partition(".")
        assert entry.name == name
        if entry.hidden:
            assert entry.build is formulas.f_negative_control
        elif chi:
            assert entry.build.func is getattr(formulas, base)
            assert entry.build.keywords == {"chi": Character(chi)}
        else:
            assert entry.build is getattr(formulas, base)
    with pytest.raises(ValueError, match="^formula requires n >= 3, got 2$"):
        f_A_des(2)


def test_registry_names_are_exact():
    names = [row[0] for row in REGISTRY_TABLE]
    assert formula_names(include_hidden=True) == names
    assert formula_names() == [row[0] for row in REGISTRY_TABLE if not row[6]]
