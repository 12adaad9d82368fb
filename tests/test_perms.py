"""Core permutation types, statistics, characters, and parsing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcperm.perms import (
    Character,
    Permutation,
    SignedPermutation,
    b_order_key,
)
from helpers import det, doubled_matrix, hyperoctahedral, signed_matrix, symmetric


# -- construction and parsing -------------------------------------------------


def test_validation_rejects_bad_words():
    with pytest.raises(ValueError):
        Permutation([2, 2])
    with pytest.raises(ValueError):
        Permutation([0, 1])
    with pytest.raises(ValueError):
        Permutation([])
    with pytest.raises(ValueError):
        SignedPermutation([1, -1])
    with pytest.raises(ValueError):
        SignedPermutation([3, 1])


def test_parse_bracketed_and_compact():
    assert Permutation.parse("[2,5,4,3,1]") == Permutation.parse("25431")
    assert Permutation.parse(" [ 1 , 2 ] ") == Permutation([1, 2])
    assert SignedPermutation.parse("[-3,-2,4,1]").word == (-3, -2, 4, 1)
    assert SignedPermutation.parse("123").word == (1, 2, 3)


def test_parse_errors_name_the_token():
    with pytest.raises(ValueError, match="'2a'"):
        SignedPermutation.parse("[1,2a]")
    with pytest.raises(ValueError, match="negative"):
        Permutation.parse("[-1,2]")
    with pytest.raises(ValueError):
        Permutation.parse("10293")
    with pytest.raises(ValueError):
        SignedPermutation.parse("[2,2]")


def test_printer_emits_bracketed_form():
    assert str(Permutation([3, 2, 4, 1])) == "[3,2,4,1]"
    assert str(SignedPermutation([-3, -2, 4, 1])) == "[-3,-2,4,1]"


@given(st.permutations(list(range(1, 8))))
def test_parse_print_round_trip(word):
    p = Permutation(word)
    assert Permutation.parse(str(p)) == p


@given(st.permutations(list(range(1, 7))), st.lists(st.booleans(), min_size=6, max_size=6))
def test_signed_parse_print_round_trip(word, flips):
    p = SignedPermutation(-v if f else v for v, f in zip(word, flips))
    assert SignedPermutation.parse(str(p)) == p


# -- type A statistics ---------------------------------------------------------


def test_descent_set_examples():
    assert Permutation.parse("12543").descent_set() == {3, 4}
    assert Permutation.identity(6).descent_set() == frozenset()
    assert Permutation.parse("231").descent_set() == {2}


def test_maj_inv_sign_examples():
    p = Permutation.parse("231")
    assert (p.maj(), p.inv(), p.sign()) == (2, 2, 1)
    q = Permutation.parse("21")
    assert (q.maj(), q.inv(), q.sign()) == (1, 1, -1)
    e = Permutation.identity(4)
    assert (e.maj(), e.inv(), e.sign()) == (0, 0, 1)


# -- type B statistics ---------------------------------------------------------


def test_b_order():
    values = [3, -2, 1, -1, 2, -3]
    assert sorted(values, key=b_order_key) == [-1, -2, -3, 1, 2, 3]


def test_descent_set_b_examples():
    assert SignedPermutation.parse("[2,-1,3]").descent_set() == {1}
    assert SignedPermutation.parse("[-1,-2]").descent_set() == frozenset()
    assert SignedPermutation.identity(5).descent_set() == frozenset()


def test_descent_set_b_agrees_with_a_on_positive_words():
    for p in symmetric(5):
        assert SignedPermutation(p.word).descent_set() == p.descent_set()


def test_stats_profile_examples():
    s = SignedPermutation.parse("[2,-1,3]").stats()
    assert s.des_set == {1}
    assert s.maj == 1
    assert s.neg == 1
    assert s.fmaj == 3
    assert s.fdes == 2
    assert s.inv == 1
    # sign = (-1) ** (inv(|p|) + neg(p))
    assert s.sign == 1
    assert s.sign_abs == -1
    assert s.neg_parity == -1

    s = SignedPermutation.parse("[-2,-1]").stats()
    assert s.des_set == {1}
    assert (s.maj, s.neg, s.fmaj, s.fdes) == (1, 2, 4, 3)

    zero = SignedPermutation.identity(4).stats()
    assert zero.as_dict() == {
        "des_set": [], "des": 0, "maj": 0, "inv": 0, "neg_set": [], "neg": 0,
        "fmaj": 0, "fdes": 0, "sign": 1, "sign_abs": 1, "neg_parity": 1,
    }


def test_flag_statistic_identities_exhaustive():
    for n in range(1, 7):
        for p in hyperoctahedral(n):
            s = p.stats()
            assert s.fmaj == 2 * s.maj + s.neg
            assert s.fdes == 2 * s.des + (1 if p(1) < 0 else 0)
            assert s.sign == s.neg_parity * s.sign_abs


def test_sign_is_multiplicative_on_b3():
    group = hyperoctahedral(3)
    signs = {p: p.sign() for p in group}
    for p in group:
        for q in group:
            assert signs[p] * signs[q] == (p * q).sign()


def test_sign_matches_signed_matrix_determinant():
    for p in hyperoctahedral(4):
        assert det(tuple(map(tuple, signed_matrix(p)))) == p.sign()


def test_doubled_matrix_determinant_is_negation_parity():
    # the 2n-point 0/1 representation has determinant (-1)^neg, not sign
    for p in hyperoctahedral(3):
        assert det(tuple(map(tuple, doubled_matrix(p)))) == p.stats().neg_parity


# -- characters -----------------------------------------------------------------


def test_character_examples():
    assert Character.SIGN.of(SignedPermutation([-1])) == -1
    assert Character.TRIVIAL.of(SignedPermutation.parse("[-3,2,-1]")) == 1
    assert Character.NEG_PARITY.of(SignedPermutation.parse("[-3,-2,4,1]")) == 1


def test_character_product_identity():
    for n in range(1, 6):
        for p in hyperoctahedral(n):
            assert Character.SIGN.of(p) == Character.NEG_PARITY.of(p) * Character.SIGN_ABS.of(p)


def test_characters_on_unsigned_words():
    p = Permutation.parse("231")
    assert Character.TRIVIAL.of(p) == 1
    assert Character.SIGN.of(p) == p.sign()
    assert Character.NEG_PARITY.of(p) == 1
    assert Character.SIGN_ABS.of(p) == p.sign()


# -- group structure --------------------------------------------------------------


def test_composition_convention():
    p = Permutation.parse("312")
    q = Permutation.parse("231")
    assert (p * q)(1) == p(q(1))
    assert [(p * q)(i) for i in (1, 2, 3)] == [p(q(i)) for i in (1, 2, 3)]


def test_signed_window_symmetry():
    p = SignedPermutation.parse("[-3,-2,4,1]")
    for a in range(1, 5):
        assert p(-a) == -p(a)


def test_inverse_and_powers():
    p = SignedPermutation.parse("[2,-1,3]")
    assert p * p.inverse() == SignedPermutation.identity(3)
    assert p**0 == SignedPermutation.identity(3)
    assert p**3 == p * p * p
    assert p**-2 == (p.inverse()) ** 2


def test_absolute():
    assert SignedPermutation.parse("[-3,-2,4,1]").absolute() == Permutation.parse("3241")
    assert SignedPermutation.parse("[2,-1,3]").absolute() == Permutation.parse("213")
    assert SignedPermutation.parse("[1,2,3]").absolute() == Permutation.identity(3)


def test_positions_out_of_range_raise():
    p = Permutation.parse("231")
    q = SignedPermutation.parse("[2,-1,3]")
    for bad in (0, 4, -4):
        with pytest.raises(IndexError):
            p(bad)
        with pytest.raises(IndexError):
            q(bad)
    # negative positions follow p(-a) = -p(a) on unsigned words too
    assert [p(-a) for a in (1, 2, 3)] == [-2, -3, -1]
    assert [q(-a) for a in (1, 2, 3)] == [-2, 1, -3]


def test_the_two_classes_stay_distinct():
    p, q = Permutation.parse("213"), SignedPermutation.parse("213")
    assert not isinstance(q, Permutation) and not isinstance(p, SignedPermutation)
    assert p != q and hash(p) != hash(q)
    assert (repr(p), repr(q)) == ("Permutation([2, 1, 3])", "SignedPermutation([2, 1, 3])")
    with pytest.raises(TypeError):
        p * q


def test_a_bool_entry_is_not_an_integer():
    # bool is a subclass of int, so these were accepted and printed [True,2]
    for cls, word in ((Permutation, [True, 2]), (SignedPermutation, [-2, True]),
                      (SignedPermutation, [False, 1])):
        with pytest.raises(TypeError, match="is not an integer"):
            cls(word)
    assert Permutation([1, 2]).word == (1, 2)


@given(st.permutations(list(range(1, 7))), st.lists(st.booleans(), min_size=6, max_size=6))
def test_shared_statistics_match_the_definitions(word, flips):
    signed = SignedPermutation(-v if f else v for v, f in zip(word, flips))
    for p in (Permutation(word), signed):
        w = p.word
        key = b_order_key if p.signed else int
        n = len(w)
        assert p.descent_set() == {i for i in range(1, n) if key(w[i - 1]) > key(w[i])}
        assert p.inv() == sum(abs(w[i]) > abs(w[j]) for i in range(n) for j in range(i + 1, n))
        assert p.neg_set() == {i for i, v in enumerate(w, 1) if v < 0}
        assert p.sign() == (-1) ** (p.inv() + p.neg())
        s = p.stats()
        assert (s.des_set, s.des, s.maj) == (p.descent_set(), p.des(), p.maj())
        assert (s.inv, s.neg_set, s.neg, s.sign) == (p.inv(), p.neg_set(), p.neg(), p.sign())
        assert s.sign == s.sign_abs * s.neg_parity
        if p.signed:
            assert (s.fmaj, s.fdes) == (p.fmaj(), p.fdes())
