"""Cyclic elements, canonical factorizations, and exponent criteria."""

import itertools
import random

import pytest

from arcperm.arcsets import generate_b_arc, is_arc, is_b_arc
from arcperm.canonical import (
    ExponentVectorA,
    ExponentVectorB,
    _power_word,
    cycle_A,
    cycle_B,
    decompose_A,
    decompose_B,
    fmaj_from_exponents,
    is_arc_by_exponents,
    is_b_arc_by_exponents,
    maj_from_exponents,
    recompose_A,
    recompose_B,
)
from arcperm.perms import Permutation, SignedPermutation
from helpers import hyperoctahedral, symmetric


def test_cycle_a():
    assert cycle_A(2, 3) == Permutation([3, 1, 2])
    assert cycle_A(1, 4) == Permutation([2, 1, 3, 4])
    for m in range(1, 5):
        assert cycle_A(m, 5) ** (m + 1) == Permutation.identity(5)
        assert cycle_A(m, 5) ** m != Permutation.identity(5)
    with pytest.raises(ValueError):
        cycle_A(0, 3)
    with pytest.raises(ValueError):
        cycle_A(3, 3)


def test_cycle_b():
    assert cycle_B(0, 1) == SignedPermutation([-1])
    assert cycle_B(2, 3) == SignedPermutation([-3, 1, 2])
    assert cycle_B(3, 5) == SignedPermutation([-4, 1, 2, 3, 5])
    for m in range(0, 4):
        assert cycle_B(m, 4) ** (2 * m + 2) == SignedPermutation.identity(4)
        assert cycle_B(m, 4) ** (m + 1) != SignedPermutation.identity(4)
    with pytest.raises(ValueError):
        cycle_B(4, 4)


def test_cycle_b_equals_generator_product():
    # c_m = s_m s_{m-1} ... s_1 s_0 in the standard generators
    n = 5
    s0 = SignedPermutation([-1] + list(range(2, n + 1)))
    adjacents = []
    for i in range(1, n):
        word = list(range(1, n + 1))
        word[i - 1], word[i] = word[i], word[i - 1]
        adjacents.append(SignedPermutation(word))
    for m in range(0, n):
        product = s0
        for i in range(1, m + 1):
            product = adjacents[i - 1] * product
        assert product == cycle_B(m, n)


def test_multiplication_order_pinned():
    assert cycle_B(2, 3) * SignedPermutation.identity(3) == SignedPermutation([-3, 1, 2])


def test_decompose_examples():
    assert decompose_A(Permutation.parse("231")).k == (0, 2)
    assert decompose_A(Permutation.parse("213")).k == (1, 0)
    assert decompose_A(Permutation.identity(5)).k == (0, 0, 0, 0)
    assert decompose_B(SignedPermutation([-1])).k == (1,)
    assert decompose_B(SignedPermutation.identity(3)).k == (0, 0, 0)
    assert decompose_B(cycle_B(3, 4)).k == (0, 0, 0, 1)


def test_round_trip_and_statistics_a():
    for n in range(1, 6):
        for p in symmetric(n):
            e = decompose_A(p)
            assert recompose_A(e) == p
            assert maj_from_exponents(e) == p.maj()
            assert is_arc_by_exponents(e) == is_arc(p)


def test_round_trip_and_statistics_b():
    small = itertools.chain.from_iterable(hyperoctahedral(n) for n in range(1, 5))
    for p in itertools.chain(small, generate_b_arc(10)):
        e = decompose_B(p)
        assert recompose_B(e) == p
        assert fmaj_from_exponents(e) == p.fmaj()
        assert is_b_arc_by_exponents(e) == is_b_arc(p)



def test_cycle_power_cache_is_bounded():
    # one cycle power per (m, n, k, signed) met: 40 random signed words of
    # size 60 meet more of them than the cache keeps, and the factorizations
    # stay right as the older ones are evicted
    rng = random.Random(1)
    _power_word.cache_clear()
    for _ in range(40):
        word = rng.sample(range(1, 61), 60)
        p = SignedPermutation([v if rng.random() < 0.5 else -v for v in word])
        e = decompose_B(p)
        assert recompose_B(e) == p and fmaj_from_exponents(e) == p.fmaj()
    info = _power_word.cache_info()
    assert info.maxsize is not None and info.misses > info.maxsize >= info.currsize

def test_exponent_criteria():
    assert not is_arc_by_exponents(ExponentVectorA(4, (0, 1, 2)))
    assert is_arc_by_exponents(ExponentVectorA(4, (0, 0, 0)))
    assert is_arc_by_exponents(ExponentVectorA(4, (1, 2, 3)))
    assert is_b_arc_by_exponents(ExponentVectorB(3, (0, 0, 0)))
    assert is_b_arc_by_exponents(ExponentVectorB(3, (1, 0, 0)))
    assert not is_b_arc_by_exponents(ExponentVectorB(3, (1, 2, 0)))


def test_exponent_vector_validation_and_printing():
    with pytest.raises(ValueError):
        ExponentVectorA(3, (0, 3))
    with pytest.raises(ValueError):
        ExponentVectorA(3, (0,))
    with pytest.raises(ValueError):
        ExponentVectorB(2, (2, 0))
    assert str(ExponentVectorA(3, (0, 2))) == "A k=[0,2]"
    assert str(ExponentVectorB(2, (1, 3))) == "B k=[1,3]"


def test_exponents_are_plain_integers_kept_as_a_tuple():
    for bad in (1.5, True, "1", None):
        with pytest.raises(TypeError, match="is not an integer"):
            ExponentVectorA(3, (0, bad))
    with pytest.raises(TypeError, match="is not an integer"):
        ExponentVectorB(2, (False, 3))
    for size in (2.0, True):
        with pytest.raises(TypeError, match="^size .* is not an integer$"):
            ExponentVectorB(size, (1,) * int(size))
    listed = ExponentVectorB(2, [1, 3])
    assert listed.k == (1, 3) and type(listed.k) is tuple
    assert listed == ExponentVectorB(2, (1, 3))
    assert hash(listed) == hash(ExponentVectorB(2, (1, 3)))
    assert ExponentVectorA(3, range(2)).k == (0, 1)


def test_every_entry_point_checks_its_group():
    a, b = ExponentVectorA(3, (1, 2)), ExponentVectorB(2, (1, 3))
    wrong = [
        (decompose_A, SignedPermutation([-1, 2]), "expected Permutation, got SignedPermutation"),
        (decompose_A, (2, 1), "expected Permutation, got tuple"),
        (decompose_B, Permutation([2, 1]), "expected SignedPermutation, got Permutation"),
        (recompose_A, b, "expected ExponentVectorA, got ExponentVectorB"),
        (recompose_B, a, "expected ExponentVectorB, got ExponentVectorA"),
        (is_arc_by_exponents, b, "expected ExponentVectorA, got ExponentVectorB"),
        (is_b_arc_by_exponents, a, "expected ExponentVectorB, got ExponentVectorA"),
    ]
    for call, arg, message in wrong:
        with pytest.raises(TypeError, match=message):
            call(arg)


def test_constraint_set_cardinalities():
    for n in range(2, 7):
        vectors = itertools.product(*(range(i + 1) for i in range(1, n)))
        count = sum(1 for k in vectors if is_arc_by_exponents(ExponentVectorA(n, k)))
        assert count == n * 2 ** (n - 2)
    for n in range(1, 7):
        vectors = itertools.product(*(range(2 * i + 2) for i in range(n)))
        count = sum(1 for k in vectors if is_b_arc_by_exponents(ExponentVectorB(n, k)))
        assert count == n * 2**n


def test_factorization_order_matches_statement():
    # the expression c_{n-1}^{k_{n-1}} ... c_1^{k_1} read right to left
    e = ExponentVectorA(4, (1, 0, 2))
    expected = (cycle_A(3, 4) ** 2) * (cycle_A(1, 4) ** 1)
    assert recompose_A(e) == expected
    eb = ExponentVectorB(3, (1, 2, 0))
    expected_b = (cycle_B(1, 3) ** 2) * (cycle_B(0, 3) ** 1)
    assert recompose_B(eb) == expected_b
