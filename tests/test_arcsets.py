"""Interval predicates, arc-family membership, and generators."""

import pytest

from arcperm.arcsets import (
    CircleOn,
    arc_violation,
    b_arc_violation,
    generate_arc,
    generate_b_arc,
    generate_hyperoctahedral,
    generate_left_unimodal,
    generate_signed_arc,
    generate_symmetric,
    is_arc,
    is_b_arc,
    is_cyclic_interval,
    is_interval_on,
    is_interval_zn,
    is_left_unimodal,
    is_signed_arc,
    left_unimodal_violation,
    signed_arc_violation,
)
from arcperm.canonical import cycle_B
from arcperm.perms import Permutation, SignedPermutation
from helpers import hyperoctahedral, symmetric


def test_interval_zn():
    assert is_interval_zn({1, 2, 5}, 5)
    assert not is_interval_zn({1, 2, 5}, 6)
    assert is_interval_zn(set(range(1, 8)), 7)
    assert is_interval_zn(set(), 4)
    assert is_interval_zn({3}, 4)
    with pytest.raises(ValueError):
        is_interval_zn({0, 1}, 3)


def test_interval_helpers_refuse_what_is_no_index_or_value():
    # an index past either end, a size of 0 and a bool once answered
    for indices, size in (({5}, 3), ({-1, 0}, 3), ({0, 1}, 0), ({True}, 3), ({1.0}, 3)):
        with pytest.raises(ValueError, match="out of range"):
            is_cyclic_interval(indices, size)
    with pytest.raises(ValueError, match="out of range 1..3"):
        is_interval_zn({True}, 3)
    assert is_cyclic_interval(set(), 0) and is_cyclic_interval({2, 0}, 3)


def test_interval_helpers_refuse_a_size_that_is_no_count():
    # is_interval_zn({1}, True) and is_cyclic_interval({0}, 3.0) answered True,
    # and is_cyclic_interval({0, 2}, 2.5) took 2 for an index
    for indices, size in ((set(), -1), ({0}, True), ({0}, 3.0), ({0, 2}, 2.5), ({0}, "3")):
        with pytest.raises(ValueError, match="^size .* is not a non-negative int$"):
            is_cyclic_interval(indices, size)
    for values, n in ((set(), -1), ({1}, True), ({1}, 3.0), ({1}, "3"), (set(), False)):
        with pytest.raises(ValueError, match="^size .* is not a non-negative int$"):
            is_interval_zn(values, n)
    assert is_cyclic_interval(set(), 0) and is_interval_zn(set(), 0)


def test_circle_needs_a_positive_int():
    # CircleOn(0).point(0) divided by zero; CircleOn(-2).point(1) was -2 and
    # CircleOn(2.0).point(1) was 2.0
    for n in (0, -2, 2.0, True, False, "3"):
        with pytest.raises(ValueError, match="^n must be positive$"):
            CircleOn(n)
    assert CircleOn(1).point(1) == -1


def test_circle_index_is_a_bijection():
    circle = CircleOn(4)
    points = [circle.point(i) for i in range(8)]
    assert points == [1, 2, 3, 4, -1, -2, -3, -4]
    assert [circle.index(v) for v in points] == list(range(8))
    with pytest.raises(ValueError):
        circle.index(5)
    with pytest.raises(ValueError):
        circle.index(0)


def test_interval_on():
    assert is_interval_on({3, 4, -1}, 4)
    assert not is_interval_on({-3, -1}, 3)
    assert is_interval_on({-2}, 3)
    assert is_interval_on({1, -1}, 1)


def test_is_arc_examples():
    assert is_arc(Permutation.parse("12543"))
    assert not is_arc(Permutation.parse("125436"))
    assert is_arc(Permutation.identity(7))


def test_is_left_unimodal_examples():
    assert is_left_unimodal(Permutation.parse("3214"))
    assert not is_left_unimodal(Permutation.parse("12543"))
    assert is_left_unimodal(Permutation.identity(5))


def test_is_signed_arc_examples():
    assert is_signed_arc(SignedPermutation.parse("[2,-1,3]"))
    assert is_signed_arc(SignedPermutation.parse("[-3,-2,4,1]"))
    assert not is_signed_arc(SignedPermutation.parse("[-2,1,3]"))
    assert "must be negative" in signed_arc_violation(SignedPermutation.parse("[-2,1,3]"))


def test_is_b_arc_examples():
    assert is_b_arc(SignedPermutation.parse("[-2,3,-1]"))
    assert is_b_arc(SignedPermutation.parse("[2,-1,4,3]"))
    assert not is_b_arc(SignedPermutation.parse("[-3,-1,2]"))
    assert not is_b_arc(SignedPermutation.parse("[5,2,-1,4,3]"))


def test_generate_arc_small():
    assert [p.word for p in generate_arc(1)] == [(1,)]
    assert {p.word for p in generate_arc(2)} == {(1, 2), (2, 1)}
    assert len(generate_arc(4)) == 16


def test_generate_signed_arc_small():
    assert [p.word for p in generate_signed_arc(1)] == [(1,), (-1,)]
    assert len(generate_signed_arc(3)) == 24
    assert len(set(generate_signed_arc(3))) == 24


def test_generate_b_arc_small():
    assert [p.word for p in generate_b_arc(1)] == [(1,), (-1,)]
    assert len(generate_b_arc(3)) == 24
    assert len(set(generate_b_arc(3))) == 24


def test_generators_emit_members_only():
    for n in range(1, 7):
        assert all(is_arc(p) for p in generate_arc(n))
    for n in range(1, 6):
        assert all(is_signed_arc(p) for p in generate_signed_arc(n))
        assert all(is_b_arc(p) for p in generate_b_arc(n))
        assert all(is_left_unimodal(p) for p in generate_left_unimodal(n))


def test_predicate_generator_duality():
    for n in range(1, 7):
        assert set(filter(is_arc, symmetric(n))) == set(generate_arc(n))
        assert set(filter(is_left_unimodal, symmetric(n))) == set(generate_left_unimodal(n))
    for n in range(1, 6):
        group = hyperoctahedral(n)
        assert set(filter(is_signed_arc, group)) == set(generate_signed_arc(n))
        assert set(filter(is_b_arc, group)) == set(generate_b_arc(n))


def test_left_unimodal_generator_is_the_filtered_arc_family():
    for n in range(1, 11):
        family = generate_left_unimodal(n)
        assert family == [p for p in generate_arc(n) if is_left_unimodal(p)]
        assert len(family) == 2 ** (n - 1)


def test_cardinalities():
    for n in range(2, 9):
        assert len(generate_arc(n)) == n * 2 ** (n - 2)
    for n in range(1, 9):
        assert len(generate_signed_arc(n)) == n * 2**n
        assert len(generate_b_arc(n)) == n * 2**n
    for n in range(1, 9):
        assert len(generate_left_unimodal(n)) == 2 ** (n - 1)


def test_absolute_of_signed_arc_is_arc():
    for n in range(1, 6):
        for p in generate_signed_arc(n):
            assert is_arc(p.absolute())


def test_b_arc_closed_under_left_rotation():
    for n in range(1, 7):
        rot = cycle_B(n - 1, n)
        members = set(generate_b_arc(n))
        assert {rot * p for p in members} == members


def test_generation_is_deterministic():
    assert generate_b_arc(4) == generate_b_arc(4)
    assert generate_signed_arc(4) == generate_signed_arc(4)


def test_size_guards():
    with pytest.raises(ValueError, match="limit 2"):
        generate_symmetric(3, limit=2)
    assert len(generate_symmetric(3, limit=3)) == 6
    with pytest.raises(ValueError, match="limit 7"):
        generate_hyperoctahedral(8)
    with pytest.raises(ValueError, match="^n=3 exceeds the exhaustive-generation limit 2$"):
        generate_hyperoctahedral(3, limit=2)
    with pytest.raises(ValueError, match="^n must be positive$"):
        generate_hyperoctahedral(0)
    with pytest.raises(ValueError):
        generate_symmetric(0)
    with pytest.raises(ValueError):
        generate_b_arc(-1)
    # generate_symmetric(True) was S_1 and generate_symmetric(2.0) failed in range
    for n in (True, False, 2.0):
        for generate in (generate_symmetric, generate_hyperoctahedral):
            with pytest.raises(ValueError, match="^n must be positive$"):
                generate(n)


def test_hyperoctahedral_signs_each_element_of_the_symmetric_group_in_turn():
    assert [p.word for p in generate_hyperoctahedral(2)] == [
        (1, 2), (1, -2), (-1, 2), (-1, -2), (2, 1), (2, -1), (-2, 1), (-2, -1)]
    assert len(set(generate_hyperoctahedral(4))) == 2**4 * 24


# -- the predicates scan for the first gap in a growing interval; these read
# the definitions literally, testing every prefix or suffix set with
# is_cyclic_interval, or with max - min + 1 for an interval of the integers


def _arc_reference(p):
    n = p.n
    for j in range(1, n + 1):
        if not is_cyclic_interval({v - 1 for v in p.word[:j]}, n):
            vals = sorted(p.word[:j])
            return f"prefix of length {j} has values {vals}, not a cyclic interval of 1..{n}"
    return None


def _left_unimodal_reference(p):
    for j in range(1, p.n + 1):
        vals = sorted(p.word[:j])
        if vals[-1] - vals[0] + 1 != j:
            return f"prefix of length {j} has values {vals}, not an interval of the integers"
    return None


def _signed_arc_reference(p):
    n = p.n
    for i in range(2, n):
        prefix = {abs(v) for v in p.word[:i - 1]}
        v = p.word[i - 1]
        a = abs(v)
        if not is_cyclic_interval({x - 1 for x in prefix | {a}}, n):
            vals = sorted(prefix | {a})
            return (
                f"prefix of length {i} has absolute values {vals}, "
                f"not a cyclic interval of 1..{n}"
            )
        below = n if a == 1 else a - 1
        above = 1 if a == n else a + 1
        if (v > 0) != (below in prefix) or (v < 0) != (above in prefix):
            forced = below in prefix
            return (
                f"entry {v} at position {i} must be "
                f"{'positive' if forced else 'negative'}: "
                f"{below if forced else above} precedes it"
            )
    return None


def _b_arc_reference(p):
    n = p.n
    circle = CircleOn(n)
    for j in range(n, 0, -1):
        if not is_cyclic_interval({circle.index(v) for v in p.word[j - 1 :]}, 2 * n):
            vals = sorted(p.word[j - 1 :], key=circle.index)
            return (
                f"suffix starting at position {j} has values {vals}, "
                f"not an interval of the {2 * n}-point signed circle"
            )
    return None


def test_predicates_match_the_set_definitions():
    for n in range(1, 8):
        for p in symmetric(n):
            assert arc_violation(p) == _arc_reference(p)
            assert left_unimodal_violation(p) == _left_unimodal_reference(p)
    for n in range(1, 6):
        for p in hyperoctahedral(n):
            assert signed_arc_violation(p) == _signed_arc_reference(p)
            assert b_arc_violation(p) == _b_arc_reference(p)
