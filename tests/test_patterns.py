"""Pattern containment, the three forbidden lists, and the characterizations."""

import pytest

from arcperm.arcsets import (
    CircleOn,
    generate_arc,
    generate_b_arc,
    generate_signed_arc,
    is_arc,
    is_b_arc,
    is_signed_arc,
)
from arcperm.patterns import (
    arc_forbidden,
    avoids_all,
    b_arc_forbidden,
    contains,
    find_occurrence,
    signed_arc_forbidden,
    triple_orientation,
)
from arcperm.perms import Permutation, SignedPermutation
from helpers import hyperoctahedral, symmetric

# hand transcriptions of the three forbidden lists, kept as double-entry
# bookkeeping against the structurally generated ones
ARC_LITERALS = {"1324", "1342", "2413", "2431", "3124", "3142", "4213", "4231"}

SIGNED_ARC_BASES = ["[1,-2,3]", "[1,3,2]", "[2,-3,1]", "[2,1,3]", "[3,-1,2]", "[3,2,1]"]

B_ARC_BASES = [
    "[2,1,3]", "[2,3,1]", "[3,1,-2]", "[3,-2,1]", "[1,2,-3]", "[1,-3,2]",
    "[2,-1,-3]", "[2,-3,-1]", "[3,-1,2]", "[3,2,-1]", "[1,-2,3]", "[1,3,-2]",
]


def _expand_first_and_last(bases):
    out = set()
    for text in bases:
        a, b, c = SignedPermutation.parse(text).word
        for sa in (1, -1):
            for sc in (1, -1):
                out.add(SignedPermutation((sa * a, b, sc * c)))
    return out


def _expand_first(bases):
    out = set()
    for text in bases:
        a, b, c = SignedPermutation.parse(text).word
        for sa in (1, -1):
            out.add(SignedPermutation((sa * a, b, c)))
    return out


def test_contains_unsigned():
    assert contains(Permutation.parse("125436"), Permutation.parse("1324"))
    assert not contains(Permutation.identity(4), Permutation.parse("2143"))
    p = Permutation.parse("12543")
    assert all(not contains(p, pat) for pat in arc_forbidden())


def test_contains_signed():
    p = SignedPermutation.parse("[-3,2,5,-1,4]")
    assert contains(p, SignedPermutation.parse("[-2,-1,3]"))
    assert not contains(p, SignedPermutation.parse("[2,1,3]"))
    assert contains(p, p)


def test_contains_rejects_mixed_types():
    with pytest.raises(TypeError):
        contains(Permutation.parse("123"), SignedPermutation.parse("[1,2]"))


def test_find_occurrence_names_a_non_permutation():
    for patterns in (arc_forbidden(), signed_arc_forbidden()):
        with pytest.raises(TypeError, match="expected a permutation, got str"):
            find_occurrence("abc", patterns)


def test_forbidden_list_sizes():
    assert len(arc_forbidden()) == 8
    assert len(signed_arc_forbidden()) == 24
    assert len(b_arc_forbidden()) == 24


def test_forbidden_lists_match_literal_transcriptions():
    assert {"".join(map(str, p.word)) for p in arc_forbidden()} == ARC_LITERALS
    assert set(signed_arc_forbidden()) == _expand_first_and_last(SIGNED_ARC_BASES)
    assert set(b_arc_forbidden()) == _expand_first(B_ARC_BASES)


def test_b_arc_list_is_the_distance_rule():
    circle = CircleOn(3)
    for p in b_arc_forbidden():
        assert circle.distance(p.word[1], p.word[2]) >= 2


def test_triple_orientation():
    assert triple_orientation(1, 2, 3) == "clockwise"
    assert triple_orientation(2, 3, 1) == "clockwise"
    assert triple_orientation(3, 1, 2) == "clockwise"
    assert triple_orientation(3, 2, 1) == "counterclockwise"
    assert triple_orientation(1, 3, 2) == "counterclockwise"
    with pytest.raises(ValueError):
        triple_orientation(1, 1, 2)


def test_avoids_all_with_witness():
    occ = find_occurrence(SignedPermutation.parse("[-2,1,3]"), signed_arc_forbidden())
    assert occ is not None
    assert occ.positions == (1, 2, 3)
    assert occ.values == (-2, 1, 3)
    assert occ.pattern == SignedPermutation.parse("[-2,1,3]")

    assert avoids_all(Permutation.identity(6), arc_forbidden())
    assert avoids_all(SignedPermutation.parse("[-2,3,-1]"), b_arc_forbidden())


def test_witness_is_lexicographically_first():
    # 125436 contains forbidden patterns in several places; (1,3,4,6) is the
    # first index tuple hitting one
    occ = find_occurrence(Permutation.parse("125436"), arc_forbidden())
    assert occ is not None
    brute = []
    import itertools

    w = Permutation.parse("125436").word
    for pos in itertools.combinations(range(6), 4):
        values = [w[i] for i in pos]
        rank = {v: r for r, v in enumerate(sorted(values), 1)}
        word = "".join(str(rank[v]) for v in values)
        if word in ARC_LITERALS:
            brute.append(tuple(i + 1 for i in pos))
    assert occ.positions == min(brute)


def test_avoids_all_agrees_with_contains():
    signed_list = signed_arc_forbidden()
    b_list = b_arc_forbidden()
    for p in hyperoctahedral(4):
        assert avoids_all(p, signed_list) == (not any(contains(p, f) for f in signed_list))
        assert avoids_all(p, b_list) == (not any(contains(p, f) for f in b_list))


def test_characterizations_small():
    for n in range(1, 6):
        for p in symmetric(n):
            assert is_arc(p) == avoids_all(p, arc_forbidden())
    for n in range(1, 5):
        for p in hyperoctahedral(n):
            assert is_signed_arc(p) == avoids_all(p, signed_arc_forbidden())
            assert is_b_arc(p) == avoids_all(p, b_arc_forbidden())


FAMILIES = {
    "arc": (generate_arc, arc_forbidden),
    "signed-arc": (generate_signed_arc, signed_arc_forbidden),
    "b-arc": (generate_b_arc, b_arc_forbidden),
}


@pytest.mark.parametrize("n", (10, 12))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_members_avoid_their_list_past_exhaustive_sizes(family, n):
    # one direction of each characterization, at sizes where the whole group
    # is out of reach; only members are searched
    generate, forbidden = FAMILIES[family]
    patterns = forbidden()
    assert all(avoids_all(p, patterns) for p in generate(n))
