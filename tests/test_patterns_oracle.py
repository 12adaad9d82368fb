"""Differential tests: the trie-guided pattern search against a naive scan.

The reference is the plain scan the search replaced, frozen here: for each
pattern length in increasing order, every index tuple in lexicographic
order, each subsequence standardized by sorting.  The whole ``Occurrence``
(positions, pattern and values) must agree, not just the verdict.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcperm.arcsets import generate_b_arc, generate_signed_arc
from arcperm.patterns import (
    Occurrence,
    arc_forbidden,
    avoids_all,
    b_arc_forbidden,
    contains,
    find_occurrence,
    signed_arc_forbidden,
)
from arcperm.perms import Permutation, SignedPermutation


def _standardize(values):
    rank = {v: r for r, v in enumerate(sorted(values), 1)}
    return tuple(rank[v] for v in values)


def _standardize_signed(values):
    rank = {v: r for r, v in enumerate(sorted(abs(x) for x in values), 1)}
    return tuple(rank[abs(v)] if v > 0 else -rank[abs(v)] for v in values)


def reference(p, patterns):
    std = _standardize_signed if isinstance(p, SignedPermutation) else _standardize
    by_length = {}
    for pat in patterns:
        by_length.setdefault(len(pat), {})[pat.word] = pat
    w = p.word
    for k in sorted(by_length):
        for positions in itertools.combinations(range(len(w)), k):
            values = tuple(w[i] for i in positions)
            pat = by_length[k].get(std(values))
            if pat is not None:
                return Occurrence(tuple(i + 1 for i in positions), pat, values)
    return None


def _words(max_n, signed):
    words = st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.permutations(range(1, n + 1))
    )
    if not signed:
        return words.map(Permutation)
    return words.flatmap(
        lambda w: st.lists(st.booleans(), min_size=len(w), max_size=len(w)).map(
            lambda flips: SignedPermutation(-v if f else v for v, f in zip(w, flips))
        )
    )


unsigned_words = _words(9, signed=False)
signed_words = _words(9, signed=True)


def _pattern_lists(signed):
    # lengths 1-4 mixed, with duplicates; longer than the word when n < 4
    return st.lists(_words(4, signed), max_size=8).flatmap(
        lambda pats: st.just(pats + pats[: len(pats) // 2])
    )


def assert_agrees(p, patterns):
    got = find_occurrence(p, patterns)
    want = reference(p, patterns)
    assert got == want
    if got is not None:
        assert type(got.pattern) is type(p)
        assert type(got.positions) is tuple and type(got.values) is tuple
    assert avoids_all(p, iter(patterns)) == (want is None)


@settings(max_examples=300)
@given(unsigned_words)
def test_arc_list_on_unsigned_words(p):
    assert_agrees(p, arc_forbidden())


@settings(max_examples=300)
@given(signed_words)
def test_signed_lists_on_signed_words(p):
    assert_agrees(p, signed_arc_forbidden())
    assert_agrees(p, b_arc_forbidden())


@settings(max_examples=300)
@given(unsigned_words, _pattern_lists(signed=False))
def test_random_lists_on_unsigned_words(p, patterns):
    assert_agrees(p, patterns)
    for pat in patterns:
        assert contains(p, pat) == (reference(p, [pat]) is not None)


@settings(max_examples=300)
@given(signed_words, _pattern_lists(signed=True))
def test_random_lists_on_signed_words(p, patterns):
    assert_agrees(p, patterns)
    for pat in patterns:
        assert contains(p, pat) == (reference(p, [pat]) is not None)


def test_family_members():
    # members are the search's worst case: every branch is explored
    for p in generate_signed_arc(6)[::7]:
        assert_agrees(p, signed_arc_forbidden())
    for p in generate_b_arc(6)[::7]:
        assert_agrees(p, b_arc_forbidden())


def test_patterns_longer_than_the_word_and_empty_lists():
    p = Permutation.parse("2413")
    assert find_occurrence(p, [Permutation.parse("12345")]) is None
    assert find_occurrence(p, []) is None
    longer_first = [Permutation.parse("54321"), Permutation.parse("21")]
    assert find_occurrence(p, longer_first) == reference(p, longer_first)


def test_mixed_types_raise():
    unsigned, signed = Permutation.parse("123"), SignedPermutation.parse("[1,-2]")
    with pytest.raises(TypeError):
        find_occurrence(unsigned, [signed])
    with pytest.raises(TypeError):
        find_occurrence(signed, [signed, unsigned])
    with pytest.raises(TypeError):
        contains(signed, unsigned)
    with pytest.raises(TypeError):
        find_occurrence((1, 2, 3), [])
    with pytest.raises(TypeError):
        contains((1, 2), (1, 2))


def _every_word(max_n, signed):
    for n in range(1, max_n + 1):
        for w in itertools.permutations(range(1, n + 1)):
            if not signed:
                yield Permutation(w)
                continue
            for signs in itertools.product((1, -1), repeat=n):
                yield SignedPermutation(s * v for s, v in zip(signs, w))


# name -> (unsigned, signed) case, each (the list, the witness lengths that
# the words up to n = 5 give, None for no occurrence)
EDGE_LISTS = {
    # the search's root is the two-entry inline step
    "length-2-only": ((["21"], {None, 2}), (["[2,-1]", "[-1,-2]"], {None, 2})),
    # the root is the last entry: no inline step at all
    "length-1-only": ((["1"], {1}), (["[-1]"], {None, 1})),
    # the length-2 list misses on some words, whose witness is then of length 3
    "length-2-then-3": ((["12", "321"], {None, 2, 3}), (["[1,2]", "[-3,-2,-1]"], {None, 2, 3})),
    # longer than every word up to n = 3, and than every word for the length-6 pattern
    "longer-than-the-word": ((["123456", "2143"], {None, 4}),
                             (["[1,-2,3,-4,5,-6]", "[2,-1,-4,3]"], {None, 4})),
}


@pytest.mark.parametrize("signed", (False, True), ids=("unsigned", "signed"))
@pytest.mark.parametrize("case", sorted(EDGE_LISTS))
def test_edge_lists_on_every_word_up_to_five(case, signed):
    texts, lengths = EDGE_LISTS[case][signed]
    kind = SignedPermutation if signed else Permutation
    patterns = [kind.parse(text) for text in texts]
    seen = set()
    for p in _every_word(5, signed):
        got = find_occurrence(p, patterns)
        assert got == reference(p, patterns)
        seen.add(None if got is None else len(got.positions))
    assert seen == lengths
