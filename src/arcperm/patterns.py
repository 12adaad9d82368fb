"""Pattern containment for unsigned and signed permutations.

A subsequence is an occurrence of an unsigned pattern when it is
order-isomorphic to it, and of a signed pattern when the signs match
entrywise and the absolute values are order-isomorphic to the pattern's.
The three fixed forbidden lists characterizing the arc families are built
from their structural descriptions (the literal transcriptions live in the
test suite as double-entry bookkeeping).

Search cost: ``find_occurrence`` walks positions depth first through a trie
of the listed patterns, built once per list.  A step is one popcount and one
dict lookup, and a branch stops at the first entry no pattern continues; no
subsequence is ever sorted.  At n = 12 the forbidden lists cost about 430
steps per arc element and 150 per signed one, where a full scan sorts 495
and 220 subsequences.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .arcsets import CircleOn, generate_hyperoctahedral, generate_symmetric
from .perms import Permutation, SignedPermutation


def contains(p, pattern) -> bool:
    """True iff some subsequence of p is an occurrence of the pattern.

    Both arguments must be Permutation, or both SignedPermutation.
    """
    return find_occurrence(p, (pattern,)) is not None


class Occurrence(NamedTuple):
    """A witness: 1-based positions, the matched pattern, and the values there."""

    positions: tuple[int, ...]
    pattern: Permutation | SignedPermutation
    values: tuple[int, ...]


@lru_cache(maxsize=32)
def _tries(patterns: tuple) -> list[tuple[int, dict]]:
    """(length, trie) in increasing length.  A trie is nested dicts keyed by
    one step key per entry: (how many earlier entries have a smaller absolute
    value, whether the entry is positive).  Two words with the same keys are
    occurrences of the same pattern, which sits at depth ``length``."""
    tries: dict[int, dict] = {}
    for pat in patterns:
        w = pat.word
        *path, last = [(sum(abs(u) < abs(v) for u in w[:j]), v > 0) for j, v in enumerate(w)]
        node = tries.setdefault(len(w), {})
        for key in path:
            node = node.setdefault(key, {})
        node[last] = pat
    return sorted(tries.items())


def find_occurrence(p, patterns) -> Occurrence | None:
    """First occurrence of any listed pattern, or None.

    Lengths are tried in increasing order and, within a length, position
    tuples lexicographically (depth first, pruned where the chosen entries
    start no listed pattern), so the witness is the lexicographically first
    occurrence of the shortest matching length.
    """
    patterns = tuple(patterns)
    for pat in patterns:
        if type(pat) is not type(p):
            raise TypeError("permutation and patterns must be both unsigned or both signed")
    if not isinstance(p, (Permutation, SignedPermutation)):
        raise TypeError(f"expected a permutation, got {type(p).__name__}")
    w = p.word
    n = len(w)
    positive = [v > 0 for v in w]
    # below[i]: the set bits are the positions whose absolute value is smaller
    below = [0] * n
    seen = 0
    for i in sorted(range(n), key=lambda j: abs(w[j])):
        below[i] = seen
        seen |= 1 << i

    def first(node, todo, start, mask):
        # the chosen positions are the set bits of mask; todo entries remain
        for i in range(start, n - todo + 1):
            child = node.get(((below[i] & mask).bit_count(), positive[i]))
            if child is not None:
                if todo == 1:
                    return mask | 1 << i, child
                hit = first(child, todo - 1, i + 1, mask | 1 << i)
                if hit is not None:
                    return hit
        return None

    for k, trie in _tries(patterns):
        if k > n:
            break
        hit = first(trie, k, 0, 0)
        if hit is not None:
            mask, pat = hit
            positions = [i for i in range(n) if mask >> i & 1]
            return Occurrence(tuple(i + 1 for i in positions), pat, tuple(w[i] for i in positions))
    return None


def avoids_all(p, patterns) -> bool:
    """True iff p contains none of the listed patterns."""
    return find_occurrence(p, patterns) is None


def triple_orientation(a: int, b: int, c: int) -> str:
    """"clockwise" iff a<b<c, b<c<a or c<a<b; "counterclockwise" otherwise.

    Clockwise means the triple runs in the direction of 1,2,...,n written
    clockwise on a circle.
    """
    if len({a, b, c}) != 3:
        raise ValueError(f"triple ({a},{b},{c}) has repeated entries")
    if a < b < c or b < c < a or c < a < b:
        return "clockwise"
    return "counterclockwise"


@lru_cache(maxsize=None)
def arc_forbidden() -> tuple[Permutation, ...]:
    """The 8 size-4 patterns whose avoidance characterizes arc permutations:
    those with |first - second| = 2."""
    pats = [p for p in generate_symmetric(4) if abs(p.word[0] - p.word[1]) == 2]
    assert len(pats) == 8
    return tuple(sorted(pats, key=lambda p: p.word))


@lru_cache(maxsize=None)
def signed_arc_forbidden() -> tuple[SignedPermutation, ...]:
    """The 24 signed size-3 patterns characterizing signed arc permutations:
    [±a,-b,±c] for clockwise triples (a,b,c) and [±a,b,±c] for
    counterclockwise ones."""
    pats = []
    for a, b, c in itertools.permutations((1, 2, 3)):
        mid = -b if triple_orientation(a, b, c) == "clockwise" else b
        for s_first in (1, -1):
            for s_last in (1, -1):
                pats.append(SignedPermutation((s_first * a, mid, s_last * c)))
    assert len(pats) == 24
    return tuple(sorted(pats, key=lambda p: p.word))


@lru_cache(maxsize=None)
def b_arc_forbidden() -> tuple[SignedPermutation, ...]:
    """The 24 signed size-3 patterns characterizing B-arc permutations:
    [a,b,c] whose last two entries sit at circle distance >= 2."""
    circle = CircleOn(3)
    pats = [
        p
        for p in generate_hyperoctahedral(3)
        if circle.distance(p.word[1], p.word[2]) >= 2
    ]
    assert len(pats) == 24
    return tuple(sorted(pats, key=lambda p: p.word))
