"""Membership predicates and direct generators for the four arc families.

The families are: arc permutations (every prefix value-set is a cyclic
interval of Z_n), left-unimodal permutations (prefixes are intervals of Z),
signed arc permutations (cyclic absolute prefixes with forced interior
signs), and B-arc permutations (every suffix is an interval of the signed
2n-point circle).

Each predicate is backed by a ``*_violation`` function that returns a
human-readable description of the first definition failure, or None; the
CLI uses these directly for diagnostics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .perms import Permutation, SignedPermutation

SYMMETRIC_LIMIT = 9
HYPEROCTAHEDRAL_LIMIT = 7


def is_cyclic_interval(indices: Iterable[int], size: int) -> bool:
    """True iff ``indices`` (a subset of 0..size-1) form one cyclic run."""
    idx = set(indices)
    if len(idx) in (0, size):
        return True
    ends = sum(1 for i in idx if (i + 1) % size not in idx)
    return ends == 1


def is_interval_zn(values: Iterable[int], n: int) -> bool:
    """Cyclic-interval test for subsets of {1..n}; empty and full sets count."""
    vals = set(values)
    for v in vals:
        if not isinstance(v, int) or not 1 <= v <= n:
            raise ValueError(f"value {v!r} out of range 1..{n}")
    return is_cyclic_interval({v - 1 for v in vals}, n)


@dataclass(frozen=True)
class CircleOn:
    """The 2n-point signed circle: 1..n at indices 0..n-1, then -j at n+j-1."""

    n: int

    def index(self, v: int) -> int:
        if not isinstance(v, int) or v == 0 or abs(v) > self.n:
            raise ValueError(f"value {v!r} is not a point of the {2 * self.n}-point circle")
        return v - 1 if v > 0 else self.n - v - 1

    def point(self, i: int) -> int:
        i %= 2 * self.n
        return i + 1 if i < self.n else -(i - self.n + 1)

    def distance(self, u: int, v: int) -> int:
        d = (self.index(u) - self.index(v)) % (2 * self.n)
        return min(d, 2 * self.n - d)


def is_interval_on(values: Iterable[int], n: int) -> bool:
    """Interval test on the signed circle; sets may contain both v and -v."""
    circle = CircleOn(n)
    return is_cyclic_interval({circle.index(v) for v in values}, 2 * n)


# -- definition-level predicates --------------------------------------------


def arc_violation(p: Permutation) -> str | None:
    n = p.n
    lo, size = p.word[0] - 1, 1  # the prefix is the residues lo..lo+size-1 mod n
    for j, v in enumerate(p.word[1:], 2):
        if v - 1 == (lo - 1) % n:
            lo = v - 1
        elif v - 1 != (lo + size) % n:
            vals = sorted(p.word[:j])
            return f"prefix of length {j} has values {vals}, not a cyclic interval of 1..{n}"
        size += 1
    return None


def is_arc(p: Permutation) -> bool:
    """True iff every prefix value-set is a cyclic interval of Z_n."""
    return arc_violation(p) is None


def left_unimodal_violation(p: Permutation) -> str | None:
    lo = hi = p.word[0]
    for j, v in enumerate(p.word[1:], 2):
        lo, hi = min(lo, v), max(hi, v)
        if hi - lo >= j:
            vals = sorted(p.word[:j])
            return f"prefix of length {j} has values {vals}, not an interval of the integers"
    return None


def is_left_unimodal(p: Permutation) -> bool:
    """True iff every prefix value-set is an interval of the integers."""
    return left_unimodal_violation(p) is None


def signed_arc_violation(p: SignedPermutation) -> str | None:
    n = p.n
    lo, size = abs(p.word[0]) - 1, 1  # as in arc_violation, on absolute values
    for i, v in enumerate(p.word[1:-1], 2):
        a = abs(v)
        at_top = a - 1 == (lo + size) % n  # then a-1 precedes it, else a+1 does
        if a - 1 == (lo - 1) % n:
            lo = a - 1
        elif not at_top:
            vals = sorted(abs(u) for u in p.word[:i])
            return (
                f"prefix of length {i} has absolute values {vals}, "
                f"not a cyclic interval of 1..{n}"
            )
        size += 1
        if (v > 0) != at_top:
            neighbour = (n if a == 1 else a - 1) if at_top else (1 if a == n else a + 1)
            return (
                f"entry {v} at position {i} must be "
                f"{'positive' if at_top else 'negative'}: {neighbour} precedes it"
            )
    return None


def is_signed_arc(p: SignedPermutation) -> bool:
    """True iff absolute prefixes are cyclic intervals and interior signs obey
    the neighbor rule: p(i) > 0 exactly when |p(i)|-1 already appeared, and
    p(i) < 0 exactly when |p(i)|+1 did (arithmetic mod n, first and last
    entries unconstrained)."""
    return signed_arc_violation(p) is None


def b_arc_violation(p: SignedPermutation) -> str | None:
    n = p.n
    index = CircleOn(n).index
    lo, size = index(p.word[-1]), 1  # the suffix is the indices lo..lo+size-1 mod 2n
    for j in range(n - 1, 0, -1):
        i = index(p.word[j - 1])
        if i == (lo - 1) % (2 * n):
            lo = i
        elif i != (lo + size) % (2 * n):
            vals = sorted(p.word[j - 1 :], key=index)
            return (
                f"suffix starting at position {j} has values {vals}, "
                f"not an interval of the {2 * n}-point signed circle"
            )
        size += 1
    return None


def is_b_arc(p: SignedPermutation) -> bool:
    """True iff every suffix value-set is an interval of the signed circle."""
    return b_arc_violation(p) is None


# -- generators --------------------------------------------------------------


def generate_arc(n: int) -> list[Permutation]:
    """All arc permutations of size n, built by growing cyclic intervals.

    The order is deterministic: starting values ascending, then at each step
    the lower-end extension before the upper-end one.
    """
    if n < 1:
        raise ValueError("n must be positive")
    # states: (word, lo, size) with the prefix occupying residues lo..lo+size-1
    states = [((v,), v - 1, 1) for v in range(1, n + 1)]
    for _ in range(n - 1):
        grown = []
        for word, lo, size in states:
            below = (lo - 1) % n
            above = (lo + size) % n
            grown.append((word + (below + 1,), below, size + 1))
            if above != below:
                grown.append((word + (above + 1,), lo, size + 1))
        states = grown
    return [Permutation(word) for word, _, _ in states]


def generate_left_unimodal(n: int) -> list[Permutation]:
    """All 2^(n-1) left-unimodal permutations of size n, built by growing
    integer intervals.

    This is ``generate_arc`` with the extensions that wrap around skipped,
    so the elements come in the same order as in the arc family.
    """
    if n < 1:
        raise ValueError("n must be positive")
    # states: (word, lo, hi) with the prefix occupying the values lo..hi
    states = [((v,), v, v) for v in range(1, n + 1)]
    for _ in range(n - 1):
        grown = []
        for word, lo, hi in states:
            if lo > 1:
                grown.append((word + (lo - 1,), lo - 1, hi))
            if hi < n:
                grown.append((word + (hi + 1,), lo, hi + 1))
        states = grown
    return [Permutation(word) for word, _, _ in states]


def generate_signed_arc(n: int) -> list[SignedPermutation]:
    """All signed arc permutations: each arc permutation decorated with its
    forced interior signs and free signs at the first and last positions."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return [SignedPermutation((1,)), SignedPermutation((-1,))]
    out = []
    for sigma in generate_arc(n):
        w = sigma.word
        interior = []
        prefix: set[int] = set()
        for i, a in enumerate(w, 1):
            if 1 < i < n:
                below = n if a == 1 else a - 1
                interior.append(a if below in prefix else -a)
            prefix.add(a)
        for s_first in (1, -1):
            for s_last in (1, -1):
                out.append(
                    SignedPermutation((s_first * w[0], *interior, s_last * w[-1]))
                )
    return out


def generate_b_arc(n: int) -> list[SignedPermutation]:
    """All B-arc permutations, built right to left by extending circle intervals.

    Starting points follow the circle order 1..n,-1..-n; each earlier entry
    extends the suffix interval at the low end first, then at the high end.
    """
    if n < 1:
        raise ValueError("n must be positive")
    circle = CircleOn(n)
    size2n = 2 * n
    # states: (word, lo, size) with the suffix occupying circle indices lo..lo+size-1
    states = [((circle.point(i),), i, 1) for i in range(size2n)]
    for _ in range(n - 1):
        grown = []
        for word, lo, size in states:
            below = (lo - 1) % size2n
            above = (lo + size) % size2n
            grown.append(((circle.point(below),) + word, below, size + 1))
            grown.append(((circle.point(above),) + word, lo, size + 1))
        states = grown
    return [SignedPermutation(word) for word, _, _ in states]


def generate_symmetric(n: int, limit: int = SYMMETRIC_LIMIT) -> list[Permutation]:
    """All of S_n in lexicographic order; refuses n beyond ``limit``."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > limit:
        raise ValueError(f"n={n} exceeds the exhaustive-generation limit {limit}")
    return [Permutation(w) for w in itertools.permutations(range(1, n + 1))]


def generate_hyperoctahedral(
    n: int, limit: int = HYPEROCTAHEDRAL_LIMIT
) -> list[SignedPermutation]:
    """All of B_n (2^n n! elements); refuses n beyond ``limit``."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > limit:
        raise ValueError(f"n={n} exceeds the exhaustive-generation limit {limit}")
    out = []
    for w in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(SignedPermutation(s * v for s, v in zip(signs, w)))
    return out
