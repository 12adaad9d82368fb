"""Membership predicates and direct generators for the four arc families.

The families are: arc permutations (every prefix value-set is a cyclic
interval of Z_n), left-unimodal permutations (prefixes are intervals of Z),
signed arc permutations (cyclic absolute prefixes with forced interior
signs), and B-arc permutations (every suffix is an interval of the signed
2n-point circle).

Each predicate is backed by a ``*_violation`` function that returns a
human-readable description of the first definition failure, or None; the
CLI uses these directly for diagnostics.  They read one interval test: each
point after the first extends the interval of the points before it at its
low or its high end, or that prefix is no interval.  Arc words are read on
the n-point circle, left-unimodal words on 2n points (where no interval of
1..n wraps around) and B-arc words backwards on the signed circle; signed
arc reads absolute values in a loop of its own, since the end an interior
entry extends fixes its sign.  They share no code with the growth rule
below, which the tests check them against.

All four grow by one rule: each new entry extends an interval of m points
on a circle (m = 2n for B-arc, n otherwise) at its low or its high end, low
end first.  Left-unimodal skips the extensions that wrap around; a signed arc
entry is positive exactly when it extends the high end, except the first
and last entries, which take both signs; B-arc grows right to left.
``Family(name, n)`` holds the rule as a layered graph of interval states
(``family_moves``): the generators list the words from it, and
``walk.enumerator`` walks it without building a word.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .perms import Permutation, SignedPermutation, b_order_key

SYMMETRIC_LIMIT = 9
HYPEROCTAHEDRAL_LIMIT = 7


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _positive(n: int) -> int:
    if not _is_int(n) or n < 1:
        raise ValueError("n must be positive")
    return n


def _size(size: int) -> None:
    if not _is_int(size) or size < 0:
        raise ValueError(f"size {size!r} is not a non-negative int")


def is_cyclic_interval(indices: Iterable[int], size: int) -> bool:
    """True iff ``indices`` (a subset of 0..size-1) form one cyclic run."""
    _size(size)
    idx = set(indices)
    for i in idx:
        if not _is_int(i) or not 0 <= i < size:
            raise ValueError(f"index {i!r} out of range 0..{size - 1}")
    if len(idx) in (0, size):
        return True
    ends = sum(1 for i in idx if (i + 1) % size not in idx)
    return ends == 1


def is_interval_zn(values: Iterable[int], n: int) -> bool:
    """Cyclic-interval test for subsets of {1..n}; empty and full sets count."""
    _size(n)
    vals = set(values)
    for v in vals:
        if not _is_int(v) or not 1 <= v <= n:
            raise ValueError(f"value {v!r} out of range 1..{n}")
    return is_cyclic_interval({v - 1 for v in vals}, n)


@dataclass(frozen=True)
class CircleOn:
    """The 2n-point signed circle: 1..n at indices 0..n-1, then -j at n+j-1."""

    n: int

    def __post_init__(self):
        _positive(self.n)

    def index(self, v: int) -> int:
        # a plain int takes one test, as a perms entry does; a bool is refused
        if type(v) is not int and not _is_int(v) or v == 0 or abs(v) > self.n:
            raise ValueError(f"value {v!r} is not a point of the {2 * self.n}-point circle")
        return v - 1 if v > 0 else self.n - v - 1

    def point(self, i: int) -> int:
        # any int, read mod 2n; a bool or a float is refused
        if not _is_int(i):
            raise ValueError(f"index {i!r} is not an index of the {2 * self.n}-point circle")
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


def _first_gap(points: Iterator[int], m: int) -> int | None:
    # the length of the first prefix of points that is no interval of the
    # m-point circle, or None.  With size points placed at lo..lo+size-1
    # (mod m), a point at offset d = v - lo extends the low end when
    # d = m - 1 and the high end when d = size
    lo = next(points)
    for size, v in enumerate(points, 1):
        d = (v - lo) % m
        if d == m - 1:
            lo = v
        elif d != size:
            return size + 1
    return None


def arc_violation(p: Permutation) -> str | None:
    if j := _first_gap(iter(p.word), p.n):
        vals = sorted(p.word[:j])
        return f"prefix of length {j} has values {vals}, not a cyclic interval of 1..{p.n}"
    return None


def is_arc(p: Permutation) -> bool:
    """True iff every prefix value-set is a cyclic interval of Z_n."""
    return arc_violation(p) is None


def left_unimodal_violation(p: Permutation) -> str | None:
    # on 2n points no interval of values in 1..n wraps around
    if j := _first_gap(iter(p.word), 2 * p.n):
        vals = sorted(p.word[:j])
        return f"prefix of length {j} has values {vals}, not an interval of the integers"
    return None


def is_left_unimodal(p: Permutation) -> bool:
    """True iff every prefix value-set is an interval of the integers."""
    return left_unimodal_violation(p) is None


def signed_arc_violation(p: SignedPermutation) -> str | None:
    # _first_gap's test on the absolute values of the entries before the
    # last, which also tells the end an interior entry extends: at the high
    # end |v| - 1 came before it and it is positive, at the low end |v| + 1
    # did and it is negative (values mod n)
    n, lo = p.n, abs(p.word[0])
    for size, v in enumerate(p.word[1:-1], 1):
        d = (abs(v) - lo) % n
        if d == n - 1:
            lo = abs(v)
        elif d != size:
            return (
                f"prefix of length {size + 1} has absolute values "
                f"{sorted(abs(u) for u in p.word[:size + 1])}, not a cyclic interval of 1..{n}"
            )
        # so a wrong sign names |v| - 1 = -v - 1 for a negative v, and
        # |v| + 1 = v + 1 for a positive one
        if (v > 0) != (d == size):
            sign, neighbour = ("positive", (-v - 2) % n + 1) if v < 0 else ("negative", v % n + 1)
            return f"entry {v} at position {size + 1} must be {sign}: {neighbour} precedes it"
    return None


def is_signed_arc(p: SignedPermutation) -> bool:
    """True iff absolute prefixes are cyclic intervals and interior signs obey
    the neighbor rule: p(i) > 0 exactly when |p(i)|-1 already appeared, and
    p(i) < 0 exactly when |p(i)|+1 did (arithmetic mod n, first and last
    entries unconstrained)."""
    return signed_arc_violation(p) is None


def b_arc_violation(p: SignedPermutation) -> str | None:
    # the suffixes are the prefixes of the reversed word
    n, index = p.n, CircleOn(p.n).index
    if k := _first_gap(map(index, reversed(p.word)), 2 * n):
        return (
            f"suffix starting at position {n - k + 1} has values "
            f"{sorted(p.word[n - k:], key=index)}, "
            f"not an interval of the {2 * n}-point signed circle"
        )
    return None


def is_b_arc(p: SignedPermutation) -> bool:
    """True iff every suffix value-set is an interval of the signed circle."""
    return b_arc_violation(p) is None


# -- growth rules and families -------------------------------------------------
#
# Each family grows its words one entry at a time, left to right except for
# B-arc, which grows right to left.  One rule serves all four: it gives the
# first entries and, from a state, the (next state, value) moves in the
# generator's order.  The state is the circle interval the placed entries
# occupy; it fixes which values may come next.  ``family_moves`` runs the
# rule once per (family, n) and records every move with the statistics it
# adds, and ``Family`` reads those tables both to list the words and to walk
# the enumerator.


def _rule(name: str, n: int):
    # state (lo, size): the placed entries occupy the points lo..lo+size-1 of
    # the m-point circle, and point[i] names point i (i + 1 for i < n).  The
    # high end is skipped when it places the low end's point, as the last
    # arc entry does; an interior signed arc entry at the high end has
    # |p(i)|-1 before it, so it is positive
    m = 2 * n if name == "b-arc" else n
    point = list(map(CircleOn(n).point, range(m)))
    free = (1, -1) if name == "signed-arc" else (1,)

    def step(state, position):
        lo, size = state
        below = (lo - 1) % m
        moves = []
        # (new lo, point placed, signs of an interior entry): (-1,) at the low
        # end on signed arc, else (1,)
        for start, i, signs in ((below, below, free[-1:]), (lo, (lo + size) % m, (1,))):
            if name == "left-unimodal" and start + size >= m or moves and i == below:
                continue
            for s in free if position == n else signs:
                moves.append(((start, size + 1), s * point[i]))
        return moves

    return [((i, 1), s * point[i]) for i in range(m) for s in free], step


FAMILY_NAMES = ("arc", "left-unimodal", "signed-arc", "b-arc")


# One entry placed: (target, value, position, descent, inv).  target is the
# index of the state it leads to in the next layer, value the entry,
# position its 1-based position, descent the descent position it completes
# (0 if none) and inv the inversions of the absolute word it completes.
Move = tuple[int, int, int, int, int]


@lru_cache(maxsize=64)
def family_moves(name: str, n: int) -> tuple[tuple[tuple[Move, ...], ...], ...]:
    """The growth of a family as a layered graph of n layers.

    ``layers[k][s]`` lists the moves out of state s of layer k, in the
    generator's order; layer 0 has one state, the empty word, and its moves
    place the first entry.  A state is the rule's state, the set of placed
    absolute values and the last entry placed: everything a later move or
    statistic reads.  Descents compare in the order -1 < ... < -n < 1 < ... < n
    (integer order on unsigned words), as ``perms.descent_positions`` does.
    """
    starts, step = _rule(name, n)
    leftward = name == "b-arc"
    ids = {(None, 0, None): 0}
    layers = []
    for position in range(n, 0, -1) if leftward else range(1, n + 1):
        following: dict = {}
        layer = []
        for state, placed, last in ids:
            moves = []
            for after, v in starts if state is None else step(state, position):
                a = abs(v)
                if last is None:
                    descent = 0
                elif leftward:  # v goes before last
                    descent = position if b_order_key(v) > b_order_key(last) else 0
                else:  # v goes after last
                    descent = position - 1 if b_order_key(last) > b_order_key(v) else 0
                # the absolute values v passes: smaller ones after it, larger before
                passed = placed & ((1 << a) - 1) if leftward else placed >> a
                target = following.setdefault((after, placed | 1 << a, v), len(following))
                moves.append((target, v, position, descent, passed.bit_count()))
            layer.append(tuple(moves))
        layers.append(tuple(layer))
        ids = following
    return tuple(layers)


class Family:
    """One arc family at size n, as a lazy value.

    ``size`` is the closed-form size at any n, and ``len`` while it fits a
    machine int; iterating yields exactly ``generate_<name>(n)``, in the same
    order; ``moves()`` is the growth graph that ``walk.enumerator`` walks
    instead of the words.
    """

    __slots__ = ("name", "n")

    def __init__(self, name: str, n: int):
        if name not in FAMILY_NAMES:
            raise ValueError(f"unknown family {name!r}; choose from {', '.join(FAMILY_NAMES)}")
        self.name, self.n = name, _positive(n)

    def __repr__(self) -> str:
        return f"Family({self.name!r}, {self.n})"

    @property
    def signed(self) -> bool:
        return self.name in ("signed-arc", "b-arc")

    @property
    def size(self) -> int:
        """The number of elements, exact at any n."""
        n = self.n
        if self.name == "arc":
            return n * 2 ** (n - 2) if n > 1 else 1
        if self.name == "left-unimodal":
            return 2 ** (n - 1)
        return n * 2**n

    def __len__(self) -> int:
        # Python refuses a len past sys.maxsize: OverflowError from n = 58 on
        # the signed families, n = 60 on arc; ``size`` has no limit
        return self.size

    def moves(self):
        return family_moves(self.name, self.n)

    def __iter__(self):
        words = [((), 0)]
        for layer in self.moves():
            words = [(w + (v,), target) for w, s in words for target, v, _, _, _ in layer[s]]
        words = [w for w, _ in words]
        if self.name == "b-arc":  # grown right to left; in place, to hold one copy
            for i, w in enumerate(words):
                words[i] = w[::-1]
        if self.name == "signed-arc":
            # The generator's order has the two free signs innermost, the
            # first entry's outside the last's, but the walk chooses the
            # first entry's sign first.  So keep the words that start
            # positive; each run of last-sign choices (two, or one at n = 1)
            # is followed by the same run with the first entry negated.
            positive = [w for w in words if w[0] > 0]
            run = 2 if self.n > 1 else 1
            words = []
            for i in range(0, len(positive), run):
                chunk = positive[i:i + run]
                words += chunk + [(-w[0], *w[1:]) for w in chunk]
        cls = SignedPermutation if self.signed else Permutation
        return map(cls, words)


def generate_arc(n: int) -> list[Permutation]:
    """All arc permutations of size n, built by growing cyclic intervals.

    The order is deterministic: starting values ascending, then at each step
    the lower-end extension before the upper-end one.
    """
    return list(Family("arc", n))


def generate_left_unimodal(n: int) -> list[Permutation]:
    """All 2^(n-1) left-unimodal permutations of size n, built by growing
    integer intervals.

    This is ``generate_arc`` with the extensions that wrap around skipped,
    so the elements come in the same order as in the arc family.
    """
    return list(Family("left-unimodal", n))


def generate_signed_arc(n: int) -> list[SignedPermutation]:
    """All signed arc permutations: each arc permutation decorated with its
    forced interior signs and free signs at the first and last positions
    (first-entry sign outer, last-entry sign inner)."""
    return list(Family("signed-arc", n))


def generate_b_arc(n: int) -> list[SignedPermutation]:
    """All B-arc permutations, built right to left by extending circle intervals.

    Starting points follow the circle order 1..n,-1..-n; each earlier entry
    extends the suffix interval at the low end first, then at the high end.
    """
    return list(Family("b-arc", n))


def generate_symmetric(n: int, limit: int = SYMMETRIC_LIMIT) -> list[Permutation]:
    """All of S_n in lexicographic order; refuses n beyond ``limit``."""
    if _positive(n) > limit:
        raise ValueError(f"n={n} exceeds the exhaustive-generation limit {limit}")
    return [Permutation(w) for w in itertools.permutations(range(1, n + 1))]


def generate_hyperoctahedral(
    n: int, limit: int = HYPEROCTAHEDRAL_LIMIT
) -> list[SignedPermutation]:
    """All of B_n (2^n n! elements), every sign pattern on each element of
    S_n in turn; refuses n beyond ``limit``."""
    return [SignedPermutation(s * v for s, v in zip(signs, p.word))
            for p in generate_symmetric(n, limit)
            for signs in itertools.product((1, -1), repeat=n)]
