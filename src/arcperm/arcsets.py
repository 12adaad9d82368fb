"""Membership predicates and direct generators for the four arc families.

The families are: arc permutations (every prefix value-set is a cyclic
interval of Z_n), left-unimodal permutations (prefixes are intervals of Z),
signed arc permutations (cyclic absolute prefixes with forced interior
signs), and B-arc permutations (every suffix is an interval of the signed
2n-point circle).

Each predicate is backed by a ``*_violation`` function that returns a
human-readable description of the first definition failure, or None; the
CLI uses these directly for diagnostics.

``Family(name, n)`` holds each family's growth rule as a layered graph of
interval states (``family_moves``): the generators list the words from it,
and ``walk.enumerator`` walks it without building a word.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .perms import Permutation, SignedPermutation, b_order_key

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


# -- growth rules and families -------------------------------------------------
#
# Each family grows its words one entry at a time, left to right except for
# B-arc, which grows right to left.  A rule gives the first entries and,
# from a state, the (next state, value) moves in the generator's order.  The
# state is the interval the placed entries occupy; it fixes which values may
# come next.  ``family_moves`` runs a rule once per (family, n) and records
# every move with the statistics it adds, and ``Family`` reads those tables
# both to list the words and to walk the enumerator.


def _arc_rule(n: int):
    # state (lo, size): the prefix occupies the residues lo..lo+size-1 mod n;
    # the lower-end extension comes before the upper-end one
    def step(state, position):
        lo, size = state
        below, above = (lo - 1) % n, (lo + size) % n
        moves = [((below, size + 1), below + 1)]
        if above != below:
            moves.append(((lo, size + 1), above + 1))
        return moves

    return [((v - 1, 1), v) for v in range(1, n + 1)], step


def _left_unimodal_rule(n: int):
    # state (lo, hi): the prefix occupies the values lo..hi; this is the arc
    # rule with the extensions that wrap around skipped
    def step(state, position):
        lo, hi = state
        moves = []
        if lo > 1:
            moves.append(((lo - 1, hi), lo - 1))
        if hi < n:
            moves.append(((lo, hi + 1), hi + 1))
        return moves

    return [((v, v), v) for v in range(1, n + 1)], step


def _signed_arc_rule(n: int):
    # the arc rule on absolute values; an interior entry is positive exactly
    # when it extends the upper end (then |p(i)|-1 precedes it), and the
    # first and last entries take either sign
    starts, arc_step = _arc_rule(n)

    def step(state, position):
        moves = []
        for after, a in arc_step(state, position):
            if position == n:
                moves += [(after, a), (after, -a)]
            else:
                moves.append((after, a if after[0] == state[0] else -a))
        return moves

    return [(state, s * v) for state, v in starts for s in (1, -1)], step


def _b_arc_rule(n: int):
    # state (lo, size): the suffix occupies the circle indices lo..lo+size-1
    # mod 2n; starting points follow the circle order 1..n,-1..-n, and each
    # earlier entry extends the low end first, then the high end
    point = CircleOn(n).point

    def step(state, position):
        lo, size = state
        below, above = (lo - 1) % (2 * n), (lo + size) % (2 * n)
        return [((below, size + 1), point(below)), ((lo, size + 1), point(above))]

    return [((i, 1), point(i)) for i in range(2 * n)], step


_RULES = {
    "arc": _arc_rule,
    "left-unimodal": _left_unimodal_rule,
    "signed-arc": _signed_arc_rule,
    "b-arc": _b_arc_rule,
}
FAMILY_NAMES = tuple(_RULES)


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
    starts, step = _RULES[name](n)
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
        if name not in _RULES:
            raise ValueError(f"unknown family {name!r}; choose from {', '.join(_RULES)}")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("n must be positive")
        self.name, self.n = name, n

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
            if self.name == "b-arc":
                words = [((v,) + w, target) for w, s in words for target, v, _, _, _ in layer[s]]
            else:
                words = [(w + (v,), target) for w, s in words for target, v, _, _, _ in layer[s]]
        words = [w for w, _ in words]
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
