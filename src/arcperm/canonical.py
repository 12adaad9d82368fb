"""Cyclic elements, canonical factorizations, and exponent criteria.

Every permutation of {1..n} factors uniquely as
c_{n-1}^{k_{n-1}} ... c_1^{k_1} with 0 <= k_i <= i, where c_m cycles the
values m+1 -> m -> ... -> 1 -> m+1.  Every signed permutation factors
uniquely as c_{n-1}^{k_{n-1}} ... c_0^{k_0} with 0 <= k_i <= 2i+1, where
c_m is the order-(2m+2) element [-(m+1),1,2,...,m,m+2,...,n].  The exponent
sums recover maj and fmaj, and simple exponent constraints characterize the
arc and B-arc families.

Both groups shift along one orbit: c_m sends m+1 -> m -> ... -> 1, and then
back to m+1 in S_n, or on through -(m+1) -> -m -> ... -> -1 -> m+1 in B_n.
So c_m has order m+1 or 2m+2, and one code path serves both groups; type A
has no k_0, since its c_0 is the identity.  Every entry point checks that
it was given the type of its group and raises ``TypeError`` otherwise.

Decomposition peels exponents from the outside: the orbit of n under
c_{n-1} is a full cycle, so p(n) pins k_{n-1}; stripping that factor fixes
n and the computation recurses on the restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .perms import Permutation, SignedPermutation, _integer


@dataclass(frozen=True)
class _ExponentVector:
    """What both factorizations share: exponents k_first, ..., k_{n-1} with
    0 <= k_i < step * (i + 1), the order of c_i.  A subclass names its
    permutation class ``group``, its ``first`` index and its ``step``; the
    two stay siblings, so equal exponents of different groups are unequal."""

    n: int
    k: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(self.k))
        if _integer(self.n, "size") < 1 or len(self.k) != self.n - self.first:
            raise ValueError(f"need {self.n - self.first} exponents for size {self.n}")
        step = self.step
        for i, ki in enumerate(self.k, self.first):
            # bool is an int subclass but no exponent; a plain int takes one test
            if type(ki) is not int and (isinstance(ki, bool) or not isinstance(ki, int)):
                raise TypeError(f"exponent {ki!r} is not an integer")
            if not 0 <= ki < step * (i + 1):
                raise ValueError(f"exponent k_{i}={ki} outside 0..{step * (i + 1) - 1}")

    def __str__(self) -> str:
        return ("B" if self.group.signed else "A") + " k=[" + ",".join(map(str, self.k)) + "]"


class ExponentVectorA(_ExponentVector):
    """Exponents (k_1, ..., k_{n-1}) of an unsigned canonical factorization."""

    # c_0 is the identity in S_n, so there is no k_0
    group, first, step = Permutation, 1, 1


class ExponentVectorB(_ExponentVector):
    """Exponents (k_0, ..., k_{n-1}) of a signed canonical factorization."""

    group, first, step = SignedPermutation, 0, 2


def _checked(value, expected: type):
    if not isinstance(value, expected):
        raise TypeError(f"expected {expected.__name__}, got {type(value).__name__}")
    return value


def cycle_A(m: int, n: int) -> Permutation:
    """The m+1 cycle sending v to v-1 for 2 <= v <= m+1 and 1 to m+1."""
    return _cycle(m, n, ExponentVectorA)


def cycle_B(m: int, n: int) -> SignedPermutation:
    """The order-(2m+2) element [-(m+1),1,2,...,m,m+2,...,n]."""
    return _cycle(m, n, ExponentVectorB)


def _cycle(m: int, n: int, vector: type[_ExponentVector]):
    if not vector.first <= _integer(m, "m") < _integer(n, "size"):
        raise ValueError(f"need {vector.first} <= m < n, got m={m}, n={n}")
    return vector.group(_power_word(m, n, 1, vector.group.signed)[1 : n + 1])


@lru_cache(maxsize=1024)  # one table per (m, n, k, signed): bounded for large n
def _power_word(m: int, n: int, k: int, signed: bool) -> tuple[int, ...]:
    """c_m ** k, which moves k steps along the orbit m+1, m, ..., 1 (and on
    through -(m+1), ..., -1 in B_n), indexed by signed value: entry v is the
    image of v for 1 <= v <= n, and by negative indexing entry -v is that of
    -v.  Entry 0 is a placeholder."""
    half = m + 1
    period = 2 * half if signed else half

    def orbit(j: int) -> int:
        j %= period
        return half - j if j < half else -(period - j)

    word = [orbit(half - v + k) if v <= half else v for v in range(1, n + 1)]
    return (0, *word, *[-v for v in reversed(word)])


def decompose_A(p: Permutation) -> ExponentVectorA:
    """The unique exponents with p = cycle_A(n-1)^{k_{n-1}} ... cycle_A(1)^{k_1}."""
    return _decompose(p, ExponentVectorA)


def decompose_B(p: SignedPermutation) -> ExponentVectorB:
    """The unique exponents with p = cycle_B(n-1)^{k_{n-1}} ... cycle_B(0)^{k_0}."""
    return _decompose(p, ExponentVectorB)


def _decompose(p, vector: type[_ExponentVector]):
    word = _checked(p, vector.group).word
    signed = vector.group.signed
    ks = []
    for size in range(p.n, vector.first, -1):
        # p(size) sits k steps along the orbit of size under c_{size-1}
        v = word[size - 1]
        k = size - v if v > 0 else 2 * size + v
        ks.append(k)
        cyc = _power_word(size - 1, size, -k, signed)
        word = [cyc[u] for u in word[: size - 1]]
    return vector(p.n, tuple(reversed(ks)))


def recompose_A(e: ExponentVectorA) -> Permutation:
    return _recompose(e, ExponentVectorA)


def recompose_B(e: ExponentVectorB) -> SignedPermutation:
    return _recompose(e, ExponentVectorB)


def _recompose(e, vector: type[_ExponentVector]):
    word = range(1, _checked(e, vector).n + 1)
    for i, k in enumerate(e.k, vector.first):
        if k:
            cyc = _power_word(i, e.n, k, vector.group.signed)
            word = [cyc[v] for v in word]
    return vector.group(word)


def maj_from_exponents(e: ExponentVectorA | ExponentVectorB) -> int:
    """maj (type A) or fmaj (type B) of the recomposed permutation is the
    exponent sum."""
    return sum(e.k)


fmaj_from_exponents = maj_from_exponents


def is_arc_by_exponents(e: ExponentVectorA) -> bool:
    """Arc criterion: k_i in {0, i} for all 1 <= i <= n-2 (k_{n-1} free)."""
    return _criterion(e, ExponentVectorA)


def is_b_arc_by_exponents(e: ExponentVectorB) -> bool:
    """B-arc criterion: k_i in {0, 2i+1} for all 0 <= i <= n-2 (k_{n-1} free)."""
    return _criterion(e, ExponentVectorB)


def _criterion(e, vector: type[_ExponentVector]) -> bool:
    # every exponent but the last is 0 or the top one, one less than the order
    step = _checked(e, vector).step
    return all(k in (0, step * (i + 1) - 1) for i, k in enumerate(e.k[:-1], vector.first))
