"""Cyclic elements, canonical factorizations, and exponent criteria.

Every permutation of {1..n} factors uniquely as
c_{n-1}^{k_{n-1}} ... c_1^{k_1} with 0 <= k_i <= i, where c_m cycles the
values m+1 -> m -> ... -> 1 -> m+1.  Every signed permutation factors
uniquely as c_{n-1}^{k_{n-1}} ... c_0^{k_0} with 0 <= k_i <= 2i+1, where
c_m is the order-(2m+2) element [-(m+1),1,2,...,m,m+2,...,n].  The exponent
sums recover maj and fmaj, and simple exponent constraints characterize the
arc and B-arc families.

Decomposition peels exponents from the outside: the orbit of n under
c_{n-1} is a full cycle, so p(n) pins k_{n-1}; stripping that factor fixes
n and the computation recurses on the restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .perms import Permutation, SignedPermutation


@dataclass(frozen=True)
class ExponentVectorA:
    """Exponents (k_1, ..., k_{n-1}) of an unsigned canonical factorization."""

    n: int
    k: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.k) != self.n - 1:
            raise ValueError(f"need {self.n - 1} exponents for size {self.n}")
        for i, ki in enumerate(self.k, 1):
            if not 0 <= ki <= i:
                raise ValueError(f"exponent k_{i}={ki} outside 0..{i}")

    def __str__(self) -> str:
        return "A k=[" + ",".join(str(x) for x in self.k) + "]"


@dataclass(frozen=True)
class ExponentVectorB:
    """Exponents (k_0, ..., k_{n-1}) of a signed canonical factorization."""

    n: int
    k: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.k) != self.n:
            raise ValueError(f"need {self.n} exponents for size {self.n}")
        for i, ki in enumerate(self.k):
            if not 0 <= ki <= 2 * i + 1:
                raise ValueError(f"exponent k_{i}={ki} outside 0..{2 * i + 1}")

    def __str__(self) -> str:
        return "B k=[" + ",".join(str(x) for x in self.k) + "]"


def cycle_A(m: int, n: int) -> Permutation:
    """The m+1 cycle sending v to v-1 for 2 <= v <= m+1 and 1 to m+1."""
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    return Permutation(_cycle_a_power_word(m, n, 1))


def cycle_B(m: int, n: int) -> SignedPermutation:
    """The order-(2m+2) element [-(m+1),1,2,...,m,m+2,...,n]."""
    if not 0 <= m < n:
        raise ValueError(f"need 0 <= m < n, got m={m}, n={n}")
    return SignedPermutation(_cycle_b_power_word(m, n, 1))


@lru_cache(maxsize=None)
def _cycle_a_power_word(m: int, n: int, k: int) -> tuple[int, ...]:
    # cycle_A(m, n) ** k: v -> v - k cyclically on 1..m+1, fixing the rest
    period = m + 1
    return tuple(
        ((i - 1 - k) % period) + 1 if i <= period else i for i in range(1, n + 1)
    )


@lru_cache(maxsize=None)
def _cycle_b_power_word(m: int, n: int, k: int) -> tuple[int, ...]:
    # cycle_B(m, n) ** k via the orbit m+1, m, ..., 1, -(m+1), ..., -1
    period = 2 * m + 2
    half = m + 1

    def orbit(j: int) -> int:
        j %= period
        return half - j if j <= m else -(period - j)

    def image(v: int) -> int:
        if abs(v) > half:
            return v
        j = half - v if v > 0 else period - (-v)
        return orbit(j + k)

    return tuple(image(i) for i in range(1, n + 1))


def decompose_A(p: Permutation) -> ExponentVectorA:
    """The unique exponents with p = cycle_A(n-1)^{k_{n-1}} ... cycle_A(1)^{k_1}."""
    word = list(p.word)
    ks = []
    for size in range(p.n, 1, -1):
        k = (size - word[size - 1]) % size
        ks.append(k)
        word = [((v - 1 + k) % size) + 1 for v in word]
        assert word[size - 1] == size
        word = word[: size - 1]
    return ExponentVectorA(p.n, tuple(reversed(ks)))


def decompose_B(p: SignedPermutation) -> ExponentVectorB:
    """The unique exponents with p = cycle_B(n-1)^{k_{n-1}} ... cycle_B(0)^{k_0}."""
    word = list(p.word)
    ks = []
    for size in range(p.n, 0, -1):
        v = word[size - 1]
        k = size - v if v > 0 else 2 * size + v
        ks.append(k)
        period, half = 2 * size, size

        def orbit(j: int) -> int:
            j %= period
            return half - j if j < half else -(period - j)

        word = [
            orbit((half - u if u > 0 else period + u) - k)  # index of u, shifted back
            for u in word
        ]
        assert word[size - 1] == size
        word = word[: size - 1]
    return ExponentVectorB(p.n, tuple(reversed(ks)))


def recompose_A(e: ExponentVectorA) -> Permutation:
    word = tuple(range(1, e.n + 1))
    for i, k in enumerate(e.k, 1):
        if k:
            cyc = _cycle_a_power_word(i, e.n, k)
            word = tuple(cyc[v - 1] for v in word)
    return Permutation(word)


def recompose_B(e: ExponentVectorB) -> SignedPermutation:
    word = tuple(range(1, e.n + 1))
    for i, k in enumerate(e.k):
        if k:
            cyc = _cycle_b_power_word(i, e.n, k)
            word = tuple(cyc[v - 1] if v > 0 else -cyc[-v - 1] for v in word)
    return SignedPermutation(word)


def maj_from_exponents(e: ExponentVectorA | ExponentVectorB) -> int:
    """maj (type A) or fmaj (type B) of the recomposed permutation is the
    exponent sum."""
    return sum(e.k)


fmaj_from_exponents = maj_from_exponents


def is_arc_by_exponents(e: ExponentVectorA) -> bool:
    """Arc criterion: k_i in {0, i} for all 1 <= i <= n-2 (k_{n-1} free)."""
    return all(k in (0, i) for i, k in enumerate(e.k[:-1], 1))


def is_b_arc_by_exponents(e: ExponentVectorB) -> bool:
    """B-arc criterion: k_i in {0, 2i+1} for all 0 <= i <= n-2 (k_{n-1} free)."""
    return all(k in (0, 2 * i + 1) for i, k in enumerate(e.k[:-1]))
