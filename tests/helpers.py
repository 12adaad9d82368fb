"""Shared test utilities: cached exhaustive groups, an exact determinant and
a short report of where two long texts differ."""

from functools import lru_cache

from arcperm.arcsets import generate_hyperoctahedral, generate_symmetric


@lru_cache(maxsize=None)
def symmetric(n):
    return tuple(generate_symmetric(n))


@lru_cache(maxsize=None)
def hyperoctahedral(n):
    return tuple(generate_hyperoctahedral(n))


def det(matrix):
    """Exact integer determinant by memoized cofactor expansion."""
    n = len(matrix)

    @lru_cache(maxsize=None)
    def minor(row, cols):
        if row == n:
            return 1
        total = 0
        sign = 1
        for idx, col in enumerate(cols):
            entry = matrix[row][col]
            if entry:
                total += sign * entry * minor(row + 1, cols[:idx] + cols[idx + 1 :])
            sign = -sign
        return total

    return minor(0, tuple(range(n)))


def signed_matrix(p):
    """The n-by-n signed permutation matrix of p; its determinant is sign(p)."""
    n = p.n
    m = [[0] * n for _ in range(n)]
    for i, v in enumerate(p.word):
        m[abs(v) - 1][i] = 1 if v > 0 else -1
    return m


def doubled_matrix(p):
    """The 2n-by-2n 0/1 matrix of p acting on {-n..-1, 1..n}."""
    n = p.n

    def idx(v):
        return v + n if v < 0 else n + v - 1

    m = [[0] * (2 * n) for _ in range(2 * n)]
    for u in list(range(-n, 0)) + list(range(1, n + 1)):
        m[idx(p(u))][idx(u)] = 1
    return m


def first_difference(a: str, b: str, context: int = 40):
    """None when the texts are equal; otherwise both lengths, the offset of
    the first character where they differ and up to ``context`` characters
    of each on either side of it.  ``assert first_difference(a, b) is None``
    fails at once on texts of megabytes, where ``assert a == b`` has pytest
    diff all of them."""
    if a == b:
        return None
    low, high = 0, min(len(a), len(b))  # the common prefix is low..high long
    while low < high:
        mid = (low + high + 1) // 2
        if a[:mid] == b[:mid]:
            low = mid
        else:
            high = mid - 1
    start = max(low - context, 0)
    return len(a), len(b), low, a[start:low + context], b[start:low + context]
