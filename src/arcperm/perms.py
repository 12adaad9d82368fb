"""One-line permutations of {1..n} and signed permutations of {±1..±n}.

Positions are 1-based in every public contract: ``p(i)`` is the image of
position ``i``.  Signed permutations are stored in window notation; the
defining symmetry p(-a) = -p(a) of the hyperoctahedral group is implicit
and never stored.  All values are immutable; treat ``word`` as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable


def b_order_key(v: int) -> tuple[int, int]:
    """Sort key realizing the order -1 < -2 < ... < -n < 1 < 2 < ... < n.

    The family walk (``arcsets.family_moves``) compares the entries it
    places with it.  The descents of a word (``descent_positions``), the
    brute-force side the walk is checked against, read the same order
    through an arithmetic map of their own, so the two share no code.
    """
    return (0, -v) if v < 0 else (1, v)


def _integer(v, what: str) -> int:
    """v if it is an int and not a bool, which is an int subclass but no size,
    position or exponent; TypeError otherwise.  A plain int takes one test."""
    if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)):
        raise TypeError(f"{what} {v!r} is not an integer")
    return v


def _parse_word(text: str, *, signed: bool) -> list[int]:
    s = text.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"missing closing bracket in {text!r}")
        inner = s[1:-1].strip()
        if not inner:
            raise ValueError("empty permutation")
        values = []
        for token in inner.split(","):
            token = token.strip()
            # int() would also read "1_0", other scripts' digits and "²"
            digits = token[1:] if token.startswith(("+", "-")) else token
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"token {token!r} is not an integer")
            values.append(int(token))
    elif s.isascii() and s.isdigit():
        # compact digit form, usable for n <= 9 only
        if "0" in s:
            raise ValueError(f"digit '0' is not a valid entry in {s!r}")
        values = [int(ch) for ch in s]
    else:
        raise ValueError(f"cannot parse permutation from {text!r}")
    if not signed and any(v < 0 for v in values):
        raise ValueError(f"negative entry in unsigned permutation {text!r}")
    return values


def descent_positions(word, signed: bool) -> tuple[int, ...]:
    """Positions i with word[i-1] > word[i]: integer order on unsigned words,
    the order of ``b_order_key`` on signed ones, read as integer order after
    mapping each negative v to -v - n - 1: -1, ..., -n go to -n, ..., -1,
    below every positive entry."""
    if signed:
        n = len(word)
        word = [v if v > 0 else -v - n - 1 for v in word]
    return tuple([i for i in range(1, len(word)) if word[i - 1] > word[i]])


def neg_positions(word) -> tuple[int, ...]:
    """Positions i with word[i-1] < 0."""
    return tuple([i for i, v in enumerate(word, 1) if v < 0])


def abs_inv(word) -> int:
    """Inversions of the absolute word: each entry meets the larger values
    already seen, kept as the set bits of one integer."""
    seen = inv = 0
    for v in word:
        v = abs(v)
        inv += (seen >> v).bit_count()
        seen |= 1 << v
    return inv


class _PermutationBase:
    """What S_n and B_n share: a validated word, composition and the
    statistics, with S_n the all-positive words.  ``signed`` tells the two
    subclasses apart; they stay siblings, so neither is an instance of the
    other and equal words of different classes are unequal."""

    __slots__ = ("word",)
    signed = False
    _noun = "permutation"

    def __init__(self, word: Iterable[int]):
        word = tuple(word)
        n = len(word)
        if n == 0:
            raise ValueError(f"a {self._noun} needs at least one entry")
        signed = self.signed
        seen = set()
        for v in word:
            # bool is an int subclass but no entry; a plain int takes one test
            if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)):
                raise TypeError(f"entry {v!r} is not an integer")
            a = abs(v) if signed else v
            if not 1 <= a <= n:
                where = f"for size {n}" if signed else f"1..{n}"
                raise ValueError(f"value {v} out of range {where}")
            if a in seen:
                what = "absolute value" if signed else "value"
                raise ValueError(f"{what} {a} appears more than once")
            seen.add(a)
        self.word = word

    @classmethod
    def identity(cls, n: int):
        return cls(range(1, _integer(n, "size") + 1))

    @classmethod
    def parse(cls, text: str):
        """Parse "[2,5,4,3,1]", "[-3,-2,4,1]" (signed only) or the compact
        digit form "25431" (n <= 9, read as all-positive)."""
        return cls(_parse_word(text, signed=cls.signed))

    @property
    def n(self) -> int:
        return len(self.word)

    def __len__(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        """Image of position i, extended to negative positions by p(-a) = -p(a)."""
        w = self.word
        if _integer(i, "position") == 0 or abs(i) > len(w):
            raise IndexError(f"position {i} out of range for size {len(w)}")
        return w[i - 1] if i > 0 else -w[-i - 1]

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.word == other.word

    def __hash__(self) -> int:
        return hash((type(self), self.word))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.word)})"

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.word) + "]"

    def __mul__(self, other):
        # composition convention: (p*q)(i) = p(q(i)), with p(-a) = -p(a)
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"cannot compose {self._noun}s of different sizes")
        w = self.word
        return type(self)(w[v - 1] if v > 0 else -w[-v - 1] for v in other.word)

    def inverse(self):
        out = [0] * self.n
        for i, v in enumerate(self.word, 1):
            out[abs(v) - 1] = i if v > 0 else -i
        return type(self)(out)

    def __pow__(self, k: int):
        base = self if _integer(k, "exponent") >= 0 else self.inverse()
        result = self.identity(self.n)
        for _ in range(abs(k)):
            result = base * result
        return result

    # -- statistics ---------------------------------------------------------

    def descent_set(self) -> frozenset[int]:
        """Positions i with p(i) > p(i+1), in the order -1 < ... < -n < 1 < ... < n
        (integer order on unsigned words)."""
        return frozenset(descent_positions(self.word, self.signed))

    def des(self) -> int:
        return len(descent_positions(self.word, self.signed))

    def maj(self) -> int:
        return sum(descent_positions(self.word, self.signed))

    def neg_set(self) -> frozenset[int]:
        return frozenset(neg_positions(self.word))

    def neg(self) -> int:
        return len(neg_positions(self.word))

    def inv(self) -> int:
        """Inversions of the absolute word."""
        return abs_inv(self.word)

    def sign(self) -> int:
        """The group-theoretic sign, (-1) ** (inv(|p|) + neg(p))."""
        return -1 if (self.inv() + self.neg()) % 2 else 1

    def stats(self) -> StatProfile:
        """Every statistic at once; an unsigned permutation is its all-positive
        window, so its neg_set is empty, fmaj = 2 maj and fdes = 2 des."""
        word = self.word
        des = descent_positions(word, self.signed)
        neg = neg_positions(word)
        maj = sum(des)
        inv = abs_inv(word)
        sign_abs = -1 if inv % 2 else 1
        neg_parity = -1 if len(neg) % 2 else 1
        return StatProfile(
            des_set=frozenset(des),
            des=len(des),
            maj=maj,
            inv=inv,
            neg_set=frozenset(neg),
            neg=len(neg),
            fmaj=2 * maj + len(neg),
            fdes=2 * len(des) + (word[0] < 0),
            sign=sign_abs * neg_parity,
            sign_abs=sign_abs,
            neg_parity=neg_parity,
        )


class Permutation(_PermutationBase):
    """A permutation of {1..n} in one-line notation."""

    __slots__ = ()


class SignedPermutation(_PermutationBase):
    """An element of the hyperoctahedral group B_n in window notation."""

    __slots__ = ()
    signed = True
    _noun = "signed permutation"

    def absolute(self) -> Permutation:
        """Entrywise absolute value, an element of S_n."""
        return Permutation(abs(v) for v in self.word)

    def fmaj(self) -> int:
        return 2 * self.maj() + self.neg()

    def fdes(self) -> int:
        return 2 * self.des() + (1 if self.word[0] < 0 else 0)


@dataclass(frozen=True)
class StatProfile:
    """All statistics of one permutation, bundled for table/JSON output."""

    des_set: frozenset[int]
    des: int
    maj: int
    inv: int
    neg_set: frozenset[int]
    neg: int
    fmaj: int
    fdes: int
    sign: int
    sign_abs: int
    neg_parity: int

    def as_dict(self) -> dict:
        """The fields in order, with the two sets as sorted lists."""
        return {k: sorted(v) if isinstance(v, frozenset) else v for k, v in vars(self).items()}


class Character(Enum):
    """The four one-dimensional characters of the hyperoctahedral group."""

    TRIVIAL = "trivial"
    SIGN = "sign"
    NEG_PARITY = "neg_parity"
    SIGN_ABS = "sign_abs"

    def of_stats(self, inv: int, neg: int) -> int:
        """Value, in {+1, -1}, at an element with these inv (of the absolute
        word) and neg statistics; only the parities matter."""
        if self is Character.SIGN:
            parity = inv + neg
        elif self is Character.NEG_PARITY:
            parity = neg
        elif self is Character.SIGN_ABS:
            parity = inv
        else:
            return 1
        return -1 if parity % 2 else 1

    def of(self, p: Permutation | SignedPermutation) -> int:
        """Value at p, in {+1, -1}.

        Unsigned permutations are all-positive windows, so NEG_PARITY is 1
        on them and SIGN coincides with SIGN_ABS.
        """
        return self.of_stats(p.inv(), p.neg())
