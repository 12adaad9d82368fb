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

    Single source of truth for every type-B descent computation.
    """
    return (0, -v) if v < 0 else (1, v)


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
            try:
                values.append(int(token))
            except ValueError:
                raise ValueError(f"token {token!r} is not an integer") from None
    elif s.isdigit():
        # compact digit form, usable for n <= 9 only
        if "0" in s:
            raise ValueError(f"digit '0' is not a valid entry in {s!r}")
        values = [int(ch) for ch in s]
    else:
        raise ValueError(f"cannot parse permutation from {text!r}")
    if not signed and any(v < 0 for v in values):
        raise ValueError(f"negative entry in unsigned permutation {text!r}")
    return values


class Permutation:
    """A permutation of {1..n} in one-line notation."""

    __slots__ = ("word",)

    def __init__(self, word: Iterable[int]):
        word = tuple(word)
        n = len(word)
        if n == 0:
            raise ValueError("a permutation needs at least one entry")
        seen = set()
        for v in word:
            if not isinstance(v, int):
                raise TypeError(f"entry {v!r} is not an integer")
            if not 1 <= v <= n:
                raise ValueError(f"value {v} out of range 1..{n}")
            if v in seen:
                raise ValueError(f"value {v} appears more than once")
            seen.add(v)
        self.word = word

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(range(1, n + 1))

    @classmethod
    def parse(cls, text: str) -> Permutation:
        """Parse "[2,5,4,3,1]" or the compact digit form "25431" (n <= 9)."""
        return cls(_parse_word(text, signed=False))

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        return self.word[i - 1]

    def __len__(self) -> int:
        return len(self.word)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self) -> int:
        return hash((Permutation, self.word))

    def __repr__(self) -> str:
        return f"Permutation({list(self.word)})"

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.word) + "]"

    def __mul__(self, other: Permutation) -> Permutation:
        # composition convention: (p*q)(i) = p(q(i))
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(self.word[v - 1] for v in other.word)

    def inverse(self) -> Permutation:
        out = [0] * self.n
        for i, v in enumerate(self.word, 1):
            out[v - 1] = i
        return Permutation(out)

    def __pow__(self, k: int) -> Permutation:
        base = self if k >= 0 else self.inverse()
        result = Permutation.identity(self.n)
        for _ in range(abs(k)):
            result = base * result
        return result

    # -- statistics ---------------------------------------------------------

    def descent_set(self) -> frozenset[int]:
        """Positions i with p(i) > p(i+1) under ordinary integer order."""
        w = self.word
        return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])

    def des(self) -> int:
        return len(self.descent_set())

    def maj(self) -> int:
        return sum(self.descent_set())

    def inv(self) -> int:
        w = self.word
        return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])

    def sign(self) -> int:
        return -1 if self.inv() % 2 else 1


class SignedPermutation:
    """An element of the hyperoctahedral group B_n in window notation."""

    __slots__ = ("word",)

    def __init__(self, word: Iterable[int]):
        word = tuple(word)
        n = len(word)
        if n == 0:
            raise ValueError("a signed permutation needs at least one entry")
        seen = set()
        for v in word:
            if not isinstance(v, int):
                raise TypeError(f"entry {v!r} is not an integer")
            if v == 0 or not 1 <= abs(v) <= n:
                raise ValueError(f"value {v} out of range for size {n}")
            if abs(v) in seen:
                raise ValueError(f"absolute value {abs(v)} appears more than once")
            seen.add(abs(v))
        self.word = word

    @classmethod
    def identity(cls, n: int) -> SignedPermutation:
        return cls(range(1, n + 1))

    @classmethod
    def parse(cls, text: str) -> SignedPermutation:
        """Parse "[-3,-2,4,1]"; an unsigned compact form is read as all-positive."""
        return cls(_parse_word(text, signed=True))

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        # window lookup extended by p(-a) = -p(a)
        if i < 0:
            return -self.word[-i - 1]
        return self.word[i - 1]

    def __len__(self) -> int:
        return len(self.word)

    def __eq__(self, other) -> bool:
        return isinstance(other, SignedPermutation) and self.word == other.word

    def __hash__(self) -> int:
        return hash((SignedPermutation, self.word))

    def __repr__(self) -> str:
        return f"SignedPermutation({list(self.word)})"

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.word) + "]"

    def __mul__(self, other: SignedPermutation) -> SignedPermutation:
        # (p*q)(i) = p(q(i)), using the signed extension for negative q(i)
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("cannot compose signed permutations of different sizes")
        return SignedPermutation(self(v) for v in other.word)

    def inverse(self) -> SignedPermutation:
        out = [0] * self.n
        for i, v in enumerate(self.word, 1):
            out[abs(v) - 1] = i if v > 0 else -i
        return SignedPermutation(out)

    def __pow__(self, k: int) -> SignedPermutation:
        base = self if k >= 0 else self.inverse()
        result = SignedPermutation.identity(self.n)
        for _ in range(abs(k)):
            result = base * result
        return result

    def absolute(self) -> Permutation:
        """Entrywise absolute value, an element of S_n."""
        return Permutation(abs(v) for v in self.word)

    # -- statistics ---------------------------------------------------------

    def descent_set(self) -> frozenset[int]:
        """Positions i with p(i) > p(i+1) in the order -1 < ... < -n < 1 < ... < n."""
        w = self.word
        return frozenset(
            i for i in range(1, len(w)) if b_order_key(w[i - 1]) > b_order_key(w[i])
        )

    def des(self) -> int:
        return len(self.descent_set())

    def maj(self) -> int:
        return sum(self.descent_set())

    def neg_set(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self.word, 1) if v < 0)

    def neg(self) -> int:
        return len(self.neg_set())

    def inv(self) -> int:
        """Inversions of the absolute word."""
        return self.absolute().inv()

    def fmaj(self) -> int:
        return 2 * self.maj() + self.neg()

    def fdes(self) -> int:
        return 2 * self.des() + (1 if self.word[0] < 0 else 0)

    def sign(self) -> int:
        """The group-theoretic sign, (-1) ** (inv(|p|) + neg(p))."""
        return -1 if (self.inv() + self.neg()) % 2 else 1

    def stats(self) -> StatProfile:
        des_set = self.descent_set()
        neg_set = self.neg_set()
        maj = sum(des_set)
        neg = len(neg_set)
        inv = self.inv()
        sign_abs = -1 if inv % 2 else 1
        neg_parity = -1 if neg % 2 else 1
        return StatProfile(
            des_set=des_set,
            des=len(des_set),
            maj=maj,
            inv=inv,
            neg_set=neg_set,
            neg=neg,
            fmaj=2 * maj + neg,
            fdes=2 * len(des_set) + (1 if self.word[0] < 0 else 0),
            sign=sign_abs * neg_parity,
            sign_abs=sign_abs,
            neg_parity=neg_parity,
        )


@dataclass(frozen=True)
class StatProfile:
    """All statistics of one signed permutation, bundled for table/JSON output."""

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
        return {
            "des_set": sorted(self.des_set),
            "des": self.des,
            "maj": self.maj,
            "inv": self.inv,
            "neg_set": sorted(self.neg_set),
            "neg": self.neg,
            "fmaj": self.fmaj,
            "fdes": self.fdes,
            "sign": self.sign,
            "sign_abs": self.sign_abs,
            "neg_parity": self.neg_parity,
        }


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

        Unsigned permutations are treated as all-positive windows, so
        NEG_PARITY is 1 on them and SIGN coincides with SIGN_ABS.
        """
        if self is Character.TRIVIAL:
            return 1
        return self.of_stats(p.inv(), p.neg() if isinstance(p, SignedPermutation) else 0)


def character_value(chi: Character, p: Permutation | SignedPermutation) -> int:
    """Function form of Character.of."""
    return chi.of(p)
