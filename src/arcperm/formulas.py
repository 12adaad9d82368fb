"""Closed-form enumerators for the arc families, with verifiers.

Every rational display is implemented in cleared polynomial form; the one
genuine denominator (the fdes/fmaj enumerator on B-arc permutations) is
realized through exact division with a remainder-zero assertion.  The
registry pairs each closed form with the matching statistic weights and
family, and ``verify`` reports EQUAL / MISMATCH / OUT_OF_STATED_RANGE rows
with difference polynomials.  The truth side is ``enumerator`` on an
``arcsets.Family``: a transfer-matrix walk over the family's growth states,
checked against brute force in tier-1.  It yields the same polynomial as
the brute-force sum over every word, so a row's note still calls its rhs
the brute-force value.

Each builder states its identity once, in the ``_identity`` declaration
above it: its family, weights, the n from which the identity is claimed
(``claimed_from``) and the n from which the builder can be evaluated
(``evaluable_from``, by default ``claimed_from``).  The declaration enters it
in ``REGISTRY`` and makes the builder refuse a smaller n, whether ``verify``
or a caller asks.  Two univariate specializations are only evaluated from
n = 3 on, because their printed forms carry the factor (1+t)^(n-3) or
(1+t^2)^(n-3); below that the verifier reports the brute-force truth with an
annotation instead of silently extending validity.  Two bivariate forms
(des/maj on arc permutations, fdes/fmaj on signed arc permutations) are
stated from n = 2 in their source but provably disagree with the 8-element
brute force there; they are claimed from n = 3, evaluable from n = 2, and
the n = 2 rows carry the nonzero difference as evidence.

Seven descent-set forms share one layered shape (``_layered``).  The four
whose pieces are multilinear in x's alone, ``f_A_des_set``,
``f_sign_des_set``, ``f_sign_des_set_even`` and ``f_AB_des_set``, are
evaluated at x_d = 2^(W·2^(d−1)) by one backward recursion of shift-adds on
one int and decoded once; the three in t or y are summed by the same
recursion in the polynomial ring, O(m) products of the running sum by a
piece of two to four terms (docs/DECISIONS.md §8).

Each product form in t and q (``f_A_des_maj``, ``f_A_maj``,
``f_A_signed_maj``, ``f_A_des``, ``f_As_fdes``, ``f_AB_fdes``,
``f_As_fdes_fmaj`` and the eight character-twisted fmaj forms) is one
``poly_product`` over all its factors: its q-bracket or head, and each
binomial, (1 + t)^k and (1 + t^2)^k as k factors.  The packed product packs
the largest factor whole, applies the others to its rows and decodes once,
so no partial product is decoded and packed again (docs/DECISIONS.md §7).
``f_AB_fdes_fmaj`` alone keeps its grouping: its numerator is a difference
of two chains, each one product, times two binomials.  One product of that
difference and the two binomials builds it in 0.63-0.73 ms at n = 8
against 0.60-0.66 ms as grouped, level at n = 16 and faster only from about
n = 24 (12.1-12.5 against 13.5-14.9 ms; best of 30, four alternating
processes, 2-vCPU VM, Python 3.11.7); ``verify`` runs it at small n
(docs/DECISIONS.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial, reduce, wraps
from itertools import chain, repeat
from operator import add, mul, or_
from typing import Callable, Iterator

from .arcsets import FAMILY_NAMES, Family
from .perms import Character, _integer
from .poly import (SparsePolynomial, _from_slots, _letter_keys, _letter_slots, _shift_add,
                   _slot_width, const, exact_div, poly_product, q_bracket, var)
from .walk import WeightSpec, enumerator

T = var("t")
Q = var("q")


def _x(i: int) -> SparsePolynomial:
    return var(f"x{i}")


def _y(i: int) -> SparsePolynomial:
    return var(f"y{i}")


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class FormulaEntry:
    name: str
    build: Callable[[int], SparsePolynomial]
    family: str
    weights: WeightSpec
    claimed_from: int
    even_only: bool = False
    evaluable_from: int = 1
    note: str = ""
    hidden: bool = False

    def claimed(self, n: int) -> bool:
        return n >= self.claimed_from and not (self.even_only and n % 2)

    @property
    def claim_text(self) -> str:
        return f"{'even ' if self.even_only else ''}n >= {self.claimed_from}"


REGISTRY: dict[str, FormulaEntry] = {}


def _identity(family: str, weights: WeightSpec, claimed_from: int,
              evaluable_from: int | None = None, *, by_character: bool = False, **facts):
    """Declare the decorated builder's identity, once: enter it in REGISTRY
    under its own name, and make it refuse an n below ``evaluable_from``
    (``claimed_from`` unless given).  A builder ``by_character`` takes a
    ``Character`` too and is entered once per character, as ``name.chi``."""
    low = claimed_from if evaluable_from is None else evaluable_from

    def declare(build):
        @wraps(build)
        def checked(n, *args, **kwargs):
            if _integer(n, "n") < low:
                raise ValueError(f"formula requires n >= {low}, got {n}")
            return build(n, *args, **kwargs)

        variants = [(build.__name__, checked, weights)]
        if by_character:
            variants = [(f"{build.__name__}.{chi.value}", partial(checked, chi=chi),
                         replace(weights, character=chi)) for chi in Character]
        for name, fn, spec in variants:
            REGISTRY[name] = FormulaEntry(name, fn, family, spec, claimed_from,
                                          evaluable_from=low, **facts)
        return checked

    return declare


def _layered(m, left, head, right=None, scale=1) -> SparsePolynomial:
    """scale·∏_{i=1}^{m} left(i) + Σ_{j=1}^{m−1} head(j)·∏_{i<j} left(i)·∏_{i=j+2}^{m} right(i).

    The printed shape of the descent-set forms: head j spans layers j and
    j + 1, and right defaults to left.  Each piece is built once.  In x's
    alone the sum is evaluated at one point and decoded once
    (``_letters_sum``); any other sum is the same backward recursion in the
    polynomial ring, the running sum times each 2- to 4-term piece
    (docs/DECISIONS.md §8).
    """
    lefts = [left(i) for i in range(1, m + 1)]
    heads = [head(j) for j in range(1, m)]
    rights = lefts[2:] if right is None else [right(i) for i in range(3, m + 1)]
    pieces = (lefts, heads, rights)
    packed = _letters_sum(*pieces, scale)
    if packed is None:
        return _backward(pieces, scale, 1, lambda piece, value: value * piece, add)
    return packed


def _letters_sum(lefts, heads, rights, scale) -> SparsePolynomial | None:
    """The layered sum at x_d = 2^(W·2^(d−1)), one int decoded once, or None
    unless every piece is multilinear in x's alone (``poly._letter_slots``)
    and the pieces of each product have disjoint supports.

    Then every monomial of the sum is multilinear, so its slot, the set of
    its letters, lies below 2^D for the D letters that occur, and W is sized
    from B, the sum with each piece replaced by its L1 norm, which bounds
    every coefficient (docs/DECISIONS.md §8).
    """
    if not isinstance(scale, int):
        return None
    pieces = [[_letter_slots(p) for p in part] for part in (lefts, heads, rights)]
    if None in chain.from_iterable(pieces):
        return None
    supports = [[reduce(or_, [slot for slot, _ in p], 0) for p in part] for part in pieces]
    support = _backward(supports, 0, 0, _disjoint, or_)
    if support < 0:
        return None
    norms = [[sum([abs(c) for _, c in p]) for p in part] for part in pieces]
    width = _slot_width(_backward(norms, abs(scale), 1, mul, add))
    value = _backward(pieces, scale, 1, partial(_shift_add, width), add)
    return _from_slots(value, width, _letter_keys(support.bit_length()))


def _backward(pieces, value, one, times, plus):
    """The layered sum of ``pieces``, (lefts, heads, rights), in one backward
    pass: G_k = H_k·∏_{i≥k+2} R_i + L_k·G_{k+1} from G_{m+1} = scale
    (``value``), the right product carried along from ``one``, in the ring
    of ``times`` and ``plus``."""
    lefts, heads, rights = pieces
    suffix, m = one, len(lefts)
    for k in range(m, 0, -1):
        value = times(lefts[k - 1], value)
        if k < m:
            value = plus(value, times(heads[k - 1], suffix))
            if k > 1:
                suffix = times(rights[k - 2], suffix)
    return value


def _disjoint(a: int, b: int) -> int:
    """The union of two supports, or -1, every bit set, when they meet: -1
    then absorbs every later union and meeting."""
    return -1 if a & b else a | b


# -- arc permutations ---------------------------------------------------------

_FAILS_AT_2 = "printed claim starts at n = 2 but the identity fails there"


@_identity("arc", WeightSpec(t_stat="inv", descent_vars=True), 2)
def f_A_inv_des(n: int) -> SparsePolynomial:
    """Joint inversion / descent-set distribution on arc permutations."""
    return _inv_des(n, T)


def _inv_des(n: int, t: SparsePolynomial | int) -> SparsePolynomial:
    """The layered form of f_A_inv_des with t given as ``t``: T itself, or
    -1 for f_sign_des_set, since substituting for t is a ring homomorphism."""
    return _layered(
        n - 1,
        left=lambda i: 1 + t**i * _x(i),
        head=lambda j: t ** (j * (n - j)) * _x(j) + t ** (n - j - 1) * _x(j + 1),
        right=lambda i: 1 + t ** (n - i) * _x(i),
    )


@_identity("arc", WeightSpec(descent_vars=True), 2)
def f_A_des_set(n: int) -> SparsePolynomial:
    """Descent-set distribution on arc permutations, cleared product form."""
    return _layered(n - 1, left=lambda i: 1 + _x(i), head=lambda j: _x(j) + _x(j + 1))


@_identity("arc", WeightSpec(t_stat="des", q_stat="maj"), 3, 2, note=_FAILS_AT_2)
def f_A_des_maj(n: int) -> SparsePolynomial:
    """Joint des/maj distribution on arc permutations (valid from n = 3)."""
    head = 1 + 2 * T * Q * q_bracket(n - 1, Q) + T**2 * Q**n
    return poly_product([head, *(1 + T * Q**i for i in range(2, n - 1))])


@_identity("arc", WeightSpec(t_stat="des"), 3, note="literal form carries (1+t)^(n-3)")
def f_A_des(n: int) -> SparsePolynomial:
    """Descent-number distribution on arc permutations (literal form, n >= 3)."""
    return poly_product([1 + 2 * (n - 1) * T + T**2, *repeat(1 + T, n - 3)])


@_identity("arc", WeightSpec(q_stat="maj"), 2)
def f_A_maj(n: int) -> SparsePolynomial:
    """Major-index distribution on arc permutations."""
    return poly_product([q_bracket(n, Q), *(1 + Q**i for i in range(1, n - 1))])


@_identity("arc", WeightSpec(q_stat="maj", character=Character.SIGN), 2)
def f_A_signed_maj(n: int) -> SparsePolynomial:
    """Sign-twisted major-index distribution on arc permutations."""
    base = Q if n % 2 else -Q
    return poly_product([q_bracket(n, base), *(1 + (-Q) ** i for i in range(1, n - 1))])


@_identity("arc", WeightSpec(descent_vars=True, character=Character.SIGN), 2)
def f_sign_des_set(n: int) -> SparsePolynomial:
    """Sign-twisted descent-set distribution: f_A_inv_des via t -> -1, built
    layer by layer at t = -1 instead of substituting into its expansion."""
    return _inv_des(n, -1)


@_identity("arc", WeightSpec(descent_vars=True, character=Character.SIGN), 2, even_only=True)
def f_sign_des_set_even(n: int) -> SparsePolynomial:
    """Simplified sign-twisted descent-set product, valid for even n."""
    return _layered(
        n - 1,
        left=lambda i: 1 + (-1) ** i * _x(i),
        head=lambda j: (-1) ** j * (_x(j) - _x(j + 1)),
    )


@_identity("left-unimodal", WeightSpec(descent_vars=True), 1)
def f_L_des_set(n: int) -> SparsePolynomial:
    """Descent-set distribution on left-unimodal permutations."""
    return poly_product(1 + _x(i) for i in range(1, n))


# -- signed arc permutations --------------------------------------------------


def _x_or_one(i: int) -> SparsePolynomial:
    """x_i, except that the printed forms' x_0 stands for 1."""
    return _x(i) if i else const(1)


@_identity("signed-arc", WeightSpec(descent_vars=True, neg_vars=True), 1)
def f_As_des_neg(n: int) -> SparsePolynomial:
    """Joint descent-set / negative-set distribution on signed arc permutations."""
    return _layered(
        n,
        left=lambda i: 1 + _x_or_one(i - 1) * _y(i),
        head=lambda j: (_x(j) + _x_or_one(j - 1) * _y(j)) * (1 + _y(j + 1)),
    )


@_identity("signed-arc", WeightSpec(t_stat="inv", descent_vars=True, neg_vars=True), 1)
def f_As_des_neg_inv(n: int) -> SparsePolynomial:
    """The refinement of f_As_des_neg by inversions of the absolute word."""
    return _layered(
        n,
        left=lambda i: 1 + T ** (i - 1) * _x_or_one(i - 1) * _y(i),
        head=lambda j: (_x(j) + T ** (j - 1) * _x_or_one(j - 1) * _y(j))
        * (T ** (j * (n - j)) + T ** (n - j - 1) * _y(j + 1)),
        right=lambda i: 1 + T ** (n - i) * _x(i - 1) * _y(i),
    )


@_identity("signed-arc", WeightSpec(t_stat="fdes", q_stat="fmaj"), 3, 2, note=_FAILS_AT_2)
def f_As_fdes_fmaj(n: int) -> SparsePolynomial:
    """Joint fdes/fmaj distribution on signed arc permutations (valid from n = 3)."""
    head = (
        1
        + T * Q * (1 + Q)
        + 2 * T**2 * Q**3 * q_bracket(2 * n - 3, Q)
        + T**3 * Q ** (2 * n) * (1 + Q)
        + T**4 * Q ** (2 * n + 2)
    )
    return poly_product([head, 1 + T * Q, *(1 + T**2 * Q ** (2 * i - 1) for i in range(3, n))])


@_identity("signed-arc", WeightSpec(t_stat="fdes"), 3, note="literal form carries (1+t^2)^(n-3)")
def f_As_fdes(n: int) -> SparsePolynomial:
    """fdes distribution on signed arc permutations (literal form, n >= 3)."""
    quartic = 1 + 2 * T + (4 * n - 6) * T**2 + 2 * T**3 + T**4
    return poly_product([quartic, 1 + T, *repeat(1 + T**2, n - 3)])


# χ → (a, b) in the factors 1 + a·b^i·q^(2i−1) of both families' fmaj forms
_CHARACTER_SIGNS = {
    Character.TRIVIAL: (1, 1),
    Character.SIGN: (1, -1),
    Character.NEG_PARITY: (-1, 1),
    Character.SIGN_ABS: (-1, -1),
}


def _fmaj_factors(n: int, chi: Character) -> list[SparsePolynomial]:
    """The factors 1 + a·b^i·q^(2i−1), i = 1, ..., n − 1, with (a, b) =
    _CHARACTER_SIGNS[chi]."""
    a, b = _CHARACTER_SIGNS[chi]
    return [1 + a * b**i * Q ** (2 * i - 1) for i in range(1, n)]


@_identity("signed-arc", WeightSpec(q_stat="fmaj"), 1, by_character=True)
def f_As_character_fmaj(n: int, chi: Character) -> SparsePolynomial:
    """Character-twisted fmaj distribution on signed arc permutations."""
    a, b = _CHARACTER_SIGNS[chi]
    if n % 2 and b == -1:
        return poly_product([q_bracket(n, -(Q**2)), 1 - a * Q, *_fmaj_factors(n, chi)])
    return poly_product([q_bracket(2 * n, a * Q), *_fmaj_factors(n, chi)])


# -- B-arc permutations ---------------------------------------------------------


@_identity("b-arc", WeightSpec(q_stat="fmaj"), 1, by_character=True)
def f_AB_character_fmaj(n: int, chi: Character) -> SparsePolynomial:
    """Character-twisted fmaj distribution on B-arc permutations."""
    a, b = _CHARACTER_SIGNS[chi]
    return poly_product([q_bracket(2 * n, a * b**n * Q), *_fmaj_factors(n, chi)])


@_identity("b-arc", WeightSpec(t_stat="fdes", q_stat="fmaj"), 2)
def f_AB_fdes_fmaj(n: int) -> SparsePolynomial:
    """Joint fdes/fmaj distribution on B-arc permutations.

    The closed form has denominator 1 - q; the numerator is built exactly
    and the division is asserted exact at runtime.
    """
    odd = poly_product(1 + T**2 * Q ** (2 * i + 1) for i in range(1, n - 1))
    even = poly_product(1 + T**2 * Q ** (2 * i + 2) for i in range(1, n - 1))
    numerator = (1 + T * Q) * (1 + T * Q**n) * (
        (1 - T * Q**n) * odd - (1 - T) * Q * even
    )
    return exact_div(numerator, 1 - Q)


@_identity("b-arc", WeightSpec(t_stat="fdes"), 3, note="literal form carries (1+t^2)^(n-3)")
def f_AB_fdes(n: int) -> SparsePolynomial:
    """fdes distribution on B-arc permutations (literal form, n >= 3)."""
    return poly_product([1 + (n - 2) * T + T**2, *repeat(1 + T, 3), *repeat(1 + T**2, n - 3)])


@_identity("b-arc", WeightSpec(descent_vars=True), 2)
def f_AB_des_set(n: int) -> SparsePolynomial:
    """Descent-set distribution on B-arc permutations, cleared product form."""
    return _layered(
        n - 1, left=lambda i: 1 + _x(i), head=lambda j: 2 * (_x(j) + _x(j + 1)), scale=2 + n
    )


def f_negative_control(n: int) -> SparsePolynomial:
    """Deliberately corrupted copy of f_A_maj; harness self-test fixture."""
    return f_A_maj(n) + 1


# f_A_maj refuses n < 2 for it; hidden from ``formula_names()``
REGISTRY["negative-control"] = FormulaEntry(
    "negative-control", f_negative_control, "arc", WeightSpec(q_stat="maj"), 2, evaluable_from=2,
    note="deliberately corrupted fixture; a MISMATCH here is expected", hidden=True,
)


# -- verification -----------------------------------------------------------------

EQUAL = "EQUAL"
MISMATCH = "MISMATCH"
OUT_OF_STATED_RANGE = "OUT_OF_STATED_RANGE"

_FAMILIES = {name: partial(Family, name) for name in FAMILY_NAMES}


@dataclass(frozen=True)
class VerifyRow:
    formula: str
    n: int
    status: str
    lhs: SparsePolynomial | None
    rhs: SparsePolynomial
    diff: SparsePolynomial | None
    note: str = ""

    def record(self) -> dict:
        """The row's JSON schema with its polynomials as objects: ``to_json``
        converts them, the CLI writes their text.  An EQUAL row's two sides
        are one polynomial and its diff is zero, so it writes that polynomial
        once; every other row writes lhs, rhs and diff."""
        head = {"formula": self.formula, "n": self.n, "status": self.status}
        if self.status == EQUAL:
            return {**head, "polynomial": self.rhs, "note": self.note or None}
        return {**head, "lhs": self.lhs, "rhs": self.rhs, "diff": self.diff,
                "note": self.note or None}

    def to_json(self) -> dict:
        return {key: value.to_json() if isinstance(value, SparsePolynomial) else value
                for key, value in self.record().items()}


def formula_names(include_hidden: bool = False) -> list[str]:
    return [n for n, e in REGISTRY.items() if include_hidden or not e.hidden]


def verify_formula(name: str, ns, set_cache: dict | None = None) -> list[VerifyRow]:
    """Compare closed form against the enumerator for each n.

    The truth side walks the family's growth states (a transfer-matrix
    walk, checked against brute force in tier-1); ``set_cache`` keeps one
    ``Family`` per (family, n) across calls.  Rows outside the claimed range
    are marked OUT_OF_STATED_RANGE and never fail; when the formula is still
    evaluable there, both sides and their difference are included as
    evidence.
    """
    entry = REGISTRY[name]
    if set_cache is None:
        set_cache = {}
    rows = []
    for n in ns:
        key = (entry.family, n)
        if key not in set_cache:
            set_cache[key] = _FAMILIES[entry.family](n)
        rhs = enumerator(set_cache[key], entry.weights)
        lhs = entry.build(n) if n >= entry.evaluable_from else None
        if lhs == rhs:  # keep one polynomial: the built one is freed at once
            lhs = rhs
        diff = None if lhs is None else const(0) if lhs is rhs else lhs - rhs
        if not entry.claimed(n):
            note = f"stated validity is {entry.claim_text}"
            if entry.note:
                note += f"; {entry.note}"
            if lhs is None:
                note += "; brute-force value reported as rhs"
            rows.append(VerifyRow(entry.name, n, OUT_OF_STATED_RANGE, lhs, rhs, diff, note))
        else:
            status = EQUAL if diff is not None and diff.is_zero else MISMATCH
            rows.append(VerifyRow(entry.name, n, status, lhs, rhs, diff, entry.note))
    return rows


def verify_many(names, ns) -> Iterator[VerifyRow]:
    """Each identity's rows in turn, in the order of ``names`` and then of
    ``ns``, with one family cache for all.  Each row is yielded as its own
    ``verify_formula`` call returns it, so a caller that writes the rows as
    they come holds one row at a time: a call over all of ``ns`` would hold
    an identity's earlier rows while it computes the largest n."""
    cache: dict = {}
    for name in names:
        for n in ns:
            yield from verify_formula(name, [n], set_cache=cache)
