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

Two univariate specializations are only evaluated from n = 3 on, because
their printed forms carry the factor (1+t)^(n-3) or (1+t^2)^(n-3); below
that the verifier reports the brute-force truth with an annotation instead
of silently extending validity.  Two bivariate forms (des/maj on arc
permutations, fdes/fmaj on signed arc permutations) are stated from n = 2
in their source but provably disagree with the 8-element brute force there;
the registry marks them as starting at n = 3 and the n = 2 rows carry the
nonzero difference as evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .arcsets import FAMILY_NAMES, Family
from .perms import Character
from .poly import SparsePolynomial, const, exact_div, poly_product, q_bracket, var
from .walk import WeightSpec, enumerator

T = var("t")
Q = var("q")


def _x(i: int) -> SparsePolynomial:
    return var(f"x{i}")


def _y(i: int) -> SparsePolynomial:
    return var(f"y{i}")


def _need(n: int, low: int):
    if n < low:
        raise ValueError(f"formula requires n >= {low}, got {n}")


def _layered(m, left, head, right=None, scale=1) -> SparsePolynomial:
    """scale·∏_{i=1}^{m} left(i) + Σ_{j=1}^{m−1} head(j)·∏_{i<j} left(i)·∏_{i=j+2}^{m} right(i).

    The printed shape of the descent-set forms: head j spans layers j and
    j + 1, and right defaults to left.  The left prefix is carried from one
    j to the next (docs/DECISIONS.md §8).
    """
    right = right or left
    lefts = [left(i) for i in range(1, m + 1)]
    total = poly_product([scale, *lefts])
    prefix = const(1)
    for j in range(1, m):
        total = total + head(j) * prefix * poly_product(right(i) for i in range(j + 2, m + 1))
        prefix = prefix * lefts[j - 1]
    return total


# -- arc permutations ---------------------------------------------------------


def f_A_inv_des(n: int) -> SparsePolynomial:
    """Joint inversion / descent-set distribution on arc permutations."""
    _need(n, 2)
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


def f_A_des_set(n: int) -> SparsePolynomial:
    """Descent-set distribution on arc permutations, cleared product form."""
    _need(n, 2)
    return _layered(n - 1, left=lambda i: 1 + _x(i), head=lambda j: _x(j) + _x(j + 1))


def f_A_des_maj(n: int) -> SparsePolynomial:
    """Joint des/maj distribution on arc permutations (valid from n = 3)."""
    _need(n, 2)
    head = 1 + 2 * T * Q * q_bracket(n - 1, Q) + T**2 * Q**n
    return poly_product(1 + T * Q**i for i in range(2, n - 1)) * head


def f_A_des(n: int) -> SparsePolynomial:
    """Descent-number distribution on arc permutations (literal form, n >= 3)."""
    _need(n, 3)
    return (1 + T) ** (n - 3) * (1 + 2 * (n - 1) * T + T**2)


def f_A_maj(n: int) -> SparsePolynomial:
    """Major-index distribution on arc permutations."""
    _need(n, 2)
    return q_bracket(n, Q) * poly_product(1 + Q**i for i in range(1, n - 1))


def f_A_signed_maj(n: int) -> SparsePolynomial:
    """Sign-twisted major-index distribution on arc permutations."""
    _need(n, 2)
    base = Q if n % 2 else -Q
    return q_bracket(n, base) * poly_product(1 + (-Q) ** i for i in range(1, n - 1))


def f_sign_des_set(n: int) -> SparsePolynomial:
    """Sign-twisted descent-set distribution: f_A_inv_des via t -> -1, built
    layer by layer at t = -1 instead of substituting into its expansion."""
    _need(n, 2)
    return _inv_des(n, -1)


def f_sign_des_set_even(n: int) -> SparsePolynomial:
    """Simplified sign-twisted descent-set product, valid for even n."""
    _need(n, 2)
    return _layered(
        n - 1,
        left=lambda i: 1 + (-1) ** i * _x(i),
        head=lambda j: (-1) ** j * (_x(j) - _x(j + 1)),
    )


def f_L_des_set(n: int) -> SparsePolynomial:
    """Descent-set distribution on left-unimodal permutations."""
    _need(n, 1)
    return poly_product(1 + _x(i) for i in range(1, n))


# -- signed arc permutations --------------------------------------------------


def _x_or_one(i: int) -> SparsePolynomial:
    """x_i, except that the printed forms' x_0 stands for 1."""
    return _x(i) if i else const(1)


def f_As_des_neg(n: int) -> SparsePolynomial:
    """Joint descent-set / negative-set distribution on signed arc permutations."""
    _need(n, 1)
    return _layered(
        n,
        left=lambda i: 1 + _x_or_one(i - 1) * _y(i),
        head=lambda j: (_x(j) + _x_or_one(j - 1) * _y(j)) * (1 + _y(j + 1)),
    )


def f_As_des_neg_inv(n: int) -> SparsePolynomial:
    """The refinement of f_As_des_neg by inversions of the absolute word."""
    _need(n, 1)
    return _layered(
        n,
        left=lambda i: 1 + T ** (i - 1) * _x_or_one(i - 1) * _y(i),
        head=lambda j: (_x(j) + T ** (j - 1) * _x_or_one(j - 1) * _y(j))
        * (T ** (j * (n - j)) + T ** (n - j - 1) * _y(j + 1)),
        right=lambda i: 1 + T ** (n - i) * _x(i - 1) * _y(i),
    )


def f_As_fdes_fmaj(n: int) -> SparsePolynomial:
    """Joint fdes/fmaj distribution on signed arc permutations (valid from n = 3)."""
    _need(n, 2)
    head = (
        1
        + T * Q * (1 + Q)
        + 2 * T**2 * Q**3 * q_bracket(2 * n - 3, Q)
        + T**3 * Q ** (2 * n) * (1 + Q)
        + T**4 * Q ** (2 * n + 2)
    )
    return (1 + T * Q) * head * poly_product(
        1 + T**2 * Q ** (2 * i - 1) for i in range(3, n)
    )


def f_As_fdes(n: int) -> SparsePolynomial:
    """fdes distribution on signed arc permutations (literal form, n >= 3)."""
    _need(n, 3)
    return (
        (1 + T)
        * (1 + T**2) ** (n - 3)
        * (1 + 2 * T + (4 * n - 6) * T**2 + 2 * T**3 + T**4)
    )


# χ → (a, b) in the factors 1 + a·b^i·q^(2i−1) of both families' fmaj forms
_CHARACTER_SIGNS = {
    Character.TRIVIAL: (1, 1),
    Character.SIGN: (1, -1),
    Character.NEG_PARITY: (-1, 1),
    Character.SIGN_ABS: (-1, -1),
}


def _fmaj_product(n: int, chi: Character) -> SparsePolynomial:
    """∏_{i=1}^{n−1} (1 + a·b^i·q^(2i−1)) with (a, b) = _CHARACTER_SIGNS[chi]."""
    a, b = _CHARACTER_SIGNS[chi]
    return poly_product(1 + a * b**i * Q ** (2 * i - 1) for i in range(1, n))


def f_As_character_fmaj(n: int, chi: Character) -> SparsePolynomial:
    """Character-twisted fmaj distribution on signed arc permutations."""
    _need(n, 1)
    a, b = _CHARACTER_SIGNS[chi]
    if n % 2 and b == -1:
        return (1 - a * Q) * q_bracket(n, -(Q**2)) * _fmaj_product(n, chi)
    return q_bracket(2 * n, a * Q) * _fmaj_product(n, chi)


# -- B-arc permutations ---------------------------------------------------------


def f_AB_character_fmaj(n: int, chi: Character) -> SparsePolynomial:
    """Character-twisted fmaj distribution on B-arc permutations."""
    _need(n, 1)
    a, b = _CHARACTER_SIGNS[chi]
    return q_bracket(2 * n, a * b**n * Q) * _fmaj_product(n, chi)


def f_AB_fdes_fmaj(n: int) -> SparsePolynomial:
    """Joint fdes/fmaj distribution on B-arc permutations.

    The closed form has denominator 1 - q; the numerator is built exactly
    and the division is asserted exact at runtime.
    """
    _need(n, 2)
    odd = poly_product(1 + T**2 * Q ** (2 * i + 1) for i in range(1, n - 1))
    even = poly_product(1 + T**2 * Q ** (2 * i + 2) for i in range(1, n - 1))
    numerator = (1 + T * Q) * (1 + T * Q**n) * (
        (1 - T * Q**n) * odd - (1 - T) * Q * even
    )
    return exact_div(numerator, 1 - Q)


def f_AB_fdes(n: int) -> SparsePolynomial:
    """fdes distribution on B-arc permutations (literal form, n >= 3)."""
    _need(n, 3)
    return (1 + T) ** 3 * (1 + T**2) ** (n - 3) * (1 + (n - 2) * T + T**2)


def f_AB_des_set(n: int) -> SparsePolynomial:
    """Descent-set distribution on B-arc permutations, cleared product form."""
    _need(n, 2)
    return _layered(
        n - 1, left=lambda i: 1 + _x(i), head=lambda j: 2 * (_x(j) + _x(j + 1)), scale=2 + n
    )


def f_negative_control(n: int) -> SparsePolynomial:
    """Deliberately corrupted copy of f_A_maj; harness self-test fixture."""
    return f_A_maj(n) + 1


# -- registry and verification ---------------------------------------------------

EQUAL = "EQUAL"
MISMATCH = "MISMATCH"
OUT_OF_STATED_RANGE = "OUT_OF_STATED_RANGE"

_FAMILIES = {name: partial(Family, name) for name in FAMILY_NAMES}


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
        converts them, the CLI writes their text."""
        return {
            "formula": self.formula,
            "n": self.n,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "diff": self.diff,
            "note": self.note or None,
        }

    def to_json(self) -> dict:
        return {key: value.to_json() if isinstance(value, SparsePolynomial) else value
                for key, value in self.record().items()}


def _entries() -> list[FormulaEntry]:
    out = [
        FormulaEntry(
            "f_A_inv_des", f_A_inv_des, "arc",
            WeightSpec(t_stat="inv", descent_vars=True), 2, evaluable_from=2,
        ),
        FormulaEntry(
            "f_A_des_set", f_A_des_set, "arc",
            WeightSpec(descent_vars=True), 2, evaluable_from=2,
        ),
        FormulaEntry(
            "f_A_des_maj", f_A_des_maj, "arc",
            WeightSpec(t_stat="des", q_stat="maj"), 3, evaluable_from=2,
            note="printed claim starts at n = 2 but the identity fails there",
        ),
        FormulaEntry(
            "f_A_des", f_A_des, "arc",
            WeightSpec(t_stat="des"), 3, evaluable_from=3,
            note="literal form carries (1+t)^(n-3)",
        ),
        FormulaEntry(
            "f_A_maj", f_A_maj, "arc",
            WeightSpec(q_stat="maj"), 2, evaluable_from=2,
        ),
        FormulaEntry(
            "f_A_signed_maj", f_A_signed_maj, "arc",
            WeightSpec(q_stat="maj", character=Character.SIGN), 2, evaluable_from=2,
        ),
        FormulaEntry(
            "f_sign_des_set", f_sign_des_set, "arc",
            WeightSpec(descent_vars=True, character=Character.SIGN), 2, evaluable_from=2,
        ),
        FormulaEntry(
            "f_sign_des_set_even", f_sign_des_set_even, "arc",
            WeightSpec(descent_vars=True, character=Character.SIGN),
            2, even_only=True, evaluable_from=2,
        ),
        FormulaEntry(
            "f_L_des_set", f_L_des_set, "left-unimodal",
            WeightSpec(descent_vars=True), 1,
        ),
        FormulaEntry(
            "f_As_des_neg", f_As_des_neg, "signed-arc",
            WeightSpec(descent_vars=True, neg_vars=True), 1,
        ),
        FormulaEntry(
            "f_As_des_neg_inv", f_As_des_neg_inv, "signed-arc",
            WeightSpec(t_stat="inv", descent_vars=True, neg_vars=True), 1,
        ),
        FormulaEntry(
            "f_As_fdes_fmaj", f_As_fdes_fmaj, "signed-arc",
            WeightSpec(t_stat="fdes", q_stat="fmaj"), 3, evaluable_from=2,
            note="printed claim starts at n = 2 but the identity fails there",
        ),
        FormulaEntry(
            "f_As_fdes", f_As_fdes, "signed-arc",
            WeightSpec(t_stat="fdes"), 3, evaluable_from=3,
            note="literal form carries (1+t^2)^(n-3)",
        ),
    ]
    for family, build in (("signed-arc", f_As_character_fmaj), ("b-arc", f_AB_character_fmaj)):
        out += [
            FormulaEntry(
                f"{build.__name__}.{chi.value}", partial(build, chi=chi), family,
                WeightSpec(q_stat="fmaj", character=chi), 1,
            )
            for chi in Character
        ]
    out += [
        FormulaEntry(
            "f_AB_fdes_fmaj", f_AB_fdes_fmaj, "b-arc",
            WeightSpec(t_stat="fdes", q_stat="fmaj"), 2, evaluable_from=2,
        ),
        FormulaEntry(
            "f_AB_fdes", f_AB_fdes, "b-arc",
            WeightSpec(t_stat="fdes"), 3, evaluable_from=3,
            note="literal form carries (1+t^2)^(n-3)",
        ),
        FormulaEntry(
            "f_AB_des_set", f_AB_des_set, "b-arc",
            WeightSpec(descent_vars=True), 2, evaluable_from=2,
        ),
        FormulaEntry(
            "negative-control", f_negative_control, "arc",
            WeightSpec(q_stat="maj"), 2, evaluable_from=2,
            note="deliberately corrupted fixture; a MISMATCH here is expected",
            hidden=True,
        ),
    ]
    return out


REGISTRY: dict[str, FormulaEntry] = {e.name: e for e in _entries()}


def formula_names(include_hidden: bool = False) -> list[str]:
    return [n for n, e in REGISTRY.items() if include_hidden or not e.hidden]


def verify_formula(name, ns, set_cache: dict | None = None) -> list[VerifyRow]:
    """Compare closed form against the enumerator for each n.

    The truth side walks the family's growth states (a transfer-matrix
    walk, checked against brute force in tier-1); ``set_cache`` keeps one
    ``Family`` per (family, n) across calls.  Rows outside the claimed range
    are marked OUT_OF_STATED_RANGE and never fail; when the formula is still
    evaluable there, both sides and their difference are included as
    evidence.
    """
    entry = REGISTRY[name] if isinstance(name, str) else name
    if set_cache is None:
        set_cache = {}
    rows = []
    for n in ns:
        key = (entry.family, n)
        if key not in set_cache:
            set_cache[key] = _FAMILIES[entry.family](n)
        rhs = enumerator(set_cache[key], entry.weights)
        lhs = entry.build(n) if n >= entry.evaluable_from else None
        if lhs == rhs:  # keep one polynomial, so the CLI formats its terms once
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


def verify_many(names, ns) -> list[VerifyRow]:
    cache: dict = {}
    rows = []
    for name in names:
        rows.extend(verify_formula(name, ns, set_cache=cache))
    return rows
