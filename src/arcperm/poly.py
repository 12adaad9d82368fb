"""Exact sparse multivariate polynomials over the integers.

The variable alphabet is t, q, u, y, z, x0, x1, ..., y1, y2, ... (x0 is
legal so that the convention "x0 maps to 1" can be expressed as a
substitution).  A polynomial is a dict from monomials to nonzero integer
coefficients, so equal polynomials are structurally equal.

A monomial is one int: each variable owns a 32-bit field of it, assigned on
the variable's first use in the process (the alphabet is open), holding its
exponent.  The top bit of a field is a guard that a valid key never sets, so
exponents are at most 2**31 - 1 and a product of monomials is the sum of
their keys: two fields below 2**31 add up to less than 2**32 and never carry
into the next field.  Every key that product, power, substitution,
``from_terms``, ``enumerator`` or ``exact_div`` builds is checked, and an
exponent past 2**31 - 1 raises OverflowError; nothing wraps.

Keys are decoded only at the edges (printing, JSON, ``variables``, the
exponent vectors of ``exact_div``).  Printing and JSON list terms in graded
order: total degree, then exponents in the variable order t < q < u < y < z
< x0 < x1 < ... < y1 < y2 < ..., never in the order fields were assigned.

Costs, for polynomials with T1 and T2 terms: a product is O(T1 * T2) int
additions; a substitution is one pass over the terms; an exact division of a
T-term polynomial by a D-term divisor takes O(R * D * log(R * D)) for R
reduction steps, picking each leading term from a heap.  The weighted
``enumerator`` reads each word once, at O(n) per element (inv adds O(n^2)
bit work), and builds one key per distinct statistic key, not per element.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter, or_
from typing import Iterable, Mapping

from .perms import Character, Permutation, SignedPermutation, abs_inv, descent_positions

_NAME_RE = re.compile(r"^(?:[tquyz]|x(?:0|[1-9][0-9]*)|y[1-9][0-9]*)$")
_BASE_ORDER = {"t": 0, "q": 1, "u": 2, "y": 3, "z": 4}

Monomial = int  # packed exponents, one 32-bit field per variable

_WIDTH = 32
_MAX = (1 << _WIDTH - 1) - 1  # largest exponent; the bit above it is the field's guard
_NAMES: list[str] = []  # field index -> variable name
_ORDER: list[tuple[int, int]] = []  # field index -> variable_key of its name
_GUARD = 0  # the guard bits of every assigned field


def check_variable(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(f"{name!r} is not in the variable alphabet")
    return name


def variable_key(name: str) -> tuple[int, int]:
    base = _BASE_ORDER.get(name)
    if base is not None:
        return (base, 0)
    if name[0] == "x":
        return (5, int(name[1:]))
    return (6, int(name[1:]))


class _Shifts(dict):
    """Checked name -> bit offset of its field, assigned on first use."""

    def __missing__(self, name):
        global _GUARD
        order = variable_key(check_variable(name))
        shift = self[name] = _WIDTH * len(_NAMES)
        _NAMES.append(name)
        _ORDER.append(order)
        _GUARD |= (_MAX + 1) << shift
        return shift


_SHIFTS = _Shifts()


def _power(name: str, exp: int) -> Monomial:
    """The key of name**exp."""
    if exp > _MAX:
        raise OverflowError(f"exponent {exp} of {name} exceeds {_MAX}")
    return exp << _SHIFTS[name]


def _checked(terms: dict[Monomial, int]) -> dict[Monomial, int]:
    """The nonzero terms; OverflowError if a sum of keys set a guard bit."""
    if reduce(or_, terms, 0) & _GUARD:
        raise OverflowError(f"an exponent exceeds {_MAX}")
    return {m: c for m, c in terms.items() if c}


def _layout(polys: Iterable[SparsePolynomial]) -> tuple[list[str], list[int]]:
    """Names and field shifts of the variables occurring in the polynomials,
    in the variable order."""
    occurring = reduce(or_, (mono for p in polys for mono in p._terms), 0)
    fields = sorted((_ORDER[i], _NAMES[i], _WIDTH * i) for i in range(len(_NAMES))
                    if occurring >> _WIDTH * i & _MAX)
    return [name for _, name, _ in fields], [shift for *_, shift in fields]


def _add_term(terms: dict[Monomial, int], mono: Monomial, coeff: int):
    total = terms.get(mono, 0) + coeff
    if total:
        terms[mono] = total
    else:
        terms.pop(mono, None)


class SparsePolynomial:
    """An exact integer polynomial in canonical sparse form.

    Use ``const``, ``var`` and ``from_terms`` to build values; the
    constructor trusts its argument to already be canonical.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self._terms = terms or {}

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Mapping[str, int], int]]) -> SparsePolynomial:
        acc: dict[Monomial, int] = {}
        for exponents, coeff in terms:
            mono = 0
            for name, exp in exponents.items():
                _SHIFTS[name]  # raises ValueError outside the alphabet
                if not isinstance(exp, int) or exp < 0:
                    raise ValueError(f"exponent {exp!r} of {name} must be a nonnegative integer")
                mono += _power(name, exp)
            _add_term(acc, mono, coeff)
        return cls(acc)

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = const(other)
        return isinstance(other, SparsePolynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        # constant polynomials compare equal to ints, so hash like them
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def variables(self) -> set[str]:
        return set(_layout([self])[0])

    def sorted_terms(self) -> list[tuple[tuple[tuple[str, int], ...], int]]:
        """(((name, exp), ...), coeff) per term, in graded order."""
        names, shifts = _layout([self])
        # At equal degree the graded order compares the (variable, exp) lists
        # of nonzero exponents.  Where two vectors first differ, a 0 lets its
        # list go on to a later variable, which compares larger, so a 0 is
        # read as 2**31, above every exponent.
        zero = _MAX + 1
        rows = []
        for mono, coeff in self._terms.items():
            vec = [mono >> shift & _MAX for shift in shifts]
            rows.append(((sum(vec), [e or zero for e in vec]), vec, coeff))
        rows.sort(key=itemgetter(0))
        return [(tuple((n, e) for n, e in zip(names, vec) if e), coeff) for _, vec, coeff in rows]

    def constant_value(self) -> int:
        """The value of a constant polynomial; error if any variable occurs."""
        if self._terms.keys() <= {0}:
            return self._terms.get(0, 0)
        raise ValueError(f"{self} is not constant")

    # -- ring operations ------------------------------------------------------

    def __add__(self, other) -> SparsePolynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            _add_term(terms, mono, coeff)
        return SparsePolynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> SparsePolynomial:
        return SparsePolynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> SparsePolynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> SparsePolynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> SparsePolynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[Monomial, int] = {}
        get = terms.get
        right = list(other._terms.items())
        for m1, c1 in self._terms.items():
            for m2, c2 in right:
                mono = m1 + m2
                terms[mono] = get(mono, 0) + c1 * c2
        return SparsePolynomial(_checked(terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> SparsePolynomial:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent {k!r} must be a nonnegative integer")
        result = const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def substitute(
        self,
        bindings: Mapping[str, SparsePolynomial | int],
        default: SparsePolynomial | int | None = None,
    ) -> SparsePolynomial:
        """Image under the ring homomorphism sending each bound variable to its
        binding; unbound variables stay themselves unless ``default`` is given.

        One pass over the terms, reading only the fields of variables with a
        binding: integer (and constant) bindings fold into the coefficient
        and the unbound fields stay in the key.  A term with polynomial
        bindings adds the product of their powers, each power computed once.
        """
        bound = {check_variable(name): _binding(value) for name, value in bindings.items()}
        if default is not None:
            default = _binding(default)
        targets = [(_SHIFTS[name], value) for name in _NAMES
                   if (value := bound.get(name, default)) is not None]
        powers: dict[tuple[int, int], SparsePolynomial] = {}
        terms: dict[Monomial, int] = {}
        for mono, coeff in self._terms.items():
            kept = mono
            image = None
            for shift, value in targets:
                exp = mono >> shift & _MAX
                if not exp:
                    continue
                kept -= exp << shift
                if isinstance(value, int):
                    coeff *= value**exp
                else:
                    power = powers.get((shift, exp))
                    if power is None:
                        power = powers[(shift, exp)] = value**exp
                    image = power if image is None else image * power
            if image is None:
                _add_term(terms, kept, coeff)
            else:
                for m, c in image._terms.items():
                    _add_term(terms, kept + m, coeff * c)
        return SparsePolynomial(_checked(terms))

    # -- presentation ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for mono, coeff in self.sorted_terms():
            body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in mono)
            mag = abs(coeff)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            chunks.append((coeff < 0, text))
        negative, text = chunks[0]
        out = ("-" if negative else "") + text
        for negative, text in chunks[1:]:
            out += (" - " if negative else " + ") + text
        return out

    def __repr__(self) -> str:
        return f"SparsePolynomial({self})"

    def to_json(self) -> list[dict]:
        return [
            {"coeff": str(coeff), "monomial": dict(mono)}
            for mono, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, data: list[dict]) -> SparsePolynomial:
        return cls.from_terms((term["monomial"], int(term["coeff"])) for term in data)

    def __reduce__(self):
        # keys depend on this process's field assignment; pickle the exponents
        return (SparsePolynomial.from_terms, ([(dict(m), c) for m, c in self.sorted_terms()],))


def _coerce(value) -> SparsePolynomial:
    if isinstance(value, SparsePolynomial):
        return value
    if isinstance(value, int):
        return const(value)
    return NotImplemented


def _binding(value) -> SparsePolynomial | int:
    """A substitution value: an int when it is constant, else a polynomial."""
    value = _coerce(value)
    if value is NotImplemented:
        raise TypeError("a binding must be a SparsePolynomial or an int")
    return value.constant_value() if value._terms.keys() <= {0} else value


def const(c: int) -> SparsePolynomial:
    return SparsePolynomial({0: c} if c else {})


def var(name: str) -> SparsePolynomial:
    return SparsePolynomial({1 << _SHIFTS[check_variable(name)]: 1})


def poly_product(factors: Iterable[SparsePolynomial | int]) -> SparsePolynomial:
    return reduce(lambda a, b: a * b, factors, const(1))


def q_bracket(n: int, base: SparsePolynomial | int) -> SparsePolynomial:
    """The sum 1 + base + base^2 + ... + base^(n-1); zero when n = 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"bracket size {n!r} must be a nonnegative integer")
    base = _coerce(base)
    total = SparsePolynomial()
    power = const(1)
    for _ in range(n):
        total = total + power
        power = power * base
    return total


class ExactDivisionError(ArithmeticError):
    """Raised when polynomial division leaves a nonzero remainder."""

    def __init__(self, remainder: SparsePolynomial):
        self.remainder = remainder
        super().__init__(f"division is not exact; remainder {remainder}")


def exact_div(p: SparsePolynomial, d: SparsePolynomial) -> SparsePolynomial:
    """Exact quotient p / d in the polynomial ring.

    Runs the single-divisor reduction in a graded order; when d divides p
    every leading coefficient step is an exact integer division, and a
    nonzero final remainder proves non-divisibility (ExactDivisionError).

    Leading terms come off a heap keyed on the graded order, so R steps
    with a D-term divisor cost O(R * D * log(R * D)).  A monomial is pushed
    once, when it enters the work set; it stays there until popped, and a
    popped one whose coefficient has cancelled to 0 is skipped.  This is
    sound because every term a step adds lies below the current leading
    term, so a popped monomial never comes back.
    """
    d = _coerce(d)
    if d.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    names, shifts = _layout([p, d])

    def to_vec(mono: Monomial) -> tuple[int, ...]:
        return tuple(mono >> shift & _MAX for shift in shifts)

    def heap_key(vec: tuple[int, ...]):
        # heapq pops the smallest entry: negate the graded key (degree, vec)
        return (-sum(vec), tuple(-e for e in vec), vec)

    def from_vecs(vecs: dict[tuple[int, ...], int]) -> SparsePolynomial:
        return SparsePolynomial({sum(map(_power, names, vec)): c for vec, c in vecs.items()})

    work = {to_vec(m): c for m, c in p._terms.items()}
    divisor = {to_vec(m): c for m, c in d._terms.items()}
    d_lead = min(heap_key(vec) for vec in divisor)[2]
    d_coeff = divisor.pop(d_lead)

    heap = [heap_key(vec) for vec in work]
    heapq.heapify(heap)
    quotient: dict[tuple[int, ...], int] = {}
    remainder: dict[tuple[int, ...], int] = {}
    while heap:
        lead = heapq.heappop(heap)[2]
        coeff = work.pop(lead)
        if not coeff:
            continue
        if all(a >= b for a, b in zip(lead, d_lead)) and coeff % d_coeff == 0:
            q_vec = tuple(a - b for a, b in zip(lead, d_lead))
            q_coeff = coeff // d_coeff
            quotient[q_vec] = q_coeff
            for vec, c in divisor.items():
                target = tuple(a + b for a, b in zip(q_vec, vec))
                if target not in work:
                    work[target] = 0
                    heapq.heappush(heap, heap_key(target))
                work[target] -= q_coeff * c
        else:
            remainder[lead] = coeff
    if remainder:
        raise ExactDivisionError(from_vecs(remainder))
    return from_vecs(quotient)


# -- statistic-weighted enumerators -------------------------------------------


@dataclass(frozen=True)
class WeightSpec:
    """Selects the weight monomial attached to each permutation.

    t_stat: exponent of t, one of "inv", "des", "fdes" (inv is computed on
    the absolute word for signed permutations).  q_stat: exponent of q,
    "maj" or "fmaj".  descent_vars multiplies x_i per descent position i.
    neg_vars multiplies y_i per negative position.  character contributes a
    +-1 coefficient.
    """

    t_stat: str | None = None
    q_stat: str | None = None
    descent_vars: bool = False
    neg_vars: bool = False
    character: Character | None = None

    def __post_init__(self):
        if self.t_stat not in (None, "inv", "des", "fdes"):
            raise ValueError(f"unknown t statistic {self.t_stat!r}")
        if self.q_stat not in (None, "maj", "fmaj"):
            raise ValueError(f"unknown q statistic {self.q_stat!r}")


def enumerator(
    elements: Iterable[Permutation | SignedPermutation], spec: WeightSpec
) -> SparsePolynomial:
    """Sum of weight monomials over the given permutations.

    One pass over the elements: each word is read once, and only the
    statistics the spec asks for are computed.  Elements are counted by
    (t exponent, q exponent, descent positions, negative positions), with
    the character value folded into the count, and one packed monomial is
    built per distinct key at the end.
    """
    t_stat, q_stat, chi = spec.t_stat, spec.q_stat, spec.character
    descent_vars, neg_vars = spec.descent_vars, spec.neg_vars
    flags = t_stat == "fdes" or q_stat == "fmaj" or neg_vars
    want_des = descent_vars or t_stat in ("des", "fdes") or q_stat is not None
    want_neg = q_stat == "fmaj" or neg_vars or chi in (Character.SIGN, Character.NEG_PARITY)
    want_inv = t_stat == "inv" or chi in (Character.SIGN, Character.SIGN_ABS)
    counts: dict[tuple, int] = {}
    for p in elements:
        word = p.word
        signed = p.signed
        if flags and not signed:
            raise ValueError("flag statistics need signed permutations")
        des = descent_positions(word, signed) if want_des else ()
        neg = tuple([i for i, v in enumerate(word, 1) if v < 0]) if want_neg else ()
        inv = abs_inv(word) if want_inv else 0
        if t_stat == "inv":
            t = inv
        elif t_stat == "des":
            t = len(des)
        elif t_stat == "fdes":
            t = 2 * len(des) + (word[0] < 0)
        else:
            t = 0
        if q_stat == "maj":
            q = sum(des)
        elif q_stat == "fmaj":
            q = 2 * sum(des) + len(neg)
        else:
            q = 0
        key = (t, q, des if descent_vars else (), neg if neg_vars else ())
        counts[key] = counts.get(key, 0) + (1 if chi is None else chi.of_stats(inv, len(neg)))
    terms: dict[Monomial, int] = {}
    for (t, q, des, neg), coeff in counts.items():
        if coeff:
            mono = (_power("t", t) if t else 0) + (_power("q", q) if q else 0)
            mono += sum(1 << _SHIFTS[f"x{i}"] for i in des)
            terms[mono + sum(1 << _SHIFTS[f"y{i}"] for i in neg)] = coeff
    return SparsePolynomial(terms)
