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
``from_terms``, ``exact_div`` or ``walk.enumerator`` builds is checked, and
an exponent past 2**31 - 1 raises OverflowError; nothing wraps.

Keys are decoded only at the edges (printing, JSON, ``variables``, the
exponent vectors of ``exact_div``).  Printing and JSON list terms in graded
order: total degree, then exponents in the variable order t < q < u < y < z
< x0 < x1 < ... < y1 < y2 < ..., never in the order fields were assigned.
``str``, ``to_json``, pickling and ``json_text`` share one decode
(``_graded``), which takes the occurring variables four at a time and
decodes each distinct exponent tuple of a group once.

Costs, for polynomials with T1 and T2 terms: a product is O(T1 * T2) int
additions, in one pass when no two pairs of terms share a key and in two
otherwise.  In at most two variables, a product (or ``poly_product`` of
many) whose box, the summed spans of its rows (one row per exponent of the
outer variable), has no more slots than the term pairs is instead one int
per row with a slot per exponent of the inner variable: a row of an operand
with no gaps is one big-int multiply per row of the other, any other row a
shift and add per term, and the rows are decoded once.  The pairs are
counted exactly, in the order the factors are given, from the sumset of the
keys of each partial product; the count stops at the box, so it never does
more work than the dict product it decides against.
A substitution is one pass over the terms.  An exact division by a
divisor in at most one variable is long division, row by row of the
dividend: O(S + R * D) for rows of S slots in all, R quotient terms and a
D-term divisor.  Otherwise, or when that refuses, it takes O(R * D *
log(R * D)) for R reduction steps, picking each leading term from a heap.
The slot codec at the end of this module (``_pack``, ``_unpack``,
``_from_slots``) serves both the packed product and the packed walk in
``walk``.  Output costs each
of T terms one mask, one dict lookup and two additions per group of four
of its k variables, O(T * k / 4), plus one decode per distinct exponent
tuple of a group, and sorts the terms on one int key each; ``json_text``
builds each term's text from a few fixed pieces and its groups' cached
``"name": exp`` entries, with no per-term dict.  On the n <= 8 ``verify``
rows the JSON writer takes 59 ms against 88 ms reading one field at a time
(medians of 20 alternating passes, 2-vCPU VM, Python 3.11.7).
"""

from __future__ import annotations

import heapq
import re
import struct
from functools import reduce
from itertools import accumulate, compress, islice, repeat
from math import prod
from operator import add, itemgetter, or_, sub
from typing import Iterable, Iterator, Mapping, Sequence

_NAME_RE = re.compile(r"^(?:[tquyz]|x(?:0|[1-9][0-9]*)|y[1-9][0-9]*)$")
_BASE_ORDER = {"t": 0, "q": 1, "u": 2, "y": 3, "z": 4}

Monomial = int  # packed exponents, one 32-bit field per variable

_WIDTH = 32
_GROUP = 4  # occurring variables decoded together on output (docs/DECISIONS.md §5)
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


def _occurring(polys: Iterable[SparsePolynomial]) -> int:
    """The OR of the polynomials' keys: a field of it is nonzero where a
    variable occurs in one of them."""
    return reduce(or_, [reduce(or_, p._terms, 0) for p in polys], 0)


def _fields(occurring: int) -> Iterator[int]:
    """The shifts of the nonzero fields of ``occurring`` (``_occurring``),
    lowest first: a scan from its lowest set bit, which a caller can stop
    early."""
    while occurring:
        shift = ((occurring & -occurring).bit_length() - 1) // _WIDTH * _WIDTH
        yield shift
        occurring &= -1 << shift + _WIDTH


def _layout(polys: Iterable[SparsePolynomial]) -> tuple[list[str], list[int]]:
    """Names and field shifts of the variables occurring in the polynomials,
    in the variable order."""
    shifts = sorted(_fields(_occurring(polys)), key=lambda shift: _ORDER[shift // _WIDTH])
    return [_NAMES[shift // _WIDTH] for shift in shifts], shifts


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
            _add_term(acc, mono, _coefficient(coeff))
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

    def _graded(self, render, empty) -> list[tuple[int, object, int]]:
        """(key, rendered, coeff) per term in graded order: ``rendered`` sums
        ``render`` of each group's nonzero (name, exp) pairs, from ``empty``.

        At equal degree the graded order compares the (variable, exp) lists
        of nonzero exponents.  Where two vectors first differ, a 0 lets its
        list go on to a later variable, which compares larger, so a 0 is
        read as 2**31, above every exponent.  The key is one int: the degree,
        then one 32-bit field per exponent, the first variable's highest.
        The occurring variables are taken ``_GROUP`` at a time in variable
        order, and each distinct masked key of a group is decoded once
        (``_Group``), so a term costs one mask, one lookup and two
        additions per group.
        """
        names, shifts = _layout([self])
        k = len(shifts)
        groups = [(sum([_MAX << shift for shift in shifts[g:g + _GROUP]]),
                    _Group(names[g:g + _GROUP], shifts[g:g + _GROUP], k, g, render))
                   for g in range(0, k, _GROUP)]
        rows = []
        for mono, coeff in self._terms.items():
            key, rendered = 0, empty
            for mask, group in groups:
                part, text = group[mono & mask]
                key += part
                rendered += text
            rows.append((key, rendered, coeff))
        rows.sort(key=itemgetter(0))
        return rows

    def sorted_terms(self) -> list[tuple[tuple[tuple[str, int], ...], int]]:
        """(((name, exp), ...), coeff) per term, in graded order."""
        return [(mono, coeff) for _, mono, coeff in self._graded(tuple, ())]

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
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            _add_term(terms, mono, -coeff)
        return SparsePolynomial(terms)

    def __rsub__(self, other) -> SparsePolynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> SparsePolynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if len(self._terms) > 1 < len(other._terms):  # one term only shifts the other's keys
            packed = _packed_product((self, other))
            if packed is not None:
                return packed
        return _dict_product(self, other)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> SparsePolynomial:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent {k!r} must be a nonnegative integer")
        if len(self._terms) == 1:  # k times the key, which no field carries out of in range
            ((mono, coeff),) = self._terms.items()
            fields = range(0, mono.bit_length() or 1, _WIDTH)
            if max(mono >> shift & _MAX for shift in fields) * k > _MAX:
                raise OverflowError(f"an exponent exceeds {_MAX}")
            return SparsePolynomial({mono * k: coeff**k})
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

    def json_text(self, depth: int = 0) -> str:
        """``json.dumps(self.to_json(), indent=2)`` as it reads nested
        ``depth`` levels deep, byte for byte, built from the graded decode
        without the term dicts."""
        if not self._terms:
            return "[]"
        term, entry, field = ("\n" + "  " * (depth + i) for i in (1, 2, 3))
        head = term + "{" + entry + '"coeff": "'
        middle = '",' + entry + '"monomial": {'
        tail = entry + "}" + term + "}"

        def render(pairs):
            return "".join([f',{field}"{name}": {exp}' for name, exp in pairs])

        # a rendered monomial starts with the comma that its first entry drops
        texts = [f"{head}{coeff}{middle}{mono[1:]}{tail}" if mono
                 else f"{head}{coeff}{middle}}}{term}}}" for _, mono, coeff in self._graded(render, "")]
        return "[" + ",".join(texts) + term[:-2] + "]"

    @classmethod
    def from_json(cls, data: list[dict]) -> SparsePolynomial:
        return cls.from_terms((term["monomial"], int(term["coeff"])) for term in data)

    def __reduce__(self):
        # keys depend on this process's field assignment; pickle the exponents
        return (SparsePolynomial.from_terms, ([(dict(m), c) for m, c in self.sorted_terms()],))


class _Group(dict):
    """The masked key of a group of consecutive occurring variables -> its
    part of the graded key and its rendered part, decoded on first use.

    The part is the group's degree in the degree field above the k fields,
    plus its exponents (a 0 read as 2**31) in their fields of the key, which
    lie below those of the g variables before the group.  Parts of disjoint
    groups add without a carry: their fields are disjoint and each below
    2**32, and their degrees sum to the term's."""

    def __init__(self, names: list[str], shifts: list[int], k: int, g: int, render):
        super().__init__()
        self.names, self.shifts, self.render = names, shifts, render
        self.degree = _WIDTH * k
        self.offset = _WIDTH * (k - g - len(shifts))  # the fields of the variables after it

    def __missing__(self, mono: Monomial) -> tuple[int, object]:
        exps = [mono >> shift & _MAX for shift in self.shifts]
        fields = 0
        for e in exps:
            fields = fields << _WIDTH | (e or _MAX + 1)
        part = self[mono] = ((sum(exps) << self.degree) + (fields << self.offset),
                             self.render([(name, e) for name, e in zip(self.names, exps) if e]))
        return part


def _coerce(value) -> SparsePolynomial:
    if isinstance(value, SparsePolynomial):
        return value
    if isinstance(value, int):
        return const(value)
    return NotImplemented


def _operand(value, role: str) -> SparsePolynomial:
    """``value`` as a polynomial; TypeError naming its ``role`` otherwise."""
    coerced = _coerce(value)
    if coerced is NotImplemented:
        raise TypeError(f"{role} must be a SparsePolynomial or an int, not {type(value).__name__}")
    return coerced


def _binding(value) -> SparsePolynomial | int:
    """A substitution value: an int when it is constant, else a polynomial."""
    value = _operand(value, "a binding")
    return value.constant_value() if value._terms.keys() <= {0} else value


def _coefficient(c) -> int:
    """c as an exact coefficient: an int, a bool read as 0 or 1; TypeError
    for anything else, a float included."""
    if not isinstance(c, int):
        raise TypeError(f"a coefficient must be an int, not {type(c).__name__}")
    return int(c)


def const(c: int) -> SparsePolynomial:
    c = _coefficient(c)
    return SparsePolynomial({0: c} if c else {})


def var(name: str) -> SparsePolynomial:
    return SparsePolynomial({1 << _SHIFTS[check_variable(name)]: 1})


def poly_product(factors: Iterable[SparsePolynomial | int]) -> SparsePolynomial:
    factors = [_operand(f, "a factor") for f in factors]
    packed = _packed_product(factors)
    return reduce(_dict_product, factors, const(1)) if packed is None else packed


def _dict_product(a: SparsePolynomial, b: SparsePolynomial) -> SparsePolynomial:
    """The product term by term: one key addition per pair of terms.

    One comprehension first; when it has a key per pair, no two pairs met,
    and since a product of nonzero ints is nonzero, nothing cancels.  Only
    when pairs collide are the terms summed again in a second pass.
    """
    right = list(b._terms.items())
    terms = {m1 + m2: c1 * c2 for m1, c1 in a._terms.items() for m2, c2 in right}
    if len(terms) == len(a._terms) * len(right):
        if reduce(or_, terms, 0) & _GUARD:
            raise OverflowError(f"an exponent exceeds {_MAX}")
        return SparsePolynomial(terms)
    terms = {}
    get = terms.get
    for m1, c1 in a._terms.items():
        for m2, c2 in right:
            mono = m1 + m2
            terms[mono] = get(mono, 0) + c1 * c2
    return SparsePolynomial(_checked(terms))


def _packed_product(factors: Sequence[SparsePolynomial]) -> SparsePolynomial | None:
    """The product of factors in at most two variables by Kronecker
    substitution, or None for the dict product (docs/DECISIONS.md §7).

    The product keeps one int per exponent of the outer variable (t before
    q in the variable order), each packing the inner one at x = 2^W from the
    row's lowest exponent; one variable is the one-row case.  None past the
    exponent limit, so that the dict product raises OverflowError, and when
    the box, the sum of the product's row spans, has more slots than the
    term pairs that the dict product, multiplying the factors in the order
    given, touches (``_touches``).  The product of the factors' L1 norms
    bounds every coefficient and sets the slot width.
    """
    # the factor with the most terms is packed whole, the others applied to it
    ordered = sorted(factors, key=lambda f: -len(f._terms))
    occurring, fields = 0, []
    for f in reversed(ordered):  # fewest terms first: a third field refuses early
        occurring |= reduce(or_, f._terms, 0)
        fields = list(islice(_fields(occurring), 3))
        if len(fields) > 2:
            return None
    if len(fields) == 2 and _ORDER[fields[0] // _WIDTH] > _ORDER[fields[1] // _WIDTH]:
        fields.reverse()
    inner = fields[-1] if fields else 0
    outer = fields[0] if len(fields) == 2 else None
    rows = [r for r in [_rows(f, outer, inner) for f in ordered] if r]
    spans = list(accumulate(rows, _spans, initial={0: (0, 0)}))
    # the nonzero factors' degrees, as the dict product meets them
    if max(spans[-1]) > _MAX or max([top for _, top in spans[-1].values()]) > _MAX:
        return None
    bound = prod([sum(map(abs, f._terms.values())) for f in factors])
    if not bound:
        return SparsePolynomial()
    if not _touches(factors, sum([top - low + 1 for low, top in spans[-1].values()])):
        return None
    width = _slot_width(bound)
    acc = {j: _pack(row, width) for j, row in rows[0].items()}
    for r, before, after in zip(rows[1:], spans[1:], spans[2:]):
        acc = _times(acc, before, r, after, width)
    terms: dict[Monomial, int] = {}
    for k, (low, top) in spans[-1].items():
        key = (k and k << outer) + (low << inner)
        terms.update(_from_slots(acc[k], width, range(key, key + (top - low + 1 << inner),
                                                      1 << inner))._terms)
    return SparsePolynomial(terms)


def _rows(p: SparsePolynomial, outer: int | None, inner: int) -> dict[int, list[tuple[int, int]]]:
    """The terms of p by their exponent in the field at ``outer`` (all in
    row 0 when it is None), each row a list of (exponent in the field at
    ``inner``, coeff), lowest first."""
    items = sorted(p._terms.items())  # within a row, key order is inner order
    if outer is None:  # every key lies in the inner field
        return {0: [(mono >> inner, coeff) for mono, coeff in items]} if items else {}
    rows: dict[int, list[tuple[int, int]]] = {}
    for mono, coeff in items:
        rows.setdefault(mono >> outer & _MAX, []).append((mono >> inner & _MAX, coeff))
    return rows


def _spans(spans: dict[int, tuple[int, int]],
           rows: dict[int, list[tuple[int, int]]]) -> dict[int, tuple[int, int]]:
    """Each row of a product as (lowest inner exponent, highest), from those
    of its first operand and the rows of its second."""
    out: dict[int, tuple[int, int]] = {}
    get = out.get
    parts = [(j, row[0][0], row[-1][0]) for j, row in rows.items()]
    for i, (low, top) in spans.items():
        for j, lo, hi in parts:
            old = get(i + j)
            out[i + j] = ((low + lo, top + hi) if old is None
                          else (min(old[0], low + lo), max(old[1], top + hi)))
    return out


def _touches(factors: Sequence[SparsePolynomial], box: int) -> bool:
    """Whether multiplying the factors term by term, in the order given,
    touches at least ``box`` pairs of terms: each step pairs the support of
    the partial product, the sumset of its factors' keys, with the next
    factor's terms.  It stops once the count reaches the box, so a sumset is
    built only while the pairs, which it costs, are below it."""
    support, pairs = {0}, 0
    for f, g in zip(factors, factors[1:]):
        support = {a + b for b in f._terms for a in support}
        pairs += len(support) * len(g._terms)
        if pairs >= box:
            return True
    return False


def _pieces(row: list[tuple[int, int]], width: int) -> list[tuple[int, int]]:
    """The row as (lowest exponent, packed int) pieces: the whole row when it
    has no gaps, else each term (e, c) alone."""
    if len(row) > 1 and row[-1][0] - row[0][0] == len(row) - 1:
        return [(row[0][0], _pack(row, width))]
    return row


def _times(acc: dict[int, int], before: dict[int, tuple[int, int]],
           rows: dict[int, list[tuple[int, int]]], after: dict[int, tuple[int, int]],
           width: int) -> dict[int, int]:
    """The packed rows of a product, from the packed rows of its first
    operand and the rows of its second, each packed row starting at its
    lowest exponent in ``before`` (the operand's spans) or ``after`` (the
    product's).  A row of the second operand with no gaps is one big-int
    multiply; any other row is applied term by term, a +-1 coefficient as a
    shift alone."""
    pieces = [(j, _pieces(row, width)) for j, row in rows.items()]
    out = dict.fromkeys(after, 0)
    for i, value in acc.items():
        low_i = before[i][0]
        for j, row in pieces:
            k = i + j
            total = out[k]
            base = low_i - after[k][0]
            for low, v in row:
                if v == 1:
                    total += value << (base + low) * width
                elif v == -1:
                    total -= value << (base + low) * width
                else:
                    total += value * v << (base + low) * width
            out[k] = total
    return out


def q_bracket(n: int, base: SparsePolynomial | int) -> SparsePolynomial:
    """The sum 1 + base + base^2 + ... + base^(n-1); zero when n = 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"bracket size {n!r} must be a nonnegative integer")
    base = _operand(base, "the bracket base")
    terms: dict[Monomial, int] = {}
    power = const(1)
    for _ in range(n):
        for mono, coeff in power._terms.items():
            _add_term(terms, mono, coeff)
        power = power * base
    return SparsePolynomial(terms)


class ExactDivisionError(ArithmeticError):
    """Raised when polynomial division leaves a nonzero remainder."""

    def __init__(self, remainder: SparsePolynomial):
        self.remainder = remainder
        super().__init__(f"division is not exact; remainder {remainder}")


def exact_div(p: SparsePolynomial | int, d: SparsePolynomial | int) -> SparsePolynomial:
    """Exact quotient p / d in the polynomial ring.

    When d lies in at most one variable, long division by rows finds the
    quotient (``_long_div``); otherwise, and whenever that refuses, the heap
    reduction decides (``_heap_div``).
    """
    p, d = _operand(p, "the dividend"), _operand(d, "the divisor")
    if d.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = _long_div(p, d)
    return _heap_div(p, d) if quotient is None else quotient


def _long_div(p: SparsePolynomial, d: SparsePolynomial) -> SparsePolynomial | None:
    """p / d by schoolbook long division, for d in at most one variable, or
    None to leave the division to the heap reduction (docs/DECISIONS.md §7).

    A row of p is its terms that agree outside d's field; d's variable
    occurs in no other field, so each row is divided alone.  Laid out
    densely from its lowest exponent, a row is reduced from the top by d's
    leading coefficient, and the quotient of an exact division is the only
    one this can find.  None when a coefficient does not divide, when a
    term is left where no step can clear it (below d's top exponent, or
    where a step would write below the row's lowest exponent), and when
    the rows' summed spans are more slots than p and d have term pairs.
    """
    fields = list(islice(_fields(_occurring([d])), 2))
    if len(fields) > 1:
        return None
    inner = fields[0] if fields else 0
    mask = _MAX << inner if fields else 0  # no field: each term is a row
    rows: dict[Monomial, list[tuple[int, int]]] = {}
    for mono, coeff in p._terms.items():
        e = mono & mask
        rows.setdefault(mono - e, []).append((e >> inner, coeff))
    spans = [(rest, min(row)[0], max(row)[0], row) for rest, row in rows.items()]
    if sum([top - low + 1 for _, low, top, _ in spans]) > len(p._terms) * len(d._terms):
        return None
    divisor = sorted([(mono >> inner, coeff) for mono, coeff in d._terms.items()])
    (d_low, _), (d_top, lead) = divisor[0], divisor[-1]
    steps = [(d_top - e, coeff) for e, coeff in divisor[:-1]]
    terms: dict[Monomial, int] = {}
    for rest, low, top, row in spans:
        dense = [0] * (top - low + 1)
        for e, coeff in row:
            dense[e - low] = coeff
        # a step at index i writes down to i - (d_top - d_low), and its
        # quotient exponent is low + i - d_top: neither may be negative
        stop = d_top - min(d_low, low)
        for i in range(top - low, stop - 1, -1):
            coeff = dense[i]
            if coeff:
                if coeff % lead:
                    return None
                coeff //= lead
                for offset, c in steps:
                    dense[i - offset] -= coeff * c
                terms[rest + (low + i - d_top << inner)] = coeff
        if any(dense[:stop]):
            return None
    return SparsePolynomial(terms)


def _heap_div(p: SparsePolynomial, d: SparsePolynomial) -> SparsePolynomial:
    """Exact quotient p / d by the single-divisor reduction in a graded
    order; when d divides p every leading coefficient step is an exact
    integer division, and a nonzero final remainder proves
    non-divisibility (ExactDivisionError).

    Leading terms come off a heap keyed on the graded order, so R steps
    with a D-term divisor cost O(R * D * log(R * D)).  A monomial is pushed
    once, when it enters the work set; it stays there until popped, and a
    popped one whose coefficient has cancelled to 0 is skipped.  This is
    sound because every term a step adds lies below the current leading
    term, so a popped monomial never comes back.
    """
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


def _from_slots(packed: int, width: int, keys: Sequence[Monomial]) -> SparsePolynomial:
    """The polynomial whose term at key ``keys[i]`` has the balanced
    ``width``-bit slot i of ``packed`` as its coefficient."""
    coeffs = _unpack(packed, len(keys), width)
    return SparsePolynomial(dict(compress(zip(keys, coeffs), coeffs)))


def _slot_width(paths: int) -> int:
    """Whole bytes of bits for a balanced slot that holds any coefficient of
    size <= paths: |c| <= paths < 2^bit_length(paths) <= 2^(W-1)."""
    return 8 * ((paths.bit_length() + 1 + 7) // 8)


def _offset(slots: int, size: int) -> int:
    """Half a slot in each of ``slots`` slots of ``size`` bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")


# slot size in bytes -> the struct code of the smallest little-endian unsigned
# int at least that size; a 3-, 5-, 6- or 7-byte slot goes through that int
_DIGITS = {1: "B", 2: "H", 3: "I", 4: "I", 5: "Q", 6: "Q", 7: "Q", 8: "Q"}


def _restride(data: bytes, slots: int, size: int, wide: int) -> bytearray:
    """The ``slots`` little-endian slots of ``size`` bytes in ``data`` as
    slots of ``wide`` bytes, cut or padded with zeros at the top: one
    strided slice per byte kept."""
    out = bytearray(wide * slots)
    for b in range(min(size, wide)):
        out[b::wide] = data[b::size]
    return out


def _pack(terms: list[tuple[int, int]], width: int) -> int:
    """The int with coefficient c in the balanced ``width``-bit slot e - e0
    for each (e, c) of ``terms``, e0 the first and lowest e: ``_unpack``'s
    inverse, in linear time.  OverflowError if a coefficient does not fit."""
    size, half, low = width // 8, 1 << width - 1, terms[0][0]
    slots = terms[-1][0] - low + 1
    if slots == len(terms):
        digits = list(map(add, map(itemgetter(1), terms), repeat(half)))
    else:
        digits = [half] * slots
        for e, c in terms:
            digits[e - low] = c + half
    code = _DIGITS.get(size)
    if not code:
        data = b"".join([digit.to_bytes(size, "little") for digit in digits])
    else:
        try:
            data = struct.pack(f"<{slots}{code}", *digits)
        except struct.error:
            raise OverflowError(f"a coefficient does not fit a {width}-bit slot") from None
        wide = struct.calcsize(code)
        if wide > size:
            if max(digits) >> width:
                raise OverflowError(f"a coefficient does not fit a {width}-bit slot")
            data = _restride(data, slots, wide, size)
    return int.from_bytes(data, "little") - _offset(slots, size)


def _unpack(packed: int, slots: int, width: int) -> list[int]:
    """The balanced ``width``-bit slots of ``packed``, lowest first, read in
    linear time; OverflowError if the top slot is outside [-2^(width-1),
    2^(width-1)).  Half a slot added to each slot makes every slot a digit."""
    size = width // 8
    data = (packed + _offset(slots, size)).to_bytes(size * slots, "little")
    code = _DIGITS.get(size)
    if code:
        wide = struct.calcsize(code)
        digits = struct.unpack(f"<{slots}{code}", _restride(data, slots, size, wide)
                               if wide > size else data)
    else:
        digits = [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]
    return list(map(sub, digits, repeat(1 << width - 1)))
