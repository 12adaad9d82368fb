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
``from_terms`` or ``walk.enumerator`` builds is checked, and an exponent
past 2**31 - 1 raises OverflowError; nothing wraps.  ``exact_div`` builds no
exponent above its dividend's, so its keys need no check.

Keys are decoded only at the edges (printing, JSON, ``variables``).
Printing and JSON list terms in graded order: total degree, then exponents
in the variable order t < q < u < y < z < x0 < x1 < ... < y1 < y2 < ...,
never in the order fields were assigned.
``str``, ``to_json``, pickling and ``json_text`` share one decode
(``_graded``), which takes the occurring variables four at a time and
decodes each distinct exponent tuple of a group once.

Costs, for polynomials with T1 and T2 terms: a product is O(T1 * T2) int
additions, in one pass when no two pairs of terms share a key and in two
otherwise; when it has more keys than its operands together, the operands'
keys are read for an exponent of 2^30 or more instead of its own for a guard
bit.  An int operand only scales the other's coefficients.  ``*`` is always
that product; ``poly_product`` alone decides to pack.  In at most two
variables, a ``poly_product`` whose box, the summed spans of its rows (one
row per exponent of the outer variable), has no more slots than the term
pairs is instead one int per row with a slot per exponent of the inner
variable: a row of a factor with no gaps is one big-int multiply per row of
the running product, any other row a shift and add per term, and the rows
are decoded once.  A factor's rows are its terms grouped in dict order, each
row then sorted alone: one linear pass for a decoded product, whose rows
come in order.  The factors' keys are ORed one whole factor at a time,
fewest terms first, and the first factor that shows a third variable
refuses the product.  The pairs are counted exactly, in the order the
factors are given, from the sumset of the keys of each partial product; the
count stops at the box, so it never does more work than the dict product it
decides against.
A power of one term is its key times k; any other power is
``poly_product`` of its k copies.  A q-bracket of n terms with a one-term
base c·m is n additions of c^k at the key m·k, after one check of m's
largest exponent times n - 1; any other base takes n - 1 products, the
last one base^(n-1).
A substitution is one pass over the terms with one multiply per bound
variable of a term: of ints while its bindings are ints, else of
polynomials, no power shared between terms.  An exact division, by a
divisor in at most one variable, is long division row by row of the
dividend: sorting the dividend's T terms within their rows, O(T log T),
then O(D) dict updates per reduction step for a D-term divisor, and one
bisected insert for each exponent a step writes outside the dividend's
row, so a gap in a row costs nothing.
The slot codec at the end of this module (``_pack``, ``_unpack``,
``_from_slots``) serves both the packed product and the packed walk in
``walk``.  Its letters codec reads a polynomial multilinear in x_1, x_2, ...
alone as slots with bit d - 1 set for each x_d (``_letter_slots``) and
decodes them through one keys table (``_letter_keys``), for the x-only walk
and the x-only layered closed forms in ``formulas``.  Output costs each of
T terms one mask, one dict lookup and two additions per group of four of its
k variables, O(T * k / 4), plus one
decode per distinct exponent tuple of a group, and sorts the terms on one
int key each; ``json_chunks`` builds each term's text from a few fixed
pieces and its groups' cached ``"name": exp`` entries, with no per-term
dict, and yields the text in runs of 1,024 terms; ``str`` joins its
groups' cached ``*name^exp`` factors (``_factors``) the same way.  On the
n <= 8 ``verify`` rows the JSON writer takes 59 ms against 88 ms reading one
field at a time (medians of 20 alternating passes, 2-vCPU VM, Python
3.11.7).
"""

from __future__ import annotations

import re
import struct
from bisect import insort
from functools import reduce
from itertools import accumulate, compress, islice, repeat
from math import prod
from operator import add, itemgetter, or_, sub
from typing import Iterable, Iterator, Mapping, Sequence

_NAME_RE = re.compile(r"^(?:[tquyz]|x(?:0|[1-9][0-9]*)|y[1-9][0-9]*)$")
_BASE_ORDER = {"t": 0, "q": 1, "u": 2, "y": 3, "z": 4}
_X = 5  # x_i sorts as (_X, i), after the base names; y_i as (_X + 1, i)

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
        return (_X, int(name[1:]))
    return (_X + 1, int(name[1:]))


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


def _check_multiple(mono: Monomial, k: int):
    """OverflowError unless ``mono * k`` is a key: k times each exponent of
    ``mono`` at most 2**31 - 1, so that no field carries."""
    fields = range(0, mono.bit_length() or 1, _WIDTH)
    if max(mono >> shift & _MAX for shift in fields) * k > _MAX:
        raise OverflowError(f"an exponent exceeds {_MAX}")


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
                if not _is_count(exp):
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
        if isinstance(other, int):  # an int only scales the coefficients
            c = int(other)
            return SparsePolynomial({m: c * v for m, v in self._terms.items()} if c else {})
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return _dict_product(self, other)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> SparsePolynomial:
        """self**k.  One term is its key times k; any other polynomial is
        ``poly_product`` of k copies of itself, one packed product in at
        most two variables (docs/DECISIONS.md §7).  In t and q that beats
        square and multiply up to k of about 30; past it, or in three or
        more variables, it is slower.  No closed form raises a polynomial
        of more than one term to a power: (1 + t)^k and (1 + t^2)^k go to
        the form's one ``poly_product`` as k factors beside the others."""
        if not _is_count(k):
            raise ValueError(f"exponent {k!r} must be a nonnegative integer")
        if len(self._terms) == 1:  # k times the key, which no field carries out of in range
            ((mono, coeff),) = self._terms.items()
            _check_multiple(mono, k)
            return SparsePolynomial({mono * k: coeff**k})
        return poly_product(repeat(self, k))

    def substitute(
        self,
        bindings: Mapping[str, SparsePolynomial | int],
        default: SparsePolynomial | int | None = None,
    ) -> SparsePolynomial:
        """Image under the ring homomorphism sending each bound variable to its
        binding; unbound variables stay themselves unless ``default`` is given.

        One pass over the terms: a term's image starts as its coefficient,
        and each bound variable in it leaves the key and multiplies the image
        by its binding's power, so the image stays an int while every binding
        it meets is one.  The image's terms are added at the key that is left.
        """
        bound = {check_variable(name): _binding(value) for name, value in bindings.items()}
        if default is not None:
            default = _binding(default)
        targets = [(_SHIFTS[name], value) for name in _NAMES
                   if (value := bound.get(name, default)) is not None]
        terms: dict[Monomial, int] = {}
        for mono, image in self._terms.items():
            for shift, value in targets:
                if exp := mono >> shift & _MAX:
                    mono -= exp << shift
                    image = image * value**exp
            if isinstance(image, int):
                _add_term(terms, mono, image)
            else:
                for m, c in image._terms.items():
                    _add_term(terms, mono + m, c)
        return SparsePolynomial(_checked(terms))

    # -- presentation ----------------------------------------------------------

    def __str__(self) -> str:
        text = "".join([(" - " if coeff < 0 else " + ")
                        + (factors[1:] if factors and abs(coeff) == 1 else f"{abs(coeff)}{factors}")
                        for _, factors, coeff in self._graded(_factors, "")])
        return ("-" if text.startswith(" - ") else "") + text[3:] if text else "0"

    def __repr__(self) -> str:
        return f"SparsePolynomial({self})"

    def to_json(self) -> list[dict]:
        return [
            {"coeff": str(coeff), "monomial": dict(mono)}
            for mono, coeff in self.sorted_terms()
        ]

    def json_text(self, depth: int = 0) -> str:
        """``json.dumps(self.to_json(), indent=2)`` as it reads nested
        ``depth`` levels deep, byte for byte: ``json_chunks`` joined."""
        return "".join(self.json_chunks(depth))

    def json_chunks(self, depth: int = 0) -> Iterator[str]:
        """The text of ``json_text`` in runs of 1,024 terms, built from the
        graded decode without the term dicts, so that a writer holds one run
        of the text at a time, not the whole text."""
        term, entry, field = ("\n" + "  " * (depth + i) for i in (1, 2, 3))
        head = term + "{" + entry + '"coeff": "'
        middle = '",' + entry + '"monomial": {'
        tail = entry + "}" + term + "}"

        def render(pairs):
            return "".join([f',{field}"{name}": {exp}' for name, exp in pairs])

        rows, opening = self._graded(render, ""), "["
        for start in range(0, len(rows), 1024):
            # a rendered monomial starts with the comma that its first entry drops
            yield opening + ",".join([f"{head}{coeff}{middle}{mono[1:]}{tail}" if mono
                                      else f"{head}{coeff}{middle}}}{term}}}"
                                      for _, mono, coeff in rows[start:start + 1024]])
            opening = ","
        yield "[]" if opening == "[" else term[:-2] + "]"

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


def _factors(pairs) -> str:
    """The text of a term's (name, exp) pairs, each after a ``*``, as
    ``str`` renders them: ``*t*q^2``."""
    return "".join([f"*{name}" if exp == 1 else f"*{name}^{exp}" for name, exp in pairs])


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


def _is_count(k) -> bool:
    """Whether k is a nonnegative int and not a bool: a size, a power or an
    exponent."""
    return isinstance(k, int) and not isinstance(k, bool) and k >= 0


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
    when pairs collide are the terms summed again in a second pass.  Either
    way the keys are checked for a guard bit once (``_guarded``).
    """
    right = list(b._terms.items())
    pairs = len(a._terms) * len(right)
    terms = {m1 + m2: c1 * c2 for m1, c1 in a._terms.items() for m2, c2 in right}
    if len(terms) < pairs:
        terms = {}
        get = terms.get
        for m1, c1 in a._terms.items():
            for m2, c2 in right:
                mono = m1 + m2
                terms[mono] = get(mono, 0) + c1 * c2
    if _guarded(terms, a, b):
        raise OverflowError(f"an exponent exceeds {_MAX}")
    return SparsePolynomial(terms if len(terms) == pairs else {m: c for m, c in terms.items() if c})


def _guarded(terms: dict[Monomial, int], a: SparsePolynomial, b: SparsePolynomial) -> bool:
    """Whether a key of ``terms``, the product of a and b, sets a guard bit.
    When the operands have fewer keys, their ORs are read first: every
    exponent below 2^30 there means no two sum past 2^31 - 1, and the
    product's keys are not read."""
    if len(terms) > len(a._terms) + len(b._terms) and not (
            reduce(or_, a._terms, 0) | reduce(or_, b._terms, 0)) & _GUARD >> 1:
        return False
    return bool(reduce(or_, terms, 0) & _GUARD)


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
    rows: dict[int, list[tuple[int, int]]] = {}
    if outer is None:  # every key lies in the inner field
        if p._terms:
            rows[0] = [(mono >> inner, coeff) for mono, coeff in p._terms.items()]
    else:
        for mono, coeff in p._terms.items():
            rows.setdefault(mono >> outer & _MAX, []).append((mono >> inner & _MAX, coeff))
    for row in rows.values():  # one linear pass where the terms came in order
        row.sort()
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
    """The sum 1 + base + base^2 + ... + base^(n-1); zero when n = 0.

    A base of one term c·m is summed directly: its k-th power is c^k at the
    key m·k, after one check of its largest exponent times n - 1, and a
    constant base (m = 0) merges its powers at key 0.  Any other base is
    multiplied up power by power, stopping at base^(n-1), the last one summed.
    """
    if not _is_count(n):
        raise ValueError(f"bracket size {n!r} must be a nonnegative integer")
    base = _operand(base, "the bracket base")
    terms: dict[Monomial, int] = {}
    if len(base._terms) == 1:
        ((mono, coeff),) = base._terms.items()
        _check_multiple(mono, n - 1)
        for k in range(n):
            _add_term(terms, mono * k, coeff**k)
        return SparsePolynomial(terms)
    power = const(1)
    for k in range(n):
        if k:
            power = power * base
        for mono, coeff in power._terms.items():
            _add_term(terms, mono, coeff)
    return SparsePolynomial(terms)


class ExactDivisionError(ArithmeticError):
    """Raised when polynomial division leaves a nonzero remainder."""

    def __init__(self, remainder: SparsePolynomial):
        self.remainder = remainder
        super().__init__(f"division is not exact; remainder {remainder}")


def exact_div(p: SparsePolynomial | int, d: SparsePolynomial | int) -> SparsePolynomial:
    """Exact quotient p / d in the polynomial ring, for a divisor d in at
    most one variable (a constant included); ValueError for any other
    divisor, a monomial such as t*q among them.  ExactDivisionError, with
    the remainder, when d does not divide p.

    Long division by rows (docs/DECISIONS.md §7): a row of p is its terms
    that agree outside d's field, and d's variable occurs in no other field,
    so each row is divided alone.  A row is reduced from its top exponent by
    d's leading coefficient.  A term below d's top exponent, or whose
    coefficient that one does not divide, goes to the remainder, and the
    reduction goes on below it: this is the reduction in the graded order,
    one row at a time, so the quotient of an exact division is the only one
    it can find.  A row's exponents are sorted once and taken from the top;
    a step that writes outside them inserts that exponent by bisection,
    within d's span of the end, so a gap in a row costs nothing.  Every step
    writes below the term it reduces, so no key passes p's and none is
    checked.
    """
    p, d = _operand(p, "the dividend"), _operand(d, "the divisor")
    if d.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    fields = list(islice(_fields(_occurring([d])), 2))
    if len(fields) > 1:
        raise ValueError(f"the divisor {d} is in more than one variable")
    inner = fields[0] if fields else 0
    mask = _MAX << inner if fields else 0  # no field: each term is a row
    rows: dict[Monomial, dict[int, int]] = {}
    for mono, coeff in p._terms.items():
        e = mono & mask
        rows.setdefault(mono - e, {})[e >> inner] = coeff
    divisor = sorted([(mono >> inner, coeff) for mono, coeff in d._terms.items()])
    d_top, lead = divisor.pop()
    steps = [(d_top - e, -coeff) for e, coeff in divisor]
    quotient: dict[Monomial, int] = {}
    remainder: dict[Monomial, int] = {}
    for rest, row in rows.items():
        exps = sorted(row)
        while exps:
            e = exps.pop()
            coeff = row[e]
            if not coeff:
                continue
            if e < d_top or coeff % lead:
                remainder[rest + (e << inner)] = coeff
                continue
            coeff //= lead
            quotient[rest + (e - d_top << inner)] = coeff
            for offset, c in steps:
                target = e - offset
                if target in row:
                    row[target] += coeff * c
                else:
                    row[target] = coeff * c
                    insort(exps, target)
    if remainder:
        raise ExactDivisionError(SparsePolynomial(remainder))
    return SparsePolynomial(quotient)


def _from_slots(packed: int, width: int, keys: Sequence[Monomial]) -> SparsePolynomial:
    """The polynomial whose term at key ``keys[i]`` has the balanced
    ``width``-bit slot i of ``packed`` as its coefficient."""
    coeffs = _unpack(packed, len(keys), width)
    return SparsePolynomial(dict(compress(zip(keys, coeffs), coeffs)))


def _letter_keys(letters: int) -> list[Monomial]:
    """The keys of the 2^letters slots of a polynomial multilinear in
    x_1, ..., x_letters: slot i holds the product of x_(b+1) over the set
    bits b of i.  The x-only walk and the x-only closed forms decode
    through it."""
    keys = [0]
    for d in range(1, letters + 1):
        x = 1 << _SHIFTS[f"x{d}"]
        keys += [key + x for key in keys]
    return keys


def _letter_slots(p: SparsePolynomial) -> list[tuple[int, int]] | None:
    """(slot, coeff) per term of p, the slot with bit d - 1 set for each x_d
    in the term (``_letter_keys``'s inverse), when p is multilinear in
    x_1, x_2, ... alone; None when a term has any other variable or a
    letter squared."""
    pairs = []
    for mono, coeff in p._terms.items():
        slot = 0
        for shift in _fields(mono):
            kind, d = _ORDER[shift // _WIDTH]
            if kind != _X or not d or mono >> shift & _MAX != 1:
                return None
            slot |= 1 << d - 1
        pairs.append((slot, coeff))
    return pairs


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
