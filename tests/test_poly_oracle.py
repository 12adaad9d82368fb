"""Differential tests: SparsePolynomial against a naive reference polynomial.

The reference keys terms on frozen exponent maps and does everything the
slow, obvious way: products rebuild each exponent map, powers multiply
repeatedly, substitution multiplies term by term, and division scans every
remaining term for the leading one.  Its printing re-derives the graded
order from an explicit list of the alphabet.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcperm.poly import ExactDivisionError, SparsePolynomial, exact_div, var

# x40 and y33 sit far from the low indices, in fields assigned late
VARS = ["t", "q"] + [f"x{i}" for i in range(13)] + ["x40"] + [f"y{i}" for i in range(1, 5)] + ["y33"]
ALPHABET = ["t", "q", "u", "y", "z"] + VARS[2:]  # the variable order, smallest first
LIMIT = 2**31 - 1  # the largest exponent a monomial can hold
RANK = {name: i for i, name in enumerate(ALPHABET)}


class Ref:
    def __init__(self, terms):
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def from_terms(cls, data):
        return sum((cls({frozenset((n, e) for n, e in exps.items() if e): c})
                    for exps, c in data), cls({}))

    def __add__(self, other):
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        return Ref(acc)

    __radd__ = __add__

    def __mul__(self, other):
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                exps = dict(m1)
                for n, e in m2:
                    exps[n] = exps.get(n, 0) + e
                m = frozenset(exps.items())
                acc[m] = acc.get(m, 0) + c1 * c2
        return Ref(acc)

    def __pow__(self, k):
        out = Ref({frozenset(): 1})
        for _ in range(k):
            out = out * self
        return out

    def substitute(self, bindings, default=None):
        out = Ref({})
        for m, c in self.terms.items():
            term = Ref({frozenset(): c})
            for n, e in m:
                value = bindings.get(n, default)
                if value is None:
                    value = Ref({frozenset([(n, 1)]): 1})
                elif isinstance(value, int):
                    value = Ref({frozenset(): value})
                term = term * value**e
            out = out + term
        return out

    def divmod(self, d):
        def graded(m):
            vec = tuple(dict(m).get(n, 0) for n in ALPHABET)
            return (sum(vec), vec)

        rest, quotient, remainder = self, Ref({}), Ref({})
        d_lead = max(d.terms, key=graded)
        while rest.terms:
            lead = max(rest.terms, key=graded)
            c = rest.terms[lead]
            exps = dict(lead)
            for n, e in d_lead:
                exps[n] = exps.get(n, 0) - e
            if min(exps.values(), default=0) >= 0 and c % d.terms[d_lead] == 0:
                step = Ref({frozenset((n, e) for n, e in exps.items() if e): c // d.terms[d_lead]})
                quotient = quotient + step
                rest = rest + step * d * Ref({frozenset(): -1})
            else:
                remainder = remainder + Ref({lead: c})
                rest = rest + Ref({lead: -c})
        return quotient, remainder

    def ordered(self):
        out = []
        for m, c in self.terms.items():
            mono = sorted(m, key=lambda ne: RANK[ne[0]])
            out.append(((sum(e for _, e in mono), [(RANK[n], e) for n, e in mono]), mono, c))
        return [(mono, c) for _, mono, c in sorted(out)]

    def __str__(self):
        text = ""
        for i, (mono, c) in enumerate(self.ordered()):
            body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in mono)
            mag = str(abs(c)) if abs(c) != 1 or not body else ""
            sign = ("-" if c < 0 else "") if i == 0 else (" - " if c < 0 else " + ")
            text += sign + "*".join(part for part in (mag, body) if part)
        return text or "0"

    def to_json(self):
        return [{"coeff": str(c), "monomial": dict(mono)} for mono, c in self.ordered()]


def assert_same(poly, ref):
    assert {frozenset(m): c for m, c in poly.sorted_terms()} == ref.terms
    assert str(poly) == str(ref)
    assert json.dumps(poly.to_json()) == json.dumps(ref.to_json())


def pair(data):
    return SparsePolynomial.from_terms(data), Ref.from_terms(data)


def _terms(max_terms, max_vars=3, max_exp=3, exps=None):
    if exps is None:
        exps = st.integers(min_value=1, max_value=max_exp)
    monomials = st.dictionaries(st.sampled_from(VARS), exps, max_size=max_vars)
    return st.lists(
        st.tuples(monomials, st.integers(min_value=-5, max_value=5)), max_size=max_terms
    )


_data = _terms(5)
# near half the limit (a product of two stays exact) or at most half of it
_small_or_half = st.integers(1, 3) | st.integers(LIMIT // 2 - 3, LIMIT // 2)
_near_limit = _small_or_half | st.integers(LIMIT // 2 + 1, LIMIT // 2 + 2) | st.integers(LIMIT - 2, LIMIT)
_small = _terms(2, max_vars=2, max_exp=2)
_ints = st.integers(min_value=-2, max_value=2)
_names = st.sampled_from(VARS)


@given(_data, _data, st.integers(min_value=0, max_value=3))
def test_ring_operations_match_reference(a, b, k):
    (pa, ra), (pb, rb) = pair(a), pair(b)
    assert_same(pa, ra)
    assert_same(pa + pb, ra + rb)
    assert_same(pa * pb, ra * rb)
    assert_same(pa**k, ra**k)


@given(_terms(4, exps=_near_limit), _terms(4, exps=_near_limit))
def test_products_near_the_exponent_limit_match_reference(a, b):
    (pa, ra), (pb, rb) = pair(a), pair(b)
    assert_same(pa + pb, ra + rb)
    # any product of two terms past the limit raises, even one that cancels
    too_big = any(
        dict(m1).get(name, 0) + exp > LIMIT for m1 in ra.terms for m2 in rb.terms for name, exp in m2
    )
    if too_big:
        with pytest.raises(OverflowError):
            pa * pb
    else:
        assert_same(pa * pb, ra * rb)


@settings(max_examples=60)
@given(_terms(4, exps=_small_or_half), _terms(3, exps=_small_or_half))
def test_exact_div_near_the_exponent_limit_inverts_product(a, d):
    (pa, ra), (pd, _) = pair(a), pair(d)
    if pd.is_zero:
        return
    assert_same(exact_div(pa * pd, pd), ra)


@given(_data, st.dictionaries(_names, _ints, max_size=6))
def test_substitute_integers_matches_reference(a, bindings):
    pa, ra = pair(a)
    assert_same(pa.substitute(bindings), ra.substitute(bindings))


@settings(max_examples=60)
@given(_data, st.dictionaries(_names, st.one_of(_ints, _small), max_size=4))
def test_substitute_polynomials_matches_reference(a, raw):
    pa, ra = pair(a)
    ints = {n: v for n, v in raw.items() if isinstance(v, int)}
    polys = {n: pair(v) for n, v in raw.items() if not isinstance(v, int)}
    got = pa.substitute({**ints, **{n: p for n, (p, _) in polys.items()}})
    want = ra.substitute({**ints, **{n: r for n, (_, r) in polys.items()}})
    assert_same(got, want)


@settings(max_examples=60)
@given(_data, st.dictionaries(_names, _small, max_size=2), st.one_of(_ints, _small))
def test_substitute_default_matches_reference(a, raw, default):
    pa, ra = pair(a)
    bindings = {n: pair(v) for n, v in raw.items()}
    pd, rd = (default, default) if isinstance(default, int) else pair(default)
    got = pa.substitute({n: p for n, (p, _) in bindings.items()}, default=pd)
    want = ra.substitute({n: r for n, (_, r) in bindings.items()}, default=rd)
    assert_same(got, want)


@settings(max_examples=80)
@given(_data, _terms(3))
def test_exact_div_inverts_product(a, d):
    (pa, ra), (pd, _) = pair(a), pair(d)
    if pd.is_zero:
        return
    assert_same(exact_div(pa * pd, pd), ra)


@settings(max_examples=80)
@given(_data, _terms(3))
def test_exact_div_matches_reference_division(a, d):
    (pa, ra), (pd, rd) = pair(a), pair(d)
    if pd.is_zero:
        return
    quotient, remainder = ra.divmod(rd)
    if remainder.terms:
        with pytest.raises(ExactDivisionError) as info:
            exact_div(pa, pd)
        assert_same(info.value.remainder, remainder)
    else:
        assert_same(exact_div(pa, pd), quotient)


def test_exact_div_error_remainder():
    q = var("q")
    rq = Ref({frozenset([("q", 1)]): 1})
    _, remainder = rq.divmod(Ref({frozenset(): 1, frozenset([("q", 1)]): -1}))
    with pytest.raises(ExactDivisionError) as info:
        exact_div(q, 1 - q)
    assert str(info.value.remainder) == str(remainder) == "1"
    assert str(info.value) == "division is not exact; remainder 1"
