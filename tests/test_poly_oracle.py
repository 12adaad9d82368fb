"""Differential tests: SparsePolynomial against a naive reference polynomial.

The reference keys terms on frozen exponent maps and does everything the
slow, obvious way: products rebuild each exponent map, powers multiply
repeatedly, substitution multiplies term by term, and division scans every
remaining term for the leading one.  Its printing re-derives the graded
order from an explicit list of the alphabet.
"""

import json
import pickle
import tracemalloc
from contextlib import contextmanager
from functools import reduce
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcperm import poly
from arcperm.formulas import REGISTRY, f_A_des_maj
from arcperm.poly import ExactDivisionError, SparsePolynomial, const, exact_div, poly_product, var

# x40 and y33 sit far from the low indices, in fields assigned late
VARS = ["t", "q"] + [f"x{i}" for i in range(13)] + ["x40"] + [f"y{i}" for i in range(1, 5)] + ["y33"]
# fresh names whose fields are assigned here, highest first, so that they run
# against the variable order
FRESH = ["x99", "y98", "x97"]
for _name in FRESH:
    var(_name)
# the variable order, smallest first
ALPHABET = (["t", "q", "u", "y", "z"] + [f"x{i}" for i in range(13)] + ["x40", "x97", "x99"]
            + [f"y{i}" for i in range(1, 5)] + ["y33", "y98"])
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


def _divisor_terms(max_terms, exps=st.integers(0, 3)):
    """Up to ``max_terms`` terms in one variable, as exact_div takes: t, q,
    x1 or x40, whose fields lie below, among and above the other fields of
    a dividend in VARS.  An exponent of 0 is a constant term."""
    return st.tuples(st.sampled_from(["t", "q", "x1", "x40"]), st.lists(
        st.tuples(exps, st.integers(min_value=-5, max_value=5)), max_size=max_terms)).map(
        lambda drawn: [({drawn[0]: e} if e else {}, c) for e, c in drawn[1]])


@given(_data, _data, st.integers(min_value=0, max_value=3))
def test_ring_operations_match_reference(a, b, k):
    (pa, ra), (pb, rb) = pair(a), pair(b)
    assert_same(pa, ra)
    assert_same(pa + pb, ra + rb)
    assert_same(pa * pb, ra * rb)
    assert_same(pa**k, ra**k)
    neg_b = Ref({m: -c for m, c in rb.terms.items()})
    assert_same(pa - pb, ra + neg_b)
    assert_same(k - pb, Ref({frozenset(): k}) + neg_b)


def test_multi_term_powers_match_the_binomial_expansion():
    # a power of more than one term is poly_product of its copies; the
    # expansions are built from math.comb, with no product at all
    t, q = var("t"), var("q")
    for base, exponents in ((1 + t, lambda i: {"t": i}), (1 + t**2, lambda i: {"t": 2 * i}),
                            (1 + t * q, lambda i: {"t": i, "q": i})):
        for k in range(41):
            want = SparsePolynomial.from_terms((exponents(i), comb(k, i)) for i in range(k + 1))
            assert base**k == want, (base, k)


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
@given(_terms(4, exps=_small_or_half), _divisor_terms(3, exps=st.just(0) | _small_or_half))
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
@given(_data, _divisor_terms(3))
def test_exact_div_inverts_product(a, d):
    (pa, ra), (pd, _) = pair(a), pair(d)
    if pd.is_zero:
        return
    assert_same(exact_div(pa * pd, pd), ra)


@settings(max_examples=80)
@given(_data, _divisor_terms(3))
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


def test_a_term_below_the_divisors_top_is_remainder():
    """y98 holds no x99, so 1 - x99 cannot reduce it.  x99's field lies
    below y98's (FRESH), so a step that took it below x99^0 would show as
    a large power of x99 in place of y98."""
    x99, y98 = var("x99"), var("y98")
    _, remainder = Ref.from_terms([({"y98": 1}, 1)]).divmod(
        Ref.from_terms([({}, 1), ({"x99": 1}, -1)]))
    with pytest.raises(ExactDivisionError) as info:
        exact_div(y98, 1 - x99)
    assert_same(info.value.remainder, remainder)
    assert str(remainder) == "y98"


# -- the packed univariate product ----------------------------------------------


@contextmanager
def packed_spy():
    """Records, per call of the packed-product helper, whether it computed
    the product (True) or left it to the dict product (False)."""
    original = poly._packed_product
    taken = []

    def spy(factors):
        result = original(factors)
        taken.append(result is not None)
        return result

    poly._packed_product = spy
    try:
        yield taken
    finally:
        poly._packed_product = original


# signed coefficients, some past 64 bits so that slots get wider than a word
_nonzero = st.integers(-9, 9).filter(bool) | st.integers(-(2**70), 2**70).filter(bool)


def _dense(name):
    """Every exponent from 0 to the degree, each with a nonzero coefficient."""
    return st.lists(_nonzero, min_size=2, max_size=12).map(
        lambda coeffs: [({name: e} if e else {}, c) for e, c in enumerate(coeffs)])


_dense_pair = st.sampled_from(["t", "q"]).flatmap(lambda name: st.tuples(_dense(name), _dense(name)))


@given(_dense_pair)
def test_dense_univariate_products_are_packed(operands):
    (pa, ra), (pb, rb) = map(pair, operands)
    with packed_spy() as taken:
        got = poly_product([pa, pb])
    assert taken == [True]
    assert_same(got, ra * rb)
    assert_same(pa * pb, ra * rb)


def _factor(name):
    return st.one_of(
        _dense(name).map(lambda data: ("poly", data)),
        _nonzero.map(lambda c: ("int", c)),
        _nonzero.map(lambda c: ("const", c)),
    )


_factors = st.sampled_from(["t", "q"]).flatmap(lambda name: st.lists(_factor(name), min_size=2, max_size=6))


@given(_factors, st.none() | st.integers(0, 6), st.booleans())
def test_univariate_poly_product_is_packed(factors, zero_at, zero_as_int):
    if zero_at is not None:
        factors.insert(zero_at, ("int" if zero_as_int else "const", 0))
    got_factors, want = [], Ref({frozenset(): 1})
    for kind, data in factors:
        if kind == "poly":
            p, r = pair(data)
        else:
            p, r = data if kind == "int" else const(data), Ref({frozenset(): data})
        got_factors.append(p)
        want = want * r
    with packed_spy() as taken:
        got = poly_product(got_factors)
    assert taken == [True]
    assert_same(got, want)


@pytest.mark.parametrize("sign", [1, -1])
def test_binomial_chains_meet_their_bound(sign):
    """(1 + sign * q)^k as a chain of k factors: its absolute coefficients
    sum to 2^k, the product of the L1 norms that sets the slot width, and k
    runs across the width steps up to 80 bits."""
    q = var("q")
    for k in range(2, 72):
        with packed_spy() as taken:
            got = poly_product([1 + sign * q] * k)
        assert taken == [True]
        want = SparsePolynomial.from_terms(
            ({"q": j} if j else {}, sign**j * comb(k, j)) for j in range(k + 1))
        assert got == want
        assert sum(abs(c) for _, c in got.sorted_terms()) == 2**k


@pytest.mark.parametrize("factors, value", [
    ([127, 1], 127), ([-1, 127], -127), ([-128, 1], -128), ([2**63 - 1, -1], 1 - 2**63),
])
def test_a_coefficient_equal_to_the_bound(factors, value):
    """A product of constants has one coefficient, the L1 bound itself; 127
    is the top of an 8-bit slot's balanced range."""
    with packed_spy() as taken:
        got = poly_product(factors)
    assert taken == [True]
    assert got == const(value)
    assert poly._slot_width(127) == 8


def no_box(paths):
    raise AssertionError("a packed box was built")


def test_a_zero_factor_builds_no_box(monkeypatch):
    q = var("q")
    monkeypatch.setattr(poly, "_slot_width", no_box)
    with packed_spy() as taken:
        assert poly_product([1 + q, 0, 1 + q + q**2]).is_zero
        assert poly_product([1 + q, const(0)]).is_zero
    assert taken == [True, True]


def test_sparse_boxes_stay_on_the_dict_product(monkeypatch):
    q = var("q")
    monkeypatch.setattr(poly, "_slot_width", no_box)
    # 31 terms, in a box of 3 * 10**7 + 1 slots
    with packed_spy() as taken:
        got = poly_product([1 + q**10**6] * 30)
    assert taken == [False]
    assert got == SparsePolynomial.from_terms(
        ({"q": 10**6 * j} if j else {}, comb(30, j)) for j in range(31))
    assert got == (1 + q**10**6) ** 30
    # the rule's edge: a box of as many slots as the dict product touches
    # term pairs is packed, one slot more is not
    monkeypatch.undo()
    with packed_spy() as taken:
        assert poly_product([1 + q, 1 + q**2]) == 1 + q + q**2 + q**3
        assert poly_product([1 + q, 1 + q**3]) == 1 + q + q**3 + q**4
    assert taken == [True, False]
    assert (1 + q) * (1 + q**2) == 1 + q + q**2 + q**3
    assert (1 + q) * (1 + q**3) == 1 + q + q**3 + q**4
    # in a chain, (1 + q)^2 has 3 terms: 2*2 + 3*2 = 10 pairs
    for k, packs in ((7, True), (8, False)):
        with packed_spy() as taken:
            got = poly_product([1 + q, 1 + q, 1 + q**k])
        assert taken == [packs]
        assert got == (1 + 2 * q + q**2) * (1 + q**k)


# -- the row-packed (t, q) product ----------------------------------------------


def _rectangle():
    """Every exponent pair of a rectangle from t^0 q^0, each with a nonzero
    coefficient; a one-row or one-column rectangle lies in q or t alone."""
    def terms(shape):
        rows, cols = shape
        cells = [({name: e for name, e in (("t", a), ("q", b)) if e}) for a in range(rows)
                 for b in range(cols)]
        return st.lists(_nonzero, min_size=len(cells), max_size=len(cells)).map(
            lambda coeffs: list(zip(cells, coeffs)))
    return st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(terms)


@given(_rectangle(), _rectangle())
def test_dense_bivariate_products_are_packed(a, b):
    (pa, ra), (pb, rb) = pair(a), pair(b)
    with packed_spy() as taken:
        got = poly_product([pa, pb])
    assert taken == [True]
    assert_same(got, ra * rb)
    assert_same(pa * pb, ra * rb)


_tq_factor = st.one_of(
    _rectangle().map(lambda data: ("poly", data)),
    _nonzero.map(lambda c: ("int", c)),
    _nonzero.map(lambda c: ("const", c)),
)


@given(st.lists(_tq_factor, min_size=2, max_size=5), st.none() | st.integers(0, 5), st.booleans())
def test_bivariate_poly_product_is_packed(factors, zero_at, zero_as_int):
    if zero_at is not None:
        factors.insert(zero_at, ("int" if zero_as_int else "const", 0))
    got_factors, want = [], Ref({frozenset(): 1})
    for kind, data in factors:
        if kind == "poly":
            p, r = pair(data)
        else:
            p, r = data if kind == "int" else const(data), Ref({frozenset(): data})
        got_factors.append(p)
        want = want * r
    with packed_spy() as taken:
        got = poly_product(got_factors)
    assert taken == [True]
    assert_same(got, want)


def test_a_row_that_cancels_between_nonzero_rows():
    t, q = var("t"), var("q")
    for factors, text in (([1 + t * q, 1 - t * q], "1 - t^2*q^2"),
                          ([1 + t * q + t**2, 1 - t * q + t**2], "1 + 2*t^2 - t^2*q^2 + t^4"),
                          ([1 + t * q, 1 - t * q, 1 + t**2 * q**2], "1 - t^4*q^4")):
        with packed_spy() as taken:
            got = poly_product(factors)
        assert taken == [True]
        assert str(got) == text
    with packed_spy() as taken:  # ``*`` is the dict product, never packed
        assert (1 + t * q) * (1 - t * q) == 1 - t**2 * q**2
    assert taken == []


def test_a_third_field_past_the_first_keys_refuses_the_box():
    """The packed product ORs each factor's keys whole, fewest terms first:
    a field that a larger factor only shows past its first four keys still
    sends the product to the dict product, in either operand order."""
    t, q, x1 = var("t"), var("q"), var("x1")
    late = const(1) + q + q**2 + q**3 + t + x1  # keys in this order: q alone first
    assert list(late._terms)[:4] == [next(iter(p._terms)) for p in (const(1), q, q**2, q**3)]
    for factors in ([late, 1 + q], [1 + t * q, late], [late, late]):
        with packed_spy() as taken:
            got = poly_product(factors)
        assert taken == [False]
        assert got == reduce(poly._dict_product, factors)


@pytest.mark.parametrize("field", ["t", "q"])
def test_bivariate_degrees_past_the_limit_size_no_box(monkeypatch, field):
    t, q = var("t"), var("q")
    other = q if field == "t" else t
    half = SparsePolynomial.from_terms([({field: LIMIT // 2 + 1}, 1)])
    monkeypatch.setattr(poly, "_slot_width", no_box)
    for factors in ([1 + other * half, 1 + half], [1 + other * half, 1 + other, other + half],
                    [other + half, other, 1 + half]):
        with packed_spy() as taken, pytest.raises(OverflowError):
            poly_product(factors)
        assert taken == [False]
    with pytest.raises(OverflowError):
        (1 + other * half) * (other + half)
    # exactly at the limit the product is packed and exact
    monkeypatch.undo()
    below = SparsePolynomial.from_terms([({field: LIMIT // 2}, 1)])
    one = SparsePolynomial.from_terms([({field: 1}, 1)])
    with packed_spy() as taken:
        got = poly_product([1 + other * below, 1 + other * below * one])
    assert taken == [True]
    assert str(got).endswith(f"{field}^{LIMIT}" if field == "q" else f"t^{LIMIT}*q^2")


def test_bivariate_sparse_boxes_stay_on_the_dict_product(monkeypatch):
    t, q = var("t"), var("q")
    # the box is the sum of the row spans: 1, 2 and 1 slots against 4 term pairs
    with packed_spy() as taken:
        assert poly_product([1 + t * q, 1 + t * q**2]) == 1 + t * q + t * q**2 + t**2 * q**3
        assert poly_product([1 + t * q, 1 + t * q**3]) == 1 + t * q + t * q**3 + t**2 * q**4
    assert taken == [True, False]
    assert (1 + t * q) * (1 + t * q**2) == 1 + t * q + t * q**2 + t**2 * q**3
    assert (1 + t * q) * (1 + t * q**3) == 1 + t * q + t * q**3 + t**2 * q**4
    # tilted rows cost their own spans, not the rectangle around them
    with packed_spy() as taken:
        got = poly_product([1 + t * q**5, 1 + t * q**5, 1 + t * q**5])
    assert taken == [True]
    assert got == 1 + 3 * t * q**5 + 3 * t**2 * q**10 + t**3 * q**15
    monkeypatch.setattr(poly, "_slot_width", no_box)
    with packed_spy() as taken:
        got = poly_product([1 + t * q**10**6, 1 + q**10**6] * 3)
    assert taken == [False]
    assert got == ((1 + t * q**10**6) * (1 + q**10**6)) ** 3


# -- the exact count of term pairs -------------------------------------------------


def true_pairs(factors):
    """The term pairs of multiplying the factors' supports in the order
    given: each partial product's support, a brute-force sumset of (t, q)
    exponents, times the next factor's terms."""
    supports = [{(dict(m).get("t", 0), dict(m).get("q", 0)) for m, _ in f.sorted_terms()}
                for f in factors]
    total, support = 0, supports[0]
    for factor in supports[1:]:
        total += len(support) * len(factor)
        support = {(a + c, b + d) for a, b in support for c, d in factor}
    return total


def box(p):
    """The summed spans in q of p's rows, one row per exponent of t."""
    rows = {}
    for mono, _ in p.sorted_terms():
        exps = dict(mono)
        rows.setdefault(exps.get("t", 0), []).append(exps.get("q", 0))
    return sum([max(row) - min(row) + 1 for row in rows.values()])


def _tq(terms):
    return [({n: e for n, e in (("t", a), ("q", b)) if e}, c) for (a, b), c in terms.items()]


# 1 + c t^a q^b: tilted binomials of every slope, on steps 1 to 4
_tilted = st.tuples(st.integers(0, 2), st.integers(1, 4), st.integers(1, 4), _nonzero).map(
    lambda s: _tq({(0, 0): 1, (s[0], s[1] * s[2]): s[3]}))
# rows that are progressions of steps 1 to 3 from different offsets
_progressions = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(1, 3),
                                   st.integers(1, 3), _nonzero), min_size=1, max_size=2).map(
    lambda rows: _tq({(a, low + step * k): c for a, low, step, size, c in rows
                      for k in range(size)}))
# rows with gaps: any few cells
_gaps = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 12)), _nonzero,
                        min_size=1, max_size=5).map(_tq)


@settings(max_examples=200)
@given(st.lists(st.one_of(_tilted, _progressions, _gaps), min_size=1, max_size=6))
# the most terms last: the packing order would count 14 pairs, not 16
@example([_tq({(0, 0): 1, (0, 2): 1}), _tq({(0, 0): 1, (0, 8): 1}),
          _tq({(0, 0): 1, (0, 2): 1, (0, 4): 1})])
def test_the_pair_count_is_exact_in_the_given_order(data):
    """The rule reaches a box exactly when multiplying the supports in the
    order given touches as many term pairs (a box has at least one slot);
    and the product is exact whichever way it goes."""
    factors, refs = zip(*map(pair, data))
    pairs = true_pairs(factors)
    for slots in (max(pairs, 1), pairs + 1):
        assert poly._touches(factors, slots) == (pairs >= slots)
    want = Ref({frozenset(): 1})
    for r in refs:
        want = want * r
    assert_same(poly_product(factors), want)


def test_chains_of_tilted_binomials_are_packed():
    """The chains of f_A_des_maj(26), f_As_fdes_fmaj(20) and
    f_AB_fdes_fmaj(16): the count reaches each chain's box long before its
    last factor."""
    t, q = var("t"), var("q")
    chains = [[1 + t * q**i for i in range(2, 25)],
              [1 + t**2 * q ** (2 * i - 1) for i in range(3, 20)],
              [1 + t**2 * q ** (2 * i + 1) for i in range(1, 15)],
              [1 + t**2 * q ** (2 * i + 2) for i in range(1, 15)]]
    for chain in chains:
        with packed_spy() as taken:
            got = poly_product(chain)
        assert taken == [True]
        assert got == reduce(poly._dict_product, chain, const(1))
        assert poly._touches(chain, box(got))
        assert not poly._touches(chain, true_pairs(chain) + 1)
    with packed_spy() as taken:
        f_A_des_maj(26)
    assert taken[0] is True  # the chain, before it meets the head


def test_pairs_are_counted_exactly_in_the_given_order():
    t, q = var("t"), var("q")
    # the first two factors' product has 8 terms whatever the residues of its
    # rows: 8 + 8 * 2 = 24 pairs against boxes of 22 and 21 slots
    for first in (1 + q**2 + t * q**4 + t * q**6, 1 + q**2 + t * q**3 + t * q**5):
        with packed_spy() as taken:
            got = poly_product([first, 1 + t, 1 + q**3])
        assert taken == [True]
        assert got == first * (1 + t) * (1 + q**3)
    # the order given, not the packing order (most terms first): 16 pairs
    # against 15 slots packs, 13 against 14 stays on dicts
    for factors, packs in (([1 + q**2, 1 + q**8, 1 + q**2 + q**4], True),
                           ([1 + q**4, 1 + q**4, 1 + q + q**5], False)):
        with packed_spy() as taken:
            got = poly_product(factors)
        assert taken == [packs]
        assert got == reduce(poly._dict_product, factors, const(1))


def test_every_product_of_three_or_more_tq_factors_is_packed(monkeypatch):
    """Every ``poly_product`` of three or more factors that the closed forms
    in t and q build, for n = 3...30, packs."""
    original, taken = poly._packed_product, []

    def spy(factors):
        result = original(factors)
        if len(factors) > 2:
            taken.append((entry.name, n, result is not None))
        return result

    monkeypatch.setattr(poly, "_packed_product", spy)
    for entry in REGISTRY.values():
        if not entry.weights.letters:
            for n in range(3, 31):
                entry.build(n)
    assert taken
    assert [case for case in taken if not case[2]] == []


# -- the dict product -----------------------------------------------------------


ONE_PLUS_X1 = [({}, 1), ({"x1": 1}, 1)]
X1_PLUS_X2 = [({"x1": 1}, 1), ({"x2": 1}, 1)]


@pytest.mark.parametrize("a, b, text", [
    (ONE_PLUS_X1, [({}, 1), ({"x1": 1}, -1)], "1 - x1^2"),
    (X1_PLUS_X2, X1_PLUS_X2, "2*x1*x2 + x1^2 + x2^2"),
    (X1_PLUS_X2, [({"x1": 1}, 1), ({"x2": 1}, -1)], "x1^2 - x2^2"),
    (ONE_PLUS_X1, [({}, 1), ({"x1": 1}, -1), ({"x1": 2}, 1)], "1 + x1^3"),
])
def test_colliding_dict_products_match_reference(a, b, text):
    """Pairs that meet are summed, and a sum that cancels to zero leaves no
    term; the first pass alone would keep the last pair's product."""
    (pa, ra), (pb, rb) = pair(a), pair(b)
    got = poly._dict_product(pa, pb)
    assert_same(got, ra * rb)
    assert str(got) == text


# -- the row-wise exact division ------------------------------------------------


_q_divisor = st.lists(st.tuples(st.integers(0, 5), _nonzero), min_size=1, max_size=4).map(
    lambda terms: [({"q": e} if e else {}, c) for e, c in terms])
_binomial_divisor = st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1]),
                              st.integers(1, 4)).map(lambda s: [({}, s[0]), ({"q": s[2]}, s[1])])
_constant_divisor = st.sampled_from([1, -1, 2, 3, -6]).map(lambda c: [({}, c)])
_divisor = st.one_of(_q_divisor, _binomial_divisor, _constant_divisor)
# dense (t, q) rectangles, whose boxes pass, and sparse terms in t, q and x1
_tqx_dividend = st.one_of(_rectangle(), st.lists(st.tuples(
    st.dictionaries(st.sampled_from(["t", "q", "x1"]), st.integers(1, 4), max_size=3),
    st.integers(-5, 5)), max_size=6))


@settings(max_examples=80)
@given(_tqx_dividend, _divisor)
def test_row_division_of_multiples_matches_reference(a, d):
    (pa, ra), (pd, rd) = pair(a), pair(d)
    if pd.is_zero:
        return
    got = exact_div(pa * pd, pd)
    assert_same(got, ra)
    quotient, remainder = (ra * rd).divmod(rd)
    assert not remainder.terms
    assert_same(got, quotient)


@given(st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(st.integers(1, 2**70), min_size=shape[0] * shape[1],
                           max_size=shape[0] * shape[1]).map(lambda sizes: (shape, sizes))),
    st.sampled_from([1, -1]), st.sampled_from([1, -1]))
def test_row_division_by_one_plus_or_minus_q_needs_no_heap(rectangle, c0, s):
    """d = c0 (1 + s q) divides p = a d, however large the coefficients.
    Signs s^b in each row keep p from cancelling."""
    (rows, cols), sizes = rectangle
    data = [({name: e for name, e in (("t", a), ("q", b)) if e}, s**b * size)
            for (a, b), size in zip(((a, b) for a in range(rows) for b in range(cols)), sizes)]
    (pa, ra), pd = pair(data), c0 * (1 + s * var("q"))
    assert_same(exact_div(pa * pd, pd), ra)


@settings(max_examples=80)
@given(_tqx_dividend, _divisor)
# 1 + q + q^2 = q (1 + q) + 1: the last step leaves 1 below the row
@example([({}, 1), ({"q": 1}, 1), ({"q": 2}, 1)], [({}, 1), ({"q": 1}, 1)])
# 1 + q = q^-1 (q + q^2): no step may give the quotient a negative exponent
@example([({}, 1), ({"q": 1}, 1)], [({"q": 1}, 1), ({"q": 2}, 1)])
def test_row_division_refuses_as_the_reference_does(p_data, d):
    (pp, rp), (pd, rd) = pair(p_data), pair(d)
    if pd.is_zero:
        return
    quotient, remainder = rp.divmod(rd)
    if remainder.terms:
        with pytest.raises(ExactDivisionError) as info:
            exact_div(pp, pd)
        assert_same(info.value.remainder, remainder)
        assert str(info.value) == f"division is not exact; remainder {remainder}"
    else:
        assert_same(exact_div(pp, pd), quotient)


def test_long_division_answers_without_the_heap():
    """Coefficients past 64 bits in dividend and quotient, a quotient whose
    coefficients peak far above the dividend's, a closed form's numerator,
    rows with a gap of 10^6 exponents and a constant divisor all divide
    exactly."""
    from arcperm.formulas import f_AB_fdes_fmaj

    t, q = var("t"), var("q")
    big = 2**40
    quotients = [(1 + big * q) * (1 + t), big - t * q - big * t**2 * q**3]
    cases = [(d * quotient, d, quotient) for d, quotient in zip([1 - q, 1 + q**2], quotients)]
    # coefficients 1 and -1, quotient the partial sums 1, 2, ..., 200, ..., 1
    tent = SparsePolynomial.from_terms([({"q": j} if j else {}, 1 if j < 200 else -1)
                                        for j in range(400)])
    peak = poly.q_bracket(200, q) ** 2
    far = q**10**6
    cases += [(tent, 1 - q, peak), (f_AB_fdes_fmaj(10) * (1 - q), 1 - q, f_AB_fdes_fmaj(10)),
              (far * (1 - q), 1 - q, far), ((1 + far) * (1 - q), 1 - q, 1 + far),
              # a constant divisor: each term is a row of one term
              (-6 * quotients[1], const(-6), quotients[1])]
    assert [exact_div(p, d) for p, d, _ in cases] == [want for *_, want in cases]
    assert max(c for _, c in peak.sorted_terms()) == 200


def test_a_gap_in_a_row_costs_no_memory():
    """(1 + q^(10^6))(1 - q) has four terms; laid out densely its row would
    take 10^6 + 2 slots, about 8 MB of list alone."""
    q = var("q")
    sparse = (1 + q**10**6) * (1 - q)
    tracemalloc.start()
    try:
        got = exact_div(sparse, 1 - q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 1 + q**10**6
    assert peak < 2**20


# -- powers and q-brackets of one term -----------------------------------------


@pytest.mark.parametrize("base", ["q", "-q", "-q^2", "t*q", "2", "0"])
def test_one_term_powers_and_brackets_match_reference(base, monkeypatch):
    t, q = var("t"), var("q")
    rt, rq = Ref({frozenset([("t", 1)]): 1}), Ref({frozenset([("q", 1)]): 1})
    minus = Ref({frozenset(): -1})
    p, r = {"q": (q, rq), "-q": (-q, minus * rq), "-q^2": (-(q**2), minus * rq * rq),
            "t*q": (t * q, rt * rq), "2": (const(2), Ref({frozenset(): 2})),
            "0": (const(0), Ref({}))}[base]
    for n in range(51):
        assert_same(p**n, r**n)
        assert_same(poly.q_bracket(n, p), sum((r**i for i in range(n)), Ref({})))
    if base != "0":  # one key times n: no product is taken
        monkeypatch.setattr(poly, "_dict_product", no_box)
        monkeypatch.setattr(poly, "_packed_product", no_box)
        assert p**50 == SparsePolynomial.from_terms([({name: e * 50 for name, e in mono}, c**50)
                                                     for mono, c in p.sorted_terms()])


def test_one_term_powers_past_the_limit():
    t, q = var("t"), var("q")
    assert str(q**LIMIT) == f"q^{LIMIT}"
    assert str((t * q**2) ** (LIMIT // 2)) == f"t^{LIMIT // 2}*q^{LIMIT - 1}"
    for base, k in ((q, LIMIT + 1), (q**2, LIMIT // 2 + 1), (t * q**2, LIMIT // 2 + 1),
                    (-3 * t**LIMIT, 2), (t**2 * q, 2**40)):
        with pytest.raises(OverflowError):
            base**k


# 9-13 of these 15 names make 3 or 4 groups of four in the output decode, the
# last one partial unless there are 12
_GROUPED = ["t", "q", "u", "z"] + [f"x{i}" for i in (0, 1, 2, 7, 12, 40)] + ["y1", "y33"] + FRESH
_group_exps = st.sampled_from([1, 2, LIMIT])
_wide = st.integers(2**64 + 1, 2**80) | st.integers(-(2**80), -(2**64) - 1) | st.sampled_from([1, -1, 3])


def _grouped_terms(names, binomial_exps, free, degrees, coeffs):
    """Term data in the given variables, most of whose group parts repeat:
    the products of (1 + v^e) over names[1:4], times the free monomials in
    the names after them, times the powers ``degrees`` of names[0]; with 1
    among the free monomials and 0 among the degrees there is a constant
    term."""
    dense, binomials = names[0], names[1:4]
    subsets = [{}]
    for name, e in zip(binomials, binomial_exps):
        subsets += [{**mono, name: e} for mono in subsets]
    monomials = [{**a, **b, **({dense: e} if e else {})} for a in subsets for b in free for e in degrees]
    return [(mono, coeffs[i % len(coeffs)]) for i, mono in enumerate(monomials)]


@st.composite
def _grouped(draw):
    """``_grouped_terms`` in 9-13 variables, each of which occurs."""
    names = draw(st.permutations(_GROUPED))[:draw(st.integers(9, 13))]
    rest = names[4:]
    free = draw(st.lists(st.dictionaries(st.sampled_from(rest), _group_exps, min_size=1),
                         max_size=3))
    free = [{}, {name: draw(_group_exps) for name in rest}] + free
    degrees = list(range(draw(st.integers(1, 4)) + 1)) + draw(st.sampled_from([[], [LIMIT]]))
    return _grouped_terms(names, [draw(_group_exps) for _ in range(3)], free, degrees,
                          draw(st.lists(_wide, min_size=1, max_size=6)))


_MIXED = ["x97", "t", "y98", "x99", "q", "x0", "u", "y33", "x40", "z", "x1", "y1", "x12"]


@settings(max_examples=40, deadline=None)  # the reference sums its terms one at a time
@given(_grouped())
@example(_grouped_terms(_MIXED, [1, LIMIT, 2],
                        [{}, {name: (1, 2, LIMIT)[i % 3] for i, name in enumerate(_MIXED[4:])},
                         {"x0": LIMIT, "z": 1}, {"y33": 2, "x12": 1}],
                        [0, 1, 2, LIMIT], [2**64 + 1, -(2**70), 3, -1]))
def test_grouped_decode_matches_reference(data):
    p, ref = pair(data)
    assert 9 <= len(p.variables()) <= 13 and 0 in p._terms
    assert_same(p, ref)
    assert p.to_json() == ref.to_json()
    flat = json.dumps(ref.to_json(), indent=2)
    for depth in range(4):
        assert p.json_text(depth) == flat.replace("\n", "\n" + "  " * depth)
    assert pickle.loads(pickle.dumps(p)) == p
