"""Polynomial ring arithmetic, substitution, exact division, enumerators."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcperm import poly
from arcperm.arcsets import generate_arc, generate_b_arc
from arcperm.perms import Character
from arcperm.poly import (
    ExactDivisionError,
    SparsePolynomial,
    const,
    exact_div,
    poly_product,
    q_bracket,
    var,
)
from arcperm.walk import WeightSpec, enumerator

T = var("t")
Q = var("q")
X1 = var("x1")
X2 = var("x2")


def test_basic_arithmetic():
    assert (1 + Q) * (1 - Q) == 1 - Q**2
    p = 3 * T**2 - Q
    assert p + const(0) == p
    assert (1 + T * Q) ** 2 == 1 + 2 * T * Q + T**2 * Q**2
    assert p - p == const(0)
    assert -(-p) == p


def test_units_multiply():
    p, minus_p = 3 * T**2 - Q, Q - 3 * T**2
    assert 1 * p == p * 1 == p * const(1) == const(1) * p == p
    assert -1 * p == p * -1 == const(-1) * p == minus_p
    assert 1 * const(1) == -1 * const(-1) == 1 and 1 * const(0) == 0


def test_layout_reads_fields_in_the_variable_order():
    import arcperm.poly as poly

    # first used against the variable order (no other test names them), so
    # their fields are assigned in the reverse of it
    names = ["y1001", "y1000", "x1001", "x1000", "u"]
    p = sum(var(name) for name in names) * (1 + T)
    assert poly._SHIFTS["y1001"] < poly._SHIFTS["y1000"] < poly._SHIFTS["x1000"]
    want = ["t", "u", "x1000", "x1001", "y1000", "y1001"]
    got_names, shifts = poly._layout([p])
    assert got_names == want and shifts == [poly._SHIFTS[name] for name in want]
    assert poly._layout([var("x1001"), T, const(7)]) == (["t", "x1001"],
                                                        [poly._SHIFTS["t"], poly._SHIFTS["x1001"]])
    assert poly._layout([const(7)]) == poly._layout([]) == ([], [])
    assert p.variables() == set(want)


def test_zero_and_equality():
    assert const(0).is_zero
    assert not (1 + Q).is_zero
    assert const(5) == 5
    assert hash(1 + Q) == hash(Q + 1)


def test_variable_alphabet():
    for name in ("t", "q", "u", "y", "z", "x0", "x15", "y3"):
        var(name)
    for name in ("w", "y0", "x", "x01", "qq", "Y1"):
        with pytest.raises(ValueError):
            var(name)


def test_substitute():
    assert (X1 + X2).substitute({"x1": T * Q, "x2": T * Q**2}) == T * Q + T * Q**2
    assert (1 + T * X1).substitute({"t": -1}) == 1 - X1
    assert (var("x0") * Q).substitute({"x0": 1}) == Q
    assert (T * Q).substitute({}, default=1) == const(1)
    assert (T + Q).substitute({"t": Q}) == 2 * Q
    # a coefficient other than 1 multiplies an int image and a polynomial one
    assert (2 * X1 - 3 * T * Q).substitute({"x1": T * Q, "t": -1}) == 2 * T * Q + 3 * Q


def test_q_bracket():
    assert q_bracket(3, Q) == 1 + Q + Q**2
    assert q_bracket(4, -Q) == 1 - Q + Q**2 - Q**3
    assert q_bracket(0, Q) == const(0)
    assert q_bracket(2, -(Q**2)) == 1 - Q**2
    with pytest.raises(ValueError):
        q_bracket(-1, Q)


def test_a_bracket_is_the_sum_of_its_powers():
    """A base of one term c·m is summed at the multiples of its key, c^k at
    m·k, a constant base merging its powers into one coefficient; a base of
    more terms is multiplied up power by power."""
    rng = random.Random(1402)
    bases = [Q, -Q, 2 * T * Q**3, -(Q**2), const(-1), const(0), const(1), const(2),
             1 + Q, T - 2 * Q**2, X1 + X2 + 3]
    for _ in range(12):
        exps = {name: rng.randint(0, 3) for name in ("t", "q", "x2", "y1")}
        coeff = rng.choice([-5, -2, -1, 1, 3, 2**40 + 1])
        bases.append(SparsePolynomial.from_terms([(exps, coeff)]))
    for base in bases:
        for n in range(13):
            assert q_bracket(n, base) == sum([base**k for k in range(n)], const(0)), (base, n)
    for n in range(13):
        assert q_bracket(n, -1) == n % 2  # zero for even n


def test_a_bracket_never_takes_the_power_it_does_not_sum():
    """The n-term bracket sums base^0, ..., base^(n-1): an exponent of base^n
    past the limit is no error, one of base^(n-1) still is."""
    limit = 2**31 - 1
    top = Q**limit
    assert str(q_bracket(2, top)) == f"1 + q^{limit}"
    assert q_bracket(2, 1 + top) == 2 + top
    for base in (Q ** 2**30, 1 + Q ** 2**30, T * Q ** 2**30):
        with pytest.raises(OverflowError):
            q_bracket(3, base)


def test_rows_do_not_depend_on_the_dict_order():
    """``poly._rows`` groups the terms in dict order and sorts each row
    alone: a polynomial whose dict is shuffled has the rows of its sorted
    copy, each lowest first."""
    rng = random.Random(35)
    t, q = poly._SHIFTS["t"], poly._SHIFTS["q"]
    cases = [(poly_product([3 - T**2 * Q**5, *(1 + T * Q**i for i in range(1, 9))]), t, q),
             (poly_product([1 - Q ** (2 * i - 1) for i in range(1, 9)]), None, q)]
    for p, outer, inner in cases:
        items = list(p._terms.items())
        rng.shuffle(items)
        rows = poly._rows(SparsePolynomial(dict(items)), outer, inner)
        assert rows == poly._rows(SparsePolynomial(dict(sorted(items))), outer, inner)
        assert all(row == sorted(row) for row in rows.values())
        assert sum(map(len, rows.values())) == len(items) > 50


def test_exact_div():
    assert exact_div(1 - Q**3, 1 - Q) == 1 + Q + Q**2
    assert exact_div(const(0), 1 - Q) == const(0)
    assert exact_div(1 - Q**2, 1 + Q) == 1 - Q
    mixed = (1 + T * Q) * (1 - Q)
    assert exact_div(mixed, 1 - Q) == 1 + T * Q


def test_exact_div_failure_reports_remainder():
    with pytest.raises(ExactDivisionError) as info:
        exact_div(Q, 1 - Q)
    assert not info.value.remainder.is_zero
    with pytest.raises(ZeroDivisionError):
        exact_div(Q, const(0))


def test_exact_div_coerces_int_operands():
    assert exact_div(6, 2) == const(3)
    assert exact_div(6, const(-3)) == const(-2)
    assert exact_div(2 - 2 * Q, 2) == 1 - Q
    with pytest.raises(ExactDivisionError):
        exact_div(6, 4)


def test_exact_div_refuses_a_divisor_in_two_variables():
    for d in (1 + T * Q, T * Q, X1 + var("y2")):
        with pytest.raises(ValueError, match="more than one variable"):
            exact_div(d * Q, d)


def test_exact_div_names_a_bad_operand():
    with pytest.raises(TypeError, match="the divisor .* not str"):
        exact_div(Q, "x")
    with pytest.raises(TypeError, match="the dividend .* not float"):
        exact_div(1.5, Q)


def test_q_bracket_names_a_bad_base():
    for n in (3, 0):
        with pytest.raises(TypeError, match="the bracket base .* not str"):
            q_bracket(n, "x")


def test_const_takes_int_coefficients_only():
    assert const(True) == const(1)
    assert const(False).is_zero
    with pytest.raises(TypeError, match="coefficient must be an int, not float"):
        const(2.5)


def test_from_terms_takes_int_coefficients_only():
    assert SparsePolynomial.from_terms([({"t": 1}, True)]) == T
    with pytest.raises(TypeError, match="coefficient must be an int, not float"):
        SparsePolynomial.from_terms([({"t": 1}, 1.5)])


def test_a_bool_size_power_or_exponent_is_refused():
    """A bool is no count, though a bool coefficient reads as 0 or 1."""
    with pytest.raises(ValueError, match="bracket size True"):
        q_bracket(True, Q)
    with pytest.raises(ValueError, match="exponent True"):
        Q**True
    for exp in (True, False):
        with pytest.raises(ValueError, match=f"exponent {exp} of q"):
            SparsePolynomial.from_terms([({"q": exp}, 1)])
    assert q_bracket(1, Q) == 1 and Q**1 == Q


def test_a_bool_coefficient_is_written_as_an_int():
    assert const(True).to_json() == [{"coeff": "1", "monomial": {}}]


def test_poly_product_refuses_float_factors():
    with pytest.raises(TypeError, match="coefficient must be an int, not float"):
        poly_product([const(2.5), 1 + Q])
    with pytest.raises(TypeError, match="a factor .* not float"):
        poly_product([2.5, 1 + Q])


def test_printing_is_graded_and_stable():
    poly = q_bracket(4, Q) * (1 + Q)
    assert str(poly) == "1 + 2*q + 2*q^2 + 2*q^3 + q^4"
    assert str(1 - Q**4) == "1 - q^4"
    assert str(const(0)) == "0"
    assert str(-T) == "-t"
    assert str(2 * T * X1 - 3) == "-3 + 2*t*x1"


def test_json_round_trip():
    poly = (1 + T * Q) ** 2 - 5 * var("y1")
    data = poly.to_json()
    assert json.dumps(data)  # serializable
    assert SparsePolynomial.from_json(data) == poly
    assert data[0] == {"coeff": "1", "monomial": {}}


# -- randomized ring laws -------------------------------------------------------

_vars = st.sampled_from(["t", "q", "x1", "y1"])
_monomials = st.dictionaries(_vars, st.integers(min_value=1, max_value=3), max_size=3)
_polys = st.builds(
    SparsePolynomial.from_terms,
    st.lists(
        st.tuples(_monomials, st.integers(min_value=-5, max_value=5)), max_size=4
    ),
)


@given(_polys, _polys, _polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(_polys, _polys)
def test_substitute_is_a_homomorphism(a, b):
    bindings = {"t": 1 - Q, "x1": Q**2}
    assert (a * b).substitute(bindings) == a.substitute(bindings) * b.substitute(bindings)
    assert (a + b).substitute(bindings) == a.substitute(bindings) + b.substitute(bindings)


# exact_div takes a divisor in one variable, whose field lies below, between
# or above those of the dividend's other variables
_divisors = st.builds(
    lambda name, terms: SparsePolynomial.from_terms([({name: e} if e else {}, c) for e, c in terms]),
    st.sampled_from(["t", "q", "x1", "x40"]),
    st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                       st.integers(min_value=-5, max_value=5)), max_size=4),
)


@settings(max_examples=60)
@given(_polys, _divisors)
def test_exact_div_inverts_multiplication(p, d):
    if d.is_zero:
        return
    assert exact_div(p * d, d) == p


# -- statistic-weighted enumerators -----------------------------------------------


def test_enumerator_examples():
    assert enumerator(generate_arc(2), WeightSpec(descent_vars=True)) == 1 + X1
    assert enumerator(generate_arc(3), WeightSpec(t_stat="des")) == 1 + 4 * T + T**2
    assert enumerator([], WeightSpec(q_stat="maj")) == const(0)


def test_enumerator_at_all_ones_counts_the_set():
    sets = [generate_arc(4), generate_b_arc(3)]
    specs = [
        WeightSpec(descent_vars=True),
        WeightSpec(t_stat="des", q_stat="maj"),
    ]
    for family in sets:
        for spec in specs:
            poly = enumerator(family, spec)
            assert poly.substitute({}, default=1).constant_value() == len(family)


def test_enumerator_character_and_flags():
    poly = enumerator(generate_b_arc(1), WeightSpec(q_stat="fmaj", character=Character.SIGN))
    assert poly == 1 - Q
    with pytest.raises(ValueError):
        enumerator(generate_arc(2), WeightSpec(q_stat="fmaj"))


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec(t_stat="neg")
    with pytest.raises(ValueError):
        WeightSpec(q_stat="des")


def test_weight_spec_checks_its_character():
    assert WeightSpec(character=Character.SIGN).character is Character.SIGN
    with pytest.raises(ValueError, match="unknown character 'sign'"):
        WeightSpec(character="sign")


def test_letter_codec():
    """A polynomial multilinear in x_1, x_2, ... alone encodes to (slot,
    coeff) pairs, bit d - 1 of a slot for x_d, which the keys table decodes;
    anything else is refused."""
    x1, x3 = var("x1"), var("x3")
    p = 2 - x1 + 5 * x1 * x3
    pairs = poly._letter_slots(p)
    assert sorted(pairs) == [(0, 2), (0b001, -1), (0b101, 5)]
    keys = poly._letter_keys(3)
    assert len(keys) == 8 and SparsePolynomial({keys[s]: c for s, c in pairs}) == p
    for refused in (x1**2, 1 + var("x0"), var("t") * x1, 1 + var("y1"), var("q") + x3):
        assert poly._letter_slots(refused) is None, refused
    assert poly._letter_slots(const(0)) == [] and poly._letter_keys(0) == [0]
