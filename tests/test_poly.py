"""Polynomial ring arithmetic, substitution, exact division, enumerators."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_q_bracket():
    assert q_bracket(3, Q) == 1 + Q + Q**2
    assert q_bracket(4, -Q) == 1 - Q + Q**2 - Q**3
    assert q_bracket(0, Q) == const(0)
    assert q_bracket(2, -(Q**2)) == 1 - Q**2
    with pytest.raises(ValueError):
        q_bracket(-1, Q)


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


@settings(max_examples=60)
@given(_polys, _polys)
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
