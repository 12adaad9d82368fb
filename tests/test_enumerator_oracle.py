"""Differential tests: the one-pass enumerator against a naive reference.

The reference builds one exponent map per permutation from the per-element
methods (``inv``, ``des``, ``maj``, ``fdes``, ``fmaj``, ``descent_set``,
``neg_set`` and ``Character.of``) and sums the monomials with ``SparsePolynomial.from_terms``.
"""

import itertools
import json

import pytest

from arcperm.formulas import _FAMILIES, REGISTRY
from arcperm.perms import Character, SignedPermutation
from arcperm.poly import SparsePolynomial, WeightSpec, enumerator
from helpers import hyperoctahedral, symmetric

SPECS = [
    WeightSpec(t, q, descent_vars, neg_vars, chi)
    for t, q, descent_vars, neg_vars, chi in itertools.product(
        (None, "inv", "des", "fdes"),
        (None, "maj", "fmaj"),
        (False, True),
        (False, True),
        (None, *Character),
    )
]


def needs_flags(spec):
    return spec.t_stat == "fdes" or spec.q_stat == "fmaj" or spec.neg_vars


def reference(elements, spec):
    terms = []
    for p in elements:
        if not isinstance(p, SignedPermutation) and needs_flags(spec):
            raise ValueError("flag statistics need signed permutations")
        exponents = {}
        if spec.t_stat is not None:
            exponents["t"] = getattr(p, spec.t_stat)()  # p.inv(), p.des() or p.fdes()
        if spec.q_stat is not None:
            exponents["q"] = getattr(p, spec.q_stat)()  # p.maj() or p.fmaj()
        if spec.descent_vars:
            exponents.update({f"x{i}": 1 for i in p.descent_set()})
        if spec.neg_vars:
            exponents.update({f"y{i}": 1 for i in p.neg_set()})
        terms.append((exponents, 1 if spec.character is None else spec.character.of(p)))
    return SparsePolynomial.from_terms(terms)


def assert_same(got, want):
    assert str(got) == str(want)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_entries_match_the_reference(name):
    entry = REGISTRY[name]
    for n in range(1, 8):
        family = _FAMILIES[entry.family](n)
        assert_same(enumerator(family, entry.weights), reference(family, entry.weights))


def test_every_spec_on_whole_groups():
    s4, b3 = symmetric(4), hyperoctahedral(3)
    for spec in SPECS:
        # a one-shot iterator: the enumerator reads its input once
        assert_same(enumerator(iter(b3), spec), reference(b3, spec))
        if needs_flags(spec):
            with pytest.raises(ValueError, match="signed"):
                enumerator(s4, spec)
        else:
            assert_same(enumerator(iter(s4), spec), reference(s4, spec))


def test_empty_input_is_zero():
    for spec in SPECS:
        assert_same(enumerator([], spec), SparsePolynomial())


def test_cancelled_counts_leave_no_terms():
    # the sign character sums to 0 over a whole group
    assert enumerator(hyperoctahedral(3), WeightSpec(character=Character.SIGN)).is_zero
    assert enumerator(symmetric(4), WeightSpec(character=Character.SIGN_ABS)).is_zero
