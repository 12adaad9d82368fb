"""The packed monomial keys: exponents up to 2**31 - 1 are exact, one more
raises OverflowError on every path that builds a key, and the order in which
variables get their fields never shows in the output."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from arcperm import poly
from arcperm.formulas import f_As_des_neg_inv
from arcperm.perms import Permutation
from arcperm.poly import ExactDivisionError, SparsePolynomial, const, exact_div, poly_product, var
from arcperm.walk import WeightSpec, enumerator
from test_poly_oracle import no_box

LIMIT = 2**31 - 1
X, Y, Q = var("x40"), var("y33"), var("q")


def mono(**exps):
    return SparsePolynomial.from_terms([(exps, 1)])


def test_from_terms_at_the_limit():
    assert str(mono(x40=LIMIT, y33=3)) == f"x40^{LIMIT}*y33^3"
    with pytest.raises(OverflowError):
        mono(x40=LIMIT + 1)
    with pytest.raises(ValueError):
        mono(x40=-1)


def test_product_at_the_limit(monkeypatch):
    below = mono(x40=LIMIT - 1, y33=LIMIT, q=5)
    # every field, the neighbours of the full one included, keeps its value
    assert (below * X).to_json() == [
        {"coeff": "1", "monomial": {"q": 5, "x40": LIMIT, "y33": LIMIT}}
    ]
    with pytest.raises(OverflowError):
        below * X * X
    with pytest.raises(OverflowError):
        (1 + Y) * mono(y33=LIMIT)

    # univariate products in one call: the degree, not a box, meets the limit
    monkeypatch.setattr(poly, "_slot_width", no_box)
    half = mono(q=LIMIT // 2)
    top = poly_product([1 + Q, half + 1, half + 1])
    assert top == 1 + Q + 2 * half + 2 * half * Q + half * half + half * half * Q
    assert str(top).endswith(f"q^{LIMIT}")
    for factors in ([1 + Q + Q**2, half + 1, half + Q], [1 + Q] * 2 + [half, half + Q], [Q**2, half, half, 1]):
        with pytest.raises(OverflowError):
            poly_product(factors)
    # 2**32 term pairs: enough for a box past the limit, but the degree
    # check comes first, and the dict product raises at its first step
    dense = SparsePolynomial.from_terms(({"q": e}, 1) for e in range(2**16))
    with pytest.raises(OverflowError):
        poly_product([mono(q=LIMIT), dense, dense])


def test_collision_free_products_at_the_limit():
    """``*`` is the dict product: its first pass meets no two pairs and
    still checks every key."""
    x1, x2, x3 = var("x1"), var("x2"), var("x3")
    with pytest.raises(OverflowError):
        (mono(x1=LIMIT) + x2) * (x1 + x3)
    assert (mono(x1=LIMIT - 1) + x2) * (x1 + x3) == (
        mono(x1=LIMIT) + mono(x1=LIMIT - 1, x3=1) + x1 * x2 + x2 * x3)


def test_products_at_half_the_limit():
    """A product with more keys than its operands together reads the
    operands' keys, not its own, when they show every exponent below 2^30, so
    that no two sum past the limit: two exponents of 2^30 still raise, in
    either pass."""
    half, x2, x3, x4, x5 = 2**30, var("x2"), var("x3"), var("x4"), var("x5")
    below, at = mono(x1=half - 1), mono(x1=half)
    assert below * at == mono(x1=LIMIT)
    with pytest.raises(OverflowError):
        at * at
    # a key per pair, one pass
    assert (below + x2 + x3) * (below + x4 + x5) == (
        mono(x1=LIMIT - 1) + below * (x2 + x3 + x4 + x5) + (x2 + x3) * (x4 + x5))
    with pytest.raises(OverflowError):
        (at + x2 + x3) * (below + x4 + x5) * var("x1")
    with pytest.raises(OverflowError):
        (at + x2 + x3) * (at + x4 + x5)
    # pairs that meet: the second pass
    assert (below + x2 + x3 + x4) ** 2 == sum(
        [p * q for p in (below, x2, x3, x4) for q in (below, x2, x3, x4)], const(0))
    with pytest.raises(OverflowError):
        (at + x2 + x3 + x4) ** 2


def test_power_at_the_limit():
    assert X**LIMIT == mono(x40=LIMIT)
    assert (X * Q**2) ** (LIMIT // 2) == mono(x40=LIMIT // 2, q=LIMIT - 1)
    with pytest.raises(OverflowError):
        X ** (LIMIT + 1)
    with pytest.raises(OverflowError):
        (Q * X**2) ** (LIMIT // 2 + 1)


def test_substitute_at_the_limit():
    assert mono(x40=LIMIT).substitute({"x40": Y}) == mono(y33=LIMIT)
    assert (X * mono(y33=LIMIT - 1)).substitute({"x40": Y}) == mono(y33=LIMIT)
    assert mono(x40=LIMIT, y33=2).substitute({"y33": -1}) == mono(x40=LIMIT)
    with pytest.raises(OverflowError):
        (X * mono(y33=LIMIT)).substitute({"x40": Y})
    with pytest.raises(OverflowError):
        mono(x40=LIMIT).substitute({"x40": Y**2})


def test_exact_div_at_the_limit():
    """Divisors in x40 and in y33 divide a dividend at exponent LIMIT in
    both fields.  No step writes above the dividend's exponents, so none
    overflows, and the remainder is read off at the limit too."""
    top = mono(x40=LIMIT, y33=LIMIT)
    assert exact_div(top - mono(x40=LIMIT - 1, y33=LIMIT), X - 1) == mono(x40=LIMIT - 1, y33=LIMIT)
    assert exact_div(top + mono(x40=LIMIT, y33=LIMIT - 1), 1 + Y) == mono(x40=LIMIT, y33=LIMIT - 1)
    # x40^LIMIT y33^LIMIT = y33^LIMIT (x40^LIMIT - x40) + x40 y33^LIMIT
    with pytest.raises(ExactDivisionError) as info:
        exact_div(top, X**LIMIT - X)
    assert str(info.value.remainder) == f"x40*y33^{LIMIT}"
    # and = x40^LIMIT (y33^LIMIT + 1) - x40^LIMIT
    with pytest.raises(ExactDivisionError) as info:
        exact_div(top, Y**LIMIT + 1)
    assert str(info.value.remainder) == f"-x40^{LIMIT}"


def _with_maj(n: int, maj: int) -> Permutation:
    """A permutation of n whose descent set sums to maj: reverse each run
    of a chosen descent set, picked greedily from the top position."""
    descents = set()
    for i in range(n - 1, 0, -1):
        if i <= maj:
            descents.add(i)
            maj -= i
    assert maj == 0
    word, run = [], []
    for v in range(1, n + 1):
        run.append(v)
        if v not in descents:
            word += reversed(run)
            run = []
    return Permutation(word)


def test_enumerator_at_the_limit():
    n = 65537  # n(n - 1)/2 passes 2**31
    spec = WeightSpec(q_stat="maj")
    assert enumerator([_with_maj(n, LIMIT)], spec) == mono(q=LIMIT)
    assert enumerator([_with_maj(n, 7)], spec) == mono(q=7)
    with pytest.raises(OverflowError):
        enumerator([_with_maj(n, LIMIT + 1)], spec)


_RENDER = """
import contextlib, io, json, pickle, sys
from arcperm import poly
order = sys.argv[1:]
for name in order:
    poly.var(name)
assert poly._NAMES == order, poly._NAMES
from arcperm import cli
from arcperm.formulas import REGISTRY, f_As_des_neg_inv, verify_formula
out = {"pickle": pickle.dumps(f_As_des_neg_inv(4)).hex()}
for name in REGISTRY:
    for row in verify_formula(name, range(1, 7)):
        sides = (row.lhs, row.rhs, row.diff)
        out[f"{name} {row.n}"] = [str(p) for p in sides] + [json.dumps(row.to_json())]
for formula in ("all", "negative-control"):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli.main(["verify", "--formula", formula, "--n-max", "6", "--format", "json"])
    out[f"cli {formula}"] = stdout.getvalue()
print(json.dumps(out))
"""


def _render(*order):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", _RENDER, *order], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_field_order_never_reaches_the_output():
    default = _render()
    reversed_first_use = _render("y5", "x3", "q", "t")
    assert len(default) > 100
    assert len(default["cli all"]) > 350_000  # the CLI's JSON bytes, every identity to n = 6
    assert reversed_first_use == default
    # a pickle carries exponents, not keys, so it loads right in any process
    assert pickle.loads(bytes.fromhex(reversed_first_use["pickle"])) == f_As_des_neg_inv(4)
