"""The CLI's JSON writer against ``json.dumps(obj, indent=2, default=...)``:
the same text for every payload it accepts, and TypeError for the rest.
Polynomials are written from their own text in runs of terms
(``SparsePolynomial.json_chunks``, joined by ``json_text``), compared here
with ``json.dumps`` of their ``to_json`` at every depth."""

import json
from collections.abc import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcperm import cli, formulas
from arcperm.poly import SparsePolynomial, const


class Box:
    """An object that converts itself, as VerifyRow and SparsePolynomial do."""

    def __init__(self, value):
        self.value = value

    def to_json(self):
        return self.value


def reference(obj) -> str:
    return json.dumps(obj, indent=2, default=lambda o: o.to_json())


TEXT = st.text() | st.lists(
    st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "é", " ",
                     "\U0001f600", "a"])
).map("".join)
SCALARS = TEXT | st.integers() | st.integers(max_value=-(2**64)) | st.booleans() | st.none()


def containers(inner):
    return (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(TEXT, inner, max_size=4))


def payloads(leaves):
    return st.recursive(leaves, lambda inner: containers(inner) | st.builds(Box, inner),
                        max_leaves=30)


@settings(max_examples=300)
@given(payloads(SCALARS))
def test_writer_matches_json_dumps(payload):
    assert cli._dumps(payload) == reference(payload)


@settings(max_examples=150)
@given(st.data())
def test_shared_containers_at_any_depth(data):
    # one container object reached several times, at one depth and at
    # several: each time at its own indent
    shared = data.draw(containers(payloads(SCALARS)))
    payload = data.draw(payloads(SCALARS | st.just(shared) | st.builds(Box, st.just(shared))))
    pair = {"lhs": shared, "rhs": shared, "deeper": [shared, {"again": shared}]}
    for obj in (payload, pair, [pair, pair]):
        assert cli._dumps(obj) == reference(obj)


@settings(max_examples=100)
@given(st.lists(payloads(SCALARS), max_size=4))
def test_an_iterator_is_written_as_a_list(items):
    # verify's rows reach the writer as an iterator and are written as they come
    assert cli._dumps(iter(items)) == reference(items)
    assert cli._dumps({"rows": map(Box, items)}) == reference({"rows": items})


def test_bools_are_not_ints():
    obj = [True, 1, False, 0, None]
    assert cli._dumps(obj) == reference(obj) == "[\n  true,\n  1,\n  false,\n  0,\n  null\n]"


LIMIT = 2**31 - 1  # the largest exponent; a 0 sorts as 2**31
# x2 sorts before x10, which string order would swap; the base variables sort
# t < q < u < y < z, before every indexed one
NAMES = st.sampled_from(["t", "q", "u", "y", "z", "x0", "x2", "x10", "x40", "y1", "y10"])
EXPONENTS = st.integers(1, 3) | st.integers(LIMIT - 2, LIMIT)
COEFFS = (st.integers(-5, 5) | st.integers(2**64, 2**200)
          | st.integers(-(2**200), -(2**64)))
POLYNOMIALS = st.lists(st.tuples(st.dictionaries(NAMES, EXPONENTS, max_size=4), COEFFS),
                       max_size=8).map(SparsePolynomial.from_terms)


@settings(max_examples=300)
@example(SparsePolynomial())
@example(const(-7))
@example(const(2**70))
@example(SparsePolynomial.from_terms([({"x2": 1}, 1), ({"x10": 1}, 2), ({"y": 1}, 3),
                                      ({"t": 1}, -4), ({"x2": LIMIT, "y1": LIMIT}, 5)]))
@given(POLYNOMIALS)
def test_polynomial_text_matches_json_dumps(poly):
    flat = json.dumps(poly.to_json(), indent=2)
    nested = poly
    for depth in range(4):
        assert poly.json_text(depth) == flat.replace("\n", "\n" + "  " * depth)
        assert cli._dumps(nested) == reference(nested)
        nested = [nested]


def test_a_polynomial_is_written_in_runs_of_terms():
    # 2,049 terms: two full runs of 1,024, one of a single term, and the close
    poly = SparsePolynomial.from_terms(({"t": i % 64, "q": i // 64}, i - 1000) for i in range(2050))
    assert len(poly.to_json()) == 2049
    assert len(list(poly.json_chunks())) == 4
    flat = json.dumps(poly.to_json(), indent=2)
    for depth in range(3):
        assert poly.json_text(depth) == flat.replace("\n", "\n" + "  " * depth)
    assert cli._dumps({"rows": [poly]}) == reference({"rows": [poly]})


@settings(max_examples=100)
@given(POLYNOMIALS, POLYNOMIALS)
def test_polynomials_met_twice(a, b):
    # one polynomial at one depth and at several, and an equal but distinct
    # one, each written at its own indent
    twin = SparsePolynomial.from_json(a.to_json())
    payload = {"lhs": a, "rhs": a, "twin": twin, "deeper": [a, {"again": a, "b": b}], "b": b}
    assert cli._dumps(payload) == reference(payload)


def test_verify_rows_n_max_8():
    rows = list(formulas.verify_many(formulas.formula_names(), range(1, 9)))
    assert any(r.status == formulas.EQUAL for r in rows)
    assert cli._dumps(rows) == reference(rows)


SUBCOMMANDS = [
    ["enumerate", "--set", "b-arc", "--n", "3"],
    ["enumerate", "--set", "sym", "--n", "1"],
    ["stats", "--perm", "[2,-1,3]"],
    ["stats", "--perm", "3142", "--group", "A"],
    ["check", "--perm", "2413", "--set", "arc"],
    ["check", "--perm", "[2,-1,3]", "--set", "signed-arc"],
    ["check", "--perm", "3214", "--set", "left-unimodal"],
    ["decompose", "--group", "A", "--perm", "3142"],
    ["decompose", "--group", "B", "--perm", "[-3,-2,4,1]"],
    ["table", "--stat", "inv", "--set", "b-arc", "--n", "3"],
    ["table", "--stat", "des", "--set", "arc", "--n", "4"],
    ["verify", "--formula", "negative-control", "--n-max", "3"],
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=" ".join)
def test_each_subcommand_payload(argv, monkeypatch, capsys):
    seen = []
    render = cli._render

    def capture(args, payload, *rest):
        if isinstance(payload, Iterator):  # verify's rows, written as they come
            payload = list(payload)
        seen.append(payload)
        render(args, payload, *rest)

    monkeypatch.setattr(cli, "_render", capture)
    assert cli.main([*argv, "--format", "json"]) in (0, 1)
    (payload,) = seen
    assert capsys.readouterr().out == cli._dumps(payload) + "\n" == reference(payload) + "\n"


@pytest.mark.parametrize("obj", [
    # floats, which json.dumps would write
    pytest.param(1.5, id="float"),
    pytest.param([0.0], id="float-in-list"),
    pytest.param({"x": float("nan")}, id="nan-in-dict"),
    # non-str keys, which json.dumps would convert
    pytest.param({1: "a"}, id="int-key"),
    pytest.param({True: "a"}, id="bool-key"),
    pytest.param({None: "a"}, id="none-key"),
    pytest.param({"a": {2.5: "b"}}, id="nested-float-key"),
    # values with no to_json
    pytest.param(object(), id="object"),
    pytest.param([b"bytes"], id="bytes"),
    pytest.param({"a": {1, 2}}, id="set"),
    pytest.param(Box(1.5), id="converts-to-float"),
])
def test_unwritable_types_raise(obj):
    with pytest.raises(TypeError):
        cli._dumps(obj)
