"""The CLI's JSON against ``json.dumps(obj, indent=2)``.  Dict payloads are
the stdlib encoder's own chunks; verify's rows go through ``cli._json_rows``,
which writes each polynomial from its own text in runs of terms
(``SparsePolynomial.json_chunks``, joined by ``json_text``), compared here
with ``json.dumps`` of its ``to_json`` at every depth."""

import json
import weakref
from collections.abc import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcperm import cli, formulas
from arcperm.poly import SparsePolynomial, const
from helpers import first_difference


def rows_text(records) -> str:
    return "".join(cli._json_rows(records))


def row(poly) -> dict:
    """A record of the shape ``VerifyRow.record`` gives an EQUAL row."""
    return {"formula": "f", "n": 3, "status": formulas.EQUAL, "polynomial": poly, "note": None}


def reference(records) -> str:
    return json.dumps([{key: value.to_json() if isinstance(value, SparsePolynomial) else value
                        for key, value in record.items()} for record in records], indent=2)


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
    for depth in range(4):
        indented = flat.replace("\n", "\n" + "  " * depth)
        assert first_difference(poly.json_text(depth), indented) is None
    assert rows_text([row(poly)]) == reference([row(poly)])


def test_a_polynomial_is_written_in_runs_of_terms():
    # 2,049 terms: two full runs of 1,024, one of a single term, and the close
    poly = SparsePolynomial.from_terms(({"t": i % 64, "q": i // 64}, i - 1000) for i in range(2050))
    assert len(poly.to_json()) == 2049
    assert len(list(poly.json_chunks())) == 4
    flat = json.dumps(poly.to_json(), indent=2)
    for depth in range(3):
        indented = flat.replace("\n", "\n" + "  " * depth)
        assert first_difference(poly.json_text(depth), indented) is None
    assert rows_text([row(poly)]) == reference([row(poly)])


def test_no_rows_are_an_empty_list():
    assert rows_text(iter([])) == "[]" == json.dumps([], indent=2)


def test_a_record_is_dropped_before_the_next_is_asked_for():
    class Record(dict):  # a dict subclass takes a weak reference
        pass

    def records():
        first = Record(row(const(1)))
        held = weakref.ref(first)
        yield first
        del first
        assert held() is None  # the writer keeps no reference to it
        yield Record(row(const(2)))

    assert rows_text(records()) == reference([row(const(1)), row(const(2))])

def test_first_difference_reports_where_texts_part():
    assert first_difference("same", "same") is None
    assert first_difference("abcdef", "abXdef", context=2) == (6, 6, 2, "abcd", "abXd")
    assert first_difference("abc", "abcd") == (3, 4, 3, "abc", "abcd")
    long = "x" * 100_000
    assert first_difference(long + "a", long + "b")[2] == 100_000


def test_verify_rows_n_max_8():
    rows = list(formulas.verify_many(formulas.formula_names(), range(1, 9)))
    assert {r.status for r in rows} == {formulas.EQUAL, formulas.OUT_OF_STATED_RANGE}
    # a report of the first difference, not pytest's diff of two 1.8 MB texts
    assert first_difference(rows_text(map(formulas.VerifyRow.record, rows)),
                            json.dumps([r.to_json() for r in rows], indent=2)) is None


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
        if isinstance(payload, Iterator):  # verify's records, written as they come
            payload = list(payload)
        seen.append(payload)
        render(args, payload, *rest)

    monkeypatch.setattr(cli, "_render", capture)
    assert cli.main([*argv, "--format", "json"]) in (0, 1)
    (payload,) = seen
    # a dict payload is the stdlib's own text; verify's records are the rows'
    # to_json, as reference converts them
    expected = json.dumps(payload, indent=2) if isinstance(payload, dict) else reference(payload)
    assert capsys.readouterr().out == expected + "\n"
