"""The CLI's JSON writer against ``json.dumps(obj, indent=2, default=...)``:
the same text for every payload it accepts, and TypeError for the rest."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcperm import cli, formulas


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
    # several: the memo may repeat it only where the indent is the same
    shared = data.draw(containers(payloads(SCALARS)))
    payload = data.draw(payloads(SCALARS | st.just(shared) | st.builds(Box, st.just(shared))))
    pair = {"lhs": shared, "rhs": shared, "deeper": [shared, {"again": shared}]}
    for obj in (payload, pair, [pair, pair]):
        assert cli._dumps(obj) == reference(obj)


def test_bools_are_not_ints():
    obj = [True, 1, False, 0, None]
    assert cli._dumps(obj) == reference(obj) == "[\n  true,\n  1,\n  false,\n  0,\n  null\n]"


def test_verify_rows_n_max_8():
    rows = formulas.verify_many(formulas.formula_names(), range(1, 9))
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
