"""CLI output frozen byte for byte: exit code, stdout and stderr of every
subcommand in every --format, against the recorded tests/golden/cli.json.
One case is too large to record (1.81 MB): ``verify --formula all --n-max 8
--format json`` is checked against ``json.dumps`` of the rows' ``to_json``.

The schema tests in test_cli.py say what the output means; this file says
that a refactor changed none of it, on stdout and through --out.  Re-record only for an intended output
change, with

    PYTHONPATH=src python tests/test_cli_golden.py

and replay the fixture and the json.dumps case without pytest (on any
supported Python) with

    PYTHONPATH=src python tests/test_cli_golden.py --check

which lists each case that differs and exits 1 if any does.
"""

import contextlib
import functools
import io
import json
import sys
import tempfile
from pathlib import Path

from arcperm import formulas
from arcperm.cli import VERIFY_LIMIT, main

FIXTURE = Path(__file__).parent / "golden" / "cli.json"
FORMATS = ("lines", "csv", "json")
SETS = ("arc", "left-unimodal", "signed-arc", "b-arc", "sym", "hyp")
STATS = ("des", "maj", "inv", "fmaj", "fdes", "neg")
TABLE_SAMPLE = {("des", "arc"), ("inv", "b-arc"), ("fmaj", "hyp"), ("fdes", "sym")}
MEMBERSHIP = {
    "arc": ("12543", "2413"),
    "left-unimodal": ("3214", "2413"),
    "signed-arc": ("[2,-1,3]", "[-2,1,3]"),
    "b-arc": ("[-2,3,-1]", "[5,2,-1,4,3]"),
}


def _cases():
    for fmt in FORMATS:
        for s in SETS:
            yield ["enumerate", "--set", s, "--n", "3", "--format", fmt]
        for perm in ("231", "[3,1,4,2]"):
            yield ["stats", "--perm", perm, "--group", "A", "--format", fmt]
        for perm in ("[2,-1,3]", "[-3,-2,4,1]", "[1,2,3]", "[-1]"):
            yield ["stats", "--perm", perm, "--format", fmt]
        for s, perms in MEMBERSHIP.items():
            for perm in perms:
                yield ["check", "--perm", perm, "--set", s, "--format", fmt]
        for perm in ("231", "3142", "[4,3,2,1]"):
            yield ["decompose", "--group", "A", "--perm", perm, "--format", fmt]
        for perm in ("[-1]", "[2,-1,3]", "[-3,-2,4,1]"):
            yield ["decompose", "--group", "B", "--perm", perm, "--format", fmt]
        yield ["verify", "--formula", "all", "--n-max", "1" if fmt == "json" else "2",
               "--format", fmt]
        if fmt == "json":
            # EQUAL rows, which write their one polynomial once
            yield ["verify", "--formula", "all", "--n-max", "4", "--format", fmt]
        for formula in ("f_AB_fdes_fmaj", "negative-control"):
            yield ["verify", "--formula", formula, "--n-max", "3", "--format", fmt]
        # every stat on every set in one format, a sample in the others; the
        # flag statistics and neg are usage errors on the unsigned sets
        for s in SETS:
            for stat in STATS:
                if fmt == "lines" or (stat, s) in TABLE_SAMPLE:
                    yield ["table", "--stat", stat, "--set", s, "--n", "3", "--format", fmt]
        # errors: parse, validation, usage and guard
        yield ["stats", "--perm", "[2,2]", "--format", fmt]
        yield ["stats", "--perm", "[2,2]", "--group", "A", "--format", fmt]
        yield ["stats", "--perm", "[-1,2]", "--group", "A", "--format", fmt]
        yield ["stats", "--perm", "[1,2a]", "--format", fmt]
        yield ["check", "--perm", "[3,1]", "--set", "arc", "--format", fmt]
        yield ["decompose", "--group", "A", "--perm", "[0,1]", "--format", fmt]
        yield ["decompose", "--group", "B", "--perm", "[1,-1]", "--format", fmt]
        yield ["verify", "--formula", "nosuch", "--format", fmt]
        yield ["verify", "--formula", "all", "--n-max", "0", "--format", fmt]
        yield ["verify", "--formula", "all", "--n-max", str(VERIFY_LIMIT + 1), "--format", fmt]
        yield ["enumerate", "--set", "arc", "--n", "13", "--format", fmt]
        yield ["enumerate", "--set", "sym", "--n", "0", "--format", fmt]


CASES = list(_cases())


def _key(argv):
    return " ".join(argv)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def _golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def pytest_generate_tests(metafunc):
    # parametrized here rather than by decorator, so that the module imports
    # without pytest for the --check replay
    if "argv" in metafunc.fixturenames:
        metafunc.parametrize("argv", CASES, ids=_key)


def test_fixture_covers_exactly_the_cases():
    assert sorted(_golden()) == sorted(_key(argv) for argv in CASES)


def test_cli_bytes(argv, tmp_path):
    want = _golden()[_key(argv)]
    assert _run(argv) == want
    if want["stdout"]:
        # --out writes the same bytes to the file and nothing to stdout
        out = tmp_path / "out.txt"
        assert _run([*argv, "--out", str(out)]) == {**want, "stdout": ""}
        assert out.read_text(encoding="utf-8") == want["stdout"]


VERIFY_JSON = ["verify", "--formula", "all", "--n-max", "8", "--format", "json"]


def _verify_json_differs(out: Path) -> bool:
    """Whether VERIFY_JSON, written to ``out``, differs from json.dumps."""
    rows = formulas.verify_many(formulas.formula_names(), range(1, 9))
    want = json.dumps([r.to_json() for r in rows], indent=2) + "\n"
    if _run([*VERIFY_JSON, "--out", str(out)]) != {"code": 0, "stdout": "", "stderr": ""}:
        return True
    return out.read_text(encoding="utf-8") != want


def test_verify_json_matches_json_dumps(tmp_path):
    assert not _verify_json_differs(tmp_path / "verify.json")


def _check() -> int:
    """Replay every case as test_cli_bytes does; 1 if any case differs."""
    golden = _golden()
    keys = {_key(argv) for argv in CASES}
    bad = [f"{key}: {'missing from' if key in keys else 'not a case of'} the fixture"
           for key in sorted(keys ^ golden.keys())]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.txt"
        for argv in CASES:
            want = golden.get(_key(argv))
            if want is None:
                continue
            if _run(argv) != want:
                bad.append(f"{_key(argv)}: stdout, stderr or exit code differs")
            elif want["stdout"] and (_run([*argv, "--out", str(out)]) != {**want, "stdout": ""}
                                     or out.read_text(encoding="utf-8") != want["stdout"]):
                bad.append(f"{_key(argv)}: --out differs")
        if _verify_json_differs(out):
            bad.append(f"{_key(VERIFY_JSON)}: differs from the json.dumps reference")
    for line in bad:
        print(line)
    print(f"replayed {len(CASES) + 1} cases on Python {sys.version.split()[0]}: "
          f"{len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        raise SystemExit(_check())
    if sys.argv[1:]:
        raise SystemExit(f"usage: {sys.argv[0]} [--check]")
    FIXTURE.parent.mkdir(exist_ok=True)
    record = {_key(argv): _run(argv) for argv in CASES}
    FIXTURE.write_text(json.dumps(record, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(record)} cases, {FIXTURE.stat().st_size} bytes")
