"""The mutant ledger (tests/mutants.py) still applies to this tree.

Replaying it runs pytest once per mutant, so it stays out of tier-1; this
checks, without starting a process, that every entry could be replayed: its
old text occurs exactly once in its file, and each of its tests is a file
that exists or a node id (``file::test``) whose file defines that test.  An
edit that removes or rewrites the code a mutant targets fails here at once.
"""

import ast

import mutants


def _tests_in(path):
    """The names of the test functions a test file defines at module level."""
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test")}


def _missing(test):
    file, _, name = test.partition("::")
    path = mutants.ROOT / file
    return not path.is_file() or bool(name) and name not in _tests_in(path)


def test_missing_files_and_tests_are_found():
    assert _missing("tests/test_no_such_file.py")
    assert _missing("tests/test_poly_oracle.py::test_no_such_test")
    assert _missing("tests/test_poly_oracle.py::no_box")  # a helper, not a test
    assert not _missing("tests/test_poly_oracle.py::test_a_zero_factor_builds_no_box")


def test_every_mutant_applies_to_the_tree():
    names = [m.name for m in mutants.LEDGER]
    assert len(set(names)) == len(names)
    stale = []
    for m in mutants.LEDGER:
        count = (mutants.ROOT / m.path).read_text().count(m.old)
        missing = [t for t in m.tests if _missing(t)]
        if count != 1 or missing or m.old == m.new or not m.tests:
            stale.append((m.name, count, missing))
        if m.expected == mutants.SURVIVES and not m.reason:
            stale.append((m.name, "a survivor without its reason"))
    assert not stale
