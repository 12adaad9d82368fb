"""The mutant ledger (tests/mutants.py) still applies to this tree.

Replaying it runs pytest once per mutant, so it stays out of tier-1; this
checks, without starting a process, that every entry could be replayed: its
old text occurs exactly once in its file and its test files exist.  An edit
that removes or rewrites the code a mutant targets fails here at once.
"""

import mutants


def test_every_mutant_applies_to_the_tree():
    names = [m.name for m in mutants.LEDGER]
    assert len(set(names)) == len(names)
    stale = []
    for m in mutants.LEDGER:
        count = (mutants.ROOT / m.path).read_text().count(m.old)
        missing = [t for t in m.tests if not (mutants.ROOT / t).is_file()]
        if count != 1 or missing or m.old == m.new or not m.tests:
            stale.append((m.name, count, missing))
        if m.expected == mutants.SURVIVES and not m.reason:
            stale.append((m.name, "a survivor without its reason"))
    assert not stale
