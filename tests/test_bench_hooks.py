"""The benchmark's traced runs wrap the program's layer calls by name
(``bench/spans.py``).  Entering and leaving the tracer here makes a rename of
any traced name fail at once, instead of only in a traced benchmark run."""

from pathlib import Path

import pytest

from arcperm import formulas

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    return spans


def test_the_tracer_wraps_every_traced_name_and_restores_it(spans):
    targets = [(owner, attr, getattr(owner, attr))
               for owner, attr, _, _ in spans._attribute_targets()]
    tables = [(table, dict(table)) for table in (formulas._FAMILIES, formulas.REGISTRY)]
    assert targets and all(table for _, table in tables)
    with spans.Tracer().installed():
        assert all(getattr(owner, attr) is not original for owner, attr, original in targets)
        for table, before in tables:
            assert all(table[key] is not value for key, value in before.items())
    assert all(getattr(owner, attr) is original for owner, attr, original in targets)
    for table, before in tables:
        assert table == before and all(table[key] is value for key, value in before.items())
