"""Every ```python block in the README and docs/DECISIONS.md runs as written,
so the documented snippets follow the code."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)
SNIPPETS = [(f"{name}#{i}", code) for name in ("README.md", "docs/DECISIONS.md")
            for i, code in enumerate(BLOCK.findall((ROOT / name).read_text()), 1)]


def test_both_documents_have_snippets():
    assert {where.split("#")[0] for where, _ in SNIPPETS} == {"README.md", "docs/DECISIONS.md"}


@pytest.mark.parametrize("where, code", SNIPPETS, ids=[where for where, _ in SNIPPETS])
def test_snippet_runs(where, code):
    exec(compile(code, where, "exec"), {"__name__": "snippet"})
