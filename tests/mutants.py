"""Replay the mutant ledger: each mutant is one edit of the source that the
tests named with it must catch, or a known survivor with its reason.

Run from the root of a checkout (stdlib only; pytest must be importable):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant the whole tree is copied to a temporary directory, the old
text is replaced by the new one (it must occur exactly once), and
``python -m pytest -x -q`` runs on the mutant's tests in the copy; a failing
run means caught.  A test is a file, or one test in it as a pytest node id
(``tests/test_x.py::test_name``): naming the test that catches a mutant
spares the replay the slower tests before it in the file.  The whole tree is
copied because pyproject.toml's ``pythonpath = ["src"]`` overrides
PYTHONPATH: a mutated copy of src/ alone would silently not be imported, and
every mutant would survive.  The unmutated copy first runs every named test
once, so that a failure means the mutant.  One line per mutant; the exit status is 1 when an
outcome differs from the ledger's, 2 on a bad argument or entry.

Not part of tier-1: pytest collects only test_*.py files.  Add the mutants
of each change to the ledger instead of reporting them in prose.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # per pytest run
CAUGHT, SURVIVES = "caught", "survives"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the root
    old: str
    new: str
    tests: tuple[str, ...]  # files or pytest node ids, relative to the root
    expected: str = CAUGHT
    reason: str = ""  # why a survivor survives


POLY, WALK, FORMULAS = "src/arcperm/poly.py", "src/arcperm/walk.py", "src/arcperm/formulas.py"
FAMILY_WALK, POLY_ORACLE = "tests/test_family_walk.py", "tests/test_poly_oracle.py"
POLY_TESTS, PACKED = "tests/test_poly.py", "tests/test_poly_packed.py"
PATTERNS, PATTERNS_ORACLE = "src/arcperm/patterns.py", "tests/test_patterns_oracle.py"
GROUPED = f"{POLY_ORACLE}::test_grouped_decode_matches_reference"
PAIRS = f"{POLY_ORACLE}::test_pairs_are_counted_exactly_in_the_given_order"

LEDGER = [
    Mutant("letter-bit-one-too-high", WALK,
           "[1 << d - 1 for d in range(1, n)]", "[1 << d for d in range(1, n)]", (FAMILY_WALK,)),
    Mutant("letter-keys-reversed", WALK,
           "for d in range(1, top_q.bit_length() + 1):",
           "for d in range(top_q.bit_length(), 0, -1):", (FAMILY_WALK,)),
    Mutant("fdes-without-its-position-1-flag", WALK,
           "tf * (neg & (position == 1))", "tf * neg", (FAMILY_WALK,)),
    Mutant("sign-without-its-inv-parity", WALK,
           "Character.SIGN: (1, 1)", "Character.SIGN: (0, 1)", (FAMILY_WALK,)),
    Mutant("restride-drops-the-top-byte", POLY,
           "for b in range(min(size, wide)):", "for b in range(min(size, wide) - 1):", (FAMILY_WALK,)),
    Mutant("slot-width-without-its-spare-bit", POLY,
           "8 * ((paths.bit_length() + 1 + 7) // 8)", "8 * ((paths.bit_length() + 7) // 8)",
           (FAMILY_WALK, POLY_ORACLE)),
    Mutant("sign-abs-as-neg-parity", FORMULAS,
           "Character.SIGN_ABS: (-1, -1)", "Character.SIGN_ABS: (-1, 1)",
           ("tests/test_formulas.py",)),
    Mutant("f-A-des-from-n-2", FORMULAS,
           'Descent-number distribution on arc permutations (literal form, n >= 3)."""\n'
           '    _need(n, 3)',
           'Descent-number distribution on arc permutations (literal form, n >= 3)."""\n'
           '    _need(n, 2)',
           ("tests/test_formulas.py::test_range_errors",)),
    Mutant("first-pass-without-its-length-check", POLY,
           "if len(terms) == len(a._terms) * len(right):", "if True:", (POLY_ORACLE,)),
    Mutant("first-pass-without-its-guard-test", POLY,
           "        if reduce(or_, terms, 0) & _GUARD:", "        if False:",
           (PACKED,)),
    Mutant("sign-des-set-at-t-plus-one", FORMULAS,
           "return _inv_des(n, -1)", "return _inv_des(n, 1)", ("tests/test_formulas.py",)),
    # the walk's box and width, and the one slot decoder
    Mutant("walk-dt-without-its-last-layer", WALK,
           "        top_t += max(map(itemgetter(1), moves))\n",
           "        top_t += max(map(itemgetter(1), moves)) if layer is not layers[-1] else 0\n",
           (FAMILY_WALK,)),
    Mutant("walk-width-from-half-the-size", WALK,
           "elements.size, letters)", "elements.size // 2, letters)", (FAMILY_WALK,)),
    Mutant("walk-without-its-box-limit", WALK,
           "    if not letters and max(top_t, top_q) > _MAX:", "    if False:",
           (f"{FAMILY_WALK}::test_the_box_limit_raises_before_the_walk",)),
    Mutant("walk-dq-one-too-small", WALK,
           "stride, width = top_q + 1, _slot_width(paths)", "stride, width = top_q, _slot_width(paths)",
           (FAMILY_WALK,)),
    Mutant("walk-without-the-character-sign", WALK,
           "               1 - 2 * (si * inv + sn * neg & 1))", "               1)", (FAMILY_WALK,)),
    Mutant("decoder-keys-one-slot-off", POLY,
           "dict(compress(zip(keys, coeffs), coeffs))", "dict(compress(zip(keys[1:], coeffs), coeffs))",
           (FAMILY_WALK,)),
    Mutant("unpack-without-its-half-slot-offset", POLY,
           "data = (packed + _offset(slots, size)).to_bytes(", "data = (packed).to_bytes(", (FAMILY_WALK,)),
    Mutant("struct-code-signed-for-two-bytes", POLY,
           '_DIGITS = {1: "B", 2: "H",', '_DIGITS = {1: "B", 2: "h",', (FAMILY_WALK, POLY_ORACLE)),
    Mutant("layout-unsorted", POLY,
           "    shifts = sorted(_fields(_occurring(polys)), key=lambda shift: _ORDER[shift // _WIDTH])",
           "    shifts = list(_fields(_occurring(polys)))", (POLY_TESTS,)),
    Mutant("product-reads-two-fields", POLY,
           "fields = list(islice(_fields(occurring), 3))", "fields = list(islice(_fields(occurring), 2))",
           (f"{POLY_TESTS}::test_layout_reads_fields_in_the_variable_order",)),
    # the module boundary: the polynomial module imports nothing of the package
    Mutant("poly-imports-the-family", POLY,
           "from typing import Iterable, Iterator, Mapping, Sequence\n",
           "from typing import Iterable, Iterator, Mapping, Sequence\n\nfrom .arcsets import Family\n",
           ("tests/test_modules.py",)),
    # the packed product
    Mutant("box-rule-ge-for-gt", POLY,
           "        if pairs >= box:\n", "        if pairs > box:\n",
           (f"{POLY_ORACLE}::test_sparse_boxes_stay_on_the_dict_product",)),
    Mutant("count-sumset-as-the-next-keys", POLY,
           "support = {a + b for b in f._terms for a in support}", "support = set(f._terms)",
           (PAIRS,)),
    Mutant("count-in-the-packing-order", POLY,
           "if not _touches(factors,", "if not _touches(ordered,", (PAIRS,)),
    Mutant("count-support-never-updated", POLY,
           "support = {a + b for b in f._terms for a in support}",
           "support = support if pairs else set(f._terms)", (PAIRS,)),
    Mutant("count-without-its-early-stop", POLY,
           "        if pairs >= box:\n            return True\n    return False\n",
           "    return pairs >= box\n", (PAIRS,), SURVIVES,
           "the count only grows, so stopping at the box changes speed only"),
    Mutant("l1-product-read-as-a-max", POLY,
           "    bound = prod([sum(map(abs, f._terms.values())) for f in factors])",
           "    bound = max([sum(map(abs, f._terms.values())) for f in factors])", (POLY_ORACLE,)),
    Mutant("product-without-its-degree-check", POLY,
           "    if max(spans[-1]) > _MAX or max([top for _, top in spans[-1].values()]) > _MAX:",
           "    if False:", (PACKED, POLY_ORACLE)),
    Mutant("product-without-its-zero-short-circuit", POLY,
           "    if not bound:\n        return SparsePolynomial()\n", "",
           (f"{POLY_ORACLE}::test_a_zero_factor_builds_no_box",)),
    Mutant("times-without-the-row-low", POLY,
           "            base = low_i - after[k][0]", "            base = -after[k][0]",
           (f"{POLY_ORACLE}::test_a_row_that_cancels_between_nonzero_rows",)),
    Mutant("q-bracket-one-power-long", POLY,
           "    for _ in range(n):\n        for mono, coeff in power._terms.items():",
           "    for _ in range(n + 1):\n        for mono, coeff in power._terms.items():",
           (POLY_TESTS,)),
    # the long division
    Mutant("long-division-without-its-divisibility-check", POLY,
           "                if coeff % lead:\n                    return None\n", "",
           (f"{POLY_TESTS}::test_exact_div_coerces_int_operands",)),
    Mutant("long-division-without-its-below-the-row-check", POLY,
           "        if any(dense[:stop]):\n            return None\n", "",
           (f"{POLY_TESTS}::test_exact_div_failure_reports_remainder",)),
    Mutant("long-division-quotient-one-exponent-high", POLY,
           "terms[rest + (low + i - d_top << inner)] = coeff",
           "terms[rest + (low + i - d_top + 1 << inner)] = coeff", (f"{POLY_TESTS}::test_exact_div",)),
    Mutant("long-division-allows-negative-exponents", POLY,
           "        stop = d_top - min(d_low, low)", "        stop = d_top - d_low",
           (f"{POLY_ORACLE}::test_row_division_refuses_as_the_heap_does",)),
    Mutant("long-division-box-rule-ge-for-gt", POLY,
           "    if sum([top - low + 1 for _, low, top, _ in spans]) > len(p._terms) * len(d._terms):",
           "    if sum([top - low + 1 for _, low, top, _ in spans]) >= len(p._terms) * len(d._terms):",
           (f"{POLY_ORACLE}::test_long_division_answers_without_the_heap",)),
    # the grouped output decode
    Mutant("group-part-without-its-degree", POLY,
           "part = self[mono] = ((sum(exps) << self.degree) + (fields << self.offset),",
           "part = self[mono] = ((fields << self.offset),", (GROUPED,)),
    Mutant("group-reads-a-zero-as-zero", POLY,
           "fields = fields << _WIDTH | (e or _MAX + 1)", "fields = fields << _WIDTH | e", (GROUPED,)),
    Mutant("group-offset-one-field-high", POLY,
           "self.offset = _WIDTH * (k - g - len(shifts))",
           "self.offset = _WIDTH * (k - g - len(shifts) + 1)", (GROUPED,)),
    Mutant("group-cache-keyed-by-the-whole-key", POLY,
           "part, text = group[mono & mask]", "part, text = group[mono]", (GROUPED,), SURVIVES,
           "a group's decode reads only its own fields, so it changes speed only"),
    # the pattern search
    Mutant("pattern-visit-order-reversed", PATTERNS,
           "        for i in range(start, n - todo + 1):",
           "        for i in reversed(range(start, n - todo + 1)):", (PATTERNS_ORACLE,)),
    Mutant("pattern-leaf-step-without-its-sign", PATTERNS,
           "child[2 * (below[j] & inner).bit_count() + positive[j]]",
           "child[2 * (below[j] & inner).bit_count()]", (PATTERNS_ORACLE,)),
    Mutant("pattern-leaf-loop-from-i", PATTERNS,
           "for j in range(i + 1, n):", "for j in range(i, n):", (PATTERNS_ORACLE,)),
    Mutant("pattern-room-bound-widened", PATTERNS,
           "for i in range(start, n - 1):", "for i in range(start, n):", (PATTERNS_ORACLE,),
           SURVIVES, "at i = n - 1 the leaf loop is empty, so it changes speed only"),
]


def _copy(dest: Path) -> Path:
    return Path(shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".out")))


def _pytest(tree: Path, tests) -> tuple[str, float]:
    """The outcome, "passed", "failed" (a test failed), "error" (pytest's
    other exit statuses: a collection or usage error) or "timeout", and the
    seconds taken."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    start = time.perf_counter()
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    outcome = {0: "passed", 1: "failed"}.get(run.returncode, "error")
    return outcome, time.perf_counter() - start


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def main(argv: list[str]) -> int:
    known = {m.name: m for m in LEDGER}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"error: unknown mutant {', '.join(unknown)}; choose from {', '.join(known)}",
              file=sys.stderr)
        return 2
    mutants = [known[name] for name in argv] or LEDGER
    with tempfile.TemporaryDirectory(prefix="arcperm-mutants-") as tmp:
        control = _copy(Path(tmp) / "control")
        tests = sorted({t for m in mutants for t in m.tests})
        outcome, seconds = _pytest(control, tests)
        if outcome != "passed":
            print(f"error: the unmutated tree {outcome} {' '.join(tests)}", file=sys.stderr)
            return 2
        print(f"control  passed {len(tests)} test files and node ids in {seconds:.1f} s")
        differing = 0
        for i, mutant in enumerate(mutants):
            tree = _copy(Path(tmp) / str(i))
            try:
                _apply(tree, mutant)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            outcome, seconds = _pytest(tree, mutant.tests)
            shutil.rmtree(tree)
            got = {"failed": CAUGHT, "passed": SURVIVES}.get(outcome, outcome)
            differing += got != mutant.expected
            mark = "" if got == mutant.expected else f"  EXPECTED {mutant.expected}"
            why = f" ({mutant.reason})" if got == SURVIVES and mutant.reason else ""
            print(f"{got:8} {mutant.name} in {seconds:.1f} s{why}{mark}")
    print(f"{len(mutants) - differing} of {len(mutants)} as recorded")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
