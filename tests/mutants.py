"""Replay the mutant ledger: each mutant is one edit of the source that the
tests named with it must catch, or a known survivor with its reason.

Run from the root of a checkout (stdlib only; pytest must be importable):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant the whole tree is copied to a temporary directory, the old
text is replaced by the new one (it must occur exactly once), and
``python -m pytest -x -q`` runs on the mutant's tests in the copy; a failing
run means caught.  Each run has a timeout (``TIMEOUT_S``) and a cap on its
address space (``MEMORY_CAP``), so a mutant that runs away ends as an outcome.  A test is a file, or one test in it as a pytest node id
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
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # per pytest run
# the address space of each pytest run and its children, in bytes: a mutant
# whose memory grows without bound then fails with MemoryError and ends as an
# outcome, instead of taking the machine's memory until its timeout
MEMORY_CAP = 4 << 30
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
CANONICAL, CANONICAL_TESTS = "src/arcperm/canonical.py", "tests/test_canonical.py"
ARCSETS, ARCSETS_TESTS = "src/arcperm/arcsets.py", "tests/test_arcsets.py"
CLI, FORMULAS_TESTS = "src/arcperm/cli.py", "tests/test_formulas.py"
ITERATION = f"{FAMILY_WALK}::test_iteration_is_the_generator"
WORDS = "tests/test_enumerator_oracle.py::test_every_spec_on_whole_groups"
SET_DEFINITIONS = f"{ARCSETS_TESTS}::test_predicates_match_the_set_definitions"
DROPPED = "tests/test_cli_json.py::test_a_record_is_dropped_before_the_next_is_asked_for"
PAYLOADS = "tests/test_cli_json.py::test_each_subcommand_payload"
REGISTRY_TABLE = "tests/test_formulas.py::test_registry_is_the_recorded_table"
WRONG_TYPES = ("tests/test_perms.py::"
               "test_a_formula_size_circle_index_or_weight_flag_that_reads_as_a_number_is_refused")

LEDGER = [
    Mutant("letter-bit-one-too-high", WALK,
           "[1 << d - 1 for d in range(1, n)]", "[1 << d for d in range(1, n)]", (FAMILY_WALK,)),
    Mutant("letter-keys-reversed", POLY,
           "for d in range(1, letters + 1):", "for d in range(letters, 0, -1):",
           (f"{POLY_TESTS}::test_letter_codec",)),
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
           '@_identity("arc", WeightSpec(t_stat="des"), 3,',
           '@_identity("arc", WeightSpec(t_stat="des"), 2,', (REGISTRY_TABLE,)),
    Mutant("first-pass-without-its-length-check", POLY,
           "    if len(terms) < pairs:\n", "    if False:\n", (POLY_ORACLE,)),
    Mutant("first-pass-without-its-guard-test", POLY,
           "    if _guarded(terms, a, b):\n", "    if False:\n", (PACKED,)),
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
           (f"{POLY_ORACLE}::test_a_third_field_past_the_first_keys_refuses_the_box",)),
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
           "    for k in range(n):\n        if k:\n", "    for k in range(n + 1):\n        if k:\n",
           (f"{POLY_TESTS}::test_a_bracket_is_the_sum_of_its_powers",)),
    # the long division
    Mutant("division-takes-a-non-dividing-coefficient-as-exact", POLY,
           "            if e < d_top or coeff % lead:", "            if e < d_top:",
           (f"{POLY_TESTS}::test_exact_div_coerces_int_operands",)),
    # one exponent below the top only, and caught by a test whose divisor's
    # field lies below the dividend's: a quotient exponent below 0 borrows
    # from the field above, and a negative key would never decode
    Mutant("division-reduces-a-term-below-the-top", POLY,
           "            if e < d_top or coeff % lead:", "            if e < d_top - 1 or coeff % lead:",
           (f"{POLY_ORACLE}::test_a_term_below_the_divisors_top_is_remainder",)),
    Mutant("division-never-visits-what-steps-write-outside-the-row", POLY,
           "                    insort(exps, target)\n", "",
           (f"{POLY_TESTS}::test_exact_div",)),
    Mutant("division-quotient-one-exponent-high", POLY,
           "quotient[rest + (e - d_top << inner)] = coeff",
           "quotient[rest + (e - d_top + 1 << inner)] = coeff", (f"{POLY_TESTS}::test_exact_div",)),
    Mutant("division-stops-at-the-first-remainder-term", POLY,
           "                remainder[rest + (e << inner)] = coeff\n                continue\n",
           "                remainder[rest + (e << inner)] = coeff\n                break\n",
           (f"{POLY_ORACLE}::test_row_division_refuses_as_the_reference_does",)),
    Mutant("count-accepts-a-bool", POLY,
           "    return isinstance(k, int) and not isinstance(k, bool) and k >= 0",
           "    return isinstance(k, int) and k >= 0",
           (f"{POLY_TESTS}::test_a_bool_size_power_or_exponent_is_refused",)),
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
    # the canonical factorization both groups share
    Mutant("b-orbit-without-its-sign", CANONICAL,
           "-(period - j)", "period - j", (f"{CANONICAL_TESTS}::test_cycle_b",)),
    Mutant("a-reads-a-k0", CANONICAL,
           "for size in range(p.n, vector.first, -1):", "for size in range(p.n, 0, -1):",
           (f"{CANONICAL_TESTS}::test_decompose_examples",)),
    Mutant("criterion-top-one-too-high", CANONICAL,
           "k in (0, step * (i + 1) - 1)", "k in (0, step * (i + 1))",
           (f"{CANONICAL_TESTS}::test_exponent_criteria",)),
    Mutant("group-check-removed", CANONICAL,
           "    if not isinstance(value, expected):", "    if False:",
           (f"{CANONICAL_TESTS}::test_every_entry_point_checks_its_group",)),
    Mutant("exponent-bool-accepted", CANONICAL,
           "(isinstance(ki, bool) or not isinstance(ki, int))", "(not isinstance(ki, int))",
           (f"{CANONICAL_TESTS}::test_exponents_are_plain_integers_kept_as_a_tuple",)),
    Mutant("exponents-kept-as-given", CANONICAL,
           '        object.__setattr__(self, "k", tuple(self.k))\n', "",
           (f"{CANONICAL_TESTS}::test_exponents_are_plain_integers_kept_as_a_tuple",)),
    # the one interval-growth rule of the four families
    Mutant("rule-ends-swapped", ARCSETS,
           "((below, below, free[-1:]), (lo, (lo + size) % m, (1,)))",
           "((lo, (lo + size) % m, (1,)), (below, below, free[-1:]))", (ITERATION,)),
    Mutant("left-unimodal-wraps-around", ARCSETS,
           'if name == "left-unimodal" and start + size >= m or moves and i == below:',
           "if moves and i == below:", (ITERATION,)),
    Mutant("arc-last-value-from-both-ends", ARCSETS,
           'start + size >= m or moves and i == below:', "start + size >= m:", (ITERATION,)),
    Mutant("interior-sign-reversed", ARCSETS,
           "(below, below, free[-1:])", "(below, below, free[:1])", (ITERATION,)),
    Mutant("b-arc-on-an-n-point-circle", ARCSETS,
           'm = 2 * n if name == "b-arc" else n', "m = n", (ITERATION,)),
    Mutant("last-entry-with-one-sign", ARCSETS,
           "for s in free if position == n else signs:", "for s in signs:", (ITERATION,)),
    Mutant("first-entry-with-one-sign", ARCSETS,
           "for i in range(m) for s in free]", "for i in range(m) for s in (1,)]",
           (f"{FAMILY_WALK}::test_the_rule_past_brute_force_sizes",)),
    Mutant("circle-without-its-n-check", ARCSETS,
           "    def __post_init__(self):\n        _positive(self.n)\n", "",
           (f"{ARCSETS_TESTS}::test_circle_needs_a_positive_int",)),
    Mutant("cyclic-interval-trusts-its-indices", ARCSETS,
           "or not 0 <= i < size:", "or False:",
           (f"{ARCSETS_TESTS}::test_interval_helpers_refuse_what_is_no_index_or_value",)),
    Mutant("interval-size-unchecked", ARCSETS,
           "    if not _is_int(size) or size < 0:\n", "    if False:\n",
           (f"{ARCSETS_TESTS}::test_interval_helpers_refuse_a_size_that_is_no_count",)),
    Mutant("cycle-power-cache-unbounded", CANONICAL,
           "@lru_cache(maxsize=1024)", "@lru_cache(maxsize=None)",
           (f"{CANONICAL_TESTS}::test_cycle_power_cache_is_bounded",)),
    Mutant("token-of-any-script-digits", "src/arcperm/perms.py",
           "if not (digits.isascii() and digits.isdigit()):", "if not digits.isdigit():",
           ("tests/test_perms.py::test_parse_errors_name_the_token",)),
    Mutant("equal-row-writes-both-sides", FORMULAS,
           "        if self.status == EQUAL:\n", "        if False:\n",
           ("tests/test_formulas.py::test_report_json_schema",)),
    Mutant("streamed-row-without-its-comma", CLI,
           '        opening = ","\n        del record', '        opening = ""\n        del record',
           (DROPPED,)),
    # dict payloads through the stdlib's encoder, verify's rows through _json_rows
    Mutant("row-polynomial-at-depth-1", CLI,
           "value.json_chunks(2)", "value.json_chunks(1)",
           ("tests/test_cli_json.py::test_polynomial_text_matches_json_dumps",)),
    Mutant("dict-payload-without-indent", CLI,
           "json.JSONEncoder(indent=2)", "json.JSONEncoder()", (PAYLOADS,)),
    Mutant("row-kept-while-the-next-is-computed", CLI,
           "        del record  # the next row may be computed without this one\n", "",
           (DROPPED,)),
    Mutant("out-rewrite-not-cut-to-length", CLI,
           "os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))", "pass",
           ("tests/test_cli.py::test_output_file_is_rewritten_to_its_new_length",)),
    Mutant("json-run-without-its-comma", POLY,
           '            opening = ","\n        yield "[]"', '            opening = ""\n        yield "[]"',
           ("tests/test_cli_json.py::test_a_polynomial_is_written_in_runs_of_terms",)),
    # a power of more than one term is one product of its copies
    Mutant("power-one-factor-short", POLY,
           "poly_product(repeat(self, k))", "poly_product(repeat(self, k - 1))",
           (f"{POLY_ORACLE}::test_multi_term_powers_match_the_binomial_expansion",)),
    # the brute-force word loop reads stats()
    Mutant("word-loop-reads-des-set-for-neg-set", WALK,
           "stats.neg_set if spec.neg_vars", "stats.des_set if spec.neg_vars", (WORDS,)),
    Mutant("word-loop-without-the-character", WALK,
           "        sign = 1 if chi is None else chi.of_stats(stats.inv, stats.neg)\n",
           "        sign = 1\n", (WORDS,)),
    Mutant("word-loop-accepts-unsigned-flags", WALK,
           "        if flags and not p.signed:\n", "        if False:\n", (WORDS,)),
    # bools refused where they read as 0 or 1
    Mutant("circle-index-accepts-a-bool", ARCSETS,
           "if type(v) is not int and not _is_int(v) or v == 0", "if not isinstance(v, int) or v == 0",
           ("tests/test_perms.py::test_a_bool_position_power_size_or_point_is_refused",)),
    Mutant("circle-point-accepts-a-float", ARCSETS,
           "        if not _is_int(i):\n", "        if isinstance(i, bool):\n", (WRONG_TYPES,)),
    Mutant("formula-n-accepts-a-bool", FORMULAS,
           'if _integer(n, "n") < low:', "if n < low:", (WRONG_TYPES,)),
    # each identity's facts declared once, by _identity beside its builder
    Mutant("formula-refuses-its-lowest-n", FORMULAS,
           'if _integer(n, "n") < low:', 'if _integer(n, "n") <= low:',
           ("tests/test_formulas.py::test_range_errors",)),
    Mutant("twisted-registration-skips-a-character", FORMULAS,
           "for chi in Character]", "for chi in list(Character)[1:]]", (REGISTRY_TABLE,)),
    Mutant("evaluable-from-defaults-to-1", FORMULAS,
           "low = claimed_from if evaluable_from is None", "low = 1 if evaluable_from is None",
           (REGISTRY_TABLE,)),
    Mutant("weight-flag-accepts-a-non-bool", WALK,
           "            if not isinstance(value, bool):\n", "            if False:\n",
           (WRONG_TYPES,)),
    # the membership predicates' one interval scan
    Mutant("gap-low-end-off-by-one", ARCSETS, "if d == m - 1:", "if d == m - 2:", (SET_DEFINITIONS,)),
    Mutant("left-unimodal-on-an-n-point-circle", ARCSETS,
           "_first_gap(iter(p.word), 2 * p.n)", "_first_gap(iter(p.word), p.n)", (SET_DEFINITIONS,)),
    Mutant("b-arc-scan-not-reversed", ARCSETS,
           "map(index, reversed(p.word))", "map(index, p.word)", (SET_DEFINITIONS,)),
    Mutant("signed-sign-rule-reversed", ARCSETS,
           "if (v > 0) != (d == size):", "if (v > 0) == (d == size):", (SET_DEFINITIONS,)),
    # substitute's one multiply path and str's graded render
    Mutant("substitute-keeps-the-bound-field", POLY,
           "                    mono -= exp << shift\n", "", (f"{POLY_TESTS}::test_substitute",)),
    Mutant("substitute-ignores-the-coefficient", POLY,
           "for mono, image in self._terms.items():",
           "for mono, image in dict.fromkeys(self._terms, 1).items():",
           (f"{POLY_TESTS}::test_substitute",)),
    Mutant("substitute-unchecked", POLY,
           "        return SparsePolynomial(_checked(terms))\n\n    # -- presentation",
           "        return SparsePolynomial(terms)\n\n    # -- presentation",
           (f"{PACKED}::test_substitute_at_the_limit",)),
    Mutant("str-prints-a-unit-coefficient", POLY,
           'factors[1:] if factors and abs(coeff) == 1 else f"{abs(coeff)}{factors}"',
           'f"{abs(coeff)}{factors}"', (f"{POLY_TESTS}::test_printing_is_graded_and_stable",)),
    Mutant("str-drops-the-leading-minus", POLY,
           '("-" if text.startswith(" - ") else "") + text[3:]', "text[3:]",
           (f"{POLY_TESTS}::test_printing_is_graded_and_stable",)),
    # the layered forms at the letter point or in the polynomial ring, and the
    # products they spare
    Mutant("layered-bound-without-its-scale-term", FORMULAS,
           "_backward(norms, abs(scale), 1, mul, add)", "_backward(norms, 0, 1, mul, add)",
           (f"{FORMULAS_TESTS}::test_the_bound_at_a_slot_width_edge",)),
    Mutant("layered-supports-never-meet", FORMULAS,
           "return -1 if a & b else a | b", "return a | b",
           (f"{FORMULAS_TESTS}::test_what_the_letter_point_cannot_hold_is_expanded",)),
    Mutant("layered-recursion-skips-the-first-head", FORMULAS,
           "        if k < m:\n            value = plus(", "        if 1 < k < m:\n            value = plus(",
           (f"{FORMULAS_TESTS}::test_random_letter_pieces_match_the_printed_display",)),
    Mutant("ring-layered-sum-without-its-scale", FORMULAS,
           "_backward(pieces, scale, 1, lambda piece, value: value * piece, add)",
           "_backward(pieces, 1, 1, lambda piece, value: value * piece, add)",
           (f"{FORMULAS_TESTS}::test_what_the_letter_point_cannot_hold_is_expanded",)),
    Mutant("letter-slot-bit-d-for-x-d", POLY,
           "slot |= 1 << d - 1", "slot |= 1 << d", (f"{POLY_TESTS}::test_letter_codec",)),
    Mutant("dict-product-skips-on-the-guard-bits-alone", POLY,
           "& _GUARD >> 1", "& _GUARD", (f"{PACKED}::test_products_at_half_the_limit",)),
    Mutant("int-factor-drops-its-coefficient", POLY,
           "{m: c * v for m, v in self._terms.items()}", "{m: v for m, v in self._terms.items()}",
           (f"{POLY_TESTS}::test_letter_codec",)),
    # each product form one packed product; a one-term q-bracket summed directly
    Mutant("bracket-bound-one-power-short", POLY,
           "_check_multiple(mono, n - 1)", "_check_multiple(mono, n - 2)",
           (f"{POLY_TESTS}::test_a_bracket_never_takes_the_power_it_does_not_sum",)),
    Mutant("bracket-coefficient-unpowered", POLY,
           "_add_term(terms, mono * k, coeff**k)", "_add_term(terms, mono * k, coeff)",
           (f"{POLY_TESTS}::test_a_bracket_is_the_sum_of_its_powers",)),
    Mutant("rows-without-their-sort", POLY,
           "    for row in rows.values():  # one linear pass where the terms came in order\n"
           "        row.sort()\n", "",
           (f"{POLY_TESTS}::test_rows_do_not_depend_on_the_dict_order",)),
    Mutant("fmaj-factors-from-i-2", FORMULAS,
           "Q ** (2 * i - 1) for i in range(1, n)]", "Q ** (2 * i - 1) for i in range(2, n)]",
           (f"{FORMULAS_TESTS}::test_each_product_form_is_its_grouping",)),
    # the type-B order of a word's descents, one arithmetic map
    Mutant("b-order-negatives-in-integer-order", "src/arcperm/perms.py",
           "v if v > 0 else -v - n - 1 for v in word", "v if v > 0 else v - n - 1 for v in word",
           ("tests/test_perms.py::test_descent_set_b_examples",)),
]


def _copy(dest: Path) -> Path:
    return Path(shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".out")))


def _capped() -> None:
    """Lower the soft limit of the address space to ``MEMORY_CAP``, in the
    child before it starts pytest; the hard limit stays."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP if hard == resource.RLIM_INFINITY else min(MEMORY_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


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
                             stderr=subprocess.DEVNULL, timeout=TIMEOUT_S, preexec_fn=_capped)
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
