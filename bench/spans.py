"""Spans at the program's layer boundaries, for the benchmark's traced runs.

``Tracer.installed()`` rebinds the names through which the program calls
each layer: module functions, ``SparsePolynomial`` methods, the formula
registry's builders and the family table ``formulas.verify_formula``
generates from.  Every call through one of them records a span (name,
start, end, parent) in memory, and the original names are restored when
the block ends.  No program file is changed, so time a layer spends in its
own helpers (``perms`` inside ``enumerator``, say) stays inside its span.

Counts are taken at the same boundaries.  Counting runs in a ``trace.count``
child span, so it is kept out of every layer's self time.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from arcperm import arcsets, canonical, cli, formulas, patterns, poly

import workloads

COUNT_SPAN = "trace.count"
OP_SPAN = "bench.op"
COUNT_NAMES = [
    "poly.enumerator.elements", "poly.enumerator.terms", "arcsets.generate.elements",
    "formulas.build.terms", "poly.to_json.terms", "formulas.verify.rows",
    "formulas.verify.mismatch", "cli.output_bytes", "arcsets.predicate.members",
    "patterns.avoids_all.witnesses",
]


def _terms(p) -> int:
    return len(p.sorted_terms())


def _count_enumerator(counts, args, result):
    counts["poly.enumerator.elements"] += len(args[0])
    counts["poly.enumerator.terms"] += _terms(result)


def _count_generate(counts, args, result):
    counts["arcsets.generate.elements"] += len(result)


def _count_build(counts, args, result):
    counts["formulas.build.terms"] += _terms(result)


def _count_to_json(counts, args, result):
    counts["poly.to_json.terms"] += len(result)


def _count_verify(counts, args, result):
    counts["formulas.verify.rows"] += len(result)
    counts["formulas.verify.mismatch"] += sum(r.status == formulas.MISMATCH for r in result)


def _count_cli(counts, args, result):
    argv = args[0]
    counts["cli.output_bytes"] += os.path.getsize(argv[argv.index("--out") + 1])


def _count_member(counts, args, result):
    counts["arcsets.predicate.members"] += bool(result)


def _count_witness(counts, args, result):
    counts["patterns.avoids_all.witnesses"] += not result


def _attribute_targets():
    """(owner, attribute, span name, count hook) for every traced name."""
    P = poly.SparsePolynomial
    return [
        (P, "__mul__", "poly.mul", None),
        (P, "__rmul__", "poly.mul", None),
        (P, "__add__", "poly.add", None),
        (P, "__radd__", "poly.add", None),
        (P, "__pow__", "poly.pow", None),
        (P, "substitute", "poly.substitute", None),
        (P, "to_json", "poly.to_json", _count_to_json),
        (formulas, "exact_div", "poly.exact_div", None),
        (formulas, "enumerator", "poly.enumerator", _count_enumerator),
        (formulas, "verify_formula", "formulas.verify", _count_verify),
        (cli, "main", "cli.main", _count_cli),
        (arcsets, "is_arc", "arcsets.predicate", _count_member),
        (arcsets, "is_signed_arc", "arcsets.predicate", _count_member),
        (arcsets, "is_b_arc", "arcsets.predicate", _count_member),
        (patterns, "avoids_all", "patterns.avoids_all", _count_witness),
        (canonical, "decompose_A", "canonical.decompose", None),
        (canonical, "decompose_B", "canonical.decompose", None),
        (workloads, "stats_of", "perms.stats", None),
    ]


class Tracer:
    """Spans kept in memory as parallel arrays; counts in a Counter."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter(dict.fromkeys(COUNT_NAMES, 0))
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span named ``name`` around each call."""
        nid, count_id = self._id(name), self._id(COUNT_SPAN)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def open_span(span_name_id: int) -> int:
            index = len(start)
            name_id.append(span_name_id)
            parent.append(stack[-1])
            end.append(0.0)
            start.append(clock())
            return index

        def traced(*args, **kwargs):
            index = open_span(nid)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if count is not None:
                index = open_span(count_id)
                count(counts, args, result)
                end[index] = clock()
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route the program's layer calls through spans for this block."""
        restore = []
        try:
            for owner, attr, name, count in _attribute_targets():
                original = getattr(owner, attr)
                restore.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            for key, generate in list(formulas._FAMILIES.items()):
                restore.append((formulas._FAMILIES, key, generate))
                formulas._FAMILIES[key] = self.wrap("arcsets.generate", generate, _count_generate)
            for key, entry in list(formulas.REGISTRY.items()):
                restore.append((formulas.REGISTRY, key, entry))
                formulas.REGISTRY[key] = dataclasses.replace(
                    entry, build=self.wrap("formulas.build", entry.build, _count_build))
            yield self
        finally:
            for owner, key, original in reversed(restore):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    def layer_totals(self) -> tuple[dict[str, float], Counter]:
        """Self seconds and call count per span name, over every span."""
        durations = array("d", (e - s for s, e in zip(self.start, self.end)))
        children = array("d", bytes(8 * len(durations)))
        for index, up in enumerate(self.parent):
            if up >= 0:
                children[up] += durations[index]
        self_s: dict[str, float] = dict.fromkeys(self.names, 0.0)
        calls: Counter = Counter()
        for index, nid in enumerate(self.name_id):
            name = self.names[nid]
            self_s[name] += durations[index] - children[index]
            calls[name] += 1
        return self_s, calls

    def write(self, path: Path):
        """Write the spans as a JSON header plus one binary file of columns."""
        data_path = path.with_suffix(".bin")
        with open(data_path, "wb") as handle:
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(handle)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "data": data_path.name,
            "columns": [["name_id", self.name_id.typecode], ["parent", self.parent.typecode],
                        ["start", self.start.typecode], ["end", self.end.typecode]],
            "layout": "each column in full, in the order listed, native byte order",
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(header, indent=1))
