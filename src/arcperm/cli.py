"""Command-line front end: enumeration, statistics, membership diagnosis,
canonical decomposition, distribution tables, and formula verification.

Exit codes: 0 on success (and when every verified row is EQUAL or outside
its stated range), 1 when verification finds a MISMATCH, 2 on usage, parse
or I/O errors (such as an unwritable --out); under --format json an error
is printed to stderr as {"error": "..."}.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain
from stat import S_ISREG

from . import canonical, formulas
from .arcsets import (
    HYPEROCTAHEDRAL_LIMIT,
    SYMMETRIC_LIMIT,
    arc_violation,
    b_arc_violation,
    generate_arc,
    generate_b_arc,
    generate_hyperoctahedral,
    generate_left_unimodal,
    generate_signed_arc,
    generate_symmetric,
    left_unimodal_violation,
    signed_arc_violation,
)
from .patterns import arc_forbidden, b_arc_forbidden, find_occurrence, signed_arc_forbidden
from .perms import Permutation, SignedPermutation
from .poly import SparsePolynomial

ARC_FAMILY_LIMIT = 12  # enumerate and table list every element
# verify walks each family's growth: identities with descent- or neg-set
# variables double their output per n, the t/q/character ones grow polynomially
VERIFY_LIMIT = 16
VERIFY_TQ_LIMIT = 32

_SIGNED_SETS = {"signed-arc", "b-arc", "hyp"}
_GENERATORS = {
    "arc": generate_arc,
    "left-unimodal": generate_left_unimodal,
    "signed-arc": generate_signed_arc,
    "b-arc": generate_b_arc,
    "sym": generate_symmetric,
    "hyp": generate_hyperoctahedral,
}
_VIOLATIONS = {
    "arc": arc_violation,
    "left-unimodal": left_unimodal_violation,
    "signed-arc": signed_arc_violation,
    "b-arc": b_arc_violation,
}
_FORBIDDEN = {
    "arc": arc_forbidden,
    "signed-arc": signed_arc_forbidden,
    "b-arc": b_arc_forbidden,
}
_GROUPS = {"A": Permutation, "B": SignedPermutation}
_UNSIGNED_STATS = ("des_set", "des", "maj", "inv", "sign")
# per group: factorization both ways, its major index, exponent criterion
_DECOMPOSE = {
    "A": (canonical.decompose_A, canonical.recompose_A,
          "maj", "arc_by_exponents", canonical.is_arc_by_exponents),
    "B": (canonical.decompose_B, canonical.recompose_B,
          "fmaj", "b_arc_by_exponents", canonical.is_b_arc_by_exponents),
}


class UsageError(ValueError):
    pass


class _ParseError(UsageError):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser  # the (sub)parser whose usage line goes with it


class _Parser(argparse.ArgumentParser):
    """Raises its errors instead of exiting, so that ``main`` can report them
    in the requested --format."""

    def error(self, message):
        raise _ParseError(self, message)


def _emit(chunks: Iterable[str], out_path: str | None):
    """Write the chunks as they come, so that the whole text is never one
    string, and end with a newline: on stdout always, in a file only when
    the text does not end with one already.  A file is rewritten in place
    and then cut to the length written, so a shorter text leaves no stale
    tail (on ext4, opening with O_TRUNC waits for the writeback of a file
    written just before)."""
    if not out_path:
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")
        return
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as handle:
        try:
            last = ""
            for chunk in chunks:
                handle.write(chunk)
                last = chunk or last
            if not last.endswith("\n"):
                handle.write("\n")
        finally:
            handle.flush()
            if S_ISREG(os.fstat(fd).st_mode):  # /dev/null cannot be cut
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _json_rows(records: Iterable[dict]) -> Iterator[str]:
    """The text of ``json.dumps(rows, indent=2)`` for verify's rows, given
    as their ``VerifyRow.record`` dicts: each key and scalar through
    ``json.dumps``, each polynomial as its own text in runs of terms
    (``SparsePolynomial.json_chunks``), all through one table of decoded
    groups that is freed when the write ends.  A record is dropped before
    the next one is asked for, so the rows need not exist at once."""
    opening, table = "[", {}
    for record in records:
        yield opening + "\n  {"
        sep = "\n    "
        for name, value in record.items():
            yield sep + json.dumps(name) + ": "
            if isinstance(value, SparsePolynomial):
                yield from value.json_chunks(2, table)
            else:
                yield json.dumps(value)
            sep = ",\n    "
        yield "\n  }"
        opening = ","
        del record  # the next row may be computed without this one
    yield "[]" if opening == "[" else "\n]"


def _joined(lines: Iterable[str]) -> Iterator[str]:
    """The text of ``"\n".join(lines)``, line by line."""
    sep = ""
    for line in lines:
        yield sep + line
        sep = "\n"


def _render(args, payload, lines: Iterable[str], csv: Iterable[str]):
    """Write one record in args.format as it is produced: the payload as
    JSON, else the lines or the csv rows.  Only the chosen one is iterated,
    so a lazy one for another format never runs.  A dict payload streams
    from the chunks that ``json.dumps(payload, indent=2)`` joins; an iterator
    of verify's records goes through ``_json_rows``."""
    if args.format == "json":
        chunks = (json.JSONEncoder(indent=2).iterencode(payload) if isinstance(payload, dict)
                  else _json_rows(payload))
    else:
        chunks = _joined(csv if args.format == "csv" else lines)
    _emit(chunks, args.out)


def _key_value_csv(header: str, data: dict) -> list[str]:
    return [f"{header},value"] + [f"{k},\"{v}\"" if isinstance(v, list) else f"{k},{v}"
                                  for k, v in data.items()]


def _guard(n: int, force: bool, guards: dict[int, str]):
    """Refuse n beyond any size guard unless forced; forcing warns on stderr.
    ``guards`` maps each limit to what it covers."""
    over = [limit for limit in guards if n > limit]
    if over and not force:
        whats = "; ".join(f"the guard {limit} for {guards[limit]}" for limit in over)
        raise UsageError(f"n={n} exceeds {whats} (use --force)")
    if over:
        limits = "; ".join(f"the guard {limit}" for limit in over)
        print(f"warning: n={n} exceeds {limits}", file=sys.stderr)


def _generate(set_name: str, n: int, force: bool):
    if n < 1:
        raise UsageError("n must be positive")
    limit = {"sym": SYMMETRIC_LIMIT, "hyp": HYPEROCTAHEDRAL_LIMIT}.get(
        set_name, ARC_FAMILY_LIMIT
    )
    _guard(n, force, {limit: f"set {set_name!r}"})
    limit = max(limit, n)
    if set_name in ("sym", "hyp"):
        return _GENERATORS[set_name](n, limit=limit)
    return _GENERATORS[set_name](n)


def cmd_enumerate(args) -> int:
    items = [str(p) for p in _generate(args.set, args.n, args.force)]
    count = len(items)
    payload = {"set": args.set, "n": args.n, "items": items, "count": count}
    csv = ["index,permutation"] + [f"{i},\"{p}\"" for i, p in enumerate(items, 1)]
    _render(args, payload, items + [f"count {count}"], csv + [f"count,{count}"])
    return 0


def cmd_stats(args) -> int:
    p = _GROUPS[args.group].parse(args.perm)
    data = p.stats().as_dict()
    if not p.signed:
        data = {key: data[key] for key in _UNSIGNED_STATS}
    lines = [f"perm {p}", f"group {args.group}"] + [f"{k} {v}" for k, v in data.items()]
    _render(args, {"perm": str(p), "group": args.group, **data}, lines,
            _key_value_csv("stat", data))
    return 0


def cmd_check(args) -> int:
    p = (SignedPermutation if args.set in _SIGNED_SETS else Permutation).parse(args.perm)
    violation = _VIOLATIONS[args.set](p)
    witness = None
    if violation is not None and args.set in _FORBIDDEN:
        occ = find_occurrence(p, _FORBIDDEN[args.set]())
        if occ is not None:
            witness = {
                "pattern": str(occ.pattern),
                "positions": list(occ.positions),
                "values": list(occ.values),
            }
    lines = ["MEMBER" if violation is None else "NON-MEMBER"]
    if violation is not None:
        lines.append(f"reason: {violation}")
    if witness is not None:
        lines.append(
            "pattern: {pattern} at positions {positions} with values {values}".format(**witness)
        )
    payload = {
        "perm": str(p),
        "set": args.set,
        "member": violation is None,
        "definition_failure": violation,
        "pattern_witness": witness,
    }
    _render(args, payload, lines, lines)  # no csv form: csv prints the lines
    return 0


def cmd_decompose(args) -> int:
    decompose, recompose, stat, criterion, is_member = _DECOMPOSE[args.group]
    p = _GROUPS[args.group].parse(args.perm)
    e = decompose(p)
    total = canonical.maj_from_exponents(e)
    major = getattr(p, stat)()
    facts = {
        "sum": total,
        stat: major,
        "consistent": total == major,
        criterion: is_member(e),
        "recomposed": str(recompose(e)),
    }
    data = {"group": args.group, "perm": str(p), "k": list(e.k), **facts}
    lines = [f"group {args.group}", f"perm {p}", str(e)] + [f"{k} {v}" for k, v in facts.items()]
    _render(args, data, lines, _key_value_csv("field", data))
    return 0


def cmd_verify(args) -> int:
    if args.n_max < 1:
        raise UsageError(f"--n-max must be at least 1, got {args.n_max}")
    if args.formula == "all":
        names = formulas.formula_names()
    elif args.formula in formulas.REGISTRY:
        names = [args.formula]
    else:
        known = ", ".join(formulas.formula_names(include_hidden=True))
        raise UsageError(f"unknown formula {args.formula!r}; choose from: all, {known}")
    groups: dict[int, list[str]] = {}  # each identity has its cost class's guard
    for name in names:
        limit = VERIFY_LIMIT if formulas.REGISTRY[name].weights.letters else VERIFY_TQ_LIMIT
        groups.setdefault(limit, []).append(name)
    _guard(args.n_max, args.force,
           {limit: ", ".join(group) for limit, group in sorted(groups.items())})
    counts = dict.fromkeys((formulas.EQUAL, formulas.MISMATCH, formulas.OUT_OF_STATED_RANGE), 0)

    def counted(r):
        counts[r.status] += 1
        return r

    def line(r) -> list[str]:
        text = f"{r.formula} n={r.n} {r.status}"
        if r.note and r.status != formulas.EQUAL:
            text += f" ({r.note})"
        if r.status == formulas.MISMATCH and r.diff is not None:
            return [text, f"  diff: {r.diff}"]
        return [text]

    def summary():  # runs after the last row, when every row is counted
        yield ("summary: {EQUAL} EQUAL, {MISMATCH} MISMATCH, "
               "{OUT_OF_STATED_RANGE} OUT_OF_STATED_RANGE".format(**counts))

    # One iterator of rows, which only the chosen format consumes.  map and
    # chain keep no row once it is written, so each row is freed before the
    # next one is computed.
    rows = map(counted, formulas.verify_many(names, range(1, args.n_max + 1)))
    _render(args, map(formulas.VerifyRow.record, rows),
            chain(chain.from_iterable(map(line, rows)), summary()),
            chain(["formula,n,status,note"],
                  map(lambda r: f"{r.formula},{r.n},{r.status},\"{r.note}\"", rows)))
    return 1 if counts[formulas.MISMATCH] else 0


def cmd_table(args) -> int:
    if args.set not in _SIGNED_SETS and args.stat in ("fmaj", "fdes", "neg"):
        raise UsageError(f"statistic {args.stat!r} needs a signed set, not {args.set!r}")
    items = _generate(args.set, args.n, args.force)
    counts: dict[int, int] = {}
    for p in items:
        value = getattr(p, args.stat)()
        counts[value] = counts.get(value, 0) + 1
    note = None
    if args.stat == "inv" and args.set in _SIGNED_SETS:
        note = "inv computed on the absolute word"
    ordered = dict(sorted(counts.items()))
    total = sum(ordered.values())
    payload = {
        "set": args.set,
        "stat": args.stat,
        "n": args.n,
        "note": note,
        "counts": {str(k): v for k, v in ordered.items()},
        "total": total,
    }
    lines = [f"# {note}"] if note else []
    lines += [f"{k} {v}" for k, v in ordered.items()] + [f"total {total}"]
    _render(args, payload, lines, ["value,count"] + [f"{k},{v}" for k, v in ordered.items()])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arcperm",
        description="Exact combinatorics of arc permutations in types A and B.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("lines", "csv", "json"), default="lines")
        p.add_argument("--out", metavar="FILE", default=None)

    p = sub.add_parser("enumerate", help="list a family in generator order")
    p.add_argument("--set", required=True, choices=sorted(_GENERATORS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--force", action="store_true", help="override the size guard")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("stats", help="all statistics of one permutation")
    p.add_argument("--perm", required=True)
    p.add_argument("--group", choices=("A", "B"), default="B")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("check", help="membership verdict with diagnostics")
    p.add_argument("--perm", required=True)
    p.add_argument("--set", required=True, choices=sorted(_VIOLATIONS))
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="canonical cyclic factorization")
    p.add_argument("--perm", required=True)
    p.add_argument("--group", choices=("A", "B"), required=True)
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="closed forms against a transfer-matrix walk, "
                                      "checked against brute force in tier-1")
    p.add_argument("--formula", required=True)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--force", action="store_true", help="override the size guard")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="distribution of one statistic over a family")
    p.add_argument("--stat", required=True, choices=("des", "maj", "inv", "fmaj", "fdes", "neg"))
    p.add_argument("--set", required=True, choices=sorted(_GENERATORS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--force", action="store_true", help="override the size guard")
    common(p)
    p.set_defaults(func=cmd_table)

    return parser


def _requested_format(argv) -> str | None:
    """The --format value in argv, read without the full parse (and spelled
    out: an abbreviation may be ambiguous in the full parse)."""
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--format")
    try:
        return pre.parse_known_args(argv)[0].format
    except _ParseError:
        return None


def _fail(exc: Exception, fmt: str | None) -> int:
    print(json.dumps({"error": str(exc)}) if fmt == "json" else f"error: {exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except _ParseError as exc:
        if _requested_format(argv) == "json":
            return _fail(exc, "json")
        # argparse's own report: the usage line, then "prog: error: ..."
        exc.parser.print_usage(sys.stderr)
        print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        return _fail(exc, args.format)


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
