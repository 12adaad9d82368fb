"""The benchmark's four workloads: their seeded inputs, their ops and the
checks on every op's output.

A workload is a fixed list of ops.  The seed fixes the membership sample;
the other three workloads are fixed lists.  The program receives only the
inputs drawn here.  Each op
is a zero-argument callable paired with a check that returns None when the
output is right and a one-line reason when it is not.  Checks compare with
values recorded in ``expected.json`` or derived here from the definitions
(family sizes, constructed non-members), never with a second run of the
code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from arcperm import arcsets, canonical, cli, formulas, patterns
from arcperm.perms import Permutation, SignedPermutation

# Sizes are chosen so that one pass of each workload takes a few seconds on
# a 2-core machine; a run repeats passes for --seconds and reports medians.
SIZES = {
    "verify-suite": {"n_max": 8, "control_n_max": 4},
    "closed-forms-large": {
        "builds": [
            ["f_AB_fdes_fmaj", 16],
            ["f_As_des_neg_inv", 8],
            ["f_sign_des_set", 10],
            ["f_A_inv_des", 11],
            ["f_AB_des_set", 11],
            ["f_As_fdes_fmaj", 20],
            ["f_A_des_maj", 26],
            *[[f"f_{fam}_character_fmaj.{chi}", 24]
              for fam in ("As", "AB")
              for chi in ("trivial", "sign", "neg_parity", "sign_abs")],
        ]
    },
    "verify-deep": {"n": 10},
    "membership-audit": {"n": 12, "ops": 3000},
}

# Small enough for the self-test to run every workload in a few seconds.
TINY_SIZES = {
    "verify-suite": {"n_max": 4, "control_n_max": 4},
    "closed-forms-large": {
        "builds": [[name, 5] for name, _ in SIZES["closed-forms-large"]["builds"]]
    },
    "verify-deep": {"n": 5},
    "membership-audit": {"n": 6, "ops": 300},
}

# The identities whose closed form is cheap next to brute force at n = 10,
# so that generators and the enumerator dominate verify-deep.
DEEP_FORMULAS = [
    "f_A_des_maj", "f_A_des", "f_A_maj", "f_A_signed_maj", "f_L_des_set",
    "f_As_fdes_fmaj", "f_As_fdes",
    *[f"f_As_character_fmaj.{chi}" for chi in ("trivial", "sign", "neg_parity", "sign_abs")],
    *[f"f_AB_character_fmaj.{chi}" for chi in ("trivial", "sign", "neg_parity", "sign_abs")],
    "f_AB_fdes_fmaj", "f_AB_fdes", "f_AB_des_set",
]

# Family of each closed form that carries no character twist, so its
# coefficients sum to the family size.
UNTWISTED_FAMILY = {
    "f_AB_fdes_fmaj": "b-arc",
    "f_As_des_neg_inv": "signed-arc",
    "f_A_inv_des": "arc",
    "f_AB_des_set": "b-arc",
    "f_As_fdes_fmaj": "signed-arc",
    "f_A_des_maj": "arc",
    "f_As_character_fmaj.trivial": "signed-arc",
    "f_AB_character_fmaj.trivial": "b-arc",
}

AUDIT_FAMILIES = ("arc", "signed-arc", "b-arc")


def family_size(family: str, n: int) -> int:
    return n * 2 ** (n - 2) if family == "arc" else n * 2**n


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    name: str
    sizes: dict
    make_ops: Callable[[], list[Op]]  # fresh ops (and per-pass state) for one pass


def digest(poly_json: list) -> str:
    """sha256 of a polynomial's ``to_json()`` output in a canonical layout."""
    text = json.dumps(poly_json, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- verify-suite ---------------------------------------------------------------


def verify_suite(rng: random.Random, sizes: dict, expected: dict, out_dir: Path) -> Workload:
    # one op, so the seed has nothing to order
    n_max, control_n_max = sizes["n_max"], sizes["control_n_max"]
    names = expected["formulas"]
    out_of_range = {(f, n) for f, n in expected["out_of_range"] if n <= n_max}
    control = expected["negative_control"]
    all_path = out_dir / "verify-all.json"
    control_path = out_dir / "verify-negative-control.json"

    def check_all(code):
        if code != 0:
            return f"verify all: exit code {code}, expected 0"
        rows = json.loads(all_path.read_text())
        pairs = [(r["formula"], r["n"]) for r in rows]
        want = [(f, n) for f in names for n in range(1, n_max + 1)]
        if sorted(pairs) != sorted(want):
            return f"verify all: {len(rows)} rows for the wrong (formula, n) pairs, expected {len(want)}"
        for r in rows:
            key = (r["formula"], r["n"])
            status = "OUT_OF_STATED_RANGE" if key in out_of_range else "EQUAL"
            if r["status"] != status:
                return f"verify all: {key[0]} n={key[1]} is {r['status']}, expected {status}"
        return None

    def check_control(code):
        if code != control["exit"]:
            return f"negative control: exit code {code}, expected {control['exit']}"
        rows = json.loads(control_path.read_text())
        got = {str(r["n"]): r["status"] for r in rows}
        want = {n: s for n, s in control["statuses"].items() if int(n) <= control_n_max}
        return None if got == want else f"negative control: statuses {got}, expected {want}"

    argv_all = ["verify", "--formula", "all", "--n-max", str(n_max),
                "--format", "json", "--out", str(all_path)]
    argv_control = ["verify", "--formula", "negative-control", "--n-max", str(control_n_max),
                    "--format", "json", "--out", str(control_path)]
    # The two commands form one op: as two ops, half the latencies would be
    # the 2 ms control, and op_p50_ms would fall in the gap between them.
    op = Op("verify all, then negative control",
            lambda: (cli.main(argv_all), cli.main(argv_control)),
            lambda codes: check_all(codes[0]) or check_control(codes[1]))
    return Workload("verify-suite", sizes, lambda: [op])


# -- closed-forms-large ------------------------------------------------------------


def closed_forms_large(rng: random.Random, sizes: dict, expected: dict, out_dir: Path) -> Workload:
    # a fixed list, so the seed has nothing to draw
    builds = sizes["builds"]

    def make_op(name: str, n: int) -> Op:
        key = f"{name}:{n}"

        def check(poly):
            data = poly.to_json()
            if digest(data) != expected["digests"].get(key):
                return "to_json digest differs from the recorded one"
            family = UNTWISTED_FAMILY.get(name)
            if family is not None:
                total = sum(int(term["coeff"]) for term in data)
                if total != family_size(family, n):
                    return f"coefficients sum to {total}, family size is {family_size(family, n)}"
            return None

        return Op(key, lambda: formulas.REGISTRY[name].build(n), check)

    ops = [make_op(name, n) for name, n in builds]
    return Workload("closed-forms-large", sizes, lambda: ops)


# -- verify-deep --------------------------------------------------------------------


def verify_deep(rng: random.Random, sizes: dict, expected: dict, out_dir: Path) -> Workload:
    # A fixed list in a fixed order, so the seed has nothing to draw.  The
    # first identity of each family pays for generating it into the shared
    # cache; a seeded order would move that cost between ops and so move
    # op_p50_ms from seed to seed.
    n = sizes["n"]
    names = DEEP_FORMULAS

    def make_ops() -> list[Op]:
        # one shared family cache per pass, as in formulas.verify_many
        cache: dict = {}

        def make_op(name: str) -> Op:
            def check(rows):
                if [(r.formula, r.n, r.status) for r in rows] != [(name, n, "EQUAL")]:
                    return f"rows {[(r.formula, r.n, r.status) for r in rows]}, expected EQUAL"
                return None

            return Op(name, lambda: formulas.verify_formula(name, [n], set_cache=cache), check)

        return [make_op(name) for name in names]

    return Workload("verify-deep", dict(sizes, formulas=len(names)), make_ops)


# -- membership-audit ----------------------------------------------------------------


def _grow_interval(rng: random.Random, circle: int, length: int):
    """A random run of ``length`` points on a ``circle``-point cycle, in the
    order an arc family grows it (each new point at one end).  Returns the
    points in that order and the run's first point lo, so the run is
    lo, lo+1, ..., lo+length-1 (mod circle)."""
    lo = rng.randrange(circle)
    points = [lo]
    for count in range(1, length):
        if rng.random() < 0.5:
            lo = (lo - 1) % circle
            points.append(lo)
        else:
            points.append((lo + count) % circle)
    return points, lo


def _non_member(rng: random.Random, family: str, n: int, members: list):
    """An element that fails its family's definition by construction.

    Arc and signed-arc: the first k-1 absolute values form a cyclic interval
    and the k-th (1 < k < n-1) is adjacent to neither end.  Signed-arc also
    uses members with one interior sign flipped, which the sign rule forbids.
    B-arc: the last k-1 entries form an interval of the 2n-point signed
    circle and the entry before them is adjacent to neither end.
    """
    if family == "signed-arc" and rng.random() < 0.5:
        word = list(rng.choice(members).word)
        i = rng.randrange(1, n - 1)
        word[i] = -word[i]
        return SignedPermutation(word)
    if family in ("arc", "signed-arc"):
        k = rng.randint(2, n - 2)
        points, lo = _grow_interval(rng, n, k - 1)
        used = set(points)
        ends = {(lo - 1) % n, (lo + k - 1) % n}
        points.append(rng.choice(sorted(set(range(n)) - used - ends)))
        rest = sorted(set(range(n)) - set(points))
        rng.shuffle(rest)
        word = [v + 1 for v in points + rest]
        if family == "arc":
            return Permutation(word)
        return SignedPermutation(v if rng.random() < 0.5 else -v for v in word)
    # b-arc, built right to left on the indices of the signed circle
    k = rng.randint(2, n - 1)
    points, lo = _grow_interval(rng, 2 * n, k - 1)
    value = arcsets.CircleOn(n).point
    used_abs = {abs(value(i)) for i in points}
    ends = {(lo - 1) % (2 * n), (lo + k - 1) % (2 * n)}
    free = [i for i in range(2 * n) if abs(value(i)) not in used_abs and i not in ends]
    breaker = value(rng.choice(free))
    rest = sorted(set(range(1, n + 1)) - used_abs - {abs(breaker)})
    rng.shuffle(rest)
    left = [v if rng.random() < 0.5 else -v for v in rest]
    suffix = [value(i) for i in reversed(points)]
    return SignedPermutation(left + [breaker] + suffix)


def stats_of(p):
    """Every per-permutation statistic: StatProfile for signed elements, the
    ``arcperm stats --group A`` fields for unsigned ones."""
    if isinstance(p, SignedPermutation):
        return p.stats()
    return {"des_set": p.descent_set(), "des": p.des(), "maj": p.maj(),
            "inv": p.inv(), "sign": p.sign()}


_PREDICATES = {"arc": "is_arc", "signed-arc": "is_signed_arc", "b-arc": "is_b_arc"}
_FORBIDDEN = {"arc": patterns.arc_forbidden, "signed-arc": patterns.signed_arc_forbidden,
              "b-arc": patterns.b_arc_forbidden}
_GENERATORS = {"arc": arcsets.generate_arc, "signed-arc": arcsets.generate_signed_arc,
               "b-arc": arcsets.generate_b_arc}


def classify(family: str, p) -> dict:
    """One audit op: membership by definition, by pattern avoidance and (for
    the arc and B-arc families) by canonical exponents, plus statistics."""
    verdicts = [
        getattr(arcsets, _PREDICATES[family])(p),
        patterns.avoids_all(p, _FORBIDDEN[family]()),
    ]
    if family == "arc":
        e = canonical.decompose_A(p)
        verdicts.append(canonical.is_arc_by_exponents(e))
        exponent_sum, stats = canonical.maj_from_exponents(e), stats_of(p)
        major = stats["maj"]
    else:
        e = canonical.decompose_B(p)
        if family == "b-arc":
            verdicts.append(canonical.is_b_arc_by_exponents(e))
        exponent_sum, stats = canonical.fmaj_from_exponents(e), stats_of(p)
        major = stats.fmaj
    return {"verdicts": verdicts, "exponent_sum": exponent_sum, "major": major}


def membership_audit(rng: random.Random, sizes: dict, expected: dict, out_dir: Path) -> Workload:
    n, count = sizes["n"], sizes["ops"]
    members = {family: _GENERATORS[family](n) for family in AUDIT_FAMILIES}
    # Every seed has the same mix: each family in turn, half members, in a
    # seeded order.  Members classify several times slower than non-members,
    # so op_p50_ms sits between the two, and a drawn mix would move it.
    kinds = [(family, label) for family in AUDIT_FAMILIES for label in (True, False)]
    kinds = [kinds[i % len(kinds)] for i in range(count)]
    rng.shuffle(kinds)
    sample = []
    for family, label in kinds:
        p = rng.choice(members[family]) if label else _non_member(rng, family, n, members[family])
        sample.append((family, p, label))

    def make_op(family: str, p, label: bool) -> Op:
        def check(result):
            if any(v is not label for v in result["verdicts"]):
                return f"{p} labelled member={label}, criteria say {result['verdicts']}"
            if result["exponent_sum"] != result["major"]:
                return f"{p} exponent sum {result['exponent_sum']} != maj/fmaj {result['major']}"
            return None

        return Op(f"{family} {p}", lambda: classify(family, p), check)

    ops = [make_op(*item) for item in sample]
    return Workload("membership-audit", sizes, lambda: ops)


WORKLOADS = {
    "verify-suite": verify_suite,
    "closed-forms-large": closed_forms_large,
    "verify-deep": verify_deep,
    "membership-audit": membership_audit,
}


def build(name: str, seed: int, expected: dict, out_dir: Path, sizes: dict | None = None) -> Workload:
    """The workload ``name`` with its inputs drawn from ``seed``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    sizes = SIZES[name] if sizes is None else sizes
    return WORKLOADS[name](random.Random(seed), sizes, expected, out_dir)
