"""Record the reference outputs the benchmark's checks compare against.

    python3 bench/record_expected.py > bench/expected.json

Run it only at a commit whose outputs are trusted (the tier-1 tests pass,
apart from the known red case): every later run is checked against what it
writes.  It records the verify-suite verdicts (the formula list, the
(formula, n) pairs outside their stated range, the negative control's exit
code and statuses) and the sha256 of ``to_json()`` of every closed form that
closed-forms-large builds, at both the full and the self-test sizes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from arcperm import cli, formulas  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    sizes = [workloads.SIZES, workloads.TINY_SIZES]
    n_max = max(s["verify-suite"]["n_max"] for s in sizes)
    control_n_max = max(s["verify-suite"]["control_n_max"] for s in sizes)
    names = formulas.formula_names()
    rows = formulas.verify_many(names, range(1, n_max + 1))

    out = BENCH_DIR / ".out"
    out.mkdir(exist_ok=True)
    control_path = out / "record-negative-control.json"
    code = cli.main(["verify", "--formula", "negative-control", "--n-max", str(control_n_max),
                     "--format", "json", "--out", str(control_path)])
    control = json.loads(control_path.read_text())

    builds = sorted({(name, n) for s in sizes for name, n in s["closed-forms-large"]["builds"]})
    expected = {
        "formulas": names,
        "out_of_range": [[r.formula, r.n] for r in rows if r.status == formulas.OUT_OF_STATED_RANGE],
        "negative_control": {"exit": code, "statuses": {str(r["n"]): r["status"] for r in control}},
        "digests": {f"{name}:{n}": workloads.digest(formulas.REGISTRY[name].build(n).to_json())
                    for name, n in builds},
    }
    print(json.dumps(expected, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
