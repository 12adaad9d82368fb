"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Every workload must pass its checks at a tiny size, with tracing off and
on, and must yield every metric BENCHMARK.json declares.  Planted faults (a
corrupted recorded digest, the negative control expected as EQUAL, a
missing out-of-range pair, a predicate that accepts everything, an
enumerator off by one) must each give failed_frac > 0, which shows the
checks can fail.  The speed scaling of reference.py is checked on a made-up
timeline.  Exits 0 when every case holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys

import reference
import run
import workloads
from arcperm import arcsets, formulas

SEED = 7


def tiny_run(name: str, expected: dict, mode: str = "plain"):
    """One tiny pass of ``name``; ``mode`` is plain, end-to-end or per-layer."""
    workload = workloads.build(name, SEED, expected, run.OUT_DIR / "selftest" / name,
                               sizes=workloads.TINY_SIZES[name])
    if mode == "end-to-end":
        return run.end_to_end(workload, 0)
    if mode == "per-layer":
        return run.per_layer(workload, 0, run.OUT_DIR / "selftest" / f"trace-{name}.json")
    return {}, run.run_passes(workload, 0, run.Passes())


def main() -> int:
    expected = json.loads((run.BENCH_DIR / "expected.json").read_text())
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    results = []

    def case(label: str, ok: bool, detail: str = ""):
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail else ''}")

    for name in workloads.WORKLOADS:
        for mode, key in (("end-to-end", "end_to_end"), ("per-layer", "per_layer")):
            values, passes = tiny_run(name, expected, mode)
            missing = [m["name"] for m in spec[key] if m["name"] not in values]
            case(f"{name} {mode} passes its checks", passes.attempted > 0 and passes.failed == 0,
                 "; ".join(passes.failures[:3]))
            case(f"{name} {mode} yields every declared metric", not missing, ", ".join(missing))

    digest_fault = copy.deepcopy(expected)
    build_name, n = workloads.TINY_SIZES["closed-forms-large"]["builds"][0]
    digest_fault["digests"][f"{build_name}:{n}"] = "0" * 64
    control_fault = copy.deepcopy(expected)
    control_fault["negative_control"]["statuses"] = {
        k: "EQUAL" for k in expected["negative_control"]["statuses"]}
    range_fault = copy.deepcopy(expected)
    range_fault["out_of_range"] = expected["out_of_range"][1:]
    for label, name, planted in (
        ("corrupted digest", "closed-forms-large", digest_fault),
        ("negative control expected EQUAL", "verify-suite", control_fault),
        ("missing out-of-range pair", "verify-suite", range_fault),
    ):
        _, passes = tiny_run(name, planted)
        case(f"planted fault ({label}) gives failed_frac > 0", passes.failed > 0,
             f"{passes.failed} of {passes.attempted} ops failed")

    enumerator = formulas.enumerator
    for label, name, owner, attr, broken in (
        ("predicate accepts everything", "membership-audit", arcsets, "is_arc", lambda p: True),
        ("enumerator off by one", "verify-deep", formulas, "enumerator",
         lambda elements, spec: enumerator(elements, spec) + 1),
    ):
        original = getattr(owner, attr)
        setattr(owner, attr, broken)
        try:
            _, passes = tiny_run(name, expected)
        finally:
            setattr(owner, attr, original)
        case(f"planted fault ({label}) gives failed_frac > 0", passes.failed > 0,
             f"{passes.failed} of {passes.attempted} ops failed")

    # Probes of 20 ms and 40 ms around 0.5 s of work and inside an op from
    # 0.5 s to 2 s: each stretch is scaled by its own probes, the 40 ms probe
    # inside the op is left out.
    timeline = reference.Timeline()
    timeline.starts, timeline.ends = [0.0, 1.0, 3.0], [0.02, 1.04, 3.02]
    got = timeline.scaled(0.5, 2.0)
    ref = reference.REF_PROBE_S
    want = (1.46, 0.5 * ref / 0.03 + 0.96 * ref / 0.03)
    case("speed scaling leaves probes out and scales each stretch by its own probes",
         all(abs(g - w) < 1e-9 for g, w in zip(got, want)), f"got {got}, want {want}")

    print(f"{sum(results)} of {len(results)} cases hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
