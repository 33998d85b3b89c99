"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that

1. ``BENCHMARK.json`` lists the workloads and metrics of ``spec.py``, with
   the same units, directions and bounds;
2. every workload completes, untraced and traced, on a pool of three
   queries, is correct, prints every metric by name with its unit, and
   prints the result of its untimed probe if it has one;
3. one ledger with a single corrupted ``key_raw`` raises audit_fail_share
   and makes the run incorrect, which proves that the gate fires.

Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import sys

import run
from spec import END_TO_END, PER_LAYER, WORKLOADS

TINY = {"seconds": 0.1, "pool_size": 3, "min_queries": 3}


def main() -> int:
    problems: list[str] = []

    def check(ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            problems.append(message)

    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        declared = json.load(fh)
    check([(w["name"], w["why"]) for w in declared["workloads"]]
          == [(w.name, w.why) for w in WORKLOADS.values()],
          "BENCHMARK.json workloads match spec.WORKLOADS")
    check([(m["name"], m["unit"], m["better"], m["bound"])
           for m in declared["end_to_end"]] == list(END_TO_END),
          "BENCHMARK.json end_to_end matches spec.END_TO_END")
    check([(m["name"], m["unit"], m["better"])
           for m in declared["per_layer"]]
          == [row[:3] for row in PER_LAYER],
          "BENCHMARK.json per_layer matches spec.PER_LAYER")

    for name in WORKLOADS:
        for trace, table in ((False, END_TO_END), (True, PER_LAYER)):
            lines, result = run.run_workload(name, 0, trace=trace, **TINY)
            text = "\n".join(lines)
            mode = "traced" if trace else "untraced"
            check(result["correct"], f"{name} {mode}: correct")
            missing = [m[0] for m in table
                       if result["metrics"].get(m[0], {}).get("unit") != m[1]
                       or not any(line.split()[:1] == [m[0]]
                                  and m[1] in line.split()[1:3]
                                  for line in lines)]
            check(not missing, f"{name} {mode}: every metric printed with "
                  f"its unit {missing or ''}")
            if not trace:
                check("audit_fail_share" in text and "ledger_sha256" in text,
                      f"{name}: fail shares and ledger fingerprint printed")
            if not trace and WORKLOADS[name].probe:
                check(any(line.strip().startswith("probe:")
                          for line in lines),
                      f"{name}: probe result printed")

    clean = run.run_workload("tree-surrogate", 0, trace=False, **TINY)[1]
    corrupt = run.run_workload("tree-surrogate", 0, trace=False,
                               corrupt=frozenset({0}), **TINY)[1]
    ok_share = "audit_ok_share"
    check(corrupt["metrics"][ok_share]["value"]
          < clean["metrics"][ok_share]["value"]
          and corrupt["failed"] == clean["failed"] + 1
          and not corrupt["correct"],
          "one corrupted key_raw raises audit_fail_share and fails the run")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
