"""Smoke check of the benchmark: every workload at a few epochs, both modes.

    python3 perfbench/smoke.py

For each workload it makes one untraced and one traced run at
`SMOKE_EPOCHS` epochs, and fails unless the output checks pass and the
result holds exactly the metrics BENCHMARK.json names.  About a minute on
two cores.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS

SMOKE_EPOCHS = 2


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for kind, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        named = {m["name"]: m["unit"] for m in spec[kind]}
        if named != table:
            problems.append(f"BENCHMARK.json {kind} differs from run.py: "
                            f"{sorted(set(named.items()) ^ set(table.items()))}")
    for w in WORKLOADS.values():
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            lines, result = run.run(w, seed=1, seconds=0, trace=trace,
                                    epochs=SMOKE_EPOCHS)
            where = f"{w.name} trace={int(trace)}"
            missing = sorted({m["name"] for m in spec[kind]} - set(result["metrics"]))
            if missing:
                problems.append(f"{where}: missing metrics {missing}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: checks failed\n  " + "\n  ".join(
                    line for line in lines if line.startswith("FAIL")))
            print(f"{where}: {result['attempted']} invocations, "
                  f"{len(result['metrics'])} metrics, correct={result['correct']}")
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
