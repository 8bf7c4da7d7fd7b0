"""Print all six end-to-end metrics, by name and unit, for every workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` once per workload with tracing off and prints one line per
metric, including ``failed_frac`` (failed ops over attempted ops), which the
result line carries as its ``failed`` and ``attempted`` counts.
Exits nonzero if any workload fails to run or any op fails its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=declared["run_seconds"])
    args = ap.parse_args(argv)
    ok = True
    print(f"{'workload':<16} {'metric':<12} {'value':>14}  unit")
    for workload in (w["name"] for w in declared["workloads"]):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=200)
        if done.returncode != 0:
            print(f"{workload:<16} run failed with exit code {done.returncode}")
            sys.stderr.write(done.stderr)
            ok = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        record = json.loads(done.stderr.strip().splitlines()[-1])
        rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        rows.append(("failed_frac", result["failed"] / result["attempted"], "ratio"))
        for name, value, unit in rows:
            print(f"{workload:<16} {name:<12} {value:>14.4f}  {unit}")
        detail = record["detail"]
        print(f"{workload:<16} ({detail['ops']} ops, tail = p{detail['tail_percentile']} with "
              f"{detail['ops_beyond_tail']} ops beyond, unit = {detail['unit']})")
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
