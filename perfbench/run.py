"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It writes the workload's seeded deck
files, times ``setup_s`` (fresh interpreters importing ``dofcount.cli`` and
parsing those decks), then runs the workload in one more fresh interpreter
(``worker.py``) with BLAS threads pinned to 1.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A fuller record (environment, sample counts, input
properties, failure samples) goes to stderr and to
``.perfbench_out/result-<workload>-seed<N>-trace<T>.json``; a traced run
also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, build_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 7
RUN_DEADLINE_S = 170.0
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Each start prints the moment it is ready on the system-wide monotonic clock
# that perf_counter reads, so the parent's start time and this mark compare.
SETUP_CODE = """\
import sys
import dofcount.cli
from dofcount.deckfile import parse_deck_file
for path in sys.argv[1:]:
    with open(path, "rb") as f:
        parse_deck_file(f.read())
import time
print(repr(time.perf_counter()))
"""
# Reference start: a fresh interpreter that imports numpy and nothing of the
# program.  Interpreter start-up swings with the host's load; timing this
# start around every set-up start and scaling by it takes the swing out.
REFERENCE_CODE = """\
import numpy
import time
print(repr(time.perf_counter()))
"""
REFERENCE_NOMINAL_S = 0.1  # the reference start on a quiet 2-core Intel Xeon host


def pinned_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _start_s(code: str, args, env) -> float:
    """Seconds from starting a fresh interpreter on ``code`` to its ready mark."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env=env, check=True, timeout=60, capture_output=True, text=True)
    return float(done.stdout) - start


def measure_setup(deck_paths, env) -> tuple[list[float], list[float]]:
    """Set-up starts, raw and scaled by the reference starts around each.

    The first set-up start only fills the bytecode cache and is not kept.
    """
    args = list(map(str, deck_paths))
    _start_s(SETUP_CODE, args, env)
    raw, scaled = [], []
    reference = _start_s(REFERENCE_CODE, [], env)
    for _ in range(SETUP_RUNS):
        seconds = _start_s(SETUP_CODE, args, env)
        before, reference = reference, _start_s(REFERENCE_CODE, [], env)
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_NOMINAL_S / ((before + reference) / 2))
    return raw, scaled


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dofcount").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "blas_threads": PINNED_THREADS,
        "fresh_interpreter_per_pass": True,
        "loop": "closed, one client",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (SRC / "dofcount" / "cli.py").is_file():
        print(f"perfbench: no dofcount sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = pinned_env()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "loadavg_before": os.getloadavg()}
    workdir = Path(tempfile.mkdtemp(prefix="decks-", dir=OUT))
    try:
        inputs = build_inputs(args.workload, args.seed, workdir, write=True)
        setup_raw, setup_times = ([], []) if args.trace else measure_setup(inputs.deck_paths, env)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir), "--src", str(SRC)]
        if args.trace:
            cmd += ["--spans", str(OUT / f"spans-{tag}.csv.gz")]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"perfbench: workload process exited with {done.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = worker["metrics"]
    if not args.trace:
        metrics = {"setup_s": statistics.median(setup_times), **metrics}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"perfbench: reported metrics {sorted(set(metrics) ^ set(units))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record.update(result=result, failed_frac=worker["failed"] / worker["attempted"],
                  failures=worker["failures"], setup_s_raw=setup_raw, setup_s_scaled=setup_times,
                  detail=worker["detail"], loadavg_after=os.getloadavg())
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
