"""One workload pass, in a fresh interpreter.

``run.py`` starts this script with BLAS threads pinned and ``src`` on the
path.  It sends the workload's ops to ``dofcount.cli.cli_main`` in a closed
loop (one client; each op starts after the previous one returns), checks
every output against the oracles and prints one JSON line with the raw
results.  With ``--trace 1`` it alternates untraced and traced runs of the
same pass and reports per-layer metrics from the spans instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from hostspeed import reference_s, speed_factor
from oracles import Checker
from tracing import Tracer
from workloads import Inputs, build_inputs

MAX_MEASURE_S = 120.0  # keeps a run on a slow host inside its time limit
RANK_TOL = 1e-9  # the CLI's default relative singular-value threshold
MAX_FAILURE_SAMPLES = 5

# Spans whose call count and self time are per-layer metrics.
TIMED_SPANS = (
    "tomography.exact_rank",
    "tomography.random_deck_ensemble",
    "tomography.fiducial_vector_cardbox",
    "tomography.fiducial_vector_quantum",
    "tomography.matrix_rank_numeric",
    "cardbox.outcome_distribution",
    "cardbox.observe",
    "cardbox.filter_deck",
    "quantum.measurement_distribution",
    "quantum.random_pure_state",
    "quantum.random_basis",
    "sequences.sequence_distribution",
    "sequences.find_classicality_witness",
    "deckfile.parse_deck_file",
)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(q / 100 * len(sorted_values)) - 1, 0)]


class Runner:
    """Sends ops to ``cli_main``, checks their outputs and counts failures.

    Every op sits between two runs of the host-speed reference kernel; its
    latency is reported both raw and scaled to nominal host speed.
    """

    def __init__(self, cli):
        self.cli = cli
        self.checker = Checker()
        self._verified: dict[tuple, bytes] = {}  # argv -> digest of an output found correct
        self._reference = reference_s()
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.samples: list[tuple[float, float, float]] = []  # raw latency, reference before, after

    def reset_counts(self) -> None:
        self.attempted = self.failed = 0
        self.failures.clear()
        self.samples.clear()

    def run(self, op) -> tuple[float, float, str]:
        """Run one op; returns its normalised latency, the speed factor and stdout."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.cli_main(list(op.argv))  # looked up each call, so tracing sees it
            except Exception as exc:  # a crash is a failed op, not the end of the pass
                code = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
        before, self._reference = self._reference, reference_s()
        factor = speed_factor(before, self._reference)
        self.samples.append((latency, before, self._reference))
        text = out.getvalue()
        reason = self._check(op, text) if code == 0 else f"exit {code}: {err.getvalue().strip()[:200]}"
        self.attempted += 1
        if reason is not None:
            self.fail(op, reason)
        return latency * factor, factor, text

    def fail(self, op, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_SAMPLES:
            self.failures.append({"argv": list(op.argv), "reason": reason})

    def _check(self, op, text: str) -> str | None:
        digest = hashlib.sha256(text.encode()).digest()
        if self._verified.get(op.argv) == digest:
            return None  # byte-identical to an output of this op already checked
        reason = self.checker.check(op, text)
        if reason is None:
            self._verified[op.argv] = digest
        return reason


def measure(runner: Runner, inputs: Inputs, seconds: float) -> tuple[dict, dict]:
    """Whole passes until ``seconds`` have gone by and the tail has 10 ops beyond it."""
    workload = inputs.workload
    runner.run(inputs.pass_ops(0)[0])  # warm-up: lazy imports and first-call set-up
    runner.reset_counts()
    latencies, factors, units, passes = [], [], 0, 0
    start = time.perf_counter()
    while True:
        for op in inputs.pass_ops(passes):
            failed_before = runner.failed
            latency, factor, _ = runner.run(op)
            latencies.append(latency)
            factors.append(factor)
            units += op.units if runner.failed == failed_before else 0
        passes += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= workload.min_ops) or elapsed >= MAX_MEASURE_S:
            break
    ordered = sorted(latencies)
    raw = sorted(t / f for t, f in zip(latencies, factors))
    metrics = {
        "units_per_s": units / sum(latencies),
        "op_p50_ms": 1000 * percentile(ordered, 50),
        "op_tail_ms": 1000 * percentile(ordered, workload.tail_q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "ops": len(latencies),
        "passes": passes,
        "measured_s": elapsed,
        "units": units,
        "unit": workload.unit,
        "tail_percentile": workload.tail_q,
        "ops_beyond_tail": sum(1 for x in latencies if x > metrics["op_tail_ms"] / 1000),
        "speed_factor_median": statistics.median(factors),
        "raw_units_per_s": units / sum(raw),
        "raw_op_p50_ms": 1000 * percentile(raw, 50),
        "raw_op_tail_ms": 1000 * percentile(raw, workload.tail_q),
        "samples": runner.samples,
    }
    return metrics, detail


def rank_margins(rows_by_op: dict) -> tuple[float, float]:
    """Worst sigma_K/sigma_1 and sigma_(K+1)/sigma_1 over the captured rank inputs."""
    k_ratios, k1_ratios = [], []
    for rows in rows_by_op.values():
        s = np.linalg.svd(np.asarray(rows, dtype=float), compute_uv=False)
        k = int(np.sum(s > RANK_TOL * s[0]))
        k_ratios.append(s[k - 1] / s[0])
        k1_ratios.append(s[k] / s[0] if k < len(s) else 0.0)
    if not k_ratios:
        return 0.0, 0.0
    return float(min(k_ratios)), float(max(k1_ratios))


def layer_metrics(summary: dict, margins: tuple[float, float]) -> dict:
    def stat(name, key):
        return summary.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in TIMED_SPANS:
        metrics[f"{name}.calls"] = stat(name, "calls")
        metrics[f"{name}.self_s"] = stat(name, "self_s")
    witness_children = stat("sequences.find_classicality_witness", "children") or {}
    basis_children = stat("quantum.random_basis", "children") or {}
    metrics.update({
        "tomography.exact_rank.useful_ratio":
            ratio(stat("tomography.exact_rank", "value"), stat("tomography.exact_rank", "calls")),
        "tomography.matrix_rank_numeric.rows": int(stat("tomography.matrix_rank_numeric", "value")),
        "tomography.rank_margin.sigma_k_ratio": margins[0],
        "tomography.rank_margin.sigma_k1_ratio": margins[1],
        "quantum.random_basis.draws_per_call":
            ratio(basis_children.get("rng.draw", 0), stat("quantum.random_basis", "calls")),
        "rng.draws": int(stat("rng.draw", "value")),
        "rng.self_s": stat("rng.draw", "self_s"),
        "sequences.simulate_plan.self_s": stat("sequences.simulate_plan", "self_s"),
        "sequences.simulate_plan.trials": int(stat("sequences.simulate_plan", "value")),
        "sequences.sequence_distribution.sequences":
            int(stat("sequences.sequence_distribution", "value")),
        "sequences.find_classicality_witness.plans":
            witness_children.get("sequences.sequence_distribution", 0),
        "cli.cli_main.calls": stat("cli.cli_main", "calls"),
        "cli.self_s": stat("cli.cli_main", "self_s"),
        "cli.render_csv.self_s": stat("cli.render_csv", "self_s"),
    })
    return metrics


def op_label(op) -> str:
    """Short argv for reports: no seed, deck files by name."""
    argv = [Path(a).name if a.endswith(".json") else a for a in op.argv]
    if "--seed" in argv:
        del argv[argv.index("--seed"):argv.index("--seed") + 2]
    return " ".join(argv)


def traced(runner: Runner, inputs: Inputs, seconds: float, spans_path: Path | None) -> tuple[dict, dict]:
    """Untraced and traced runs of pass 0, alternating, until ``seconds`` have gone by.

    Counts come from the first traced run (they repeat exactly); times are
    medians over the traced runs, each op's spans scaled by its speed
    factor.  Traced stdout must match untraced stdout byte for byte.
    """
    ops = inputs.pass_ops(0)
    runner.run(ops[0])  # warm-up
    runner.reset_counts()
    reps, kept, kept_roots = [], None, None
    start = time.perf_counter()
    while True:
        plain = [runner.run(op) for op in ops]
        tracer, roots, with_spans = Tracer(), {}, []
        tracer.install()
        try:
            for op in ops:
                root = len(tracer.start)  # the op's cli_main span
                with_spans.append(runner.run(op))
                roots[root] = with_spans[-1][1]
        finally:
            tracer.uninstall()
        for op, (_, _, a), (_, _, b) in zip(ops, plain, with_spans):
            if a != b:
                runner.fail(op, "traced stdout differs from untraced stdout")
        overhead = sum(t for t, _, _ in with_spans) / sum(t for t, _, _ in plain) - 1
        reps.append((overhead, layer_metrics(tracer.summarize(roots), rank_margins(tracer.numeric_rows))))
        tracer.numeric_rows.clear()
        if kept is None:
            kept, kept_roots = tracer, roots
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= MAX_MEASURE_S:
            break
    metrics = dict(reps[0][1])
    for name in metrics:
        if name.endswith("self_s"):
            metrics[name] = statistics.median(m[name] for _, m in reps)
    metrics["trace.overhead_frac"] = statistics.median(o for o, _ in reps)
    if spans_path is not None:
        kept.write(spans_path)
    bounds = [*kept_roots, len(kept.start)]
    by_op = []
    for op, first, last in zip(ops, bounds, bounds[1:]):
        summary = kept.summarize(kept_roots, first, last)
        total = summary["cli.cli_main"]["total_s"]
        top = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:3]
        by_op.append({"op": op_label(op),
                      "seconds": total,
                      "self_share": {name: round(s["self_s"] / total, 3) for name, s in top}})
    detail = {"traced_runs": len(reps), "ops_per_run": len(ops), "spans": len(kept.start),
              "self_s_by_op": by_op}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True, help="the src directory under test")
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    import dofcount.cli

    if not Path(dofcount.cli.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"dofcount imported from {dofcount.cli.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    inputs = build_inputs(args.workload, args.seed, args.workdir, write=False)
    runner = Runner(dofcount.cli)
    if args.trace:
        metrics, detail = traced(runner, inputs, args.seconds, args.spans)
    else:
        metrics, detail = measure(runner, inputs, args.seconds)
    detail["numpy"] = np.__version__
    detail["properties"] = inputs.properties
    print(json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                      "failures": runner.failures, "metrics": metrics, "detail": detail}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
