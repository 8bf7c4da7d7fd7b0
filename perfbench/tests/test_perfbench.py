"""Tests of the benchmark itself: every workload at toy size, the tracer,
and each oracle against a planted wrong output.

Run from the repository root:  python3 -m pytest perfbench/tests
They sit outside ``tests/``, so the package's own suite does not collect them.
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import dofcount.cli
import pytest

import oracles
import worker
from tracing import TARGETS, Tracer
from workloads import WORKLOADS, Op, _random_deck, build_inputs

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def cli_output(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert dofcount.cli.cli_main(list(argv)) == 0
    return out.getvalue()


def write_deck(tmp_path, doc, name="deck") -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(params=sorted(WORKLOADS))
def toy_inputs(request, tmp_path):
    return build_inputs(request.param, 3, tmp_path, write=True, toy=True)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_same_seed_same_inputs(tmp_path):
    for name in WORKLOADS:
        a = build_inputs(name, 5, tmp_path / "a", write=False)
        b = build_inputs(name, 5, tmp_path / "b", write=False)
        assert [(op.argv[0], op.units) for op in a.pass_ops(2)] == [
            (op.argv[0], op.units) for op in b.pass_ops(2)]
        assert [op.deck for op in a.pass_ops(0)] == [op.deck for op in b.pass_ops(0)]


def test_min_ops_leaves_ten_beyond_the_tail():
    for w in WORKLOADS.values():
        ordered = list(range(w.min_ops))
        tail = worker.percentile(ordered, w.tail_q)
        assert sum(1 for x in ordered if x > tail) >= 10


def test_toy_measure_reports_every_end_to_end_metric(toy_inputs):
    runner = worker.Runner(dofcount.cli)
    metrics, detail = worker.measure(runner, toy_inputs, seconds=0)
    assert runner.failed == 0, runner.failures
    assert runner.attempted == detail["ops"] >= toy_inputs.workload.min_ops
    declared = {m["name"] for m in DECLARED["end_to_end"]}
    assert set(metrics) | {"setup_s"} == declared
    assert all(v > 0 for v in metrics.values())


def test_toy_traced_run_reports_every_layer_metric(toy_inputs, tmp_path):
    runner = worker.Runner(dofcount.cli)
    spans = tmp_path / "spans.csv.gz"
    metrics, detail = worker.traced(runner, toy_inputs, seconds=0, spans_path=spans)
    assert runner.failed == 0, runner.failures  # includes traced == untraced stdout
    assert set(metrics) == {m["name"] for m in DECLARED["per_layer"]}
    assert metrics["cli.cli_main.calls"] == detail["ops_per_run"]
    assert spans.stat().st_size > 0


def test_tracer_restores_every_patched_name():
    originals = {}
    for _, module_name, attr, _ in TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        originals[(id(owner), attr)] = owner.__dict__[attr]
    tracer = Tracer()
    tracer.install()
    assert dofcount.sequences.filter_deck is not originals[(id(dofcount.cardbox), "filter_deck")]
    tracer.uninstall()
    assert dofcount.sequences.filter_deck is originals[(id(dofcount.cardbox), "filter_deck")]
    for _, module_name, attr, _ in TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        assert owner.__dict__[attr] is originals[(id(owner), attr)]


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.install()
    try:
        cli_output(["rank", "--system", "quantum", "--n", "3", "--seed", "1"])
    finally:
        tracer.uninstall()
    summary = tracer.summarize(roots=None)
    root = summary["cli.cli_main"]
    assert root["calls"] == 1
    assert 0 <= root["self_s"] < root["total_s"]
    assert sum(s["self_s"] for s in summary.values()) == pytest.approx(root["total_s"])


# --- planted wrong outputs -------------------------------------------------


def test_sweep_k_off_by_one_is_flagged():
    params = {"n": 3, "v": (1, 2), "seed": 7}
    good = cli_output(["sweep", "--systems", "cardbox,urn", "--n-range", "3..3",
                       "--v-range", "1..2", "--seed", "7"])
    assert oracles.check_sweep(params, good) is None
    lines = good.splitlines()
    fields = lines[2].split(",")  # cardbox N=3 V=2, K_rank 5
    fields[3] = str(int(fields[3]) + 1)
    lines[2] = ",".join(fields)
    assert "K_rank" in oracles.check_sweep(params, "\n".join(lines) + "\n")


def test_quantum_k_off_by_one_is_flagged():
    params = {"n": 3, "seed": 4}
    good = cli_output(["rank", "--system", "quantum", "--n", "3", "--seed", "4"])
    assert oracles.check_rank(params, good) is None
    bad = good.replace("quantum,3,4,9,", "quantum,3,4,8,")
    assert bad != good
    assert "K_rank=9" in oracles.check_rank(params, bad)


def sequence_case(tmp_path, plan, correlated=False):
    doc = _random_deck(random.Random(11), 3, 3, correlated)
    out = cli_output(["sequence", "--deck", write_deck(tmp_path, doc), "--plan", ",".join(plan)])
    return oracles.ChainLaw(doc), {"plan": plan}, out


def test_sequence_probability_sum_not_one_is_flagged(tmp_path):
    law, params, good = sequence_case(tmp_path, ["X1", "X2", "X3", "X1"])
    assert oracles.check_sequence(law, params, good) is None
    run, _, p = good.splitlines()[0].partition(" = ")
    bad = good.replace(f"{run} = {p}\n", f"{run} = {2 * oracles.Fraction(p)}\n", 1)
    assert "sum" in oracles.check_sequence(law, params, bad)


def test_sequence_impossible_run_is_flagged(tmp_path):
    law, params, good = sequence_case(tmp_path, ["X1", "X1", "X2"])  # a repeat must agree
    assert oracles.check_sequence(law, params, good) is None
    first = good.splitlines()[0]
    values = first.split(" = ")[0].split(",")
    other = next(v for v in law.values["X1"] if v != values[0])
    bad = good.replace(first, f"{values[0]},{other},{values[2]} = {first.split(' = ')[1]}", 1)
    assert "impossible" in oracles.check_sequence(law, params, bad)


def test_simulate_impossible_run_and_skewed_counts_are_flagged(tmp_path):
    doc = _random_deck(random.Random(5), 3, 3)
    plan = ["X1", "X1", "X2"]
    argv = ["simulate", "--deck", write_deck(tmp_path, doc), "--plan", ",".join(plan),
            "--trials", "2000", "--seed", "9"]
    good = cli_output(argv)
    law, params = oracles.ChainLaw(doc), {"plan": plan, "trials": 2000}
    assert oracles.check_simulate(law, params, good) is None
    lines = good.splitlines()
    impossible = lines[1].replace(lines[1].split()[0], "a,b,a", 1)
    assert "impossible" in oracles.check_simulate(law, params, good + impossible + "\n")
    # Move 300 of 2000 hits from the likeliest run to another: counts still sum to 2000.
    observed = {i: float(lines[i].split()[2][len("observed="):]) for i in range(1, len(lines))}
    top = max(observed, key=observed.get)
    other = 1 if top != 1 else 2
    skewed = list(lines)
    for i, shift in ((top, -0.15), (other, 0.15)):
        skewed[i] = lines[i].replace(f"observed={observed[i]:.6f}", f"observed={observed[i] + shift:.6f}")
    assert "hits" in oracles.check_simulate(law, params, "\n".join(skewed) + "\n")


def test_wrong_witness_verdicts_are_flagged(tmp_path):
    rng = random.Random(2)
    full, corr = _random_deck(rng, 3, 3), _random_deck(rng, 3, 3, correlated=True)
    found = cli_output(["witness", "--deck", write_deck(tmp_path, full, "full")])
    none = cli_output(["witness", "--deck", write_deck(tmp_path, corr, "corr")])
    full_law, corr_law = oracles.ChainLaw(full), oracles.ChainLaw(corr)
    assert none == "none\n"
    assert oracles.check_witness(full_law, found) is None
    assert oracles.check_witness(corr_law, none) is None
    assert "has a witness" in oracles.check_witness(full_law, none)
    assert "witness-free" in oracles.check_witness(corr_law, found)
    head, _, p = found.splitlines()[0].partition("  probability = ")
    halved = f"{head}  probability = {oracles.Fraction(p) / 2}\n{found.splitlines()[1]}\n"
    assert "oracle" in oracles.check_witness(full_law, halved)


def test_unparseable_output_is_a_failed_check_not_a_crash(tmp_path):
    doc = _random_deck(random.Random(11), 3, 3)
    op = Op("sequence", ("sequence",), 9, {"plan": ["X1", "X2"]}, doc)
    good = cli_output(["sequence", "--deck", write_deck(tmp_path, doc), "--plan", "X1,X2"])
    checker = oracles.Checker()
    assert checker.check(op, good) is None
    assert "unparseable" in checker.check(op, good.replace(" = ", " = x/", 1))


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rank-quantum",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
