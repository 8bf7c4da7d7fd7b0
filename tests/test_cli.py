import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dofcount
from dofcount import Deck, Outcome, serialize_deck_file, urn_as_cardbox, urn_deck
from dofcount.cli import CSV_HEADER, cli_main


@pytest.fixture
def deck_file(tmp_path, four_card_spec, four_card_deck):
    path = tmp_path / "cards4.json"
    path.write_text(serialize_deck_file(four_card_spec, four_card_deck))
    return str(path)


@pytest.fixture
def urn_file(tmp_path):
    deck = urn_deck([1, 2])
    path = tmp_path / "urn.json"
    path.write_text(serialize_deck_file(urn_as_cardbox(2), deck))
    return str(path)


@pytest.fixture
def single_card_file(tmp_path, four_card_spec):
    deck = Deck.from_counts(four_card_spec, {("K", "H"): 1})
    path = tmp_path / "single.json"
    path.write_text(serialize_deck_file(four_card_spec, deck))
    return str(path)


class TestSequenceCommand:
    def test_suit_face_suit(self, deck_file, capsys):
        assert cli_main(["sequence", "--deck", deck_file, "--plan", "Suit,Face,Suit"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "H,K,S = 1/8" in lines
        assert len(lines) == 8
        assert all(line.endswith("= 1/8") for line in lines)

    def test_unknown_variable_is_validation_error(self, deck_file, capsys):
        assert cli_main(["sequence", "--deck", deck_file, "--plan", "Rank"]) == 2
        assert "Rank" in capsys.readouterr().err


class TestWitnessCommand:
    def test_four_card_witness(self, deck_file, capsys):
        assert cli_main(["witness", "--deck", deck_file]) == 0
        out = capsys.readouterr().out
        assert "probability = 1/8" in out
        assert "->" in out
        assert "violates:" in out

    def test_single_card_deck_has_none(self, single_card_file, capsys):
        assert cli_main(["witness", "--deck", single_card_file]) == 0
        assert capsys.readouterr().out.strip() == "none"

    def test_urn_reports_single_variable(self, urn_file, capsys):
        assert cli_main(["witness", "--deck", urn_file]) == 2
        assert "single-variable" in capsys.readouterr().err


class TestRankCommand:
    def test_urn_row(self, capsys):
        assert cli_main(["rank", "--system", "urn", "--n", "4", "--seed", "7"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == CSV_HEADER
        assert out[1] == "urn,4,1,4,4,4,40,true,7"

    def test_cardbox_row(self, capsys):
        assert cli_main(
            ["rank", "--system", "cardbox", "--n", "2", "--v", "2", "--seed", "7"]
        ) == 0
        assert capsys.readouterr().out.splitlines()[1] == "cardbox,2,2,3,4,4,40,true,7"

    def test_quantum_row(self, capsys):
        assert cli_main(["rank", "--system", "quantum", "--n", "2", "--seed", "7"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "quantum,2,3,4,6,4,60,true,7"

    def test_cardbox_requires_v(self, capsys):
        assert cli_main(["rank", "--system", "cardbox", "--n", "2"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_n_is_validation_error(self, capsys):
        assert cli_main(["rank", "--system", "urn", "--n", "1"]) == 2

    @pytest.mark.parametrize("max_mult", [2**62, 2**63])
    def test_deck_total_past_int64_is_validation_error(self, capsys, max_mult):
        argv = ["rank", "--system", "cardbox", "--n", "2", "--v", "2", "--max-mult", str(max_mult)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert "2**63 - 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "1", "2.5", "0"])
    def test_bad_tolerance_is_validation_error(self, capsys, tol):
        # a threshold that is not finite, or not below 1, would count no
        # singular value and print K_rank 0
        argv = ["rank", "--system", "quantum", "--n", "3", "--tol", tol]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert "tolerance" in captured.err
        assert captured.out == ""

    def test_ensemble_flag_is_echoed(self, capsys):
        assert cli_main(
            ["rank", "--system", "urn", "--n", "3", "--ensemble", "12", "--seed", "1"]
        ) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[6] == "12"


class TestSimulateCommand:
    def test_within_bounds_at_fixed_seed(self, deck_file, capsys):
        assert cli_main(
            [
                "simulate",
                "--deck",
                deck_file,
                "--plan",
                "Suit,Face,Suit",
                "--trials",
                "10000",
                "--seed",
                "7",
            ]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# plan=Suit,Face,Suit")
        assert len(lines) == 9
        assert all(line.endswith(" ok") for line in lines[1:])

    def test_rerun_is_byte_identical(self, deck_file, capsys):
        argv = ["simulate", "--deck", deck_file, "--plan", "Face,Suit,Face", "--seed", "11"]
        outputs = []
        for _ in range(2):
            assert cli_main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_bad_trials(self, deck_file, capsys):
        assert cli_main(
            ["simulate", "--deck", deck_file, "--plan", "Suit", "--trials", "0"]
        ) == 1

    def test_trials_above_cap_is_validation_error(self, deck_file, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew despite the trial cap")

        monkeypatch.setattr("dofcount.rng.RandomStream.integers_below", no_draws)
        argv = ["simulate", "--deck", deck_file, "--plan", "Suit", "--trials", str(10**8 + 1)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert "100,000,000" in captured.err
        assert captured.out == ""

    def test_impossible_run_is_internal_error(self, deck_file, capsys, monkeypatch):
        # a sampler that reports a sequence the exact law gives probability 0
        impossible = (Outcome("Suit", "S"), Outcome("Suit", "H"))
        monkeypatch.setattr(
            "dofcount.cli.simulate_plan",
            lambda deck, plan, trials, rng: {impossible: trials},
        )
        argv = ["simulate", "--deck", deck_file, "--plan", "Suit,Suit", "--trials", "5"]
        assert cli_main(argv) == 3
        captured = capsys.readouterr()
        assert "impossible" in captured.err
        assert captured.out == ""


# 2**20 possible runs on the four-card deck, past the support limit
LONG_PLAN = ",".join(["Suit", "Face"] * 10)


@pytest.mark.parametrize("command", ["sequence", "simulate"])
def test_support_limit_is_validation_error(deck_file, capsys, command):
    assert cli_main([command, "--deck", deck_file, "--plan", LONG_PLAN]) == 2
    captured = capsys.readouterr()
    assert "262,144" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--system", "cardbox", "--n", "10", "--v", "8"],
        ["rank", "--system", "urn", "--n", "5000"],
        ["sweep", "--systems", "cardbox,urn", "--n-range", "2..10", "--v-range", "8..8"],
    ],
)
def test_card_type_limit_fails_fast(capsys, argv):
    start = time.perf_counter()
    assert cli_main(argv) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert "MAX_CARD_TYPES = 4,096" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [["sequence"], ["simulate", "--trials", "100"]])
def test_closed_pipe_exits_quietly(deck_file, command):
    # 16,384 output lines outgrow the pipe buffer, so the writer meets the closed end
    plan = ",".join(["Suit", "Face"] * 7)
    src = str(Path(dofcount.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "dofcount", *command, "--deck", deck_file, "--plan", plan],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in stderr


def test_package_has_no_assert_statements():
    # invariants must raise InvariantError, which `python -O` cannot strip
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(dofcount.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


class TestSweepCommand:
    ARGS = [
        "sweep",
        "--n-range",
        "2..3",
        "--v-range",
        "1..2",
        "--systems",
        "cardbox,urn",
        "--seed",
        "42",
    ]

    def test_stdout_csv(self, capsys):
        assert cli_main(self.ARGS) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4 + 2  # cardbox 2x2 cells + urn per N
        assert lines[1].startswith("cardbox,2,1,")

    def test_file_output_matches_stdout(self, tmp_path, capsys):
        out_file = tmp_path / "report.csv"
        assert cli_main(self.ARGS + ["--out", str(out_file)]) == 0
        capsys.readouterr()
        assert cli_main(self.ARGS) == 0
        assert out_file.read_text() == capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(self.ARGS + ["--out", str(a)]) == 0
        assert cli_main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_output(self, capsys):
        assert cli_main(self.ARGS + ["--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 6
        assert set(reports[0]) == {
            "kind",
            "N",
            "V_or_M",
            "K_rank",
            "K_naive",
            "K_paper",
            "ensemble",
            "saturated",
            "seed",
        }
        assert all(r["seed"] == 42 for r in reports)

    def test_single_value_ranges(self, capsys):
        assert cli_main(
            ["sweep", "--n-range", "3", "--v-range", "2", "--systems", "cardbox"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("cardbox,3,2,5,")

    def test_quantum_rows(self, capsys):
        assert cli_main(
            ["sweep", "--n-range", "2", "--v-range", "1", "--systems", "quantum", "--seed", "1"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("quantum,2,3,4,6,4,")

    @pytest.mark.parametrize("tol", ["nan", "inf", "1"])
    def test_bad_tolerance_is_validation_error(self, capsys, tol):
        argv = ["sweep", "--n-range", "2..3", "--v-range", "1", "--tol", tol]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert "tolerance" in captured.err
        assert captured.out == ""

    def test_reversed_range_is_usage_error(self, capsys):
        assert cli_main(["sweep", "--n-range", "4..2", "--v-range", "1"]) == 1

    def test_unknown_system_is_validation_error(self, capsys):
        assert cli_main(
            ["sweep", "--n-range", "2", "--v-range", "1", "--systems", "abacus"]
        ) == 2


class TestExitCodes:
    def test_missing_subcommand(self, capsys):
        assert cli_main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unreadable_deck(self, tmp_path, capsys):
        assert cli_main(["witness", "--deck", str(tmp_path / "nope.json")]) == 2

    def test_malformed_deck(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert cli_main(["witness", "--deck", str(path)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_internal_invariant_failure(self, deck_file, capsys, monkeypatch):
        from dofcount.errors import InvariantError

        def boom(*args, **kwargs):
            raise InvariantError("synthetic failure")

        monkeypatch.setattr("dofcount.cli.sequence_distribution", boom)
        assert cli_main(["sequence", "--deck", deck_file, "--plan", "Suit"]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "dofcount" in capsys.readouterr().out


class TestSeedResolution:
    def test_env_seed_used_as_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("DOFCOUNT_SEED", "9")
        assert cli_main(["rank", "--system", "urn", "--n", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",9")

    def test_flag_wins_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DOFCOUNT_SEED", "9")
        assert cli_main(["rank", "--system", "urn", "--n", "2", "--seed", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",3")

    def test_default_seed_is_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("DOFCOUNT_SEED", raising=False)
        assert cli_main(["rank", "--system", "urn", "--n", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",0")

    def test_invalid_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("DOFCOUNT_SEED", "not-a-number")
        assert cli_main(["rank", "--system", "urn", "--n", "2"]) == 2
        assert "DOFCOUNT_SEED" in capsys.readouterr().err
