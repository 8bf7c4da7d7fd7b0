import ast
import contextlib
import importlib
import io
import itertools
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dofcount
from conftest import (
    deck_strategy, top_level_cli_main, tree_sequence_distribution, urn_deck, without_last_run
)
from dofcount import Deck, Outcome, RandomStream, SystemSpec
from dofcount import cli, sequences
from dofcount.cli import CSV_HEADER, UsageError, cli_main
from dofcount.deckfile import parse_deck_file, serialize_deck_file
from dofcount.errors import DofcountError, InvariantError, ValidationError
from dofcount.sequences import sequence_distribution
from dofcount.tomography import estimate_k

REPO = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"


@pytest.fixture
def deck_file(tmp_path, four_card_deck):
    path = tmp_path / "cards4.json"
    path.write_text(serialize_deck_file(four_card_deck))
    return str(path)


@pytest.fixture
def urn_file(tmp_path):
    deck = urn_deck([1, 2])
    path = tmp_path / "urn.json"
    path.write_text(serialize_deck_file(deck))
    return str(path)


@pytest.fixture
def single_card_file(tmp_path, four_card_spec):
    deck = Deck.from_counts(four_card_spec, {("K", "H"): 1})
    path = tmp_path / "single.json"
    path.write_text(serialize_deck_file(deck))
    return str(path)


@st.composite
def labelled_decks(draw):
    """Decks with drawn value labels: multi-character, non-ASCII, commas.

    Half are scaled past ``2**70`` (with a distinct offset per card, so the
    fractions differ from the small deck's), which puts the law on Python ints.
    """
    deck = draw(deck_strategy())
    n = deck.spec.values_per_variable
    label = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3)
    spec = dofcount.SystemSpec(tuple(
        (name, tuple(draw(st.lists(label, min_size=n, max_size=n, unique=True))))
        for name in deck.spec.variable_names
    ))
    scale = draw(st.sampled_from([1, 2**70]))
    return Deck(spec, deck.values, [count * scale + k for k, count in enumerate(deck.counts)])


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

    @pytest.mark.parametrize(
        "deck, plan, golden",
        [
            (REPO / "decks" / "cards4.json", "Suit,Face," * 3 + "Suit,Face", "cards4_alternating"),
            (DATA / "decks" / "weighted3.json", "Colour,Colour,Shape,Colour,Shape,Shape,Colour",
             "weighted3_repeats"),
            (DATA / "decks" / "single_card.json", "Face,Suit,Suit,Face", "single_card"),  # "= 1"
            (DATA / "decks" / "large_mult.json", "Colour,Shape,Colour,Shape",
             "large_mult"),  # multiplicities near 2**40: the law runs on Python ints
            (DATA / "decks" / "total_2_63.json", "Colour,Shape,Colour,Shape",
             "total_2_63"),  # total 2**63 + 16: the pair counts are Python ints too
        ],
        ids=["alternating", "immediate-repeats", "probability-one", "large-multiplicity",
             "total-past-int64"],
    )
    def test_matches_golden_file(self, capsysbinary, deck, plan, golden):
        assert cli_main(["sequence", "--deck", str(deck), "--plan", plan]) == 0
        assert capsysbinary.readouterr().out == (DATA / f"sequence_{golden}.txt").read_bytes()

    @given(deck=deck_strategy(), data=st.data())
    def test_lines_match_tree_oracle(self, deck, data):
        names = deck.spec.variable_names
        plan = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=4))
        _assert_sequence_lines_match_tree(deck, plan)

    def test_huge_multiplicities_match_tree_oracle(self, huge_deck):
        _assert_sequence_lines_match_tree(huge_deck, ("Suit", "Face", "Suit", "Suit", "Face"))

    @given(deck=labelled_decks(), data=st.data())
    def test_lines_match_law_items(self, deck, data):
        names = deck.spec.variable_names
        plan = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=5))
        _assert_sequence_lines_match_law(deck, plan)

    @pytest.mark.parametrize(
        "deck, plan",
        [
            (DATA / "decks" / "weighted3.json", ("Shape",)),  # one step: no comma
            (DATA / "decks" / "single_card.json", ("Face", "Suit", "Face")),  # "= 1", no "/1"
            (DATA / "decks" / "large_mult.json", ("Colour", "Shape", "Colour")),  # object side
            (REPO / "decks" / "cards4.json", ("Suit", "Face") * 7),  # 16,384 lines
        ],
        ids=["one-step", "probability-one", "large-multiplicity", "many-slices"],
    )
    def test_shipped_decks_match_law_items(self, deck, plan):
        deck = parse_deck_file(deck.read_bytes())
        writes = _assert_sequence_lines_match_law(deck, plan)
        if len(plan) == 14:  # several join blocks, many write slices
            assert "".join(writes).count("\n") > 3 * cli._JOIN_ROWS and len(writes) > 50

    def test_huge_multiplicities_match_law_items(self, huge_deck):
        _assert_sequence_lines_match_law(huge_deck, ("Face", "Suit", "Face", "Face"))


class _Writes(list):
    """A stdout that keeps every ``write`` call's text."""

    def write(self, text):
        self.append(text)


def _sequence_writes(deck, plan) -> list[str]:
    """The texts CLI ``sequence`` writes to stdout, one per write call."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "deck.json"
        path.write_text(serialize_deck_file(deck))
        writes = _Writes()
        with contextlib.redirect_stdout(writes):
            assert cli_main(["sequence", "--deck", str(path), "--plan", ",".join(plan)]) == 0
    return writes


def _assert_sequence_lines_match_tree(deck, plan):
    """CLI ``sequence`` stdout, line for line, against the literal outcome tree."""
    expected = "".join(
        f"{','.join(o.value for o in run)} = {p}\n"
        for run, p in tree_sequence_distribution(deck, plan).items()
    )
    assert "".join(_sequence_writes(deck, plan)) == expected


def _assert_sequence_lines_match_law(deck, plan) -> list[str]:
    """CLI ``sequence`` stdout against lines built one by one from the law's runs.

    Checks the renderer alone: each line is the run's labels joined by
    commas, " = " and ``str`` of its ``Fraction``.  Every write is at most
    ``io.DEFAULT_BUFFER_SIZE`` characters.  Returns the writes.
    """
    expected = "".join(
        ",".join(o.value for o in run) + " = " + str(p) + "\n"
        for run, p in sequence_distribution(deck, plan).items()
    )
    writes = _sequence_writes(deck, plan)
    assert "".join(writes) == expected
    assert max(map(len, writes)) <= io.DEFAULT_BUFFER_SIZE
    return writes


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

    @pytest.mark.parametrize(
        "deck",
        [
            REPO / "decks" / "cards4.json",
            DATA / "decks" / "weighted3.json",
            DATA / "decks" / "large_mult.json",  # multiplicities near 2**40
            DATA / "decks" / "total_2_63.json",  # total 2**63 + 16
            DATA / "decks" / "single_card.json",  # "none"
            DATA / "decks" / "diagonal_200.json",  # "none" over 200 values per variable
        ],
        ids=lambda path: path.stem,
    )
    def test_matches_golden_file(self, capsysbinary, deck):
        assert cli_main(["witness", "--deck", str(deck)]) == 0
        assert capsysbinary.readouterr().out == (DATA / f"witness_{deck.stem}.txt").read_bytes()


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

    @pytest.mark.parametrize(
        "flags, n", [(["--n", "-3"], -3), (["--n", "1", "--m", "0"], 1), (["--n", "0", "--m", "-2"], 0)]
    )
    def test_bad_quantum_dimension_is_named_before_the_basis_count(self, capsys, flags, n):
        # n = -3 defaults to M = -2 bases: the dimension is the fault to name
        assert cli_main(["rank", "--system", "quantum", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip().endswith(f"dimension must be at least 2, got {n}")
        assert captured.out == ""

    @pytest.mark.parametrize("max_mult", [2**62, 2**63])
    def test_deck_total_past_int64_is_validation_error(self, capsys, max_mult):
        argv = ["rank", "--system", "cardbox", "--n", "2", "--v", "2", "--max-mult", str(max_mult)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert "2**63 - 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "system, flag, value",
        [
            ("urn", "--v", "5"),  # --v is read by cardbox only
            ("quantum", "--v", "2"),
            ("urn", "--m", "3"),  # --m is read by quantum only
            ("cardbox", "--m", "3"),
            ("quantum", "--max-mult", "3"),
        ],
    )
    def test_flag_for_another_system_is_usage_error(self, capsys, system, flag, value):
        argv = ["rank", "--system", system, "--n", "3", flag, value, "--seed", "1"]
        if system == "cardbox":
            argv += ["--v", "2"]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert f"{flag} does not apply to {system} systems" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "bare, explicit",
        [
            (["--system", "urn", "--n", "3"], ["--max-mult", "2"]),
            (["--system", "cardbox", "--n", "2", "--v", "2"], ["--max-mult", "2"]),
            (["--system", "quantum", "--n", "2"], ["--m", "3"]),
        ],
    )
    def test_spelled_out_defaults_print_the_bare_output(self, capsys, bare, explicit):
        assert cli_main(["rank", *bare, "--seed", "1"]) == 0
        expected = capsys.readouterr().out
        assert cli_main(["rank", *bare, *explicit, "--seed", "1"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "argv, options",
        [
            (["--system", "urn", "--n", "3", "--max-mult", "5"], {"max_multiplicity": 5}),
            (["--system", "cardbox", "--n", "2", "--v", "3", "--max-mult", "4"],
             {"v_or_m": 3, "max_multiplicity": 4}),
            (["--system", "quantum", "--n", "2", "--m", "2"], {"v_or_m": 2}),
            (["--system", "quantum", "--n", "2"], {}),
        ],
    )
    def test_flags_for_the_chosen_system_reach_estimate_k(self, monkeypatch, argv, options):
        calls = []

        def record(kind, n, *, ensemble, rng, **kwargs):
            calls.append(kwargs)
            return estimate_k(kind, n, ensemble=ensemble, rng=rng, **kwargs)

        monkeypatch.setattr(cli, "estimate_k", record)
        assert cli_main(["rank", *argv]) == 0
        assert calls == [options]

    def test_ensemble_flag_is_echoed(self, capsys):
        assert cli_main(
            ["rank", "--system", "urn", "--n", "3", "--ensemble", "12", "--seed", "1"]
        ) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[6] == "12"


def rank_grid_argvs():
    """The argvs of ``data/rank_grid.txt``: each system with only its own flags,
    at valid, boundary and blow-up values, then sweeps that pass a bad flag to
    mixes of systems."""
    def flag(name, value):
        return [] if value is None else [name, value]

    ns, ensembles = ["-3", "1", "2", "3", "5000"], [None, "0", "1", "3", "40"]
    for n, ensemble in itertools.product(ns, ensembles):
        head = ["--n", n, *flag("--ensemble", ensemble)]
        for max_mult in [None, "0", "3", str(2**63)]:
            yield ["rank", "--system", "urn", *head, *flag("--max-mult", max_mult)]
            for v in ["0", "2", "3", str(10**8)]:
                yield ["rank", "--system", "cardbox", *head, "--v", v,
                       *flag("--max-mult", max_mult)]
        for m in [None, "0", "1", "3", str(10**7)]:
            yield ["rank", "--system", "quantum", *head, *flag("--m", m)]
    bad = [["--ensemble", "0"], ["--max-mult", "0"], ["--ensemble", "0", "--max-mult", "0"]]
    mixes = ["cardbox", "urn", "quantum", "cardbox,quantum", "quantum,urn", "cardbox,quantum,urn"]
    for systems, flags in itertools.product(mixes, bad):
        yield ["sweep", "--systems", systems, "--n-range", "2..2", "--v-range", "2..2", *flags]


def test_rank_grid_matches_its_file(capsys):
    # each line: the exit code, the argv, and the report row or the one stderr line
    lines = [line.split("\t") for line in (DATA / "rank_grid.txt").read_text().splitlines()]
    assert [shlex.split(argv) for _, argv, _ in lines] == list(rank_grid_argvs())
    wrong = []
    for code, argv, line in lines:
        expected = (f"{CSV_HEADER}\n{line}\n", "") if code == "0" else ("", f"{line}\n")
        got = cli_main(shlex.split(argv))
        if (str(got), *capsys.readouterr()) != (code, *expected):
            wrong.append(argv)
    assert wrong == []


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("rank_urn_n3_ens1", "rank --system urn --n 3 --ensemble 1"),
        ("rank_cardbox_n3_v3_mult3", "rank --system cardbox --n 3 --v 3 --max-mult 3"),
        ("rank_quantum_n3_m3_ens1", "rank --system quantum --n 3 --ensemble 1 --m 3"),  # fallback
    ],
)
def test_rank_matches_golden_file_and_grid(capsysbinary, golden, argv):
    assert cli_main(shlex.split(argv)) == 0
    expected = (DATA / f"{golden}.txt").read_bytes()
    assert capsysbinary.readouterr().out == expected
    grid = (DATA / "rank_grid.txt").read_text()
    assert f"0\t{argv}\t{expected.decode().splitlines()[1]}\n" in grid


@pytest.mark.parametrize(
    "argv, code",
    [
        (["rank", "--system", "urn", "--n", "4"], 0),
        (["rank", "--system", "cardbox", "--n", "3", "--v", "2"], 0),
        (["sweep", "--systems", "cardbox,urn", "--n-range", "2..3", "--v-range", "1..3"], 0),
        (["rank", "--system", "urn", "--n", "100000000000"], 2),
        (["rank", "--system", "cardbox", "--n", "3", "--v", "100000000"], 2),
    ],
)
def test_classical_k_path_builds_no_spec(capsys, monkeypatch, argv, code):
    # a classical K cell is its shape (N, V): no spec, so no value or
    # variable names, which at 10**11 positions would fill the memory
    def no_spec(spec):
        raise AssertionError("the K path built a SystemSpec")

    monkeypatch.setattr(SystemSpec, "__post_init__", no_spec)
    assert cli_main(argv) == code
    assert (capsys.readouterr().err == "") == (code == 0)


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
        ) == 2
        assert capsys.readouterr() == ("", "error: trials must be positive\n")

    def test_trials_above_cap_is_validation_error(self, deck_file, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew despite the trial cap")

        monkeypatch.setattr("dofcount.rng.RandomStream.multinomial", no_draws)
        argv = ["simulate", "--deck", deck_file, "--plan", "Suit", "--trials", str(10**8 + 1)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert "100,000,000" in captured.err
        assert captured.out == ""

    def test_impossible_run_is_internal_error(self, deck_file, capsys, monkeypatch):
        # a law missing its last leaf, H,H: its runs sum to 1/2
        exact = sequences.sequence_distribution
        monkeypatch.setattr(sequences, "sequence_distribution",
                            lambda deck, plan: without_last_run(exact(deck, plan)))
        argv = ["simulate", "--deck", deck_file, "--plan", "Suit,Suit", "--trials", "100"]
        assert cli_main(argv) == 3
        captured = capsys.readouterr()
        assert "the law's run probabilities sum to 0.5, not 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "deck, plan, trials, seed, golden",
        [
            (REPO / "decks" / "cards4.json", "Suit,Face,Suit", 10_000, 7, "cards4_seed7"),  # README
            (DATA / "decks" / "weighted3.json", "Colour,Shape,Shape,Colour", 65_537, 5,
             "weighted3_65537"),  # a repeated switch on unequal multiplicities
            (DATA / "decks" / "large_mult.json", "Shape,Colour,Shape,Colour", 30_000, 3,
             "large_mult"),  # multiplicities near 2**40
            (DATA / "decks" / "total_2_63.json", "Shape,Colour,Shape", 20_000, 11,
             "total_2_63"),  # total 2**63 + 16: object chain weights
        ],
        ids=["readme", "repeated-switch", "large-multiplicity", "total-past-int64"],
    )
    def test_matches_golden_file(self, capsysbinary, deck, plan, trials, seed, golden):
        argv = ["simulate", "--deck", str(deck), "--plan", plan, "--trials", str(trials),
                "--seed", str(seed)]
        assert cli_main(argv) == 0
        assert capsysbinary.readouterr().out == (DATA / f"simulate_{golden}.txt").read_bytes()


@pytest.mark.parametrize("command", ["sequence", "simulate"])
def test_no_outcome_is_built(deck_file, capsys, monkeypatch, command):
    def no_outcome(self, *args, **kwargs):
        raise AssertionError("built an Outcome")

    monkeypatch.setattr(Outcome, "__init__", no_outcome)
    assert cli_main([command, "--deck", deck_file, "--plan", "Suit,Face,Suit,Face"]) == 0
    assert len(capsys.readouterr().out.splitlines()) >= 16


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


@pytest.mark.parametrize(
    "ranges, message",
    [
        (["--n-range", "2..1000000", "--v-range", "1..4"], "MAX_CARD_TYPES"),
        (["--n-range", "2..1000", "--v-range", "1..1000"], "MAX_CARD_TYPES"),
        (["--n-range", f"2..{10**9}", "--v-range", "1"], r"2\*\*20 .* N=1000000000, V_or_M=1$"),
        (["--n-range", "2", "--v-range", f"1..{2**20}"], r"2\*\*20 .* N=2, V_or_M=1048576$"),
        ([f"--n-range={-10**9}..3", "--v-range", "1"], "N must be at least 2"),
        (["--n-range", "2", f"--v-range={-10**9}..3"], "V must be at least 1"),
        (["--systems", "quantum", "--n-range", f"2..{2**20 - 1}", "--v-range", "1"], r"2\*\*20"),
    ],
)
def test_huge_sweep_ranges_fail_fast(capsys, ranges, message):
    start = time.perf_counter()
    assert cli_main(["sweep", *ranges]) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert re.search(message, captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("systems", ["urn", "quantum"])
def test_unread_v_range_is_not_refused(capsys, systems):
    # urns and the quantum reference take no V from --v-range, so a bound
    # past the stream field reaches no cell's random stream
    argv = ["sweep", "--systems", systems, "--n-range", "2"]
    assert cli_main([*argv, "--v-range", f"1..{2**20}"]) == 0
    wide = capsys.readouterr()
    assert cli_main([*argv, "--v-range", "1"]) == 0
    assert wide == capsys.readouterr()


def test_huge_sweep_range_is_not_listed(capsys):
    # the largest cell is checked from the range's bounds: no million-int
    # list or set is built before the limit rejects it
    tracemalloc.start()
    try:
        assert cli_main(["sweep", "--n-range", "2..1000000", "--v-range", "1..4"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak traced memory {peak:,} bytes"
    assert "MAX_CARD_TYPES" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--system", "quantum", "--n", "76"],
        ["rank", "--system", "quantum", "--n", "4", "--m", "10000000", "--ensemble", "1"],
        ["sweep", "--systems", "quantum", "--n-range", "2..76", "--v-range", "1"],
    ],
)
def test_quantum_work_limit_fails_fast(capsys, monkeypatch, argv):
    def no_draw(self, size):
        raise AssertionError("drew past the Born-matrix entry limit")

    monkeypatch.setattr(RandomStream, "standard_normal", no_draw)
    start = time.perf_counter()
    assert cli_main(argv) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert "MAX_BORN_ENTRIES" in captured.err
    assert captured.out == ""


def test_huge_ensemble_that_stops_at_its_prefix_runs(capsys):
    # a billion states a half would pass MAX_BORN_ENTRIES, but the first 20
    # reach the ceiling n**2 = 4 and no other state is drawn
    start = time.perf_counter()
    argv = ["rank", "--system", "quantum", "--n", "2", "--ensemble", "1000000000"]
    assert cli_main(argv) == 0
    assert time.perf_counter() - start < 0.5
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[3] == "4" and row[6:8] == ["1000000000", "true"]


# 16,384 output lines outgrow the pipe buffer, so the writer meets the closed end
PIPE_PLAN = ["--deck", str(REPO / "decks" / "cards4.json"),
             "--plan", ",".join(["Suit", "Face"] * 7)]


@pytest.mark.parametrize(
    "command",
    [
        ["sequence", *PIPE_PLAN],
        ["simulate", "--trials", "100", *PIPE_PLAN],
        # 599 JSON reports, about 100 KB, in about a second
        ["sweep", "--systems", "urn", "--n-range", "2..600", "--v-range", "1", "--json",
         "--ensemble", "1"],
    ],
)
def test_closed_pipe_exits_quietly(command):
    src = str(Path(dofcount.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "dofcount", *command],
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

    @pytest.mark.parametrize("target", ["missing/report.csv", "."])
    def test_unwritable_output_is_validation_error(self, tmp_path, capsys, target):
        assert cli_main(self.ARGS + ["--out", str(tmp_path / target)]) == 2
        captured = capsys.readouterr()
        assert "cannot write output file" in captured.err
        assert captured.out == ""

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
        def boom(*args, **kwargs):
            raise InvariantError("synthetic failure")

        monkeypatch.setattr("dofcount.cli.sequence_distribution", boom)
        assert cli_main(["sequence", "--deck", deck_file, "--plan", "Suit"]) == 3
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sequence", "simulate", "witness"])
    @pytest.mark.parametrize(
        "data, fault",
        [
            (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
            (b'{"variables": [{"name": "A", "values": ["\xe9"]}]}', "can't decode byte 0xe9"),
            (b"[" * 200_000, "maximum recursion depth exceeded"),
            (b'{"cards": [{"count": ' + b"7" * 5_000 + b"}]}", "Exceeds the limit (4300 digits)"),
        ],
        ids=["bad-utf8-start", "bad-utf8-value", "nested-200000", "count-5000-digits"],
    )
    def test_unreadable_json_is_a_validation_error(self, tmp_path, capsys, command, data, fault):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        argv = [command, "--deck", str(path)] + ([] if command == "witness" else ["--plan", "A"])
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not valid JSON: ")
        assert fault in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("head, tol", [
        *[(["rank", "--system", system, "--n", "3"], "1e-9") for system in ("quantum", "urn", "cardbox")],
        *[(["rank", "--system", "quantum", "--n", "3"], tol) for tol in ("nan", "inf", "1", "2.5", "0")],
        *[(["sweep", "--n-range", "2..3", "--v-range", "1"], tol) for tol in ("1e-9", "nan", "inf", "1")],
    ])
    def test_tol_is_not_a_flag(self, capsys, head, tol):
        # quantum ranks count singular values above the fixed RANK_TOL; a
        # value once refused as a bad tolerance (exit 2) is now refused with
        # the flag, and so is the flag for systems that never read it
        assert cli_main([*head, "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: unrecognized arguments: --tol {tol}\n"
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "dofcount" in capsys.readouterr().out


CARDS4 = str(REPO / "decks" / "cards4.json")
DISPATCH_ARGVS = [
    # every subcommand, valid
    ["simulate", "--deck", CARDS4, "--plan", "Suit,Face,Suit", "--trials", "100", "--seed", "1"],
    ["sequence", "--deck", CARDS4, "--plan", "Suit,Face"],
    ["witness", "--deck", CARDS4],
    ["witness", "--de", CARDS4],  # an abbreviated flag
    ["rank", "--system", "urn", "--n", "3", "--seed", "2"],
    ["sweep", "--systems", "cardbox,urn", "--n-range", "2..3", "--v-range", "1..2", "--seed", "1"],
    ["sweep", "--systems", "urn", "--n-range", "2", "--v-range", "1", "--json"],
    # a missing required flag
    ["witness"],
    ["sequence", "--deck", CARDS4],
    ["rank", "--n", "2"],
    ["witness", "--deck"],
    # a bad int or choice
    ["rank", "--system", "urn", "--n", "x"],
    ["simulate", "--deck", CARDS4, "--plan", "Suit", "--trials", "1e5"],
    ["rank", "--system", "abacus", "--n", "2"],
    # an unknown flag, an extra positional
    ["witness", "--deck", CARDS4, "--colour", "red"],
    ["witness", "--deck", CARDS4, "extra"],
    ["sweep", "--n-range", "2", "--v-range", "1", "--seed", "1", "2"],
    # an unknown command, empty argv, help
    ["bogus"],
    ["--seed", "1", "witness", "--deck", CARDS4],
    [],
    ["--help"],
    ["-h"],
    ["--help", "witness"],
    ["witness", "--help"],
    ["rank", "-h"],
    ["sweep", "--n-range", "2", "--help"],
]


class TestDispatch:
    @staticmethod
    def _captured(main, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
    def test_matches_the_top_level_parser(self, argv):
        assert self._captured(cli_main, argv) == self._captured(top_level_cli_main, argv)

    def test_known_command_is_parsed_by_its_own_parser_only(self, monkeypatch):
        parser = cli.build_parser()
        monkeypatch.setattr(parser, "parse_args", None)  # the top-level parser is not called
        assert self._captured(cli_main, ["witness", "--deck", CARDS4])[0] == 0


class TestSeedResolution:
    def test_default_seed_is_zero(self, capsys):
        assert cli_main(["rank", "--system", "urn", "--n", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",0")

    def test_flag_sets_the_seed(self, capsys):
        assert cli_main(["rank", "--system", "urn", "--n", "2", "--seed", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",3")

    def test_the_environment_does_not_set_the_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("DOFCOUNT_SEED", "9")  # the variable the seed once fell back to
        assert cli_main(["rank", "--system", "urn", "--n", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",0")


def _deck_json(variables, cards):
    return json.dumps({
        "variables": [{"name": name, "values": values} for name, values in variables],
        "cards": [{"assignment": assignment, "count": 1} for assignment in cards],
    })


def _failure(name, argv, code, line, deck=None, patch=None):
    """One row of the error contract: ``argv`` (``{deck}`` is the path of a file holding
    ``deck``), with ``patch = (attribute under dofcount, value)`` applied, exits ``code``
    and writes only ``line`` to stderr."""
    return pytest.param(argv, deck, patch, code, line, id=name)


_XY = ["x", "y"]
_AB = [("A", _XY), ("B", _XY)]
WITNESS = ["witness", "--deck", "{deck}"]
# two cards on two variables of 9,000 values: a 160 KB file past MAX_CHAIN_VALUES
_WIDE = _deck_json([(name, [f"v{i}" for i in range(9000)]) for name in "AB"],
                   [{"A": "v0", "B": "v0"}, {"A": "v1", "B": "v1"}])
_TOO_WIDE = "error: V*N = 2*9000 variable values exceed the limit MAX_CHAIN_VALUES = 2,048"
ERROR_CONTRACT = [
    _failure("unknown-plan-variable", ["sequence", "--deck", CARDS4, "--plan", "Suit,Rank"],
             2, "error: unknown variable 'Rank'"),
    _failure("unknown-simulate-variable",
             ["simulate", "--deck", CARDS4, "--plan", "Face,Suit,X", "--trials", "10"],
             2, "error: unknown variable 'X'"),
    _failure("urn-witness", WITNESS, 2,
             "error: a single-variable (urn) system cannot produce a contradictory repeat",
             deck=_deck_json([("Pos", ["p1", "p2"])], [{"Pos": "p1"}])),
    _failure("urn-n", ["rank", "--system", "urn", "--n", "1"],
             2, "error: an urn needs at least 2 positions, got 1"),
    _failure("cardbox-n", ["rank", "--system", "cardbox", "--n", "1", "--v", "2"],
             2, "error: need at least 1 variable of 2 values, got V=2, N=1"),
    _failure("urn-card-types", ["rank", "--system", "urn", "--n", "100000000000"], 2,
             "error: N**V = 100000000000**1 card types exceed the limit MAX_CARD_TYPES = 4,096"),
    _failure("cardbox-card-types", ["rank", "--system", "cardbox", "--n", "3", "--v", "100000000"],
             2, "error: N**V = 3**100000000 card types exceed the limit MAX_CARD_TYPES = 4,096"),
    _failure("quantum-n", ["rank", "--system", "quantum", "--n", "1"],
             2, "error: dimension must be at least 2, got 1"),
    _failure("duplicate-variable", WITNESS, 2, "error: duplicate variable names in ('A', 'A')",
             deck=_deck_json([("A", _XY)] * 2, [{"A": "x"}])),
    _failure("duplicate-value", WITNESS, 2, "error: duplicate value names for variable 'A'",
             deck=_deck_json([("A", ["x", "x"])], [{"A": "x"}])),
    _failure("arity", WITNESS, 2, "error: variable 'B' has 3 values, expected 2",
             deck=_deck_json([("A", _XY), ("B", ["x", "y", "z"])], [{"A": "x", "B": "x"}])),
    _failure("one-value", WITNESS, 2, "error: every variable needs at least two values",
             deck=_deck_json([("A", ["x"])], [{"A": "x"}])),
    _failure("unknown-value", WITNESS, 2,
             "error: cards[0].assignment: unknown value 'z' for variable 'B'",
             deck=_deck_json(_AB, [{"A": "x", "B": "z"}])),
    _failure("unknown-variable", WITNESS, 2, "error: cards[0].assignment: unknown variable 'C'",
             deck=_deck_json(_AB, [{"A": "x", "C": "x"}])),
    _failure("incomplete-card", WITNESS, 2, "error: cards[0].assignment: no value for variable 'B'",
             deck=_deck_json(_AB, [{"A": "x"}])),
    _failure("schema", WITNESS, 2, "error: variables: must be a nonempty array",
             deck='{"variables": [], "cards": []}'),
    _failure("malformed-json", WITNESS, 2, "error: not valid JSON: Expecting property name "
             "enclosed in double quotes: line 1 column 2 (char 1)", deck="{broken"),
    _failure("sweep-n", ["sweep", "--n-range", "1", "--v-range", "1", "--systems", "urn"],
             2, "error: N must be at least 2"),
    _failure("unknown-system", ["sweep", "--n-range", "2", "--v-range", "1", "--systems", "abc"],
             2, "error: unknown system kind 'abc'"),
    _failure("negative-seed", ["rank", "--system", "urn", "--n", "2", "--seed", "-1"],
             2, "error: seed must be non-negative"),
    _failure("negative-seed-simulate", ["simulate", "--deck", CARDS4, "--plan", "Suit", "--seed", "-1"],
             2, "error: seed must be non-negative"),
    _failure("negative-seed-sweep", ["sweep", "--n-range", "2", "--v-range", "1", "--seed", "-1"],
             2, "error: seed must be non-negative"),
    _failure("degenerate-draw", ["rank", "--system", "quantum", "--n", "2"],
             3, "internal error: no nondegenerate basis draw in 8 attempts",
             patch=("quantum._PIVOT_TOL", float("inf"))),
    _failure("bad-trials", ["simulate", "--deck", CARDS4, "--plan", "Suit", "--trials", "0"],
             2, "error: trials must be positive"),
    _failure("empty-plan", ["sequence", "--deck", CARDS4, "--plan", ","],
             1, "usage error: plan must name at least one variable, got ','"),
    _failure("empty-systems", ["sweep", "--systems", ",", "--n-range", "2..2", "--v-range", "1..1"],
             1, "usage error: --systems must name at least one system kind, got ','"),
    _failure("wide-sequence", ["sequence", "--deck", "{deck}", "--plan", "A,B"], 2, _TOO_WIDE,
             deck=_WIDE),
    _failure("wide-simulate", ["simulate", "--deck", "{deck}", "--plan", "A,B"], 2, _TOO_WIDE,
             deck=_WIDE),
    _failure("wide-witness", WITNESS, 2, _TOO_WIDE, deck=_WIDE),
    _failure("range-not-integer", ["sweep", "--n-range", "2..x", "--v-range", "1"],
             1, "usage error: --n-range expects A..B or a single integer, got '2..x'"),
]


@pytest.mark.parametrize("argv, deck, patch, code, line", ERROR_CONTRACT)
def test_error_contract(tmp_path, capsys, monkeypatch, argv, deck, patch, code, line):
    if deck is not None:
        (tmp_path / "deck.json").write_text(deck)
    if patch is not None:
        monkeypatch.setattr(f"dofcount.{patch[0]}", patch[1])
    start = time.perf_counter()
    assert cli_main([arg.format(deck=tmp_path / "deck.json") for arg in argv]) == code
    assert time.perf_counter() - start < 1.0  # every refusal comes before the work it refuses
    assert capsys.readouterr() == ("", line + "\n")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_builtin_error_is_raised():
    # every error the package raises is one of its own classes
    raised = []
    for path in sorted(Path(dofcount.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                    raised.append(f"{path.name}:{node.lineno}")
    assert raised == []


def test_one_error_class_per_exit_code():
    for module in pkgutil.iter_modules(dofcount.__path__):
        if module.name != "__main__":  # runs the CLI
            importlib.import_module(f"dofcount.{module.name}")
    ours = [c for c in _subclasses(DofcountError) if c.__module__.startswith("dofcount.")]
    defined = {c: c.__bases__ for c in ours}
    assert defined == {
        UsageError: (DofcountError,),
        ValidationError: (DofcountError,),
        InvariantError: (DofcountError,),
    }


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (UsageError("boom"), 1, "usage error: "),
        (ValidationError("boom"), 2, "error: "),
        (InvariantError("boom"), 3, "internal error: "),
    ],
    ids=["usage", "validation", "invariant"],
)
def test_each_error_class_has_its_exit_code(capsys, monkeypatch, error, code, prefix):
    def fail(deck):
        raise error

    monkeypatch.setattr(cli, "find_classicality_witness", fail)
    assert cli_main(["witness", "--deck", CARDS4]) == code
    assert capsys.readouterr() == ("", prefix + "boom\n")
