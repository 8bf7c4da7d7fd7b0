"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` runs them as ordinary tests.
"""

import math
import time
from fractions import Fraction

import pytest

from conftest import exhaustive_fiducial_rank, joint_card_frequency, urn_deck
from dofcount import (
    RandomStream,
    cardbox_spec,
    check_repeatability,
    estimate_k,
    fiducial_vector_quantum,
    find_classicality_witness,
    k_sweep,
    matrix_rank_numeric,
    random_deck_ensemble,
    random_observable_set,
    random_pure_state,
    sequence_distribution,
    serialize_deck_file,
    uniform_deck,
)
from dofcount.cli import cli_main
from dofcount.errors import ValidationError
from dofcount.sequences import Outcome


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


@pytest.fixture
def four_card_file(tmp_path, four_card_spec):
    deck = uniform_deck(four_card_spec)
    path = tmp_path / "cards4.json"
    path.write_text(serialize_deck_file(four_card_spec, deck))
    return str(path)


def test_criterion_1_urn_k(capsys):
    start = time.perf_counter()
    for n in range(2, 7):
        code = cli_main(["rank", "--system", "urn", "--n", str(n), "--seed", "7"])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        kind, n_col, v_col, k_rank, k_naive, k_paper = row[:6]
        assert kind == "urn" and int(n_col) == n and int(v_col) == 1
        assert int(k_rank) == int(k_naive) == int(k_paper) == n
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"urn criterion took {elapsed:.2f}s"
    with capsys.disabled():
        _report(1, f"urn K_rank=K_naive=K_paper=n for n=2..6 ({elapsed:.2f}s)")


def test_criterion_2_cardbox_k(capsys):
    cases = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]
    start = time.perf_counter()
    for n, v in cases:
        spec = cardbox_spec(n, v)
        exact = exhaustive_fiducial_rank(spec)
        assert exact == v * (n - 1) + 1
        report = estimate_k("cardbox", n, v, rng=RandomStream(7))
        assert report.k_naive == n * v
        assert report.k_rank == exact
        if v >= 2:
            assert report.k_rank > n
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"cardbox criterion took {elapsed:.2f}s"
    with capsys.disabled():
        _report(
            2,
            f"exhaustive rank V(N-1)+1, K_naive=NV, K_rank>N for V>=2 "
            f"at {cases} ({elapsed:.2f}s)",
        )


def test_criterion_3_quantum_k(capsys):
    start = time.perf_counter()
    for n in (2, 3):
        for seed in range(10):
            rng = RandomStream(seed)
            observables = random_observable_set(n, n + 1, rng=rng)
            rows = [
                fiducial_vector_quantum(random_pure_state(n, rng), observables)
                for _ in range(2 * n * n)
            ]
            assert matrix_rank_numeric(rows, tol=1e-9) == n * n
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"quantum criterion took {elapsed:.2f}s"
    with capsys.disabled():
        _report(
            3, f"numeric rank n^2 for n in {{2,3}}, 10 seeds each ({elapsed:.2f}s)"
        )


def test_criterion_4_v_dependence(capsys):
    reports = k_sweep([3], [1, 2, 3], ["cardbox"], 42)
    ranks = {r.v_or_m: r.k_rank for r in reports}
    assert [ranks[v] for v in (1, 2, 3)] == [3, 5, 7]
    assert ranks[2] != ranks[1]
    with capsys.disabled():
        _report(4, "at N=3, K_rank over V=1,2,3 is 3,5,7; K depends on V")


def test_criterion_5_repeatability(capsys, four_card_spec):
    rng = RandomStream(2025)
    for _ in range(1000):
        n = 2 + rng.randint_below(3)
        v = 1 + rng.randint_below(3)
        deck = random_deck_ensemble(cardbox_spec(n, v), 1, 3, rng)[0]
        assert check_repeatability(deck).passed
    deck = uniform_deck(four_card_spec)
    dist = sequence_distribution(deck, ("Suit", "Suit"))
    hh = (Outcome("Suit", "H"), Outcome("Suit", "H"))
    assert dist.probability(hh) == Fraction(1, 2)
    assert len(dist) == 2  # no cross terms at all
    with capsys.disabled():
        _report(5, "0 violations on 1000 random decks; P(H,H)=1/2 with no cross terms")


def test_criterion_6_incompatibility_witness(capsys, four_card_spec):
    witness = find_classicality_witness(uniform_deck(four_card_spec))
    assert witness is not None
    assert len(witness.sequence) == 3
    assert witness.probability == Fraction(1, 8)

    rng = RandomStream(31)
    single_variable_decks = [urn_deck([1, 2]), urn_deck([2, 1, 1])]
    for n in (2, 3, 4):
        single_variable_decks += random_deck_ensemble(cardbox_spec(n, 1), 5, 2, rng)
    for deck in single_variable_decks:
        with pytest.raises(ValidationError, match=r"^a single-variable \(urn\) system cannot "
                           r"produce a contradictory repeat$"):
            find_classicality_witness(deck)
    with capsys.disabled():
        _report(6, "length-3 witness with probability 1/8; V=1 decks raise ValidationError")


def test_criterion_7_pair_order_invariance(capsys):
    rng = RandomStream(77)
    for _ in range(100):
        n = 2 + rng.randint_below(3)
        v = 2 + rng.randint_below(2)
        spec = cardbox_spec(n, v)
        deck = random_deck_ensemble(spec, 1, 3, rng)[0]
        for a in spec.variable_names:
            for b in spec.variable_names:
                if a == b:
                    continue
                ab, ba = sequence_distribution(deck, (a, b)), sequence_distribution(deck, (b, a))
                for x in spec.values_of(a):
                    for y in spec.values_of(b):
                        forward = ab.probability((Outcome(a, x), Outcome(b, y)))
                        backward = ba.probability((Outcome(b, y), Outcome(a, x)))
                        assert forward == backward == joint_card_frequency(deck, a, x, b, y)
    with capsys.disabled():
        _report(7, "exact pair-order invariance = joint card frequency on 100 decks")


def test_criterion_8_determinism(capsys, tmp_path):
    args = [
        "sweep",
        "--n-range",
        "2..4",
        "--v-range",
        "1..3",
        "--systems",
        "cardbox,urn",
        "--seed",
        "42",
    ]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert cli_main(args + ["--out", str(first)]) == 0
    assert cli_main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_text().splitlines()) == 1 + 9 + 3
    with capsys.disabled():
        _report(8, "sweep 2..4 x 1..3 cardbox,urn seed 42 is byte-identical on rerun")


def test_criterion_9_monte_carlo_consistency(capsys, four_card_file):
    trials = 10_000
    assert cli_main(
        ["sequence", "--deck", four_card_file, "--plan", "Suit,Face,Suit"]
    ) == 0
    exact_lines = capsys.readouterr().out.splitlines()
    exact = {}
    for line in exact_lines:
        sequence, _, fraction = line.partition(" = ")
        exact[sequence] = Fraction(fraction)

    assert cli_main(
        [
            "simulate",
            "--deck",
            four_card_file,
            "--plan",
            "Suit,Face,Suit",
            "--trials",
            str(trials),
            "--seed",
            "7",
        ]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("#")
    seen = set()
    for line in lines[1:]:
        fields = dict(
            part.split("=", 1) for part in line.split()[1:] if "=" in part
        )
        sequence = line.split()[0]
        p = Fraction(fields["exact"])
        assert p == exact[sequence]
        observed = float(fields["observed"])
        bound = 3 * math.sqrt(float(p) * (1 - float(p)) / trials)
        assert abs(observed - float(p)) <= bound
        seen.add(sequence)
    assert seen == set(exact)
    with capsys.disabled():
        _report(9, "simulate matches sequence within 3*sqrt(p(1-p)/T) at T=10^4")


def _rank_row(capsys, argv):
    assert cli_main(argv) == 0
    return int(capsys.readouterr().out.splitlines()[1].split(",")[3])


def test_criterion_10_k_follows_the_variables(capsys):
    # Hardy's Axiom 2 ties K to N alone; here it follows the variables.  Up
    # to V = N + 1 the card box and the quantum system measured in V bases
    # admit the same V(N-1)+1 independent probabilities.  Past that the
    # card box keeps growing with each variable, while the quantum system
    # stays at N**2, the dimension of its state space.
    seed = ["--seed", "1"]
    for n in (2, 3):
        for v in range(1, n + 4):
            cardbox = _rank_row(capsys, ["rank", "--system", "cardbox", "--n", str(n),
                                         "--v", str(v), *seed])
            quantum = _rank_row(capsys, ["rank", "--system", "quantum", "--n", str(n),
                                         "--m", str(v), *seed])
            assert cardbox == v * (n - 1) + 1, (n, v)
            assert quantum == (v * (n - 1) + 1 if v <= n + 1 else n * n), (n, v)
    # N = 4, V = 7 has 4**7 card types, past MAX_CARD_TYPES
    assert cli_main(["rank", "--system", "cardbox", "--n", "4", "--v", "7", *seed]) == 2
    assert "MAX_CARD_TYPES" in capsys.readouterr().err
    with capsys.disabled():
        _report(10, "card box and quantum K_rank both V(N-1)+1 for V <= N+1; "
                    "past it the card box grows and quantum stays at N^2 (N = 2, 3)")
