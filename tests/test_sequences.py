import dataclasses
import itertools
import math
import time
import tracemalloc
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    brute_force_witness,
    c_scan_witness,
    cardbox_spec,
    chain_counts,
    deck_strategy,
    expanded_repeatability,
    joint_card_frequency,
    literal_pair_counts,
    literal_support_size,
    literal_tree_sampler,
    product_pair_counts,
    simulate_by_presses,
    tree_sequence_distribution,
    urn_deck,
    without_last_run,
)
from dofcount import (
    Deck,
    Outcome,
    RandomStream,
    SystemSpec,
    check_repeatability,
    find_classicality_witness,
    sequence_distribution,
    simulate_plan,
    uniform_deck,
)
from dofcount.cardbox import BoxState, filter_deck
from dofcount.errors import InvariantError, ValidationError
from dofcount.sequences import (
    MAX_SEQUENCES,
    MAX_TRIALS,
    RepeatabilityResult,
    _exact_dtype,
    _pair_counts,
    _support_size,
)
from dofcount import sequences
from dofcount.tomography import random_deck_ensemble


def outcomes(*pairs):
    return tuple(Outcome(variable, value) for variable, value in pairs)


class RecordingStream:
    """A seeded ``RandomStream`` that keeps the ``pvals`` of every ``multinomial`` call."""

    def __init__(self, seed):
        self.rng, self.pvals = RandomStream(seed), []

    def multinomial(self, trials, pvals):
        self.pvals.append(pvals)
        return self.rng.multinomial(trials, pvals)


class TestSequenceDistribution:
    def test_repeated_suit_has_no_cross_terms(self, four_card_deck):
        dist = sequence_distribution(four_card_deck, ("Suit", "Suit"))
        assert dist.probability(outcomes(("Suit", "H"), ("Suit", "H"))) == Fraction(1, 2)
        assert dist.probability(outcomes(("Suit", "S"), ("Suit", "S"))) == Fraction(1, 2)
        assert dist.probability(outcomes(("Suit", "H"), ("Suit", "S"))) == 0
        assert len(dist) == 2

    def test_single_card_deck_is_a_point_mass(self, four_card_spec):
        deck = Deck.from_counts(four_card_spec, {("K", "H"): 1})
        dist = sequence_distribution(deck, ("Suit", "Face", "Suit", "Face"))
        assert len(dist) == 1
        ((sequence, p),) = dist.items()
        assert p == Fraction(1)
        assert [o.value for o in sequence] == ["H", "K", "H", "K"]

    def test_suit_face_suit_eighths(self, four_card_deck):
        # hand recursion: 1/2 (Suit) * 1/2 (Face from rebuilt subdeck) * 1/2
        dist = sequence_distribution(four_card_deck, ("Suit", "Face", "Suit"))
        assert dist.probability(
            outcomes(("Suit", "H"), ("Face", "K"), ("Suit", "S"))
        ) == Fraction(1, 8)
        assert len(dist) == 8
        assert all(p == Fraction(1, 8) for _, p in dist.items())

    def test_unknown_plan_variable(self, four_card_deck):
        with pytest.raises(ValidationError, match=r"^unknown variable 'Rank'$"):
            sequence_distribution(four_card_deck, ("Suit", "Rank"))

    def test_empty_plan(self, four_card_deck):
        with pytest.raises(ValidationError, match=r"^plan must contain at least one step$"):
            sequence_distribution(four_card_deck, ())

    @given(deck=deck_strategy(max_variables=2, max_values=3), data=st.data())
    def test_normalization_is_exact(self, deck, data):
        plan = data.draw(
            st.lists(st.sampled_from(deck.spec.variable_names), min_size=1, max_size=3)
        )
        dist = sequence_distribution(deck, plan)
        assert sum(p for _, p in dist.items()) == Fraction(1)
        assert all(p > 0 for _, p in dist.items())

    @given(deck=deck_strategy(), data=st.data())
    def test_matches_tree_oracle_in_order(self, deck, data):
        names = deck.spec.variable_names
        plan = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=4))
        if data.draw(st.booleans()):  # press some switch twice in a row
            at = data.draw(st.integers(0, len(plan) - 1))
            plan.insert(at, plan[at])
        chain = sequence_distribution(deck, plan)
        assert list(chain.items()) == list(tree_sequence_distribution(deck, plan).items())

    def test_huge_multiplicities_stay_exact(self, huge_deck):
        plan = ("Suit", "Face", "Suit", "Suit", "Face")
        chain = sequence_distribution(huge_deck, plan)
        assert list(chain.items()) == list(tree_sequence_distribution(huge_deck, plan).items())

    def test_support_limit_fails_before_expansion(self, four_card_deck, monkeypatch):
        # every step's runs come from one nonzero scan; the probe forbids both
        monkeypatch.setattr("dofcount.sequences.np", _NumpyWithoutNonzero())
        with pytest.raises(AssertionError, match="expanded runs"):
            sequence_distribution(four_card_deck, ("Suit", "Face"))  # the probe sees expansion
        plan = ("Suit", "Face") * 10  # 2**20 possible runs
        with pytest.raises(ValidationError, match=f"{MAX_SEQUENCES:,}"):
            sequence_distribution(four_card_deck, plan)

    @pytest.mark.parametrize(
        "entry, match",
        [
            ((0, 0), "first-step probabilities"),  # n_Face(K), in the full deck's row, off by one
            ((1, 2), "do not carry its probability"),  # C[Face=K, Suit=S] off by one
            ((4, 1), "do not carry its probability"),  # C[Suit=H, Face=Q], deeper in
        ],
    )
    def test_wrong_pair_count_is_an_invariant_error(self, weighted_deck, monkeypatch, entry, match):
        # the integer checks at the root run and at every expanded run
        # stand in for summing the leaves; a wrong entry must trip them
        pairs = _pair_counts(weighted_deck)
        row, col = entry
        pairs[row][col] += 1
        monkeypatch.setattr("dofcount.sequences._pair_counts", lambda deck: pairs)
        with pytest.raises(InvariantError, match=match):
            sequence_distribution(weighted_deck, ("Face", "Suit", "Face"))

    @pytest.mark.parametrize(
        "x, run",
        [(0, "Face=K"), (1, "Face=Q")],  # the first and the last live run
    )
    def test_childless_run_is_an_invariant_error(self, weighted_deck, monkeypatch, x, run):
        # a live run with no next outcome would shift every later run's
        # children in the per-run sums; it must fail by name instead
        pairs = _pair_counts(weighted_deck)
        pairs[1 + x][2] = pairs[1 + x][3] = 0  # chain state Face=x (rows 1, 2) shows no Suit at all
        monkeypatch.setattr("dofcount.sequences._pair_counts", lambda deck: pairs)
        with pytest.raises(InvariantError, match=f"the run {run} has no next outcome"):
            sequence_distribution(weighted_deck, ("Face", "Suit", "Face"))

    @pytest.mark.parametrize("childless", [True, False])
    def test_broken_state_first_reached_late_names_the_first_run_into_it(self, monkeypatch,
                                                                          childless):
        # state var3=val3 is first reached at step 3, so only the fourth press
        # reads its row; no card shows var1=val1 and var3=val3, nor var2=val1
        # and var3=val3, so the first run into it does not start val1, val1
        spec, n = cardbox_spec(3, 3), 3
        cards = [c for c in itertools.product(range(n), repeat=3)
                 if c[2] != 2 or (c[0] != 0 and c[1] != 0)]
        deck = Deck(spec, cards, [1 + i % 3 for i in range(len(cards))])
        plan = ("var1", "var2", "var3", "var1")
        pairs = _pair_counts(deck)
        row = 1 + 2 * n + 2  # chain state var3=val3
        if childless:
            pairs[row, :n] = 0  # it shows no var1 value at all
        else:
            pairs[row, 1] += 1  # one var1=val2 card too many
        monkeypatch.setattr(sequences, "_pair_counts", lambda _: pairs)
        first = next(run for run in tree_sequence_distribution(deck, plan[:3])
                     if run[-1].value == "val3")
        text = ", ".join(map(str, first))
        assert text == "var1=val1, var2=val2, var3=val3"
        message = (f"the run {text} has no next outcome" if childless
                   else f"the runs after {text} do not carry its probability")
        with pytest.raises(InvariantError, match=f"^{message}$"):
            sequence_distribution(deck, plan)
        assert len(sequence_distribution(deck, plan[:3])) == len(tree_sequence_distribution(
            deck, plan[:3]))  # no run presses var1 in that state before step 4

    @pytest.mark.parametrize(
        "plan, row",
        [
            (("Face", "Suit", "Face"), 2),  # no card shows Face=Q, so no run ends in it
            (("Suit", "Suit", "Suit"), 1),  # no run presses Face, so none ends in Face=K
        ],
    )
    def test_broken_state_that_no_run_reaches_does_not_raise(self, four_card_spec, monkeypatch,
                                                            plan, row):
        deck = Deck.from_counts(four_card_spec, {("K", "S"): 2, ("K", "H"): 1})
        pairs = _pair_counts(deck)
        pairs[row] = [0, 5, 0, 0]  # a wrong Face total, and no Suit value at all
        monkeypatch.setattr(sequences, "_pair_counts", lambda _: pairs)
        assert list(sequence_distribution(deck, plan).items()) == list(
            tree_sequence_distribution(deck, plan).items())

    @given(deck=deck_strategy(max_multiplicity=2**70), data=st.data())
    def test_broken_state_names_the_first_run_into_it(self, deck, data):
        # break one state's block for one variable; the law must fail at the
        # first step that presses that variable in that state, naming the
        # first run of the tree oracle that ends there, or not fail at all.
        # Row 0 also holds the other states' totals, so it stays intact here
        spec, n = deck.spec, deck.spec.values_per_variable
        plan = data.draw(st.lists(st.sampled_from(spec.variable_names), min_size=1, max_size=4))
        pairs = _pair_counts(deck).copy()
        state = data.draw(st.integers(1, len(pairs) - 1))
        a = data.draw(st.integers(0, spec.num_variables - 1))
        childless = data.draw(st.booleans())
        if childless:
            pairs[state, a * n : (a + 1) * n] = 0
        else:
            pairs[state, a * n + data.draw(st.integers(0, n - 1))] += 1
        expected = None
        for k, variable in enumerate(plan):
            if k == 0 or spec.variable_index(variable) != a:
                continue  # the first press is in state 0
            b, last = spec.variable_index(plan[k - 1]), plan[k - 1]
            into = [run for run in tree_sequence_distribution(deck, plan[:k])
                    if 1 + b * n + spec.value_index(last, run[-1].value) == state]
            if into:
                text = ", ".join(map(str, into[0]))
                expected = (f"the run {text} has no next outcome" if childless
                            else f"the runs after {text} do not carry its probability")
                break
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sequences, "_pair_counts", lambda _: pairs)
            if expected is None:
                assert list(sequence_distribution(deck, plan).items()) == list(
                    tree_sequence_distribution(deck, plan).items())
            else:
                with pytest.raises(InvariantError) as raised:
                    sequence_distribution(deck, plan)
                assert str(raised.value) == expected

    def test_wrong_support_size_is_an_invariant_error(self, weighted_deck, monkeypatch):
        # the expansion must end with as many runs as the support count said
        size = _support_size
        monkeypatch.setattr(sequences, "_support_size", lambda *args: size(*args) + 1)
        with pytest.raises(InvariantError, match=r"^expanded 5 sequences, expected 6$"):
            sequence_distribution(weighted_deck, ("Face", "Suit", "Face"))

    def test_support_size_is_exact_at_the_limit(self, four_card_deck, weighted_deck):
        pairs = _pair_counts(four_card_deck)
        for steps, size in ((18, MAX_SEQUENCES), (70, 2**70)):  # 2**70: no count wraps
            pressed = [i % 2 for i in range(steps)]  # Face, Suit, ... on N=2
            assert _support_size(four_card_deck, pairs, pressed) == size
            assert literal_support_size(pairs, pressed, 2) == size
        # weighted: no QH card, so Face=Q forces Suit=S
        assert _support_size(weighted_deck, _pair_counts(weighted_deck), [0, 1]) == 3

    def test_support_size_grows_with_the_runs_not_the_values(self):
        # two cards over two variables of 1,024 values: a law of 2 runs.  A
        # product over every 1,024 x 1,024 block per step took 3.9-5.0 s for
        # 100 steps; counting over the states that hold runs, the whole law
        # took 0.08 s (in-process, 2-core Xeon VM)
        values = tuple(f"v{j}" for j in range(1024))
        spec = SystemSpec((("A", values), ("B", values)))
        deck = Deck.from_counts(spec, {(x, x): 1 for x in values[:2]})
        start = time.perf_counter()
        law = sequence_distribution(deck, ("A", "B") * 50)
        elapsed = time.perf_counter() - start
        assert len(law) == 2
        assert elapsed < 0.8, f"a 100-step law of 2 runs took {elapsed:.2f} s"

    @given(deck=deck_strategy(), data=st.data())
    def test_support_size_matches_oracle(self, deck, data):
        names = deck.spec.variable_names
        plan = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=6))
        n = deck.spec.values_per_variable
        pressed = [deck.spec.variable_index(variable) for variable in plan]
        pairs = _pair_counts(deck)
        assert _support_size(deck, pairs, pressed) == literal_support_size(pairs, pressed, n)
        assert literal_support_size(pairs, pressed, n) == len(tree_sequence_distribution(deck, plan))

    @given(
        deck=deck_strategy(),
        scale=st.sampled_from([1, 2**40, 2**60, 2**61, 2**62, 2**70]),
    )
    def test_pair_counts_are_exact_on_both_sides_of_the_dtype_rule(self, deck, scale):
        scaled = Deck(deck.spec, deck.values, deck.counts * scale)
        pairs = _pair_counts(scaled)
        # every pair count is at most the total: int64 exactly when it fits
        assert pairs.dtype == _exact_dtype(scaled.total)
        assert pairs.dtype == (np.int64 if scaled.total < 2**63 else object)
        assert pairs.tolist() == literal_pair_counts(scaled)
        assert all(type(x) is int for row in pairs.tolist() for x in row)

    @given(
        deck=deck_strategy(max_multiplicity=7),
        scale=st.sampled_from([1, 3, 2**59, 2**60 + 1, 2**61, 2**62, 2**66]),
    )
    def test_pair_counts_match_the_product_of_chain_weights(self, deck, scale):
        # the card-pair scatter against the weights-times-pattern product it
        # replaced, with totals on both sides of 2**63
        scaled = Deck(deck.spec, deck.values, deck.counts * scale)
        pairs, product = _pair_counts(scaled), product_pair_counts(scaled)
        assert pairs.dtype == product.dtype == (np.int64 if scaled.total < 2**63 else object)
        assert np.array_equal(pairs, product)

    @pytest.mark.parametrize("total, dtype", [(2**63 - 1, np.int64), (2**63, object)])
    def test_pair_counts_dtype_boundary(self, four_card_spec, total, dtype):
        deck = Deck.from_counts(four_card_spec, {("K", "S"): total - 3, ("K", "H"): 1,
                                                 ("Q", "S"): 2})
        assert deck.total == total
        pairs = _pair_counts(deck)
        assert pairs.dtype == dtype
        assert pairs.tolist() == literal_pair_counts(deck)

    def test_widest_urn_law_and_sampler_are_fast(self):
        # an urn of 2,048 values, the widest MAX_CHAIN_VALUES admits: as the
        # product of the chain weights with their pattern (8.6e9 multiply-adds)
        # the pair counts took about a minute; scattered from the cards, the
        # law and the draw took 0.4 s (in-process, 2-core Xeon VM)
        deck = urn_deck([1] * 2048)
        start = time.perf_counter()
        law, counts = simulate_plan(deck, ("Pos", "Pos"), 10_000, RandomStream(1))
        elapsed = time.perf_counter() - start
        assert len(law) == 2048 and counts.sum() == 10_000
        assert elapsed < 5, f"the 2,048-value urn took {elapsed:.2f} s"

    def test_dtype_rule_boundaries(self):
        assert _exact_dtype(2**63 - 1) is np.int64
        assert _exact_dtype(2**63) is object
        assert _exact_dtype(127, 9) is np.int64  # 7 bits * 9 = 63: 127**9 < 2**63
        assert _exact_dtype(128, 9) is object  # 8 bits * 9 = 72
        assert _exact_dtype(81, 9) is _exact_dtype(192, 7) is np.int64  # benchmark decks

    @pytest.mark.parametrize(
        "big, dtype",
        [
            # total 127, 7 bits: int64 at length 9.  Face=K and Suit=S each
            # hold 126 of 127, so the run K,S,K,S,... reaches the unreduced
            # denominator 127 * 126**8, about 7.9e18, 92% of 127**9
            (125, np.int64),
            (126, object),  # total 128, 8 bits: Python ints at length 9
        ],
    )
    def test_int64_boundary_matches_tree_oracle(self, four_card_spec, big, dtype):
        deck = Deck.from_counts(four_card_spec, {("K", "S"): big, ("K", "H"): 1, ("Q", "S"): 1})
        plan = ("Face", "Suit") * 4 + ("Face",)
        dist = sequence_distribution(deck, plan)
        assert dist.numerators.dtype == dist.denominators.dtype == dtype
        assert list(dist.items()) == list(tree_sequence_distribution(deck, plan).items())
        assert all(type(x) is int for x in dist.numerators.tolist() + dist.denominators.tolist())
        assert all(type(p.numerator) is int for _, p in dist.items())


class _NumpyWithoutNonzero:
    """``numpy`` as ``sequences`` sees it, minus the scans that expand runs."""

    def __getattr__(self, name):
        if name in ("nonzero", "flatnonzero"):
            raise AssertionError(f"expanded runs with np.{name}")
        return getattr(np, name)


class TestSequenceDistributionContract:
    @given(deck=deck_strategy(), data=st.data())
    def test_arrays_and_lazy_map_agree_with_tree_oracle(self, deck, data):
        plan = data.draw(st.lists(st.sampled_from(deck.spec.variable_names), min_size=1, max_size=4))
        dist = sequence_distribution(deck, plan)
        tree = tree_sequence_distribution(deck, plan)
        assert len(dist) == len(dist.probabilities) == len(tree)
        assert list(dist.probabilities.items()) == list(tree.items())
        assert [Fraction(a, b) for a, b in zip(dist.numerators, dist.denominators)] == list(
            tree.values()
        )
        assert all(math.gcd(a, b) == 1 for a, b in zip(dist.numerators, dist.denominators))

    def test_absent_run_has_probability_zero(self, weighted_deck):
        dist = sequence_distribution(weighted_deck, ("Face", "Suit"))
        assert dist.probability(outcomes(("Face", "Q"), ("Suit", "H"))) == 0  # no QH card
        assert dist.probability(outcomes(("Suit", "S"), ("Face", "Q"))) == 0  # other plan order
        assert dist.probability(outcomes(("Face", "Q"), ("Suit", "S"))) == Fraction(1, 2)

    def test_len_does_not_build_the_outcome_map(self, four_card_deck, monkeypatch):
        def no_outcomes(*args):
            raise AssertionError("built Outcome values")

        monkeypatch.setattr("dofcount.sequences.Outcome", no_outcomes)
        dist = sequence_distribution(four_card_deck, ("Suit", "Face") * 7)
        assert len(dist) == 2**14
        assert "probabilities" not in vars(dist)
        with pytest.raises(AssertionError, match="built Outcome"):
            dist.probabilities  # the probe sees the map being built

    def test_huge_multiplicities_keep_python_ints(self, huge_deck):
        dist = sequence_distribution(huge_deck, ("Suit", "Face", "Suit"))
        assert dist.numerators.dtype == dist.denominators.dtype == object
        assert max(dist.denominators) > 2**70
        assert all(type(x) is int for x in [*dist.numerators, *dist.denominators])


def _narrow_from_subdeck(state, variable, value):
    # broken law A: narrows the current subdeck instead of the full deck;
    # still repeatable, so repeatability alone cannot detect it
    return BoxState(state.deck, filter_deck(state.subdeck, variable, value))


def _skip_update(state, variable, value):
    # broken law B: never filters at all; repeats become random
    return state


def _repeat_counterexample(deck, update_rule):
    """A differing immediate re-press under ``update_rule``, on the tree oracle."""
    for variable in deck.spec.variable_names:
        runs = tree_sequence_distribution(deck, (variable, variable), update_rule)
        for (first, second), p in runs.items():
            if first.value != second.value:
                return first, second, p
    return None


class TestCheckRepeatability:
    def test_passes_on_fixtures(self, four_card_deck, weighted_deck):
        assert check_repeatability(four_card_deck).passed
        assert check_repeatability(weighted_deck).passed

    @given(deck=deck_strategy(max_multiplicity=2**70))
    def test_passes_on_random_decks(self, deck):
        passed = RepeatabilityResult(True)
        assert check_repeatability(deck) == expanded_repeatability(deck) == passed

    @given(deck=deck_strategy(max_multiplicity=2**70), data=st.data())
    def test_failure_matches_the_expansion(self, deck, data):
        # move k cards' weight off the diagonal of some rows of C's [a, a]
        # blocks: each row still sums to its state's total, so the law's own
        # integer checks pass, and the run a=x, a=y gets probability k / total
        n = deck.spec.values_per_variable
        pairs = _pair_counts(deck).copy()
        moved = []
        for col in np.flatnonzero(pairs[0]).tolist():  # col = a*N + x, n_a(x) > 0
            if data.draw(st.booleans()):
                a, x = divmod(col, n)
                y = data.draw(st.sampled_from([y for y in range(n) if y != x]))
                k = data.draw(st.integers(1, int(pairs[0, col])))
                pairs[1 + col, col] -= k
                pairs[1 + col, a * n + y] += k
                moved.append((a, x, y, k))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sequences, "_pair_counts", lambda _: pairs)
            result = check_repeatability(deck)
            assert result == expanded_repeatability(deck)
        if not moved:
            assert result.passed
            return
        a, x, y, k = moved[0]  # the first variable's first row, in row-major order
        variable, labels = deck.spec.variables[a]
        assert result == RepeatabilityResult(
            False, variable, outcomes((variable, labels[x]), (variable, labels[y])),
            Fraction(k, deck.total),
        )

    @given(deck=deck_strategy())
    def test_negative_control_narrowing_still_passes(self, deck):
        assert _repeat_counterexample(deck, _narrow_from_subdeck) is None

    def test_negative_control_skipping_update_fails(self, four_card_deck):
        first, second, p = _repeat_counterexample(four_card_deck, _skip_update)
        assert first.variable == second.variable
        assert first.value != second.value
        assert p > 0

    @pytest.mark.parametrize("broken", [_narrow_from_subdeck, _skip_update])
    def test_broken_laws_differ_from_the_chain(self, four_card_deck, broken):
        # the oracle equality above has teeth: each broken law changes the runs
        plan = ("Suit", "Suit", "Face", "Suit")
        chain = sequence_distribution(four_card_deck, plan)
        assert tree_sequence_distribution(four_card_deck, plan) == chain.probabilities
        assert tree_sequence_distribution(four_card_deck, plan, broken) != chain.probabilities


@st.composite
def witness_free_decks(draw):
    """Decks on which every value of a variable fixes every other variable.

    Card ``x`` shows ``perm_i[x]`` on variable ``i``, so no value co-occurs
    with two values of another variable.
    """
    n, v = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    spec = cardbox_spec(n, v)
    perms = [draw(st.permutations(range(n))) for _ in range(v)]
    mults = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    cards = {
        tuple(spec.variables[i][1][perms[i][x]] for i in range(v)): m
        for x, m in enumerate(mults)
        if m
    }
    return Deck.from_counts(spec, cards)


@st.composite
def sparse_decks(draw):
    """One to three drawn cards over N = 2..5 values and V = 2..3 variables,
    multiplicities up to ``2**70``: few cards, so many decks are witness-free."""
    spec = cardbox_spec(draw(st.integers(2, 5)), draw(st.integers(2, 3)))
    card = st.tuples(*(st.sampled_from(values) for _, values in spec.variables))
    cards = draw(st.dictionaries(card, st.integers(1, 2**70), min_size=1, max_size=3))
    return Deck.from_counts(spec, cards)


def _assert_matches_search(deck):
    """Closed-form witness equals the first hit of a search up to length 4."""
    witness = find_classicality_witness(deck)
    found = brute_force_witness(deck, 4)
    if found is None:
        assert witness is None
        return
    run, p, (i, j) = found
    assert witness is not None
    assert (witness.sequence, witness.probability) == (run, p)
    assert witness.violated_constraint == (
        f"variable {run[i].variable!r} observed as {run[i].value!r} at step {i + 1} "
        f"and {run[j].value!r} at step {j + 1}"
    )


class TestClassicalityWitness:
    def test_four_card_deck_yields_length_three_witness(self, four_card_deck):
        witness = find_classicality_witness(four_card_deck)
        assert witness is not None
        assert len(witness.sequence) == 3
        assert witness.probability == Fraction(1, 8)
        repeated = [o for o in witness.sequence if o.variable == witness.sequence[0].variable]
        assert len(repeated) == 2
        assert repeated[0].value != repeated[1].value
        assert repeated[0].value in witness.violated_constraint
        assert repeated[1].value in witness.violated_constraint

    def test_single_card_deck_has_no_witness(self, four_card_spec):
        deck = Deck.from_counts(four_card_spec, {("K", "H"): 1})
        assert find_classicality_witness(deck) is None

    def test_urn_raises_single_variable(self):
        with pytest.raises(ValidationError, match=r"^a single-variable \(urn\) system cannot "
                           r"produce a contradictory repeat$"):
            find_classicality_witness(urn_deck([1, 2]))

    def test_witness_probability_matches_sequence_distribution(self, weighted_deck):
        witness = find_classicality_witness(weighted_deck)
        assert witness is not None
        plan = tuple(o.variable for o in witness.sequence)
        dist = sequence_distribution(weighted_deck, plan)
        assert dist.probability(witness.sequence) == witness.probability

    @given(deck=deck_strategy(min_variables=2, max_values=3))
    def test_matches_search_over_plans_up_to_length_four(self, deck):
        _assert_matches_search(deck)

    @given(deck=witness_free_decks())
    def test_witness_free_decks_match_the_search(self, deck):
        assert find_classicality_witness(deck) is None
        _assert_matches_search(deck)

    @given(deck=st.one_of(sparse_decks(), deck_strategy(min_variables=2, max_values=5)))
    def test_closed_form_equals_the_c_scan(self, deck):
        assert find_classicality_witness(deck) == c_scan_witness(deck)

    @given(deck=sparse_decks())
    def test_sparse_decks_match_the_search(self, deck):
        _assert_matches_search(deck)

    def test_wide_witness_free_deck_is_fast(self):
        values = tuple(f"v{j}" for j in range(200))
        spec = SystemSpec((("Row", values), ("Column", values)))
        elapsed = []
        for _ in range(3):  # best of three fresh decks: nothing cached between them
            deck = Deck.from_counts(spec, {(x, x): 1 for x in values})
            start = time.perf_counter()
            assert find_classicality_witness(deck) is None
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.05

    def test_full_wide_deck_stays_small(self):
        deck = uniform_deck(cardbox_spec(16, 3))  # 4,096 card types
        tracemalloc.start()
        try:
            witness = find_classicality_witness(deck)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert witness == c_scan_witness(deck)
        assert peak < 2 * 2**20

    def test_huge_multiplicities_stay_exact(self, huge_deck):
        witness = find_classicality_witness(huge_deck)
        assert witness.probability.denominator > 2**70
        _assert_matches_search(huge_deck)


class TestPairOrder:
    @given(deck=deck_strategy(min_variables=2, max_multiplicity=2**70))
    def test_order_invariance_and_joint_frequency(self, deck):
        # C[1 + a*N + x, b*N + y] counts the cards showing a=x and b=y, so it is
        # symmetric, and both orders' laws give it over the deck total
        spec, n = deck.spec, deck.spec.values_per_variable
        pairs = _pair_counts(deck).tolist()
        for (a, (name_a, labels_a)), (b, (name_b, labels_b)) in itertools.permutations(
            enumerate(spec.variables), 2
        ):
            ab = sequence_distribution(deck, (name_a, name_b))
            ba = sequence_distribution(deck, (name_b, name_a))
            for x, y in itertools.product(range(n), repeat=2):
                joint = joint_card_frequency(deck, name_a, labels_a[x], name_b, labels_b[y])
                count = pairs[1 + a * n + x][b * n + y]
                assert count == pairs[1 + b * n + y][a * n + x] == joint * deck.total
                forward = ab.probability(outcomes((name_a, labels_a[x]), (name_b, labels_b[y])))
                backward = ba.probability(outcomes((name_b, labels_b[y]), (name_a, labels_a[x])))
                assert forward == backward == joint


class TestSimulatePlan:
    def test_counts_sum_to_trials(self, four_card_deck):
        law, counts = simulate_plan(four_card_deck, ("Suit", "Face"), 500, RandomStream(4))
        assert counts.dtype == np.int64
        assert len(counts) == len(law)
        assert counts.sum() == 500

    def test_matches_exact_distribution_within_bound(self, four_card_deck):
        trials = 10_000
        plan = ("Suit", "Face", "Suit")
        exact = sequence_distribution(four_card_deck, plan)
        law, counts = simulate_plan(four_card_deck, plan, trials, RandomStream(13))
        assert law.probabilities == exact.probabilities
        for (sequence, p), hits in zip(exact.items(), counts.tolist()):
            bound = 3 * math.sqrt(float(p) * (1 - float(p)) / trials)
            assert abs(hits / trials - float(p)) <= bound

    def test_deterministic_under_seed(self, weighted_deck):
        _, a = simulate_plan(weighted_deck, ("Face", "Suit"), 200, RandomStream(6, 2))
        _, b = simulate_plan(weighted_deck, ("Face", "Suit"), 200, RandomStream(6, 2))
        assert np.array_equal(a, b)

    def test_trial_cap_fails_before_any_draw(self, four_card_deck):
        class NoDraws:
            def multinomial(self, trials, pvals):
                raise AssertionError("drew despite the trial cap")

        with pytest.raises(ValidationError, match="100,000,000"):
            simulate_plan(four_card_deck, ("Suit",), MAX_TRIALS + 1, NoDraws())

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trials_must_be_positive(self, four_card_deck, trials):
        with pytest.raises(ValidationError, match=r"^trials must be positive$"):
            simulate_plan(four_card_deck, ("Suit",), trials, RandomStream(0))

    def test_draw_that_loses_trials(self, four_card_deck):
        class LosingStream:
            def multinomial(self, trials, pvals):
                counts = np.zeros(len(pvals), dtype=np.int64)
                counts[0] = trials - 1
                return counts

        with pytest.raises(InvariantError, match="holds 9 of 10 trials"):
            simulate_plan(four_card_deck, ("Face", "Suit"), 10, LosingStream())

    def test_law_that_does_not_sum_to_1_fails_before_any_draw(self, four_card_deck, monkeypatch):
        class NoDraws:
            def multinomial(self, trials, pvals):
                raise AssertionError("drew despite a law that does not sum to 1")

        exact = sequences.sequence_distribution
        monkeypatch.setattr(sequences, "sequence_distribution",
                            lambda deck, plan: without_last_run(exact(deck, plan)))
        with pytest.raises(InvariantError, match="^the law's run probabilities sum to 0.75, not 1$"):
            simulate_plan(four_card_deck, ("Face", "Suit"), 10, NoDraws())

    @staticmethod
    def _shift_last_run(monkeypatch, offset):
        """Make ``sequence_distribution`` move its law's last run by ``offset``, exactly."""
        exact = sequences.sequence_distribution

        def shifted(deck, plan):
            law = exact(deck, plan)
            last = Fraction(int(law.numerators[-1]), int(law.denominators[-1])) + offset
            numerators, denominators = law.numerators.copy(), law.denominators.copy()
            numerators[-1], denominators[-1] = last.numerator, last.denominator
            return dataclasses.replace(law, numerators=numerators, denominators=denominators)

        monkeypatch.setattr(sequences, "sequence_distribution", shifted)

    @pytest.mark.parametrize("offset", [Fraction(1, 2**49), -Fraction(1, 2**49), Fraction(1, 4)])
    def test_law_past_2_50_from_1_fails_before_any_draw(
        self, four_card_deck, monkeypatch, offset
    ):
        class NoDraws:
            def multinomial(self, trials, pvals):
                raise AssertionError("drew despite a law more than 2**-50 from 1")

        # each run of Face,Suit is 1/4, so the shifted sum is exactly 1 + offset
        self._shift_last_run(monkeypatch, offset)
        message = f"^the law's run probabilities sum to {float(1 + offset)}, not 1$"
        with pytest.raises(InvariantError, match=message):
            simulate_plan(four_card_deck, ("Face", "Suit"), 10, NoDraws())

    @pytest.mark.parametrize("offset", [Fraction(1, 2**50), -Fraction(1, 2**50)])
    def test_law_within_2_50_of_1_is_drawn(self, four_card_deck, monkeypatch, offset):
        # the bound is inclusive: a sum exactly 2**-50 from 1 is drawn, with
        # every weight divided by that sum
        self._shift_last_run(monkeypatch, offset)
        stream = RecordingStream(0)
        law, counts = simulate_plan(four_card_deck, ("Face", "Suit"), 100, stream)
        assert counts.sum() == 100
        (pvals,) = stream.pvals
        weights = [Fraction(a, b) for a, b in zip(law.numerators.tolist(), law.denominators.tolist())]
        assert sum(weights) == 1 + offset
        for p, w in zip(pvals.tolist(), weights):
            assert abs(Fraction(p) - w / (1 + offset)) <= w * Fraction(2) ** -52

    @pytest.mark.parametrize("mults", [
        {("K", "S"): 2**62},
        {("K", "S"): 2**61, ("K", "H"): 2**60, ("Q", "S"): 2**60},
    ])
    def test_deck_total_of_2_62_is_sampled(self, four_card_spec, mults):
        # (V+1) * total = 3 * 2**62 is past int64, but the sampler never
        # forms it: each run's probability is a quotient of Python ints
        deck = Deck.from_counts(four_card_spec, mults)
        assert deck.total == 2**62
        plan = ("Face", "Suit", "Face")
        law, counts = simulate_plan(deck, plan, 10_000, RandomStream(0))
        exact = tree_sequence_distribution(deck, plan)
        assert law.probabilities == exact
        assert counts.sum() == 10_000
        hits = chain_counts(law, counts)
        assert set(hits) <= {run for run, p in exact.items() if p > 0}
        assert hits == literal_tree_sampler(deck, plan, 10_000, RandomStream(0))

    def test_support_limit_fails_before_any_draw(self, four_card_deck):
        class NoDraws:
            def multinomial(self, trials, pvals):
                raise AssertionError("drew despite the support limit")

        with pytest.raises(ValidationError, match=f"{MAX_SEQUENCES:,}"):
            simulate_plan(four_card_deck, ("Suit", "Face") * 10, 1, NoDraws())

    @given(deck=deck_strategy(), data=st.data())
    def test_support_and_total(self, deck, data):
        names = deck.spec.variable_names
        plan = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=5))
        plan += data.draw(st.lists(st.sampled_from(plan), max_size=2))  # repeat switches
        seed = data.draw(st.integers(0, 2**32 - 1))
        law, counts = simulate_plan(deck, plan, 300, RandomStream(seed))
        assert counts.sum() == 300
        assert law.probabilities == sequence_distribution(deck, plan).probabilities
        assert set(chain_counts(law, counts)) <= set(law.probabilities)

    @given(mult=st.sampled_from([3, 2**20, 2**40]), data=st.data())
    def test_counts_equal_literal_tree_sampler(self, mult, data):
        deck = data.draw(deck_strategy(max_multiplicity=mult))
        names = deck.spec.variable_names
        plan = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=5))
        plan += data.draw(st.lists(st.sampled_from(plan), max_size=2))  # repeat switches
        trials = data.draw(st.sampled_from([1, 500, MAX_TRIALS]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        law, counts = simulate_plan(deck, plan, trials, RandomStream(seed))
        literal = literal_tree_sampler(deck, plan, trials, RandomStream(seed))
        assert chain_counts(law, counts) == literal

    @given(mult=st.sampled_from([3, 2**40, 2**70]), data=st.data())
    def test_draw_weights_are_the_law_within_rounding(self, mult, data):
        # each run's weight is its exact probability rounded once, so their
        # fsum is within 2**-52 of 1; divided by it and rounded again, each
        # is within a relative 5 * 2**-53 of the law, whatever the plan's length
        deck = data.draw(deck_strategy(max_multiplicity=mult))
        plan = data.draw(st.lists(st.sampled_from(deck.spec.variable_names), min_size=1, max_size=6))
        stream = RecordingStream(0)
        law, _ = simulate_plan(deck, plan, 100, stream)
        exact = [Fraction(a, b) for a, b in zip(law.numerators.tolist(), law.denominators.tolist())]
        for p, q in zip(stream.pvals[0].tolist(), exact):
            assert abs(Fraction(p) - q) <= q * 5 * Fraction(2) ** -53

    def test_probabilities_past_2_53_are_exact_quotients(self, four_card_spec):
        # float64 rounds these counts, and its quotients of them differ from
        # the correctly rounded ones the literal sampler divides out
        mults = {("K", "S"): 83_500_729_682_837_222, ("K", "H"): 238_588_084_458_565_389,
                 ("Q", "S"): 272_102_861_388_707_076}
        deck = Deck.from_counts(four_card_spec, mults)
        total = deck.total
        assert [m / total for m in mults.values()] != [float(m) / float(total) for m in mults.values()]
        plan = ("Face", "Suit", "Face", "Suit")
        law, counts = simulate_plan(deck, plan, MAX_TRIALS, RandomStream(29))
        literal = literal_tree_sampler(deck, plan, MAX_TRIALS, RandomStream(29))
        assert chain_counts(law, counts) == literal

    def test_draws_do_not_depend_on_the_trial_count(self):
        # one multinomial over the law's runs, whatever the trials
        deck = random_deck_ensemble(cardbox_spec(4, 3), 1, 3, RandomStream(5))[0]
        plan = ("var1", "var2", "var1")
        law = sequence_distribution(deck, plan)
        for trials in (10**3, 10**8):
            stream = RecordingStream(3)
            simulate_plan(deck, plan, trials, stream)
            assert [np.shape(pvals) for pvals in stream.pvals] == [(len(law),)]

    @given(deck=deck_strategy(), data=st.data())
    def test_immediate_repress_repeats(self, deck, data):
        names = deck.spec.variable_names
        plan = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=4))
        at = data.draw(st.integers(0, len(plan) - 1))
        plan.insert(at, plan[at])
        law, counts = simulate_plan(deck, plan, 200, RandomStream(data.draw(st.integers(0, 99))))
        for run in chain_counts(law, counts):
            assert run[at] == run[at + 1]

    def test_holds_one_step_child_table_at_a_time(self):
        # 30 presses on a 128-position urn: a table per step held at once
        # would be 30 tables of 128 * 128 entries, 3.9 MB
        deck = urn_deck([1] * 128)
        plan = ("Pos",) * 30
        peaks = []
        for call in (
            lambda: sequence_distribution(deck, plan),
            lambda: simulate_plan(deck, plan, 1000, RandomStream(0)),
        ):
            call()  # the deck's cached arrays are built on first use
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks

    def test_plan_too_long_for_an_int64_run_code(self):
        # n**70 value sequences but two runs: the run index never codes a sequence
        deck = urn_deck([1, 3])
        law, counts = simulate_plan(deck, ("Pos",) * 70, 4000, RandomStream(17))
        assert counts.sum() == 4000
        seen = chain_counts(law, counts)
        assert {len({o.value for o in run}) for run in seen} == {1}
        assert len(seen) == 2

    def test_widest_admitted_plan_at_the_trial_cap(self, four_card_deck):
        # 18 alternating presses on the four-card deck: 2**18 runs, the
        # support limit, each of probability 2**-18 from 18 factors of 1/2
        stream = RecordingStream(7)
        law, counts = simulate_plan(four_card_deck, ("Suit", "Face") * 9, MAX_TRIALS, stream)
        assert len(law) == len(counts) == MAX_SEQUENCES
        assert counts.sum() == MAX_TRIALS
        (pvals,) = stream.pvals
        assert abs(math.fsum(pvals) - 1) <= 2**-50
        assert sum(pvals[:-1]) <= 1 + 1e-12


def _family_wise_within_bound(counts, exact, trials, alpha=1e-6):
    """Every run's count within a Bonferroni-split two-sided normal bound.

    One count of slack covers the rounding of a discrete count, as in the
    benchmark's simulate oracle.
    """
    z = NormalDist().inv_cdf(1 - alpha / (2 * len(exact)))
    assert set(counts) <= set(exact.probabilities)
    for sequence, p in exact.items():
        spread = z * math.sqrt(trials * float(p) * (1 - float(p)))
        assert abs(counts.get(sequence, 0) - trials * float(p)) <= spread + 1


def _bound_decks():
    spec = SystemSpec.from_mapping({"Face": ["K", "Q"], "Suit": ["S", "H"]})
    weighted = Deck.from_counts(spec, {("K", "S"): 1, ("K", "H"): 1, ("Q", "S"): 2})
    three_by_three = random_deck_ensemble(cardbox_spec(3, 3), 1, 3, RandomStream(8))[0]
    return [
        (urn_deck([1, 2, 5]), ("Pos", "Pos")),
        (weighted, ("Suit", "Face", "Suit")),
        (three_by_three, ("var1", "var2", "var1")),
        (three_by_three, ("var3", "var1", "var2")),
    ]


def _chain_sampler(deck, plan, trials, rng):
    return chain_counts(*simulate_plan(deck, plan, trials, rng))


@pytest.mark.parametrize(
    "sampler, trials, seed",
    [(_chain_sampler, 20_000, 31), (simulate_by_presses, 3_000, 32)],
    ids=["chain", "press_loop"],
)
@pytest.mark.parametrize("index", range(4))
def test_sampler_within_family_wise_bound(sampler, trials, seed, index):
    deck, plan = _bound_decks()[index]
    counts = sampler(deck, plan, trials, RandomStream(seed, index))
    _family_wise_within_bound(counts, sequence_distribution(deck, plan), trials)
