from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    cardbox_spec, deck_strategy, entries, labels, observe_sequence, spec_strategy, urn_deck
)
from dofcount import Deck, RandomStream, SystemSpec, uniform_deck
from dofcount.cardbox import BoxState, filter_deck, initial_state, observe, outcome_distribution
from dofcount.deckfile import parse_deck_file
from dofcount.errors import InvariantError, ValidationError


DATA = Path(__file__).parent / "data"


def _replace(rows, at, row):
    return [row if i == at else r for i, r in enumerate(rows)]


# Single faults of a deck's rows or counts: each maps (rows, counts, N) to bad input.
BAD_DECK_INPUTS = {
    "zero count": lambda rows, counts, n: (rows, [0, *counts[1:]]),
    "negative count": lambda rows, counts, n: (rows, [-counts[0], *counts[1:]]),
    "bool count": lambda rows, counts, n: (rows, [True, *counts[1:]]),
    "float count": lambda rows, counts, n: (rows, [float(counts[0]), *counts[1:]]),
    "string count": lambda rows, counts, n: (rows, ["1", *counts[1:]]),
    "index past N": lambda rows, counts, n: (_replace(rows, 0, [n, *rows[0][1:]]), counts),
    "negative index": lambda rows, counts, n: (_replace(rows, 0, [-1, *rows[0][1:]]), counts),
    "huge index": lambda rows, counts, n: (_replace(rows, 0, [2**70, *rows[0][1:]]), counts),
    "float index": lambda rows, counts, n: (_replace(rows, 0, [0.0, *rows[0][1:]]), counts),
    "repeated row": lambda rows, counts, n: (rows + rows[:1], counts + [1]),
    "short row": lambda rows, counts, n: (_replace(rows, 0, rows[0][:-1]), counts),
    "long row": lambda rows, counts, n: (_replace(rows, 0, rows[0] + [0]), counts),
    "every row long": lambda rows, counts, n: ([row + [0] for row in rows], counts),
    "scalar row": lambda rows, counts, n: (_replace(rows, 0, 0), counts),
    "extra count": lambda rows, counts, n: (rows, counts + [1]),
    "missing count": lambda rows, counts, n: (rows, counts[:-1]),
}


class TestValidateSpec:
    def test_two_by_two(self, four_card_spec):
        assert four_card_spec.num_variables == 2
        assert four_card_spec.values_per_variable == 2
        assert SystemSpec(four_card_spec.variables) == four_card_spec

    def test_single_variable_urn_shape(self):
        spec = SystemSpec.from_mapping({"Pos": ["1", "2", "3"]})
        assert spec.num_variables == 1
        assert spec.values_per_variable == 3

    def test_duplicate_value_name(self):
        with pytest.raises(ValidationError, match=r"^duplicate value names for variable 'Face'$"):
            SystemSpec.from_mapping({"Face": ["K", "K"]})

    def test_duplicate_variable_name(self):
        with pytest.raises(ValidationError, match=r"^duplicate variable names in \('Face', 'Face'\)$"):
            SystemSpec((("Face", ("K", "Q")), ("Face", ("S", "H"))))

    def test_ragged_value_lists(self):
        with pytest.raises(ValidationError, match=r"^variable 'Suit' has 1 values, expected 2$"):
            SystemSpec.from_mapping({"Face": ["K", "Q"], "Suit": ["S"]})

    def test_no_variables(self):
        with pytest.raises(ValidationError, match=r"^spec has no variables$"):
            SystemSpec(())

    def test_single_value_variable(self):
        with pytest.raises(ValidationError, match=r"^every variable needs at least two values$"):
            SystemSpec.from_mapping({"Face": ["K"]})

    def test_value_lookup_errors(self, four_card_spec):
        with pytest.raises(ValidationError, match=r"^unknown variable 'Rank'$"):
            four_card_spec.variable_index("Rank")
        with pytest.raises(ValidationError, match=r"^unknown value 'J' for variable 'Face'$"):
            four_card_spec.value_index("Face", "J")

    def test_value_lookup_messages(self, four_card_spec):
        with pytest.raises(ValidationError, match=r"^unknown variable 'Rank'$"):
            four_card_spec.value_index("Rank", "K")  # the variable is checked first
        with pytest.raises(ValidationError, match=r"^unknown value 'J' for variable 'Face'$"):
            four_card_spec.value_index("Face", "J")
        with pytest.raises(ValidationError, match=r"^unknown variable \['Face'\]$"):
            four_card_spec.variable_index(["Face"])  # unhashable: matches no name

    def test_spec_with_repeated_names_cannot_be_built(self):
        # every spec in hand has one position per name; the checks run in order
        with pytest.raises(ValidationError, match=r"^duplicate variable names in \('A', 'B', 'A'\)$"):
            SystemSpec((("A", ("x", "y", "x")), ("B", ("u", "v", "w")), ("A", ("p", "q", "r"))))
        with pytest.raises(ValidationError, match=r"^duplicate value names for variable 'A'$"):
            SystemSpec((("A", ("x", "y", "x")), ("B", ("u", "v"))))
        with pytest.raises(ValidationError, match=r"^variable 'B' has 2 values, expected 3$"):
            SystemSpec((("A", ("x", "y", "z")), ("B", ("u", "v"))))
        with pytest.raises(ValidationError, match=r"^every variable needs at least two values$"):
            SystemSpec((("A", ("x",)),))

    @given(spec=spec_strategy(max_values=5))
    def test_index_maps_agree_with_the_tuple_scans(self, spec):
        names = spec.variable_names
        for i, (name, values) in enumerate(spec.variables):
            assert spec.variable_index(name) == names.index(name) == i
            for j, value in enumerate(values):
                assert spec.value_index(name, value) == values.index(value) == j


class TestDeck:
    def test_counts_drop_zero_and_sort(self, four_card_spec):
        deck = Deck.from_counts(
            four_card_spec, {("Q", "H"): 2, ("K", "S"): 1, ("K", "H"): 0}
        )
        assert [(card.values, m) for card, m in entries(deck)] == [
            (("K", "S"), 1),
            (("Q", "H"), 2),
        ]
        assert deck.total == 3

    def test_zero_count_keys_are_checked(self, four_card_spec):
        with pytest.raises(ValidationError, match=r"^unknown value 'J' for variable 'Face'$"):
            Deck.from_counts(four_card_spec, {("J", "S"): 0})
        with pytest.raises(ValidationError, match=r"^expected a tuple of 2 value names, got \('K',\)$"):
            Deck.from_counts(four_card_spec, {("K",): 0})

    @pytest.mark.parametrize(
        "build",
        [
            lambda spec: Deck(spec, [], []),
            lambda spec: Deck.from_counts(spec, {}),
            lambda spec: Deck.from_counts(spec, {("K", "S"): 0, ("Q", "H"): 0}),
            lambda spec: filter_deck(Deck.from_counts(spec, {("K", "S"): 1}), "Suit", "H"),
        ],
        ids=["no rows", "no counts", "all-zero counts", "filter to an unshown value"],
    )
    def test_a_deck_is_never_empty(self, four_card_spec, build):
        with pytest.raises(ValidationError, match=r"^a deck needs at least one card$"):
            build(four_card_spec)

    @pytest.mark.parametrize(
        "rows, counts, message",
        [
            ([(0,)], [1], r"a deck takes one row of 2 value indices per count"),
            ([(0, 2)], [1], r"value indices must be ints in 0\.\.1"),
            ([(0, 1), (1, 0), (0, 1)], [1, 2, 3], r"card \(0, 1\) \(value indices\) listed twice"),
            ([(0, 1)], [0], r"card counts must be ints >= 1"),
        ],
        ids=["short row", "index past N", "repeated row", "zero count"],
    )
    def test_each_fault_has_its_message(self, four_card_spec, rows, counts, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Deck(four_card_spec, rows, counts)

    def test_negative_count_rejected(self, four_card_spec):
        with pytest.raises(ValidationError):
            Deck.from_counts(four_card_spec, {("K", "S"): -1})

    def test_multiplicity_lookup(self, weighted_deck):
        assert weighted_deck.values[-1].tolist() == [1, 0]  # Q, S
        assert weighted_deck.counts[-1] == 2

    @given(deck=deck_strategy(max_multiplicity=2**70))
    def test_entries_follow_the_arrays(self, deck):
        spec = deck.spec
        assert deck.values.dtype == np.int64 and deck.counts.dtype == object
        assert deck.values.shape == (len(deck.counts), spec.num_variables)
        for row, count, (card, m) in zip(deck.values.tolist(), deck.counts.tolist(), entries(deck)):
            assert row == [spec.value_index(name, value) for name, value in card.items]
            assert count == m and type(count) is int
        assert deck.values.tolist() == sorted(deck.values.tolist())
        for array in (deck.values, deck.counts):
            with pytest.raises(ValueError):
                array[0] = 0  # read-only
        assert Deck.from_counts(spec, {card.values: m for card, m in entries(deck)}) == deck

    @given(deck=deck_strategy(max_multiplicity=2**70), data=st.data())
    def test_any_row_order_gives_the_same_deck(self, deck, data):
        order = data.draw(st.permutations(range(len(deck.counts))))
        shuffled = Deck(deck.spec, deck.values[order], deck.counts[order])
        assert shuffled == deck and hash(shuffled) == hash(deck)
        assert shuffled.values.tolist() == deck.values.tolist()
        listed = Deck(deck.spec, [tuple(deck.values[i].tolist()) for i in order],
                      [deck.counts[i] for i in order])
        assert listed == deck and entries(listed) == entries(deck)
        assert Deck(deck.spec, deck.values[::-1], deck.counts[::-1]) == deck

    @given(deck=deck_strategy(), fault=st.sampled_from(sorted(BAD_DECK_INPUTS)))
    def test_bad_rows_and_counts_raise(self, deck, fault):
        values, counts = BAD_DECK_INPUTS[fault](
            deck.values.tolist(), deck.counts.tolist(), deck.spec.values_per_variable
        )
        with pytest.raises(ValidationError):
            Deck(deck.spec, values, counts)
        with pytest.raises(ValidationError):  # the same input as numpy arrays
            Deck(deck.spec, np.array(values, dtype=object), np.array(counts, dtype=object))

    def test_equality_needs_the_same_spec_and_contents(self, four_card_deck, weighted_deck):
        assert four_card_deck != weighted_deck
        assert four_card_deck != Deck(cardbox_spec(2, 2), four_card_deck.values, [1] * 4)
        assert four_card_deck != "deck" and four_card_deck != entries(four_card_deck)
        assert len({four_card_deck, uniform_deck(four_card_deck.spec), weighted_deck}) == 2


class TestFilterDeck:
    def test_uniform_filter_suit(self, four_card_deck, four_card_spec):
        filtered = filter_deck(four_card_deck, "Suit", "H")
        expected = Deck.from_counts(four_card_spec, {("K", "H"): 1, ("Q", "H"): 1})
        assert filtered == expected

    def test_filter_on_universal_value_is_identity(self, four_card_spec):
        deck = Deck.from_counts(four_card_spec, {("K", "H"): 1, ("Q", "H"): 2})
        assert filter_deck(deck, "Suit", "H") == deck

    def test_weighted_filter_face(self, weighted_deck, four_card_spec):
        assert filter_deck(weighted_deck, "Face", "Q") == Deck.from_counts(
            four_card_spec, {("Q", "S"): 2}
        )

    @given(deck=deck_strategy(max_multiplicity=2**70), data=st.data())
    def test_filter_keeps_the_literal_entries(self, deck, data):
        variable = data.draw(st.sampled_from(deck.spec.variable_names))
        shown = sorted({card.assignment[variable] for card, _ in entries(deck)})
        value = data.draw(st.sampled_from(shown))  # filter_deck to a value no card shows raises
        kept = filter_deck(deck, variable, value)
        assert entries(kept) == tuple(
            (card, count) for card, count in entries(deck) if card.assignment[variable] == value
        )

    def test_unknown_names(self, four_card_deck):
        with pytest.raises(ValidationError, match=r"^unknown variable 'Rank'$"):
            filter_deck(four_card_deck, "Rank", "K")
        with pytest.raises(ValidationError, match=r"^unknown value 'K' for variable 'Suit'$"):
            filter_deck(four_card_deck, "Suit", "K")


class TestOutcomeDistribution:
    def test_certainty_after_filter(self, four_card_deck):
        state = BoxState(four_card_deck, filter_deck(four_card_deck, "Suit", "H"))
        assert outcome_distribution(state, "Suit") == {
            "S": Fraction(0),
            "H": Fraction(1),
        }

    def test_uniform_face(self, four_card_deck):
        dist = outcome_distribution(initial_state(four_card_deck), "Face")
        assert dist == {"K": Fraction(1, 2), "Q": Fraction(1, 2)}

    def test_multiplicity_weighted(self, weighted_deck):
        state = initial_state(weighted_deck)
        assert outcome_distribution(state, "Face") == {
            "K": Fraction(1, 2),
            "Q": Fraction(1, 2),
        }
        assert outcome_distribution(state, "Suit") == {
            "S": Fraction(3, 4),
            "H": Fraction(1, 4),
        }

    def test_unknown_variable(self, four_card_deck):
        with pytest.raises(ValidationError, match=r"^unknown variable 'Rank'$"):
            outcome_distribution(initial_state(four_card_deck), "Rank")


class TestObserve:
    def test_repeat_is_certain(self, four_card_deck):
        for seed in range(20):
            rng = RandomStream(seed)
            state = BoxState(four_card_deck, filter_deck(four_card_deck, "Suit", "H"))
            outcome, after = observe(state, "Suit", rng)
            assert outcome.value == "H"
            assert after.subdeck == filter_deck(four_card_deck, "Suit", "H")

    def test_single_card_type_deterministic(self, four_card_spec):
        deck = Deck.from_counts(four_card_spec, {("K", "H"): 3})
        outcome, after = observe(initial_state(deck), "Face", RandomStream(0))
        assert outcome.value == "K"
        assert after.subdeck == deck

    def test_intervening_face_rerandomizes(self, four_card_deck):
        state = BoxState(four_card_deck, filter_deck(four_card_deck, "Suit", "H"))
        outcome, after = observe(state, "Face", RandomStream(3))
        # subdeck rebuilt from the FULL deck: both suits present again
        assert outcome_distribution(after, "Suit") == {
            "S": Fraction(1, 2),
            "H": Fraction(1, 2),
        }
        assert after.subdeck == filter_deck(four_card_deck, "Face", outcome.value)

    def test_draw_past_subdeck_total(self, four_card_deck):
        class OverflowStream:
            def randint_below(self, upper):
                return upper

        with pytest.raises(InvariantError):
            observe(initial_state(four_card_deck), "Face", OverflowStream())

    @given(deck=deck_strategy(max_multiplicity=2**70), data=st.data())
    def test_draw_walks_the_entries(self, deck, data):
        # the pick lands on the first card, in canonical order, whose running count passes it
        variable = data.draw(st.sampled_from(deck.spec.variable_names))
        seed = data.draw(st.integers(0, 2**32 - 1))
        outcome, _ = observe(initial_state(deck), variable, RandomStream(seed))
        pick, running = RandomStream(seed).randint_below(deck.total), 0
        for card, count in entries(deck):
            running += count
            if pick < running:
                break
        assert outcome.value == card.assignment[variable]

    @pytest.mark.parametrize(
        "counts", [[2**62, 2**62 + 1], [2**70, 2**70 - 1], [3 * 2**68, 5 * 2**67 + 1]]
    )
    def test_subdeck_total_past_int64(self, counts):
        deck = Deck(cardbox_spec(2, 2), [(0, 0), (1, 1)], counts)
        state = initial_state(deck)
        shown = {observe(state, "var1", RandomStream(seed))[0].value for seed in range(40)}
        assert shown == {"val1", "val2"}

    def test_fixed_seed_transcript(self):
        deck = parse_deck_file((DATA / "decks" / "weighted3.json").read_bytes())
        shown = observe_sequence(deck, ("Colour", "Shape") * 6, RandomStream(11))
        assert ",".join(o.value for o in shown) == (
            "blue,cube,blue,cube,green,cube,green,disc,blue,disc,green,disc"
        )

    @given(deck=deck_strategy(), data=st.data())
    def test_update_law(self, deck, data):
        variable = data.draw(st.sampled_from(deck.spec.variable_names))
        seed = data.draw(st.integers(0, 2**32 - 1))
        outcome, after = observe(initial_state(deck), variable, RandomStream(seed))
        assert after.deck == deck
        assert after.subdeck == filter_deck(deck, variable, outcome.value)

    @given(deck=deck_strategy(), data=st.data())
    def test_marginals_sum_to_one_exactly(self, deck, data):
        variable = data.draw(st.sampled_from(deck.spec.variable_names))
        dist = outcome_distribution(initial_state(deck), variable)
        assert sum(dist.values()) == Fraction(1)
        assert all(p >= 0 for p in dist.values())
        assert dist == {  # the literal scan of the cards
            value: Fraction(
                sum(m for card, m in entries(deck) if card.assignment[variable] == value), deck.total
            )
            for value in labels(deck.spec, variable)
        }

    @given(deck=deck_strategy(min_variables=2), data=st.data())
    def test_subdeck_reachability(self, deck, data):
        plan = data.draw(
            st.lists(st.sampled_from(deck.spec.variable_names), min_size=0, max_size=4)
        )
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = RandomStream(seed)
        state = initial_state(deck)
        outcomes = []
        for variable in plan:
            outcome, state = observe(state, variable, rng)
            outcomes.append(outcome)
        if not outcomes:
            assert state.subdeck == deck
        else:
            last = outcomes[-1]
            assert state.subdeck == filter_deck(deck, last.variable, last.value)

    @given(deck=deck_strategy(), data=st.data())
    def test_transcripts_deterministic_under_seed(self, deck, data):
        plan = data.draw(
            st.lists(st.sampled_from(deck.spec.variable_names), min_size=1, max_size=5)
        )
        seed = data.draw(st.integers(0, 2**32 - 1))
        first = observe_sequence(deck, plan, RandomStream(seed, 5))
        second = observe_sequence(deck, plan, RandomStream(seed, 5))
        assert first == second


class TestInitialState:
    def test_subdeck_is_full_deck(self, four_card_spec):
        deck = Deck.from_counts(four_card_spec, {("K", "S"): 1, ("K", "H"): 1})
        state = initial_state(deck)
        assert state.subdeck == deck
        assert state.deck == deck

    def test_single_entry_deck(self, four_card_spec):
        deck = Deck.from_counts(four_card_spec, {("Q", "H"): 5})
        assert initial_state(deck).subdeck == deck


class TestUrn:
    def test_deterministic_single_ball(self):
        deck = urn_deck([1, 0])
        outcome, _ = observe(initial_state(deck), "Pos", RandomStream(9))
        assert outcome.value == "p1"

    def test_weighted_positions(self):
        deck = urn_deck([1, 3])
        dist = outcome_distribution(initial_state(deck), "Pos")
        assert dist == {"p1": Fraction(1, 4), "p2": Fraction(3, 4)}


class TestRandomStream:
    def test_same_key_same_sequence(self):
        a = RandomStream(123, 4)
        b = RandomStream(123, 4)
        assert [a.randint_below(1000) for _ in range(50)] == [
            b.randint_below(1000) for _ in range(50)
        ]

    def test_distinct_stream_ids_diverge(self):
        a = RandomStream(123, 0)
        b = RandomStream(123, 1)
        assert [a.randint_below(10**9) for _ in range(10)] != [
            b.randint_below(10**9) for _ in range(10)
        ]

    @pytest.mark.parametrize("upper", [1, 2, 1000, 2**62, 2**63 - 1])
    def test_randint_below_int64_bound_is_generator_draw(self, upper):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=5, spawn_key=(2,))))
        rng = RandomStream(5, 2)
        draws = [rng.randint_below(upper) for _ in range(20)]
        assert draws == [int(gen.integers(upper)) for _ in range(20)]

    @given(upper=st.integers(2**63, 2**200), seed=st.integers(0, 2**32 - 1))
    def test_randint_below_past_int64_is_below_its_bound(self, upper, seed):
        rng = RandomStream(seed)
        draws = [rng.randint_below(upper) for _ in range(20)]
        assert all(type(x) is int and 0 <= x < upper for x in draws)

    @pytest.mark.parametrize(
        "upper", [2**63, 3 * 2**63, 2**126 + 1, 3 * 2**200],
        ids=["2**63", "3*2**63", "2**126+1", "3*2**200"],
    )
    def test_randint_below_past_int64_is_uniform(self, upper):
        rng = RandomStream(8)
        thirds = np.bincount([3 * rng.randint_below(upper) // upper for _ in range(3000)])
        assert thirds.tolist() == pytest.approx([1000] * 3, abs=100)  # about 3.9 sigma

    def test_integers_below_scalar_bound_is_generator_draw(self):
        expected = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=5, spawn_key=(2,)))
        ).integers(7, size=20)
        assert RandomStream(5, 2).integers_below(7, size=20).tolist() == expected.tolist()

    @pytest.mark.parametrize("upper", [0, -3])
    def test_integers_below_rejects_nonpositive_bounds(self, upper):
        with pytest.raises(ValidationError, match=r"^upper must be positive$"):
            RandomStream(0).integers_below(upper, size=3)

    @pytest.mark.parametrize("upper", [0, -1, -(2**70)])
    def test_randint_below_rejects_nonpositive_bounds(self, upper):
        with pytest.raises(ValidationError, match=r"^upper must be positive$"):
            RandomStream(0).randint_below(upper)

    @pytest.mark.parametrize("seed, stream_id", [(-1, 0), (0, -1)])
    def test_negative_key_rejected(self, seed, stream_id):
        name = "seed" if seed < 0 else "stream_id"
        with pytest.raises(ValidationError, match=f"^{name} must be non-negative$"):
            RandomStream(seed, stream_id)

    @given(spec=spec_strategy())
    def test_repeat_observation_is_repeatable(self, spec):
        deck = uniform_deck(spec)
        for seed in (0, 1):
            rng = RandomStream(seed)
            variable = spec.variable_names[0]
            first, state = observe(initial_state(deck), variable, rng)
            dist = outcome_distribution(state, variable)
            assert dist[first.value] == Fraction(1)
