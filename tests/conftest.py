from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from dofcount import (
    Deck,
    SystemSpec,
    all_cards,
    cardbox_spec,
    initial_state,
    observe,
    uniform_deck,
)

settings.register_profile("default", max_examples=40, deadline=None)
settings.register_profile("thorough", max_examples=200, deadline=None)
settings.load_profile("default")


@pytest.fixture
def four_card_spec():
    return SystemSpec.from_mapping({"Face": ["K", "Q"], "Suit": ["S", "H"]})


@pytest.fixture
def four_card_deck(four_card_spec):
    """One card each of KS, KH, QS, QH."""
    return uniform_deck(four_card_spec)


@pytest.fixture
def weighted_deck(four_card_spec):
    """KS:1, KH:1, QS:2 -- unequal marginals, a duplicated card type."""
    return Deck.from_counts(
        four_card_spec, {("K", "S"): 1, ("K", "H"): 1, ("Q", "S"): 2}
    )


def spec_strategy(min_variables=1, max_variables=3, min_values=2, max_values=4):
    return st.builds(
        cardbox_spec,
        st.integers(min_values, max_values),
        st.integers(min_variables, max_variables),
    )


@st.composite
def deck_strategy(draw, spec=None, max_multiplicity=3, **spec_kwargs):
    if spec is None:
        spec = draw(spec_strategy(**spec_kwargs))
    cards = all_cards(spec)
    mults = draw(
        st.lists(
            st.integers(0, max_multiplicity),
            min_size=len(cards),
            max_size=len(cards),
        ).filter(any)
    )
    return Deck.from_counts(
        spec, {card: m for card, m in zip(cards, mults) if m}
    )


def joint_card_frequency(deck, a: str, x: str, b: str, y: str) -> Fraction:
    """Independent oracle: fraction of deck cards with a=x and b=y."""
    matching = sum(
        count
        for card, count in deck.entries
        if card.value(a) == x and card.value(b) == y
    )
    return Fraction(matching, deck.total)


def observe_sequence(deck, plan, rng):
    """One seeded pass of the device over a plan, one ``observe`` per press."""
    state = initial_state(deck)
    outcomes = []
    for variable in plan:
        outcome, state = observe(state, variable, rng)
        outcomes.append(outcome)
    return tuple(outcomes)


def simulate_by_presses(deck, plan, trials, rng):
    """Independent sampler oracle: the literal per-trial ``observe`` loop."""
    counts = {}
    for _ in range(trials):
        key = observe_sequence(deck, plan, rng)
        counts[key] = counts.get(key, 0) + 1
    return counts
