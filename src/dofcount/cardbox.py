"""Card-box and urn operational systems.

The card-box device is a sealed box holding a full deck of cards, each card
carrying one value for each of V variables (every variable has the same
number N of possible values), plus a segregated subdeck.  Pressing the
switch for a variable draws a card uniformly at random from the subdeck
(duplicates counted with multiplicity), displays that card's value for the
pressed variable, and then rebuilds the subdeck from the *full* deck,
keeping every card that agrees with the displayed value.

Rebuilding from the full deck is the whole trick: immediately repeating the
same switch is guaranteed to show the same value, while switching variables
re-randomizes everything else.  The urn (a single N-valued variable, V=1)
is the degenerate case with nothing to disturb.

All probabilities on this classical side are exact ``fractions.Fraction``
values; nothing here touches floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import (
    BadArityError,
    DuplicateNameError,
    EmptyDeckError,
    EmptySpecError,
    EmptySubdeckError,
    IncompleteAssignmentError,
    InvariantError,
    UnknownValueError,
    UnknownVariableError,
    ValidationError,
)
from .rng import RandomStream


@dataclass(frozen=True)
class SystemSpec:
    """The variable/value universe of one system, checked when it is built.

    ``variables`` is an ordered tuple of ``(variable_name, value_names)``
    pairs.  There is at least one variable, and every variable offers the
    same number of values, at least two; variable names are unique, and
    value names are unique within each variable.  A spec that breaks any
    of these raises ``ValidationError`` on construction, so every spec in
    hand has one position per name.
    """

    variables: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        if not self.variables:
            raise EmptySpecError("spec has no variables")
        names = self.variable_names
        if len(set(names)) != len(names):
            raise DuplicateNameError(f"duplicate variable names in {names}")
        n = self.values_per_variable
        for name, values in self.variables:
            if len(set(values)) != len(values):
                raise DuplicateNameError(f"duplicate value names for variable {name!r}")
            if len(values) != n:
                raise BadArityError(
                    f"variable {name!r} has {len(values)} values, expected {n}"
                )
        if n < 2:
            raise EmptySpecError("every variable needs at least two values")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Sequence[str]]) -> "SystemSpec":
        return cls(tuple((name, tuple(values)) for name, values in mapping.items()))

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def values_per_variable(self) -> int:
        return len(self.variables[0][1])

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    @cached_property
    def _variable_positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.variable_names)}

    @cached_property
    def _value_positions(self) -> tuple[dict[str, int], ...]:
        return tuple({value: j for j, value in enumerate(values)} for _, values in self.variables)

    def variable_index(self, variable: str) -> int:
        try:
            return self._variable_positions[variable]
        except (KeyError, TypeError):  # an unhashable name matches none
            raise UnknownVariableError(f"unknown variable {variable!r}") from None

    def values_of(self, variable: str) -> tuple[str, ...]:
        return self.variables[self.variable_index(variable)][1]

    def value_index(self, variable: str, value: str) -> int:
        positions = self._value_positions[self.variable_index(variable)]
        try:
            return positions[value]
        except (KeyError, TypeError):
            raise UnknownValueError(
                f"unknown value {value!r} for variable {variable!r}"
            ) from None


@dataclass(frozen=True)
class Card:
    """One card: a total assignment of a value to every variable.

    ``items`` holds ``(variable, value)`` pairs in spec variable order, so
    cards are hashable and printable without a spec in hand.
    """

    items: tuple[tuple[str, str], ...]

    @classmethod
    def from_assignment(cls, spec: SystemSpec, assignment: Mapping[str, str]) -> "Card":
        for variable in assignment:
            spec.variable_index(variable)  # raises UnknownVariableError
        for name in spec.variable_names:
            if name not in assignment:
                raise IncompleteAssignmentError(f"no value for variable {name!r}")
            spec.value_index(name, assignment[name])  # raises UnknownValueError
        return cls(tuple((name, assignment[name]) for name in spec.variable_names))

    @property
    def assignment(self) -> dict[str, str]:
        return dict(self.items)

    @property
    def values(self) -> tuple[str, ...]:
        return tuple(value for _, value in self.items)

    def value(self, variable: str) -> str:
        for name, value in self.items:
            if name == variable:
                return value
        raise UnknownVariableError(f"unknown variable {variable!r}")

    def __str__(self) -> str:
        return "/".join(f"{name}={value}" for name, value in self.items)


CardKey = Union[Card, Sequence[str]]


@dataclass(frozen=True)
class Deck:
    """A multiset of cards over one spec; multiplicities are positive ints.

    ``entries`` is kept in canonical order (lexicographic by value indices),
    making equal multisets structurally equal.  A deck may be empty only as
    the transient result of :func:`filter_deck`; every public entry point
    that takes a deck rejects empty ones.
    """

    spec: SystemSpec
    entries: tuple[tuple[Card, int], ...]

    @classmethod
    def from_counts(cls, spec: SystemSpec, counts: Mapping[CardKey, int]) -> "Deck":
        indexed = {}  # value indices -> count
        for key, count in counts.items():
            card = key
            if not isinstance(card, Card):
                if len(key) != spec.num_variables:
                    raise IncompleteAssignmentError(
                        f"expected {spec.num_variables} values, got {len(key)}"
                    )
                card = Card(tuple(zip(spec.variable_names, key)))
            index = _card_index(spec, card)
            if not isinstance(count, int) or isinstance(count, bool):
                raise ValidationError(f"multiplicity for {card} must be an integer")
            if count < 0:
                raise ValidationError(f"negative multiplicity for {card}")
            if count == 0:
                continue
            if index in indexed:
                raise ValidationError(f"card {card} listed twice")
            indexed[index] = count
        return cls._from_indices(spec, indexed)

    @classmethod
    def _from_indices(cls, spec: SystemSpec, counts: Mapping[tuple[int, ...], int]) -> "Deck":
        """Deck from positive counts keyed by distinct, valid value-index tuples."""
        order = sorted(counts)
        cards = [Card(tuple((name, values[j]) for (name, values), j in zip(spec.variables, i)))
                 for i in order]
        deck = cls(spec, tuple(zip(cards, map(counts.__getitem__, order))))
        deck.__dict__["_indices"] = order  # seeds the cache: arrays looks nothing up again
        return deck

    @cached_property
    def total(self) -> int:
        """Total multiplicity across all cards."""
        return sum(count for _, count in self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Integer view: ``(E, V)`` value indices and ``(E,)`` multiplicities.

        Row ``e`` is ``entries[e]``, so rows keep the canonical deck order.
        Multiplicities stay exact Python ints (an object array) whatever
        their size.  Both arrays are read-only.
        """
        values = np.array(self._indices, dtype=np.int64).reshape(-1, self.spec.num_variables)
        counts = np.array([count for _, count in self.entries], dtype=object)
        values.flags.writeable = counts.flags.writeable = False
        return values, counts

    @cached_property
    def _indices(self) -> list[tuple[int, ...]]:  # each entry's value indices
        return [_card_index(self.spec, card) for card, _ in self.entries]


def _card_index(spec: SystemSpec, card: Card) -> tuple[int, ...]:
    """The card's value indices, once it names the spec's variables in order."""
    if tuple(name for name, _ in card.items) != spec.variable_names:
        raise IncompleteAssignmentError(
            f"card {card} does not cover the spec's variables {spec.variable_names}"
        )
    return tuple(spec.value_index(name, value) for name, value in card.items)


MAX_CARD_TYPES = 2**12


def card_type_count(num_values: int, num_variables: int) -> int:
    """``num_values ** num_variables``, the number of possible card types.

    Raises ``ValidationError`` above ``MAX_CARD_TYPES``, before any work
    that grows with it, and without computing a power it would refuse.
    """
    count = 1
    for _ in range(num_variables):
        count *= num_values
        if count > MAX_CARD_TYPES:
            raise ValidationError(
                f"N**V = {num_values}**{num_variables} card types exceed the "
                f"limit MAX_CARD_TYPES = {MAX_CARD_TYPES:,}"
            )
    return count


def all_cards(spec: SystemSpec) -> list[Card]:
    """Every possible card type, in canonical (lexicographic) order."""
    card_type_count(spec.values_per_variable, spec.num_variables)
    names = spec.variable_names
    pools = [values for _, values in spec.variables]
    return [
        Card(tuple(zip(names, combo))) for combo in itertools.product(*pools)
    ]


def uniform_deck(spec: SystemSpec) -> Deck:
    """One copy of every possible card type."""
    return Deck.from_counts(spec, {card: 1 for card in all_cards(spec)})


@dataclass(frozen=True)
class Outcome:
    """A displayed (variable, value) pair."""

    variable: str
    value: str

    def __str__(self) -> str:
        return f"{self.variable}={self.value}"


@dataclass(frozen=True)
class BoxState:
    """Device state: the immutable full deck plus the current subdeck."""

    deck: Deck
    subdeck: Deck


def initial_state(deck: Deck) -> BoxState:
    """Fresh device state; before any observation the subdeck is the full deck."""
    if deck.is_empty:
        raise EmptyDeckError("cannot prepare a state from an empty deck")
    return BoxState(deck=deck, subdeck=deck)


def filter_deck(deck: Deck, variable: str, value: str) -> Deck:
    """Cards of ``deck`` whose ``variable`` equals ``value``, full multiplicities.

    The result may be empty; callers that need a live subdeck must check.
    """
    deck.spec.value_index(variable, value)  # validates both names
    entries = tuple(
        (card, count) for card, count in deck.entries if card.value(variable) == value
    )
    return Deck(deck.spec, entries)


def outcome_distribution(state: BoxState, variable: str) -> dict[str, Fraction]:
    """Exact distribution of the displayed value if ``variable`` is pressed.

    Maps every legal value (including impossible ones) to the fraction of
    subdeck multiplicity carrying it; the values sum to exactly 1.
    """
    values = state.subdeck.spec.values_of(variable)
    if state.subdeck.is_empty:
        raise EmptySubdeckError("state has an empty subdeck")
    total = state.subdeck.total
    counts = {value: 0 for value in values}
    for card, count in state.subdeck.entries:
        counts[card.value(variable)] += count
    return {value: Fraction(counts[value], total) for value in values}


def observe(
    state: BoxState, variable: str, rng: RandomStream
) -> tuple[Outcome, BoxState]:
    """Press the switch for ``variable``: draw a card, display, rebuild.

    The card is drawn uniformly from the subdeck with multiplicity (an exact
    integer draw, so empirical frequencies match :func:`outcome_distribution`
    in distribution).  The new subdeck is rebuilt from the FULL deck, not
    narrowed from the current subdeck.
    """
    state.subdeck.spec.variable_index(variable)
    if state.subdeck.is_empty:
        raise EmptySubdeckError("state has an empty subdeck")
    pick = rng.randint_below(state.subdeck.total)
    running = 0
    drawn = None
    for card, count in state.subdeck.entries:
        running += count
        if pick < running:
            drawn = card
            break
    if drawn is None:
        raise InvariantError(f"draw {pick} lies past the subdeck total {running}")
    value = drawn.value(variable)
    outcome = Outcome(variable=variable, value=value)
    new_state = BoxState(deck=state.deck, subdeck=filter_deck(state.deck, variable, value))
    return outcome, new_state


URN_VARIABLE = "Pos"


def urn_as_cardbox(n: int) -> SystemSpec:
    """The classical urn expressed as a one-variable card box.

    A ball that can sit in one of ``n`` positions is a deck over the n
    single-value card types; multiplicities encode the position distribution.
    """
    if n < 2:
        raise BadArityError(f"an urn needs at least 2 positions, got {n}")
    return SystemSpec(((URN_VARIABLE, tuple(f"p{i + 1}" for i in range(n))),))


def urn_deck(counts: Sequence[int]) -> Deck:
    """Urn state from per-position multiplicities (one entry per position)."""
    spec = urn_as_cardbox(len(counts))
    return Deck.from_counts(
        spec,
        {(value,): count for value, count in zip(spec.values_of(URN_VARIABLE), counts)},
    )


def cardbox_spec(num_values: int, num_variables: int) -> SystemSpec:
    """Generic spec with machine-made names: variables var1.., values val1..

    Used by sweeps and ensemble experiments where only the (N, V) shape
    matters; hand-written decks come from JSON files with real names.
    """
    if num_variables < 1 or num_values < 2:
        raise EmptySpecError(
            f"need at least 1 variable of 2 values, got V={num_variables}, N={num_values}"
        )
    values = tuple(f"val{j + 1}" for j in range(num_values))
    return SystemSpec(
        tuple((f"var{i + 1}", values) for i in range(num_variables))
    )
