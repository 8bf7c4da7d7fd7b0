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

A deck is its integer arrays: the value indices of each card type and its
exact count (:class:`Deck`).  A card is one row of value indices; its
names are the spec's labels at those indices.  All probabilities on this
classical side are exact ``fractions.Fraction`` values; nothing here
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import InvariantError, ValidationError
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
            raise ValidationError("spec has no variables")
        names = self.variable_names
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate variable names in {names}")
        n = self.values_per_variable
        for name, values in self.variables:
            if len(set(values)) != len(values):
                raise ValidationError(f"duplicate value names for variable {name!r}")
            if len(values) != n:
                raise ValidationError(f"variable {name!r} has {len(values)} values, expected {n}")
        if n < 2:
            raise ValidationError("every variable needs at least two values")

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
            raise ValidationError(f"unknown variable {variable!r}") from None

    def value_index(self, variable: str, value: str) -> int:
        positions = self._value_positions[self.variable_index(variable)]
        try:
            return positions[value]
        except (KeyError, TypeError):
            raise ValidationError(f"unknown value {value!r} for variable {variable!r}") from None


@dataclass(frozen=True, eq=False)
class Deck:
    """A multiset of cards over one spec, held as two read-only arrays.

    ``values`` is an ``(E, V)`` int64 array: row ``e`` holds each
    variable's value index on the ``e``-th card type.  ``counts`` is the
    ``(E,)`` object array of their multiplicities, exact Python ints
    whatever their size.  ``Deck(spec, values, counts)`` takes rows and
    counts in any order, as sequences or arrays, and sorts the rows
    lexicographically, so equal multisets make equal decks.  A deck is
    never empty: it raises ``ValidationError`` for no rows, a row that is
    not ``V`` ints in ``0..N-1``, a repeated row, a missing or extra count,
    and a count that is not an int >= 1 (bool is no int).
    """

    spec: SystemSpec
    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        n, v = self.spec.values_per_variable, self.spec.num_variables
        rows, counts = self.values, self.counts
        try:  # a row that is no sequence, or rows that do not compare, fail here
            rows = [tuple(row) for row in (rows.tolist() if isinstance(rows, np.ndarray) else rows)]
            counts = counts.tolist() if isinstance(counts, np.ndarray) else list(counts)
            order = sorted(range(len(rows)), key=rows.__getitem__)
        except TypeError:
            order = None
        if order is None or len(rows) != len(counts) or set(map(len, rows)) - {v}:
            raise ValidationError(f"a deck takes one row of {v} value indices per count")
        if not rows:
            raise ValidationError("a deck needs at least one card")
        rows, counts = [rows[i] for i in order], [counts[i] for i in order]
        flat = [x for row in rows for x in row]
        if not set(map(type, flat)) <= {int} or not 0 <= min(flat) <= max(flat) < n:
            raise ValidationError(f"value indices must be ints in 0..{n - 1}")
        if len(set(rows)) < len(rows):
            repeated = next(a for a, b in zip(rows, rows[1:]) if a == b)
            raise ValidationError(f"card {repeated} (value indices) listed twice")
        if not set(map(type, counts)) <= {int} or min(counts) < 1:
            raise ValidationError("card counts must be ints >= 1")
        values = np.array(flat, dtype=np.int64).reshape(len(rows), v)
        counts = np.array(counts, dtype=object)
        values.flags.writeable = counts.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_counts(cls, spec: SystemSpec, counts: Mapping[tuple[str, ...], int]) -> "Deck":
        """Deck from counts keyed by value-name tuples in spec order.  Zero
        counts are dropped, once their key is checked; counts that are all
        zero leave no card and raise ``ValidationError``.
        """
        names = spec.variable_names
        rows, kept = [], []
        for key, count in counts.items():
            if not isinstance(key, tuple) or len(key) != len(names):
                raise ValidationError(f"expected a tuple of {len(names)} value names, got {key!r}")
            row = tuple(map(spec.value_index, names, key))
            if type(count) is not int or count != 0:
                rows.append(row)
                kept.append(count)
        return cls(spec, rows, kept)

    def __eq__(self, other) -> bool:
        return isinstance(other, Deck) and self._contents == other._contents

    def __hash__(self) -> int:
        return hash(self._contents)

    @property
    def _contents(self) -> tuple:  # equal specs give equal widths, so equal bytes are equal rows
        return self.spec, self.values.tobytes(), tuple(self.counts.tolist())

    @cached_property
    def total(self) -> int:
        """Total multiplicity across all cards."""
        return sum(self.counts.tolist())

    @cached_property
    def chain_weights(self) -> np.ndarray:
        """Per-card multiplicities of every state of the press chain.

        State 0 is the full deck, state ``1 + a*N + x`` the subdeck kept after
        variable ``a`` showed value ``x``.  Row ``s`` of this read-only ``(1 +
        V*N, E)`` object array holds each card's exact multiplicity in state
        ``s``, in canonical deck order, 0 for cards the state leaves out.
        """
        keep = self.values.T[:, None, :] == np.arange(self.spec.values_per_variable)[:, None]
        weights = np.vstack([self.counts, (keep * self.counts).reshape(-1, len(self.counts))])
        weights.flags.writeable = False
        return weights


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


def card_type_indices(spec: SystemSpec) -> np.ndarray:
    """Value indices of every possible card type, ``(N**V, V)``, in canonical order."""
    n, v = spec.values_per_variable, spec.num_variables
    card_type_count(n, v)
    return np.indices((n,) * v).reshape(v, -1).T


def uniform_deck(spec: SystemSpec) -> Deck:
    """One copy of every possible card type."""
    types = card_type_indices(spec)
    return Deck(spec, types, [1] * len(types))


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
    return BoxState(deck=deck, subdeck=deck)


def filter_deck(deck: Deck, variable: str, value: str) -> Deck:
    """Cards of ``deck`` whose ``variable`` equals ``value``, full multiplicities.

    A deck is never empty, so a value no card shows raises ``ValidationError``.
    :func:`observe` filters by the value of the card it drew, which that card
    shows, so every subdeck the device reaches holds at least that card.
    """
    spec = deck.spec
    keep = deck.values[:, spec.variable_index(variable)] == spec.value_index(variable, value)
    return Deck(spec, deck.values[keep], deck.counts[keep])


def outcome_distribution(state: BoxState, variable: str) -> dict[str, Fraction]:
    """Exact distribution of the displayed value if ``variable`` is pressed.

    Maps every legal value (including impossible ones) to the fraction of
    subdeck multiplicity carrying it; the values sum to exactly 1.
    """
    subdeck = state.subdeck
    a = subdeck.spec.variable_index(variable)
    labels = subdeck.spec.variables[a][1]
    counts = [0] * len(labels)
    for x, count in zip(subdeck.values[:, a].tolist(), subdeck.counts.tolist()):
        counts[x] += count
    return {label: Fraction(count, subdeck.total) for label, count in zip(labels, counts)}


def observe(
    state: BoxState, variable: str, rng: RandomStream
) -> tuple[Outcome, BoxState]:
    """Press the switch for ``variable``: draw a card, display, rebuild.

    The card is drawn uniformly from the subdeck with multiplicity (an exact
    integer draw, so empirical frequencies match :func:`outcome_distribution`
    in distribution): the pick is the first card, in canonical order, whose
    running count passes it.  The new subdeck is rebuilt from the FULL
    deck, not narrowed from the current subdeck.
    """
    subdeck = state.subdeck
    a = subdeck.spec.variable_index(variable)
    pick = rng.randint_below(subdeck.total)
    running = np.cumsum(subdeck.counts)  # Python ints: exact at any total
    row = np.searchsorted(running, pick, side="right")
    if row == len(running):
        raise InvariantError(f"draw {pick} lies past the subdeck total {running[-1]}")
    value = subdeck.spec.variables[a][1][subdeck.values[row, a]]
    outcome = Outcome(variable=variable, value=value)
    new_state = BoxState(deck=state.deck, subdeck=filter_deck(state.deck, variable, value))
    return outcome, new_state

