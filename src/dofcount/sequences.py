"""Exact statistics of observation sequences on the card box.

The device's update rule makes three things true, and this module makes
each machine-checkable:

* repeatability -- pressing the same switch twice in a row always repeats
  the first value (``check_repeatability``);
* pair-order invariance -- from a fresh state, the two-press statistics of
  distinct variables agree in both orders and equal the deck's joint card
  frequencies (``pair_order_statistics``);
* incompatibility -- at length three, sequences appear in which a variable
  is seen twice with *different* values.  No model in which every card has
  fixed values that observation merely reveals can produce such a run, so
  one positive-probability run of that shape refutes all static-value joint
  models (``find_classicality_witness``).

Ground truth is computed by exact recursive expansion of the outcome tree
with rational arithmetic; Monte Carlo enters only through
``simulate_plan``, which is there to be checked against the exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping, Sequence

from .cardbox import (
    BoxState,
    Deck,
    Outcome,
    filter_deck,
    initial_state,
    observe,
    outcome_distribution,
)
from .errors import (
    EmptyDeckError,
    InvariantError,
    SameVariableError,
    SingleVariableError,
)
from .rng import RandomStream

# A measurement plan is just an ordered tuple of variable names.
MeasurementPlan = tuple[str, ...]

# Maps (state, variable, observed value) to the next state.  The default is
# the device's own law; tests inject broken laws as negative controls.
UpdateRule = Callable[[BoxState, str, str], BoxState]


def _rebuild_from_full_deck(state: BoxState, variable: str, value: str) -> BoxState:
    return BoxState(state.deck, filter_deck(state.deck, variable, value))


@dataclass(frozen=True)
class SequenceDistribution:
    """Exact distribution over outcome tuples for one plan.

    Only positive-probability sequences are stored; ``probability`` returns
    0 for everything else.  The stored probabilities sum to exactly 1.
    """

    plan: MeasurementPlan
    probabilities: Mapping[tuple[Outcome, ...], Fraction]

    def probability(self, outcomes: Sequence[Outcome]) -> Fraction:
        return self.probabilities.get(tuple(outcomes), Fraction(0))

    def items(self):
        return self.probabilities.items()

    def __len__(self) -> int:
        return len(self.probabilities)


def _validate_plan(deck: Deck, plan: Sequence[str]) -> MeasurementPlan:
    steps = tuple(plan)
    if not steps:
        raise ValueError("plan must contain at least one step")
    for variable in steps:
        deck.spec.variable_index(variable)
    return steps


def sequence_distribution(
    deck: Deck,
    plan: Sequence[str],
    *,
    update_rule: UpdateRule | None = None,
) -> SequenceDistribution:
    """Exact distribution of the outcome sequence for ``plan``.

    Expands the outcome tree: the probability of a sequence is the product
    of each step's exact outcome probability given the state evolved
    through the preceding steps.
    """
    if deck.is_empty:
        raise EmptyDeckError("cannot compute sequence statistics for an empty deck")
    steps = _validate_plan(deck, plan)
    evolve = update_rule if update_rule is not None else _rebuild_from_full_deck
    probabilities: dict[tuple[Outcome, ...], Fraction] = {}

    def expand(state: BoxState, prefix: tuple[Outcome, ...], weight: Fraction) -> None:
        if len(prefix) == len(steps):
            probabilities[prefix] = probabilities.get(prefix, Fraction(0)) + weight
            return
        variable = steps[len(prefix)]
        for value, p in outcome_distribution(state, variable).items():
            if p == 0:
                continue
            expand(
                evolve(state, variable, value),
                prefix + (Outcome(variable, value),),
                weight * p,
            )

    expand(initial_state(deck), (), Fraction(1))
    total = sum(probabilities.values())
    if total != 1:
        raise InvariantError(f"sequence probabilities sum to {total}, not 1")
    return SequenceDistribution(steps, probabilities)


@dataclass(frozen=True)
class RepeatabilityResult:
    """Outcome of a repeatability audit; counterexample given on failure."""

    passed: bool
    variable: str | None = None
    outcomes: tuple[Outcome, Outcome] | None = None
    probability: Fraction | None = None

    def __bool__(self) -> bool:
        return self.passed


def check_repeatability(
    deck: Deck, *, update_rule: UpdateRule | None = None
) -> RepeatabilityResult:
    """Audit every variable: an immediate re-press must repeat the value.

    Passes iff for each variable v the exact [v, v] distribution puts zero
    probability on pairs with differing values.
    """
    if deck.is_empty:
        raise EmptyDeckError("cannot audit an empty deck")
    for variable in deck.spec.variable_names:
        dist = sequence_distribution(deck, (variable, variable), update_rule=update_rule)
        for (first, second), p in dist.items():
            if first.value != second.value:
                return RepeatabilityResult(
                    passed=False,
                    variable=variable,
                    outcomes=(first, second),
                    probability=p,
                )
    return RepeatabilityResult(passed=True)


@dataclass(frozen=True)
class ClassicalityWitness:
    """A run that no static-value joint model can produce.

    The sequence repeats some variable with two different values at positive
    probability; if cards had fixed values that observation merely revealed,
    the repeat would be forced to agree.
    """

    sequence: tuple[Outcome, ...]
    probability: Fraction
    violated_constraint: str


def _contradictory_repeat(
    sequence: tuple[Outcome, ...]
) -> tuple[int, int] | None:
    last_seen: dict[str, int] = {}
    for j, outcome in enumerate(sequence):
        i = last_seen.get(outcome.variable)
        if i is not None and sequence[i].value != outcome.value:
            return i, j
        last_seen[outcome.variable] = j
    return None


def find_classicality_witness(
    deck: Deck, max_length: int = 3
) -> ClassicalityWitness | None:
    """Search short plans for a contradictory repeat.

    The subdeck is rebuilt from the full deck on every press, so any
    refutation the device can exhibit already shows up by length 3
    (variable, other variable, variable again); longer plans add nothing.
    Returns None when the deck genuinely admits no witness.
    """
    if deck.is_empty:
        raise EmptyDeckError("cannot search an empty deck")
    if deck.spec.num_variables < 2:
        raise SingleVariableError(
            "a single-variable (urn) system cannot produce a contradictory repeat"
        )
    if not 2 <= max_length <= 3:
        raise ValueError("witness search depth must be 2 or 3")
    names = deck.spec.variable_names
    for length in range(2, max_length + 1):
        for plan in product(names, repeat=length):
            if len(set(plan)) == len(plan):
                continue  # no variable repeats, nothing to contradict
            dist = sequence_distribution(deck, plan)
            for sequence, p in dist.items():
                hit = _contradictory_repeat(sequence)
                if hit is None:
                    continue
                i, j = hit
                description = (
                    f"variable {sequence[i].variable!r} observed as "
                    f"{sequence[i].value!r} at step {i + 1} and "
                    f"{sequence[j].value!r} at step {j + 1}"
                )
                return ClassicalityWitness(
                    sequence=sequence, probability=p, violated_constraint=description
                )
    return None


def pair_order_statistics(
    deck: Deck, a: str, b: str
) -> tuple[SequenceDistribution, SequenceDistribution]:
    """Exact distributions of [a, b] and [b, a] from the fresh full-deck state.

    Both reduce to the deck's joint card frequency of the two values, so
    order does not matter at pair level; incompatibility only bites from
    length 3 on.
    """
    if a == b:
        raise SameVariableError(f"need two distinct variables, got {a!r} twice")
    return (
        sequence_distribution(deck, (a, b)),
        sequence_distribution(deck, (b, a)),
    )


def simulate_plan(
    deck: Deck, plan: Sequence[str], trials: int, rng: RandomStream
) -> dict[tuple[Outcome, ...], int]:
    """Seeded Monte Carlo runs of a plan; returns sequence counts."""
    if trials < 1:
        raise ValueError("trials must be positive")
    steps = _validate_plan(deck, plan)
    counts: dict[tuple[Outcome, ...], int] = {}
    for _ in range(trials):
        state = initial_state(deck)
        outcomes = []
        for variable in steps:
            outcome, state = observe(state, variable, rng)
            outcomes.append(outcome)
        key = tuple(outcomes)
        counts[key] = counts.get(key, 0) + 1
    return counts
