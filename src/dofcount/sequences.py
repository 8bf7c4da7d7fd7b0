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

import numpy as np

from .cardbox import (
    BoxState,
    Deck,
    Outcome,
    filter_deck,
    initial_state,
    outcome_distribution,
)
from .errors import (
    EmptyDeckError,
    InvariantError,
    SameVariableError,
    SingleVariableError,
    ValidationError,
)
from .rng import RandomStream

# Trials sampled at once; memory stays O(chunk * plan length) for any count.
SIMULATE_CHUNK = 65_536
# Largest trial count ``simulate_plan`` accepts; more fails before any draw.
MAX_TRIALS = 10**8
_INT64_MAX = np.iinfo(np.int64).max

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


def _chain_table(deck: Deck) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Running card counts of every chain state, laid end to end.

    State 0 is the full deck; state ``1 + a*N + x`` is the subdeck kept
    after variable ``a`` showed value ``x``.  Row ``s`` holds that subdeck's
    running multiplicities in canonical deck order, shifted up by the totals
    of the rows before it, so one sorted array serves every state.  Returns
    ``(flat, starts, totals)``: the rows end to end, each row's shift and
    each state's subdeck total.
    """
    values, counts = deck.arrays
    n = deck.spec.values_per_variable
    keep = values.T[:, None, :] == np.arange(n)[:, None]  # (V, N, E)
    weights = np.vstack([counts, (keep * counts).reshape(-1, len(counts))])
    totals = weights.sum(axis=1)
    starts = np.cumsum(totals) - totals
    flat = (np.cumsum(weights, axis=1) + starts[:, None]).ravel()
    return flat, starts, totals


def simulate_plan(
    deck: Deck, plan: Sequence[str], trials: int, rng: RandomStream
) -> dict[tuple[Outcome, ...], int]:
    """Seeded Monte Carlo runs of a plan; returns sequence counts.

    The subdeck is rebuilt from the full deck on every press, so the device
    is a Markov chain on the last outcome (see :func:`_chain_table`).  Trials
    run in chunks of at most ``SIMULATE_CHUNK``; each step makes one draw for
    every trial of a chunk.  A trial picks uniformly below its state's
    subdeck total and is shown the card whose running count first exceeds
    the pick -- :func:`~dofcount.cardbox.observe`'s rule, in canonical deck
    order.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if trials > MAX_TRIALS:
        raise ValidationError(f"trials must be at most {MAX_TRIALS:,}, got {trials:,}")
    if deck.is_empty:
        raise EmptyDeckError("cannot simulate an empty deck")
    steps = _validate_plan(deck, plan)
    spec = deck.spec
    if (1 + spec.num_variables) * deck.total > _INT64_MAX:
        raise ValidationError(
            f"deck total {deck.total} is too large to sample: "
            f"(V+1) * total must stay below 2**63"
        )
    flat, starts, totals = _chain_table(deck)
    values = deck.arrays[0]
    n, width = spec.values_per_variable, len(deck.entries)
    pressed = [spec.variable_index(variable) for variable in steps]
    radix = n ** np.arange(len(steps)) if n ** len(steps) <= _INT64_MAX else None
    runs: dict[tuple[int, ...], int] = {}
    for done in range(0, trials, SIMULATE_CHUNK):
        size = min(SIMULATE_CHUNK, trials - done)
        state = np.zeros(size, dtype=np.int64)
        shown = np.empty((size, len(steps)), dtype=np.int64)
        for i, a in enumerate(pressed):
            highs = totals[state]
            picks = rng.integers_below(highs)
            if np.any(picks >= highs):
                raise InvariantError("a draw lies at or past its subdeck total")
            cards = np.searchsorted(flat, starts[state] + picks, side="right") - state * width
            shown[:, i] = values[cards, a]
            state = 1 + a * n + shown[:, i]
        if radix is None:
            rows, hits = np.unique(shown, axis=0, return_counts=True)
        else:  # one int64 code per run sorts far faster than rows
            _, first, hits = np.unique(shown @ radix, return_index=True, return_counts=True)
            rows = shown[first]
        for row, hit in zip(map(tuple, rows.tolist()), hits.tolist()):
            runs[row] = runs.get(row, 0) + hit
    if sum(runs.values()) != trials:
        raise InvariantError(f"simulated counts sum to {sum(runs.values())}, not {trials}")
    labels = [spec.values_of(variable) for variable in steps]
    return {
        tuple(Outcome(v, labels[i][x]) for i, (v, x) in enumerate(zip(steps, row))): count
        for row, count in runs.items()
    }
