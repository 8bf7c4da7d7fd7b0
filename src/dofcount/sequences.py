"""Exact statistics of observation sequences on the card box.

The device's update rule makes three things true, and this module makes
each machine-checkable:

* repeatability -- pressing the same switch twice in a row always repeats
  the first value (``check_repeatability``);
* pair-order invariance -- from a fresh state, the two-press statistics of
  distinct variables agree in both orders and equal the deck's joint card
  frequencies (``sequence_distribution`` of ``(a, b)`` and ``(b, a)``);
* incompatibility -- at length three, sequences appear in which a variable
  is seen twice with *different* values.  No model in which every card has
  fixed values that observation merely reveals can produce such a run, so
  one positive-probability run of that shape refutes all static-value joint
  models (``find_classicality_witness``).

The subdeck is rebuilt from the full deck on every press, so the device is
a Markov chain on the last (variable, value) shown.  The law and sampler
come from one statement of that chain, the per-card weights of each chain
state (``Deck.chain_weights``) and the pair counts built from them
(:func:`_pair_counts`); the witness reads only the deck's own arrays,
``Deck.values`` and ``Deck.counts``.  Ground truth is the exact chain
product, expanded one plan step at a time over integer arrays that cannot
wrap (:func:`_exact_dtype`); ``Fraction`` values are made only when a
caller asks for the ``Outcome`` map.  Monte Carlo enters only through
``simulate_plan``, which splits the trials along the exact law's runs with
one multinomial draw per run and step over the per-card weights, so its
counts line up with the values they are checked against, at a cost that
does not grow with the number of trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .cardbox import Deck, Outcome
from .errors import InvariantError, ValidationError
from .rng import RandomStream

# Largest trial count ``simulate_plan`` accepts; more fails before any draw.
MAX_TRIALS = 10**8
# Most positive-probability runs ``sequence_distribution`` will expand.
MAX_SEQUENCES = 2**18
# Most V*N of a deck: the pair counts and the witness's marks grow with its square.
MAX_CHAIN_VALUES = 2**11
# Card entries of one multinomial call: a step's arrays stay this size whatever the run.
_DRAW_BLOCK = 2**12

# A measurement plan is just an ordered tuple of variable names.
MeasurementPlan = tuple[str, ...]


@dataclass(frozen=True, eq=False)
class SequenceDistribution:
    """Exact distribution over outcome tuples for one plan, held as arrays.

    Runs are stored level by level: ``values[i][j]`` is the value index
    the ``j``-th run of length ``i + 1`` shows at step ``i`` (a label of
    ``labels[i]``), and ``parents[i][j]`` is the run of length ``i`` it
    extends (all 0 at the first step).  ``numerators[j] / denominators[j]``
    is the ``j``-th full run's probability in lowest terms: int64 arrays
    when :func:`_exact_dtype` admits the plan (see
    :func:`sequence_distribution`), object arrays of Python ints otherwise.
    On both sides ``.tolist()`` and ``probabilities`` give exact Python
    ints.  Runs are in lexicographic value order.  Only positive-probability
    runs are stored; ``probability`` returns 0 for everything else, and the
    stored probabilities sum to exactly 1.  ``probabilities``, the
    ``Outcome`` tuple to ``Fraction`` map, is built on first use.
    """

    plan: MeasurementPlan
    labels: tuple[tuple[str, ...], ...]
    parents: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    numerators: np.ndarray
    denominators: np.ndarray

    @cached_property
    def probabilities(self) -> Mapping[tuple[Outcome, ...], Fraction]:
        shown = [
            [Outcome(variable, label) for label in labels]
            for variable, labels in zip(self.plan, self.labels)
        ]
        runs = _runs(self.parents, self.values, np.arange(len(self.numerators)))
        return {
            tuple(shown[i][x] for i, x in enumerate(run)): Fraction(a, b)
            for run, a, b in zip(runs.tolist(), self.numerators.tolist(), self.denominators.tolist())
        }

    def probability(self, outcomes: Sequence[Outcome]) -> Fraction:
        return self.probabilities.get(tuple(outcomes), Fraction(0))

    def items(self):
        return self.probabilities.items()

    def __len__(self) -> int:
        return len(self.numerators)


def _runs(parents, values, index: np.ndarray) -> np.ndarray:
    """Value indices of the last level's runs at ``index``, one column per step."""
    columns = []
    for parent, value in zip(reversed(parents), reversed(values)):
        columns.append(value[index])
        index = parent[index]
    return np.stack(columns[::-1], axis=1)


def _run_text(plan, labels, parents, values, index: int) -> str:
    """The last level's run at ``index`` as ``variable=value`` steps."""
    (run,) = _runs(parents, values, np.array([index])).tolist()
    return ", ".join(f"{plan[i]}={labels[i][x]}" for i, x in enumerate(run))


def _exact_dtype(total: int, power: int = 1):
    """``np.int64`` when every integer up to ``total**power`` fits, else ``object``.

    ``total.bit_length() * power <= 63`` gives ``total**power < 2**63``.
    The object side holds Python ints, exact at any size.
    """
    return np.int64 if total.bit_length() * power <= 63 else object


def _check_chain_values(deck: Deck) -> None:
    """Refuse ``V*N`` past ``MAX_CHAIN_VALUES`` before any array that grows with its square."""
    v, n = deck.spec.num_variables, deck.spec.values_per_variable
    if v * n > MAX_CHAIN_VALUES:
        raise ValidationError(f"V*N = {v}*{n} variable values exceed the limit "
                              f"MAX_CHAIN_VALUES = {MAX_CHAIN_VALUES:,}")


def _pair_counts(deck: Deck) -> np.ndarray:
    """``C[s, b*N + y]``: multiplicity of chain state ``s``'s cards showing b=y.

    Row ``s`` is chain state ``s`` (``Deck.chain_weights``): row 0, the
    full deck, holds the single counts ``n_b(y)``, and row ``1 + a*N + x``
    the cards showing a=x and b=y.  Pressing ``b`` in state ``s`` shows
    ``y`` with probability ``C[s, b*N + y]`` over the state's total.  No
    count, nor any partial sum of one, exceeds the deck total, so the
    ``(1 + V*N, V*N)`` array is int64 whenever :func:`_exact_dtype` admits
    the total.  A deck past ``MAX_CHAIN_VALUES`` raises ``ValidationError``.
    """
    _check_chain_values(deck)
    weights = deck.chain_weights.astype(_exact_dtype(deck.total))
    return weights @ (weights[1:] > 0).T


def _support_size(pairs: np.ndarray, pressed: list[int], n: int) -> int:
    """Number of positive-probability runs, one vector-matrix product per step.

    ``pressed`` holds each step's variable index.  The live runs per chain
    state, from one in state 0, are Python ints over the pattern of
    ``C > 0``, so they stay exact however many runs there are.
    """
    live = (pairs > 0).astype(object)
    runs, states = np.ones(1, dtype=object), slice(0, 1)
    for a in pressed:
        runs = runs @ live[states, a * n : (a + 1) * n]
        states = slice(1 + a * n, 1 + (a + 1) * n)
    return int(runs.sum())


def sequence_distribution(deck: Deck, plan: Sequence[str]) -> SequenceDistribution:
    """Exact distribution of the outcome sequence for ``plan``.

    With ``C`` the pair counts of :func:`_pair_counts`, a run through the
    chain states ``s_0 = 0, s_1, ...`` has the product of
    ``C[s_i, a_(i+1)*N + x_(i+1)] / total(s_i)``.  The runs are expanded one
    plan step at a time over whole arrays, from one root run in state 0
    with probability ``1/1``: one ``np.nonzero`` over the rows of ``C > 0``
    that the live runs end in gives every ``(parent, value)`` child in
    lexicographic order, each child's numerator and denominator are its
    parent's times one entry of ``C`` and its state's total, and one
    ``np.gcd`` reduces the leaves.

    Every entry of ``C`` is at most ``T = deck.total``, so after ``i``
    steps each numerator and denominator, and each children's sum checked
    against its parent, is at most ``T**i <= T**L`` for a plan of length
    ``L``.  The arrays are int64 when ``T.bit_length() * L <= 63``
    (:func:`_exact_dtype`), where ``T**L < 2**63`` and nothing can wrap,
    and object arrays of Python ints otherwise, exact at any multiplicity.
    Both sides run the same code.  More than ``MAX_SEQUENCES``
    positive-probability runs raise ``ValidationError`` before any
    expansion.  In integers, every run, the root included, must have a
    child, and its children must carry its probability; by telescoping,
    the leaves sum to 1.
    """
    steps = tuple(plan)
    if not steps:
        raise ValidationError("plan must contain at least one step")
    spec = deck.spec
    pressed = [spec.variable_index(variable) for variable in steps]
    n = spec.values_per_variable
    pairs = _pair_counts(deck)
    size = _support_size(pairs, pressed, n)
    if size > MAX_SEQUENCES:
        raise ValidationError(
            f"plan has {size:,} possible outcome sequences, more than the "
            f"limit of {MAX_SEQUENCES:,}"
        )
    labels = tuple(spec.variables[a][1] for a in pressed)
    counts = pairs.astype(_exact_dtype(deck.total, len(steps)), copy=False)
    # each chain state's total: the deck's for state 0, n_a(x) for 1 + a*N + x
    totals = np.concatenate((np.array([deck.total], dtype=counts.dtype), counts[0]))
    state = np.zeros(1, dtype=np.intp)
    numerators = denominators = np.ones(1, dtype=counts.dtype)
    parents, values = [], []

    def broken(index: int, message: str) -> InvariantError:
        if not parents:  # the root run: the first press
            return InvariantError("first-step probabilities do not sum to 1")
        return InvariantError(message.format(_run_text(steps, labels, parents, values, index)))

    for a in pressed:
        block = counts[state, a * n : (a + 1) * n]  # row j: the j-th run's next press
        held = totals[state]
        parent, value = np.nonzero(block > 0)
        children = np.bincount(parent, minlength=len(block))
        if not children.all():  # reduceat would misalign every later run
            raise broken(np.argmin(children), "the run {} has no next outcome")
        carried = numerators[parent] * block[parent, value]
        # the children's probabilities sum to their parent's: with a common
        # denominator times ``held``, their numerators sum to numerators * held
        sums = np.add.reduceat(carried, np.cumsum(children) - children)
        wrong = sums != numerators * held
        if wrong.any():
            raise broken(np.argmax(wrong), "the runs after {} do not carry its probability")
        numerators, denominators = carried, (denominators * held)[parent]
        state = 1 + a * n + value
        parents.append(parent)
        values.append(value)
    if len(numerators) != size:
        raise InvariantError(f"expanded {len(numerators)} sequences, expected {size}")
    common = np.gcd(numerators, denominators)
    return SequenceDistribution(
        steps, labels, tuple(parents), tuple(values), numerators // common, denominators // common
    )


@dataclass(frozen=True)
class RepeatabilityResult:
    """Outcome of a repeatability audit; counterexample given on failure."""

    passed: bool
    variable: str | None = None
    outcomes: tuple[Outcome, Outcome] | None = None
    probability: Fraction | None = None

    def __bool__(self) -> bool:
        return self.passed


def check_repeatability(deck: Deck) -> RepeatabilityResult:
    """Audit every variable: an immediate re-press must repeat the value.

    Closed form on the pair counts ``C`` (:func:`_pair_counts`): the run
    ``a=x, a=y`` has probability ``C[1 + a*N + x, a*N + y] / total``, so
    variable ``a`` passes iff its block ``C[1 + a*N : 1 + (a+1)*N, a*N :
    (a+1)*N]`` is diagonal.  The counterexample is the first variable's
    first off-diagonal ``(x, y)`` in row-major order, the order of the
    ``[a, a]`` law's runs.
    """
    n = deck.spec.values_per_variable
    pairs = _pair_counts(deck)
    for a, (variable, labels) in enumerate(deck.spec.variables):
        block = pairs[1 + a * n : 1 + (a + 1) * n, a * n : (a + 1) * n]
        off = np.argwhere((block != 0) & ~np.eye(n, dtype=bool))
        if len(off):
            x, y = off[0].tolist()
            shown = (Outcome(variable, labels[x]), Outcome(variable, labels[y]))
            return RepeatabilityResult(False, variable, shown, Fraction(int(block[x, y]), deck.total))
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


def find_classicality_witness(deck: Deck) -> ClassicalityWitness | None:
    """First run ``a=x, b=y, a=z`` with ``z != x`` and positive probability.

    Closed form on the cards' value pairs (``deck.values``): one scatter
    over the ``V*V*E`` pairs marks ``seen[a, b, x, y]`` (some card shows a=x
    and b=y), and ``y`` is shared when two or more ``x`` are seen with it.
    The run is possible iff ``(x, y)`` and ``(z, y)`` are both seen, so the
    witness is the first seen and shared ``(a, b, x, y)`` in variable, then
    value order (``a == b`` never shares), with the smallest seen ``z != x``.
    Its probability ``n_ab(x, y) * n_ab(z, y) / (total * n_b(y))`` sums
    Python ints over its cards.  Time and memory are ``O(V*V*(E + N*N))``,
    after a ``MAX_CHAIN_VALUES`` check.  A witness exists iff some value of
    some ``b`` occurs on cards with two different values of some ``a``.
    Longer plans add nothing: without such a value, every value shown fixes
    every other variable's value on all cards of the next subdeck, so no
    later press can contradict an earlier one (the tests check this against
    all plans up to length 4).  Returns None when the deck admits none.
    """
    spec = deck.spec
    if spec.num_variables < 2:
        raise ValidationError(
            "a single-variable (urn) system cannot produce a contradictory repeat"
        )
    _check_chain_values(deck)
    n, v = spec.values_per_variable, spec.num_variables
    shown, counts = deck.values.T, deck.counts  # shown[a]: variable a's value on every card
    seen = np.zeros((v, v, n, n), dtype=bool)
    seen[np.arange(v)[:, None, None], np.arange(v)[:, None], shown[:, None], shown] = True
    hits = seen & (seen.sum(axis=2) > 1)[:, :, None, :]  # seen and shared
    first = int(hits.argmax())
    if not hits.flat[first]:
        return None
    a, b, x, y = map(int, np.unravel_index(first, hits.shape))
    z = next(z for z in np.flatnonzero(seen[a, b, :, y]).tolist() if z != x)
    on_y = shown[b] == y  # exact multiplicities of the cards showing (x, y), (z, y) and y:
    n_xy, n_zy, n_y = (sum(counts[on_y & w].tolist()) for w in (shown[a] == x, shown[a] == z, True))
    (name_a, labels_a), (name_b, labels_b) = spec.variables[a], spec.variables[b]
    return ClassicalityWitness(
        sequence=(
            Outcome(name_a, labels_a[x]), Outcome(name_b, labels_b[y]), Outcome(name_a, labels_a[z])
        ),
        probability=Fraction(n_xy * n_zy, deck.total * n_y),
        violated_constraint=f"variable {name_a!r} observed as {labels_a[x]!r} at step 1 and "
        f"{labels_a[z]!r} at step 3",
    )


def _subdeck_rows(deck: Deck) -> tuple[np.ndarray, np.ndarray]:
    """Every chain state's cards and card probabilities: ``(order, probs)``.

    Row ``s`` of ``order`` lists the card indices, first those chain state
    ``s``'s subdeck leaves out (see ``Deck.chain_weights``), then its own
    in canonical deck order; row ``s`` of ``probs`` gives each card's
    multiplicity over the subdeck total, correctly rounded.  A card of
    probability 0 ahead of the subdeck takes no multinomial draw, and the
    remainder, the last column, lands on a subdeck card.  A state no card
    reaches keeps a row of zeros.
    """
    weights = deck.chain_weights  # Python ints: each quotient is rounded once
    probs = (weights / np.maximum(weights.sum(axis=1), 1)[:, None]).astype(float)
    order = np.argsort(probs > 0, axis=1, kind="stable")
    return order, np.take_along_axis(probs, order, axis=1)


def simulate_plan(
    deck: Deck, plan: Sequence[str], trials: int, rng: RandomStream
) -> tuple[SequenceDistribution, np.ndarray]:
    """Seeded Monte Carlo runs of a plan: ``(law, counts)``.

    ``law`` is ``sequence_distribution(deck, plan)``, and ``counts[j]`` is
    the int64 number of trials that took its ``j``-th run.  The trials are
    split along the law's runs one plan step at a time, not trial by trial:
    a run holding ``hits`` trials in chain state ``s`` shares them over the
    cards of its subdeck with one multinomial draw (the conditional
    distribution method; Devroye 1986, *Non-Uniform Random Variate
    Generation*; Davis 1993), each card at its multiplicity over the
    subdeck total (:func:`_subdeck_rows`).  Summed by the value the pressed
    variable shows on each card, the counts go to the child runs through
    the law's ``(parent, value)`` links.  The cost does not grow with
    ``trials``.  Runs are drawn ``_DRAW_BLOCK`` card entries at a time,
    which does not change the draws.  Counts that do not sum to their run's
    trials, that fall on a card outside the subdeck, or that reach a run of
    probability 0 raise ``InvariantError``.  More than ``MAX_TRIALS``
    trials or ``MAX_SEQUENCES`` possible runs raise ``ValidationError``
    before any draw.
    """
    if trials < 1:
        raise ValidationError("trials must be positive")
    if trials > MAX_TRIALS:
        raise ValidationError(f"trials must be at most {MAX_TRIALS:,}, got {trials:,}")
    spec = deck.spec
    law = sequence_distribution(deck, plan)
    order, probs = _subdeck_rows(deck)
    n, width = spec.values_per_variable, len(deck.counts)
    step = max(1, _DRAW_BLOCK // width)
    pressed = [spec.variable_index(variable) for variable in law.plan]
    hits = np.array([trials], dtype=np.int64)
    state = np.zeros(1, dtype=np.intp)
    for i, (a, parent, value) in enumerate(zip(pressed, law.parents, law.values)):
        shown = np.empty((len(state), n), dtype=np.int64)  # trials per run and value
        for lo in range(0, len(state), step):
            block = slice(lo, lo + step)
            p = probs[state[block]]
            cards = rng.multinomial(hits[block], p)
            if np.any(cards.sum(axis=1) != hits[block]) or cards[p == 0].any():
                raise InvariantError("a multinomial draw lost trials or left its subdeck")
            # each card's key: run j's slot for its value; float sums <= MAX_TRIALS are exact
            keys = deck.values[order[state[block]], a]
            keys += n * np.arange(len(p))[:, None]
            shown[block] = np.bincount(
                keys.ravel(), weights=cards.ravel(), minlength=len(p) * n
            ).reshape(-1, n)
        hits = shown[parent, value]
        if hits.sum() != trials:  # some trials showed a value the law has no run for
            shown[parent, value] = 0
            j, x = np.argwhere(shown)[0]
            seen = [f"{law.plan[i]}={law.labels[i][x]}"]
            if i:
                levels = law.parents[:i], law.values[:i]
                seen.insert(0, _run_text(law.plan, law.labels, *levels, j))
            raise InvariantError(f"a trial took the impossible run {', '.join(seen)}")
        state = 1 + a * n + value
    return law, hits
