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
a Markov chain on the last (variable, value) shown.  The law and the
repeatability check read one statement of that chain, each state's pair
counts (:func:`_pair_counts`); the witness reads only ``Deck.values`` and
``Deck.counts``.  Ground truth is the exact chain product, checked once
per state that holds runs (:func:`_support_size`) and expanded one plan
step at a time over integer arrays that cannot wrap (:func:`_exact_dtype`);
``Fraction`` values are made only for the ``Outcome`` map.  Monte Carlo
enters only through ``simulate_plan``, which shares the trials over the
exact law's runs with one multinomial draw, each run weighted by its exact
probability rounded once, so its counts line up with the values they are
checked against, at a cost that does not grow with the number of trials.
"""

from __future__ import annotations

import math
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


def _run_text(variables, run) -> str:
    """A run's value indices as ``variable=value`` steps, given each step's ``(name, labels)``."""
    return ", ".join(f"{name}={labels[x]}" for (name, labels), x in zip(variables, run))


def _exact_dtype(total: int, power: int = 1):
    """``np.int64`` when ``total.bit_length() * power <= 63``, which gives
    ``total**power < 2**63``; else ``object``, Python ints exact at any size."""
    return np.int64 if total.bit_length() * power <= 63 else object


def _check_chain_values(deck: Deck) -> None:
    """Refuse ``V*N`` past ``MAX_CHAIN_VALUES`` before any array that grows with its square."""
    v, n = deck.spec.num_variables, deck.spec.values_per_variable
    if v * n > MAX_CHAIN_VALUES:
        raise ValidationError(f"V*N = {v}*{n} variable values exceed the limit "
                              f"MAX_CHAIN_VALUES = {MAX_CHAIN_VALUES:,}")


def _pair_counts(deck: Deck) -> np.ndarray:
    """``C[s, b*N + y]``: multiplicity of chain state ``s``'s cards showing b=y.

    Row ``s`` is chain state ``s``: row 0, the full deck, holds the single
    counts ``n_b(y)``, and row ``1 + a*N + x``, the subdeck kept after
    variable ``a`` showed ``x``, the cards showing a=x and b=y.  Pressing
    ``b`` in state ``s`` shows ``y`` with probability ``C[s, b*N + y]``
    over the state's total.  Each card adds its count at its ``V*V`` value
    pairs, in scatters of at most ``max(E*V, 2**16)`` indices: ``O(E*V*V)``
    time, ``O(E*V + (V*N)**2)`` memory.  No count passes the total, so the
    dtype is :func:`_exact_dtype` of the total.  A deck past
    ``MAX_CHAIN_VALUES`` raises ``ValidationError``.
    """
    _check_chain_values(deck)
    n, (e, v) = deck.spec.values_per_variable, deck.values.shape
    columns = deck.values + n * np.arange(v)  # a*N + x, per card and variable
    counts = deck.counts.astype(_exact_dtype(deck.total))[:, None, None]
    pairs = np.zeros((1 + v * n, v * n), dtype=counts.dtype)
    step = max(1, 2**16 // (e * v))  # variables per scatter
    for a in range(0, v, step):
        np.add.at(pairs, (1 + columns[:, a : a + step, None], columns[:, None]), counts)
    pairs[0] = pairs[1 : 1 + n].sum(axis=0)
    return pairs


def _support_size(deck: Deck, pairs: np.ndarray, pressed: list[int]) -> int:
    """Number of positive-probability runs, checking each chain state that holds runs.

    ``live[s]`` is the number of live runs that end in chain state ``s``, a
    Python int, and the first of them in lexicographic order, the order the
    states are walked in.  A step reads only their rows of ``C`` (listed
    once): N per state, not N**2.  Each row must have a positive entry, and
    its positive entries must sum to the state's total (the deck's for state
    0, ``C[0, a*N + x]`` for ``1 + a*N + x``).  A run's children and their
    sum depend only on its state, so this checks every live run;
    ``InvariantError`` names the first run that ends in a broken state.
    """
    n, rows = deck.spec.values_per_variable, pairs.tolist()
    totals, live = [deck.total, *rows[0]], {0: [1, ()]}
    for i, a in enumerate(pressed):
        runs, broken = {}, {}
        for state, (count, first) in live.items():
            block = rows[state][a * n : (a + 1) * n]
            children = [y for y, c in enumerate(block) if c > 0]
            if not children or sum(block[y] for y in children) != totals[state]:
                broken.setdefault(bool(children), first)
            for y in children:
                if y not in runs:
                    runs[y] = [0, first + (y,)]
                runs[y][0] += count
        if broken:  # a childless run is named before one whose children do not carry it
            has_children, run = min(broken.items())
            run = _run_text(map(deck.spec.variables.__getitem__, pressed), run)
            raise InvariantError("first-step probabilities do not sum to 1" if not i else
                                 f"the runs after {run} do not carry its probability" if has_children
                                 else f"the run {run} has no next outcome")
        live = {1 + a * n + y: held for y, held in runs.items()}
    return sum(count for count, _ in live.values())


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
    steps each numerator and denominator is at most ``T**i <= T**L`` for a
    plan of length ``L``.  The arrays are int64 when ``T.bit_length() * L
    <= 63`` (:func:`_exact_dtype`), where ``T**L < 2**63`` and nothing can
    wrap, and object arrays of Python ints otherwise, exact at any
    multiplicity.  Both sides run the same code.  :func:`_support_size`
    first checks in integers that every run, the root included, has a child
    and that its children carry its probability, so by telescoping the leaves
    sum to 1; more than ``MAX_SEQUENCES`` runs raise ``ValidationError``.
    """
    steps = tuple(plan)
    if not steps:
        raise ValidationError("plan must contain at least one step")
    spec, n = deck.spec, deck.spec.values_per_variable
    pressed = [spec.variable_index(variable) for variable in steps]
    pairs = _pair_counts(deck)
    size = _support_size(deck, pairs, pressed)
    if size > MAX_SEQUENCES:
        raise ValidationError(f"plan has {size:,} possible outcome sequences, more than the "
                              f"limit of {MAX_SEQUENCES:,}")
    labels = tuple(spec.variables[a][1] for a in pressed)
    counts = pairs.astype(_exact_dtype(deck.total, len(steps)), copy=False)
    totals = np.concatenate((np.array([deck.total], dtype=counts.dtype), counts[0]))
    numerators = denominators = np.ones(1, dtype=counts.dtype)
    state, parents, values = np.zeros(1, dtype=np.intp), [], []
    for a in pressed:
        block = counts[state, a * n : (a + 1) * n]  # row j: the j-th run's next press
        parent, value = np.nonzero(block > 0)
        numerators = numerators[parent] * block[parent, value]
        denominators = (denominators * totals[state])[parent]
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


def simulate_plan(
    deck: Deck, plan: Sequence[str], trials: int, rng: RandomStream
) -> tuple[SequenceDistribution, np.ndarray]:
    """Seeded Monte Carlo runs of a plan: ``(law, counts)``.

    ``law`` is ``sequence_distribution(deck, plan)``, and ``counts[j]`` is
    the int64 number of trials that took its ``j``-th run.  Trials are
    independent runs of the chain, so their counts over the law's runs are
    Multinomial(``trials``, run probabilities): one ``rng.multinomial``
    call, whose cost does not grow with ``trials`` (numpy draws it by the
    conditional distribution method, one binomial per run; Devroye 1986,
    *Non-Uniform Random Variate Generation*).

    Run ``j`` is weighted by ``numerators[j] / denominators[j]``, the law's
    lowest terms divided as Python ints: the correctly rounded float of its
    exact probability, within a relative ``2**-53`` whatever the plan's
    length, for deck totals past ``2**63`` too.  The law's probabilities sum
    to exactly 1 (:func:`_support_size`), so the weights' ``math.fsum`` is
    within ``2**-52`` of 1; divided by it, each weight is within a relative
    ``5 * 2**-53`` of the law, far inside the ``1 + 1e-12`` numpy allows for
    ``sum(pvals[:-1])``.  A sum more than ``2**-50`` from 1 raises
    ``InvariantError`` before any draw, and counts that do not sum to
    ``trials`` raise it after the draw.  More than ``MAX_TRIALS`` trials or ``MAX_SEQUENCES``
    possible runs raise ``ValidationError`` before any draw.
    """
    if trials < 1:
        raise ValidationError("trials must be positive")
    if trials > MAX_TRIALS:
        raise ValidationError(f"trials must be at most {MAX_TRIALS:,}, got {trials:,}")
    law = sequence_distribution(deck, plan)
    run_p = np.array([a / b for a, b in zip(law.numerators.tolist(), law.denominators.tolist())])
    total = math.fsum(run_p)
    if abs(total - 1) > 2**-50:
        raise InvariantError(f"the law's run probabilities sum to {total}, not 1")
    counts = rng.multinomial(trials, run_p / total)
    if counts.sum() != trials:
        raise InvariantError(f"the multinomial draw holds {counts.sum()} of {trials} trials")
    return law, counts
