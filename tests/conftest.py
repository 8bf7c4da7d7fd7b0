import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from dofcount import Deck, Outcome, RandomStream, SystemSpec, sequence_distribution, uniform_deck
from dofcount.cardbox import (
    BoxState,
    card_type_count,
    filter_deck,
    initial_state,
    observe,
    outcome_distribution,
)
from dofcount.cli import UsageError, build_parser
from dofcount.errors import InvariantError, ValidationError
from dofcount.quantum import (
    _MAX_BASIS_ATTEMPTS,
    _PIVOT_TOL,
    RANK_TOL,
    DensityState,
    born_rows,
    measurement_distribution,
)
from dofcount.sequences import ClassicalityWitness, RepeatabilityResult
from dofcount.tomography import ExactRowBasis, _value_counts, fiducial_vector_cardbox

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


@pytest.fixture
def huge_deck(four_card_spec):
    """Multiplicities past int64, with a missing card so a witness has odd odds."""
    return Deck.from_counts(
        four_card_spec, {("K", "S"): 2**70, ("K", "H"): 3, ("Q", "S"): 2**70 + 5}
    )


@dataclass(frozen=True)
class Card:
    """Name-keyed card oracle: a total assignment of a value to every variable.

    ``items`` holds ``(variable, value)`` pairs in spec variable order, so
    cards are hashable and printable without a spec in hand.
    """

    items: tuple[tuple[str, str], ...]

    @classmethod
    def from_assignment(cls, spec, assignment):
        """The card of a name-keyed assignment; ``ValidationError`` names its
        first fault: an unknown variable, else a missing one, else a value."""
        for variable in assignment:
            spec.variable_index(variable)  # raises ValidationError
        for name in spec.variable_names:
            if name not in assignment:
                raise ValidationError(f"no value for variable {name!r}")
            spec.value_index(name, assignment[name])  # raises ValidationError
        return cls(tuple((name, assignment[name]) for name in spec.variable_names))

    @property
    def assignment(self):
        return dict(self.items)

    @property
    def values(self):
        return tuple(value for _, value in self.items)

    def __str__(self):
        return "/".join(f"{name}={value}" for name, value in self.items)


def entries(deck):
    """A deck's ``(Card, count)`` pairs, one per row, in canonical order."""
    variables = deck.spec.variables
    return tuple(
        (Card(tuple((name, values[x]) for (name, values), x in zip(variables, row))), count)
        for row, count in zip(deck.values.tolist(), deck.counts.tolist())
    )


def labels(spec, variable):
    """The value names of ``variable``, in spec order."""
    return dict(spec.variables)[variable]


def all_cards(spec):
    """Every possible card type, in canonical (lexicographic) order."""
    return [card for card, _ in entries(uniform_deck(spec))]


def cardbox_spec(num_values, num_variables):
    """Spec with machine-made names: variables ``var1..``, values ``val1..``."""
    values = tuple(f"val{j + 1}" for j in range(num_values))
    return SystemSpec(tuple((f"var{i + 1}", values) for i in range(num_variables)))


def urn_spec(n):
    """The urn as a one-variable card box: variable ``Pos`` with values ``p1..pn``."""
    return SystemSpec((("Pos", tuple(f"p{i + 1}" for i in range(n))),))


def urn_deck(counts):
    """Urn state from per-position multiplicities (one entry per position)."""
    spec = urn_spec(len(counts))
    ((_, values),) = spec.variables
    return Deck.from_counts(spec, {(value,): count for value, count in zip(values, counts)})


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
        spec, {card.values: m for card, m in zip(cards, mults) if m}
    )


def joint_card_frequency(deck, a: str, x: str, b: str, y: str) -> Fraction:
    """Independent oracle: fraction of deck cards with a=x and b=y."""
    matching = sum(
        count
        for card, count in entries(deck)
        if card.assignment[a] == x and card.assignment[b] == y
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


def literal_tree_sampler(deck, plan, trials, rng):
    """Draw-for-draw sampler oracle: one ``multinomial`` per run, in plain loops.

    Walks the runs one step at a time, each level in lexicographic value
    order.  A run shares its trials over the cards of its subdeck, read from
    ``entries(deck)`` (every card at the first press, else the cards showing
    the run's last value), each at its count over the subdeck total, and
    each card's share goes to the child run its face on the pressed
    variable names.  Makes the same draws as ``simulate_plan``.  Returns the
    ``Outcome``-tuple counts, zeros left out.
    """
    spec, deck_cards = deck.spec, entries(deck)
    level = {(): trials}
    for i, variable in enumerate(plan):
        children = {}
        for run, hits in level.items():
            cards = [
                (card, count) for card, count in deck_cards
                if not run or card.assignment[plan[i - 1]] == run[-1].value
            ]
            total = sum(count for _, count in cards)
            shares = rng.multinomial(hits, [count / total for _, count in cards])
            for (card, _), share in zip(cards, shares.tolist()):
                child = (*run, Outcome(variable, card.assignment[variable]))
                children[child] = children.get(child, 0) + share
        level = dict(sorted(
            children.items(),
            key=lambda item: [labels(spec, o.variable).index(o.value) for o in item[0]],
        ))
    return {run: hits for run, hits in level.items() if hits}


def chain_counts(law, counts):
    """``simulate_plan``'s ``(law, counts)`` as ``Outcome``-tuple counts, zeros left out."""
    return {run: hits for run, hits in zip(law.probabilities, counts.tolist()) if hits}


def enumerate_decks(spec, max_multiplicity):
    """Literal-enumeration oracle: every nonempty deck with multiplicities <= max."""
    cards = all_cards(spec)
    for mults in itertools.product(range(max_multiplicity + 1), repeat=len(cards)):
        if any(mults):
            yield Deck.from_counts(spec, {card.values: m for card, m in zip(cards, mults)})


def literal_random_decks(spec, count, max_multiplicity, rng):
    """Draw-rule oracle: one draw per deck, an all-zero draw redrawn at once.

    Returns the decks and the number of all-zero draws that were redrawn.
    """
    cards = all_cards(spec)
    decks, redrawn = [], 0
    while len(decks) < count:
        mults = rng.integers_below(max_multiplicity + 1, size=len(cards))
        if mults.any():
            decks.append(Deck.from_counts(spec, {c.values: int(m) for c, m in zip(cards, mults) if m}))
        else:
            redrawn += 1
    return decks, redrawn


def count_row(deck):
    """A deck's per-variable value counts: its total times its fiducial vector."""
    return [(deck.total * p).numerator for p in fiducial_vector_cardbox(deck)]


def integer_row(row):
    """A row of ints, Fractions or floats (read exactly) times the LCM of its
    denominators: a row of ints with the same span."""
    if any(isinstance(x, float) and not math.isfinite(x) for x in row):
        raise InvariantError("row contains NaN or infinity")
    fractions = [Fraction(x) for x in row]
    scale = math.lcm(*(f.denominator for f in fractions))
    return [f.numerator * (scale // f.denominator) for f in fractions]


def matrix_rank_exact(rows):
    """Rank oracle: a matrix of ints, Fractions or floats (read exactly), its
    rows scaled by :func:`integer_row` and fed to one ``ExactRowBasis``."""
    rows = list(rows)
    if not rows:
        raise ValidationError("matrix must have at least one row")
    basis = ExactRowBasis(len(rows[0]))
    for row in rows:
        basis.add(integer_row(row))
    return basis.rank


def exhaustive_fiducial_rank(spec):
    """Exact rank of the fiducial vectors of every deck over ``spec``.

    A deck's fiducial vector is by definition the multiplicity-weighted
    average of its cards' indicator vectors, so any family of decks that
    holds the single-card decks (all decks of multiplicity at most ``m``,
    for any ``m >= 1``) spans exactly the space the single-card decks span.
    The rank is taken over their count rows, one card each; the tests check
    it against the literal enumeration of small families.
    """
    n, v = spec.values_per_variable, spec.num_variables
    single_cards = np.eye(card_type_count(n, v), dtype=np.int8)
    return matrix_rank_exact(_value_counts(single_cards, n, v).tolist())


def rank_growth(spec, count, max_multiplicity, rng):
    """Rank after each of ``count`` literal decks' count rows, all of them fed."""
    decks, _ = literal_random_decks(spec, count, max_multiplicity, rng)
    basis = ExactRowBasis(spec.num_variables * spec.values_per_variable)
    ranks = []
    for deck in decks:
        basis.add(count_row(deck))
        ranks.append(basis.rank)
    return ranks


def full_ensemble_k(spec, ensemble, max_multiplicity, rng):
    """Early-stop oracle: ``(k_rank, saturated, ensemble)`` from every drawn row.

    Ranks all ``2 * ensemble`` rows, with no ceiling and no early stop.
    """
    ranks = rank_growth(spec, 2 * ensemble, max_multiplicity, rng)
    return ranks[-1], ranks[ensemble - 1] == ranks[-1], ensemble


def rebuild_from_full_deck(state, variable, value):
    """The device's own update: the next subdeck comes from the full deck."""
    return BoxState(state.deck, filter_deck(state.deck, variable, value))


def tree_sequence_distribution(deck, plan, update_rule=rebuild_from_full_deck):
    """Independent oracle: the literal outcome tree, one state per node.

    Each node presses the next switch on its own ``BoxState`` and moves to
    ``update_rule(state, variable, value)``; negative controls inject broken
    rules.  Returns the positive-probability runs, depth first in value order.
    """
    probabilities = {}

    def expand(state, prefix, weight):
        if len(prefix) == len(plan):
            probabilities[prefix] = probabilities.get(prefix, Fraction(0)) + weight
            return
        variable = plan[len(prefix)]
        for value, p in outcome_distribution(state, variable).items():
            if p:
                expand(
                    update_rule(state, variable, value),
                    prefix + (Outcome(variable, value),),
                    weight * p,
                )

    expand(initial_state(deck), (), Fraction(1))
    return probabilities


def literal_support_size(pairs, pressed, n):
    """Run-count oracle: the live runs per chain state, one Python loop per step.

    ``pairs`` is the pair-count table, row 0 the full deck and row
    ``1 + a*N + x`` the state after a=x; ``pressed`` holds each step's
    variable index.
    """
    live = {0: 1}  # chain state -> live runs that end in it
    for a in pressed:
        live = {
            1 + a * n + y: sum(runs for state, runs in live.items() if pairs[state][a * n + y])
            for y in range(n)
        }
    return sum(live.values())


def literal_pair_counts(deck):
    """Pair-count oracle: ``C[s][b*N + y]`` summed card by card, Python ints.

    Row 0 is the full deck; row ``1 + a*N + x`` holds the cards showing a=x.
    """
    spec = deck.spec
    n = spec.values_per_variable
    pairs = [[0] * (spec.num_variables * n) for _ in range(1 + spec.num_variables * n)]
    for card, count in entries(deck):
        shown = [a * n + spec.value_index(name, value) for a, (name, value) in enumerate(card.items)]
        for row in [0] + [1 + col for col in shown]:
            for col in shown:
                pairs[row][col] += count
    return pairs


def expanded_repeatability(deck):
    """Repeatability oracle: each variable's ``[v, v]`` law expanded, and the
    first run whose two labels differ, or a pass."""
    for variable in deck.spec.variable_names:
        for (first, second), p in sequence_distribution(deck, (variable, variable)).items():
            if first.value != second.value:
                return RepeatabilityResult(False, variable, (first, second), p)
    return RepeatabilityResult(passed=True)


def contradictory_repeat(run):
    """Steps ``(i, j)`` where a variable is shown twice with different values."""
    last_seen = {}
    for j, outcome in enumerate(run):
        i = last_seen.get(outcome.variable)
        if i is not None and run[i].value != outcome.value:
            return i, j
        last_seen[outcome.variable] = j
    return None


def brute_force_witness(deck, max_length):
    """Independent oracle: the first contradictory run of any plan up to a length.

    Plans go by length, then in variable order; runs in the tree oracle's
    order.  Returns ``(run, probability, (i, j))`` or None.
    """
    names = deck.spec.variable_names
    for length in range(2, max_length + 1):
        for plan in itertools.product(names, repeat=length):
            if len(set(plan)) == len(plan):
                continue  # no variable repeats, nothing to contradict
            for run, p in tree_sequence_distribution(deck, plan).items():
                hit = contradictory_repeat(run)
                if hit is not None:
                    return run, p, hit
    return None


def c_scan_witness(deck):
    """Witness-scan oracle: every ``(a, b)`` with ``a != b``, then every ``(x, y, z)``
    with ``z != x``, in order, over the literal pair counts; the first run
    ``a=x, b=y, a=z`` whose two pair counts are both positive, or None.
    """
    spec = deck.spec
    n = spec.values_per_variable
    pairs = literal_pair_counts(deck)
    for a, b in itertools.permutations(range(spec.num_variables), 2):
        for x, y, z in itertools.product(range(n), repeat=3):
            hits = pairs[1 + a * n + x][b * n + y] * pairs[1 + b * n + y][a * n + z]
            if z == x or not hits:
                continue
            (name_a, labels_a), (name_b, labels_b) = spec.variables[a], spec.variables[b]
            return ClassicalityWitness(
                sequence=(
                    Outcome(name_a, labels_a[x]),
                    Outcome(name_b, labels_b[y]),
                    Outcome(name_a, labels_a[z]),
                ),
                probability=Fraction(hits, deck.total * pairs[0][b * n + y]),
                violated_constraint=(
                    f"variable {name_a!r} observed as {labels_a[x]!r} at step 1 and "
                    f"{labels_a[z]!r} at step 3"
                ),
            )
    return None


_CARD_KEYS = {"assignment", "count"}


def field_by_field_cards(raw, spec):
    """Card-parse oracle: every field of every card checked in turn, and
    ``Card.from_assignment`` for an assignment that fails the value lookup."""
    if not isinstance(raw, list) or not raw:
        raise ValidationError("cards: must be a nonempty array")
    positions = tuple(zip(spec.variable_names, spec._value_positions))
    counts = {}  # value indices -> count
    for i, item in enumerate(raw):
        where = f"cards[{i}]"
        if not isinstance(item, dict):
            raise ValidationError(f"{where}: must be an object")
        for key in item:
            if key not in _CARD_KEYS:
                raise ValidationError(f"{where}.{key}: unknown key")
        assignment = item.get("assignment")
        count = item.get("count")
        if not isinstance(assignment, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in assignment.items()
        ):
            raise ValidationError(
                f"{where}.assignment: must be an object mapping variables to values"
            )
        if type(count) is not int or count < 1:
            raise ValidationError(f"{where}.count: must be an integer >= 1")
        index = tuple(values.get(assignment.get(name)) for name, values in positions)
        if None in index or len(assignment) != len(positions):
            try:  # Card names the assignment's first fault, in its own order
                Card.from_assignment(spec, assignment)
            except ValidationError as exc:
                raise ValidationError(f"{where}.assignment: {exc}") from exc
        counts[index] = counts.get(index, 0) + count
    return Deck(spec, counts.keys(), counts.values())


def top_level_cli_main(argv):
    """Dispatch oracle: ``cli_main`` with every argv parsed by the top-level parser."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code) if exc.code else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


# --- Quantum oracles: the per-basis path the batched K pipeline replaced ---

COLLAPSE_MIN_PROBABILITY = 1e-12


def collapse(state, basis, outcome):
    """Sharp projective update: the state becomes |b_k><b_k|.

    Re-measuring the same basis immediately afterwards returns outcome k
    with certainty, mirroring the card box's subdeck rebuild.
    """
    probs = measurement_distribution(state, basis)
    if not 0 <= outcome < len(probs):
        raise ValidationError(f"outcome index {outcome} out of range")
    if probs[outcome] <= COLLAPSE_MIN_PROBABILITY:
        raise ValidationError(f"outcome {outcome} has probability {probs[outcome]:.3g}")
    b = basis.vectors[outcome]
    return DensityState(np.outer(b, b.conj()))


def sequential_random_basis(n, rng):
    """Basis oracle: one ``(n, n)`` real and one imaginary draw, one QR and one
    phase fix per basis, a degenerate draw redrawn at once.  Returns the
    vectors, one per row."""
    for _ in range(_MAX_BASIS_ATTEMPTS):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(a)
        d = np.diagonal(r)
        if np.min(np.abs(d)) >= _PIVOT_TOL:
            return (q * (d / np.abs(d))).T
    raise InvariantError(f"no nondegenerate basis draw in {_MAX_BASIS_ATTEMPTS} attempts")


def complex_states(n, count, rng):
    """State oracle: ``count`` complex Gaussian vectors from one ``(count, 2, n)``
    draw, normalized as complex vectors."""
    parts = rng.standard_normal((count, 2, n))
    psi = parts[:, 0] + 1j * parts[:, 1]
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def pure_state_distributions(psi, bases):
    """Born-row oracle: probabilities |<b_k|psi_e>|^2 of a stack of state vectors.

    Row e holds the distributions of state ``psi[e]`` in each basis of a
    ``MeasurementBasis`` or ``ObservableSet``, one after another, through
    ``born_rows``: ``measurement_distribution`` without density matrices.
    """
    n = bases.vectors.shape[-1]
    if psi.shape[-1] != n:
        raise ValidationError(f"state dimension {psi.shape[-1]} != basis dimension {n}")
    out = np.empty((len(psi), bases.vectors.size // n))
    return born_rows(np.hstack([psi.real, psi.imag]), bases.vectors.reshape(-1, n, n), out)


def frame_rank(vectors):
    """Frame oracle: the dimension of the span of the measured effects.

    Each vector ``b`` of the ``(M, n, n)`` stack of bases gives its projector
    ``|b><b|``, flattened to the real row ``[Re | Im]`` of length ``2 * n**2``;
    the result is the numeric rank of the ``(n * M, 2 * n**2)`` stack at
    ``RANK_TOL``.  A Born row is each effect's trace against one state, so no
    Born matrix over these bases has a larger rank, and a generic ensemble
    reaches it.
    """
    b = vectors.reshape(-1, vectors.shape[-1])
    projectors = (b[:, :, None] * b.conj()[:, None, :]).reshape(len(b), -1)
    singular = np.linalg.svd(np.hstack([projectors.real, projectors.imag]), compute_uv=False)
    return int(np.sum(singular > RANK_TOL * singular[0]))


def whole_born_matrix(n, m, ensemble, seed, rng=None):
    """Whole-matrix oracle: a quantum ``estimate_k``'s draws on ``RandomStream(seed, n)``,
    or on ``rng`` if one is given.

    The M bases one at a time, then all ``2 * ensemble`` complex states,
    then ``|psi B^dagger|^2`` one basis at a time into the whole
    ``(2 * ensemble, n * M)`` Born matrix.  Returns the matrix and the base
    ensemble.
    """
    rng = RandomStream(seed, n) if rng is None else rng
    m = n + 1 if m is None else m
    bases = [sequential_random_basis(n, rng) for _ in range(m)]
    base = 10 * n * m if ensemble is None else ensemble
    psi = complex_states(n, 2 * base, rng)
    return np.hstack([np.abs(psi @ b.conj().T) ** 2 for b in bases]), base


class DegenerateStream:
    """A ``RandomStream`` whose k-th ``(n, n)`` basis draw is all zeros, k in ``zeroed``.

    Draws are counted across calls, so a batched draw and one draw per
    basis meet the same degenerate draws.
    """

    def __init__(self, seed, n, zeroed):
        self._rng, self._size, self._zeroed, self._at = RandomStream(seed), 2 * n * n, zeroed, 0

    def standard_normal(self, size):
        out = self._rng.standard_normal(size)
        flat = out.reshape(-1)
        for k in self._zeroed:
            lo, hi = k * self._size - self._at, (k + 1) * self._size - self._at
            flat[max(lo, 0) : max(hi, 0)] = 0.0
        self._at += flat.size
        return out


class StuckStatesStream:
    """A ``RandomStream(seed, n)`` whose first ``stuck`` state draws are all ones.

    Entries are counted across calls; the first ``2 * n * n * M`` are the
    bases' and pass through, and each state takes ``2 * n``.  The stuck
    states are one state, so their Born rows have rank 1 however the draws
    are blocked.
    """

    def __init__(self, seed, n, m, stuck):
        self.seed, self._rng, self._at = seed, RandomStream(seed, n), 0
        self._lo = 2 * n * n * m
        self._hi = self._lo + 2 * n * stuck

    def standard_normal(self, size):
        out = self._rng.standard_normal(size)
        flat = out.reshape(-1)
        flat[max(self._lo - self._at, 0) : max(self._hi - self._at, 0)] = 1.0
        self._at += flat.size
        return out
