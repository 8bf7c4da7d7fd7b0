"""Measuring informational degrees of freedom K.

A system's state is characterized by its fiducial probabilities: the
probability of every value of every variable (card box, urn) or of every
outcome of every basis in the observable set (quantum).  Stacking the
fiducial vectors of an ensemble of states gives a probability matrix whose
rank is the number of linearly independent probabilities needed to pin a
state down.

Two counts are always reported side by side:

* ``K_rank`` -- the rank of the stacked matrix: the minimal number of
  fiducial probabilities that determine a state.  Because each variable's
  probabilities sum to 1, one entry per variable beyond the first is
  redundant, so the card box saturates at V*(N-1)+1 rather than N*V.
* ``K_naive`` -- the raw fiducial count N*V (or n*M): the number of
  probabilities an experimenter would tabulate without exploiting
  normalization.

Both counts grow with the number of variables V at fixed N, which is the
point: K is not a function of N alone.  Classical ranks are computed with
fraction-free integer Gaussian elimination on count rows (no tolerances).
Every count row is checked to satisfy the V-1 normalization equations, which
proves the ceiling V*(N-1)+1, so a classical ensemble stops drawing once its
rank reaches it.  Its rows are drawn on demand: a first block of ceiling+1
rows, then blocks that double up to 65,536 multiplicities each.  Quantum
ranks count singular values above a threshold.  Each half of the Born
matrix is reduced once to the R factor of its QR factorization; the
stacked factors have the singular values of all rows, so both ranks come
from one pass over the rows.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cardbox import (
    Deck,
    SystemSpec,
    all_cards,
    card_type_count,
    cardbox_spec,
    initial_state,
    outcome_distribution,
    urn_as_cardbox,
)
from .errors import (
    DimensionMismatchError,
    InvariantError,
    NonFiniteError,
    RaggedMatrixError,
    ValidationError,
)
from .quantum import (
    RANK_TOL,
    DensityState,
    ObservableSet,
    measurement_distribution,
    pure_state_distributions,
    random_observable_set,
    random_pure_states,
)
from .rng import RandomStream


def fiducial_vector_cardbox(deck: Deck) -> tuple[Fraction, ...]:
    """Exact probabilities of every value of every variable, spec order."""
    state = initial_state(deck)
    entries: list[Fraction] = []
    for variable in deck.spec.variable_names:
        dist = outcome_distribution(state, variable)
        entries.extend(dist[value] for value in deck.spec.values_of(variable))
    return tuple(entries)


def fiducial_vector_quantum(
    state: DensityState, observables: ObservableSet
) -> np.ndarray:
    """Born probabilities of every outcome of every basis, concatenated."""
    if state.dimension != observables.dimension:
        raise DimensionMismatchError(
            f"state dimension {state.dimension} != observable dimension "
            f"{observables.dimension}"
        )
    return np.concatenate(
        [measurement_distribution(state, basis) for basis in observables.bases]
    )


def fiducial_matrix_quantum(psi: np.ndarray, observables: ObservableSet) -> np.ndarray:
    """Fiducial vectors of a stack of pure states: row e is state ``psi[e]``'s.

    Equal, up to rounding, to stacking ``fiducial_vector_quantum`` of each
    state's density matrix; filled one basis block at a time.
    """
    n = observables.dimension
    rows = np.empty((len(psi), n * observables.num_bases))
    for m, basis in enumerate(observables.bases):
        rows[:, m * n : (m + 1) * n] = pure_state_distributions(psi, basis)
    return rows


_INT64_MAX = 2**63 - 1
_DRAW_BLOCK = 2**16  # multiplicities drawn per call: bounds memory whatever the ensemble


def _check_draw_limits(num_values: int, num_variables: int, max_multiplicity: int) -> int:
    """Card types of a random-deck draw, once every limit on it is checked.

    A deck's total is at most ``max_multiplicity * N**V``; it must fit in
    int64, which then bounds every multiplicity, value count and draw bound.
    """
    if max_multiplicity < 1:
        raise ValidationError("max_multiplicity must be at least 1")
    types = card_type_count(num_values, num_variables)
    if max_multiplicity * types > _INT64_MAX:
        raise ValidationError(
            f"max_multiplicity * N**V = {max_multiplicity} * {types} exceeds the "
            f"int64 limit 2**63 - 1 on a deck total"
        )
    return types


def _multiplicity_draws(
    spec: SystemSpec,
    count: int,
    max_multiplicity: int,
    rng: RandomStream,
    first_block: int = _DRAW_BLOCK,
) -> Iterator[np.ndarray]:
    """Per-card-type multiplicities of random decks, one row per deck.

    Columns follow ``all_cards`` order, and each entry is uniform in
    {0..max}.  All-zero draws are rejected and redrawn, so every deck is
    nonempty.  Rows come in blocks, each drawn only when the caller asks
    for it: the first holds ``first_block`` rows and each later one twice
    as many, all capped at ``_DRAW_BLOCK`` multiplicities, and no more rows
    are drawn than decks remain.  A block of k rows holds the same draws as
    k one-row calls, so the decks do not depend on the block sizes.
    """
    if count < 1:
        raise ValidationError("ensemble count must be at least 1")
    types = _check_draw_limits(spec.values_per_variable, spec.num_variables, max_multiplicity)
    cap = max(1, _DRAW_BLOCK // types)
    block_rows = min(max(1, first_block), cap)
    remaining = count
    while remaining:
        block = rng.integers_below(max_multiplicity + 1, size=(min(remaining, block_rows), types))
        block = block[block.any(axis=1)]
        remaining -= len(block)
        block_rows = min(2 * block_rows, cap)
        yield block


def random_deck_ensemble(
    spec: SystemSpec, count: int, max_multiplicity: int, rng: RandomStream
) -> list[Deck]:
    """Independent random decks: uniform multiplicity in {0..max} per card type.

    All-zero draws are rejected and redrawn, so every deck is nonempty.
    """
    cards = all_cards(spec)
    return [
        Deck(spec, tuple((card, m) for card, m in zip(cards, mults) if m))
        for block in _multiplicity_draws(spec, count, max_multiplicity, rng)
        for mults in block.tolist()
    ]


def _count_rows(
    spec: SystemSpec,
    count: int,
    max_multiplicity: int,
    rng: RandomStream,
    first_block: int = _DRAW_BLOCK,
) -> Iterator[list[int]]:
    """Per-variable value counts of random decks, one row per deck as drawn.

    Row ``e`` is ``deck.total * fiducial_vector_cardbox(deck)`` for the
    ``e``-th deck ``random_deck_ensemble`` draws from the same stream, so
    the rows span the same space as the fiducial vectors.  Rows are drawn,
    counted and checked one ``_multiplicity_draws`` block at a time (the
    first ``first_block`` rows, then doubling), so a caller that stops
    early leaves the later blocks undrawn.
    """
    indicator = _indicator_matrix(spec)
    shape = (-1, spec.num_variables, spec.values_per_variable)
    for block in _multiplicity_draws(spec, count, max_multiplicity, rng, first_block):
        counts = block @ indicator
        if (counts.reshape(shape).sum(axis=2) != block.sum(axis=1)[:, None]).any():
            raise InvariantError("a count row's value blocks do not all sum to the deck total")
        yield from counts.tolist()


class ExactRowBasis:
    """Incremental row-echelon basis over the integers, fraction-free.

    Rows can be fed one at a time (handy for streaming enumerations and
    saturation checks); ``rank`` is exact, with no tolerance anywhere.
    Rows of Fractions or floats are scaled to integers first, which leaves
    the span unchanged.  Pivot rows are kept in insertion order; each was
    reduced by all earlier pivots, so it is zero in their columns.  A new
    row is reduced by each pivot ``p`` with ``r <- r*p[c] - r[c]*p``
    (Bareiss 1968) and divided by the gcd of its entries.
    """

    def __init__(self, width: int):
        if width < 1:
            raise ValidationError("matrix width must be at least 1")
        self.width = width
        self._pivots: list[tuple[int, list[int]]] = []  # (column, row), row[column] != 0

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, row: Sequence) -> bool:
        """Insert a row; returns True iff it enlarged the span."""
        if len(row) != self.width:
            raise RaggedMatrixError(f"row has {len(row)} entries, expected {self.width}")
        try:
            reduced = [operator.index(x) for x in row]
        except TypeError:  # Fractions or floats: scale by the denominators' LCM
            if any(isinstance(x, float) and not math.isfinite(x) for x in row):
                raise NonFiniteError("row contains NaN or infinity") from None
            fractions = [Fraction(x) for x in row]
            scale = math.lcm(*(f.denominator for f in fractions))
            reduced = [f.numerator * (scale // f.denominator) for f in fractions]
        for col, pivot_row in self._pivots:
            factor = reduced[col]
            if factor:
                lead = pivot_row[col]
                reduced = [a * lead - factor * b for a, b in zip(reduced, pivot_row)]
        divisor = math.gcd(*reduced)
        if not divisor:
            return False
        reduced = [a // divisor for a in reduced]
        col = next(i for i, a in enumerate(reduced) if a)
        self._pivots.append((col, reduced))
        return True


def matrix_rank_exact(rows: Iterable[Sequence]) -> int:
    """Exact rank of a matrix of ints, Fractions or floats (read exactly)."""
    rows = list(rows)
    if not rows:
        raise ValidationError("matrix must have at least one row")
    basis = ExactRowBasis(len(rows[0]))
    for row in rows:
        basis.add(row)
    return basis.rank


def _check_tolerance(tol: float) -> None:
    # a relative threshold of 1 or more counts no singular value, not even
    # the largest; the chained comparison is False for NaN
    if not 0.0 < tol < 1.0:
        raise ValidationError(f"tolerance must be finite and in (0, 1), got {tol}")


def matrix_rank_numeric(rows, tol: float = RANK_TOL) -> int:
    """Numeric rank: singular values above ``tol`` times the largest.

    The rank is taken over the reals, of a 2-D matrix.  A float ndarray
    must be float64: at lower precision rounding noise alone clears the
    default threshold.  A complex ndarray is rejected, not cast, and list
    input is read at float64 precision.
    """
    _check_tolerance(tol)
    if isinstance(rows, np.ndarray) and rows.dtype != object:
        if rows.dtype.kind in "fc" and rows.real.dtype.itemsize < 8:
            raise ValidationError(f"matrix dtype {rows.dtype} is narrower than float64")
        if rows.dtype.kind == "c":
            raise ValidationError(f"matrix dtype {rows.dtype} is complex, not real")
        matrix = rows.astype(float, copy=False)  # float64 input: no row list, no copy
    else:
        rows = list(rows)
        if any(np.ndim(r) == 0 for r in rows):  # before len(r) can fail on a scalar
            raise ValidationError("matrix must be 2-D, got 1-D")
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise RaggedMatrixError(f"rows have mixed lengths {sorted(widths)}")
        matrix = np.asarray(rows, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError(f"matrix must be 2-D, got {matrix.ndim}-D")
    if len(matrix) == 0:
        raise ValidationError("matrix must have at least one row")
    if not np.isfinite(matrix).all():
        raise NonFiniteError("matrix contains NaN or infinity")
    singular = np.linalg.svd(matrix, compute_uv=False)
    if singular.size == 0 or singular[0] == 0.0:
        return 0
    return int(np.sum(singular > tol * singular[0]))


def _indicator_matrix(spec: SystemSpec) -> np.ndarray:
    """Rows are the unnormalized fiducial vectors of the single-card decks."""
    n = spec.values_per_variable
    v = spec.num_variables
    types = card_type_count(n, v)
    combos = np.indices((n,) * v).reshape(v, types).T  # all_cards order
    return np.eye(n, dtype=np.int64)[combos].reshape(types, v * n)


def exhaustive_fiducial_rank(
    spec: SystemSpec,
    max_multiplicity: int = 2,
    enumeration_limit: int = 100_000,
) -> int:
    """Exact rank of the fiducial vectors of ALL bounded-multiplicity decks.

    When the deck family is small enough it is enumerated literally.  Beyond
    ``enumeration_limit`` decks (3**27 for N=3, V=3 -- hopeless), the rank
    is computed from the single-card decks alone: a deck's fiducial vector
    is by definition the multiplicity-weighted average of its cards'
    indicator vectors, so the family spans exactly the same space.  Both
    paths agree wherever both are affordable (see the test suite).

    Rows are rescaled to integers (counts instead of probabilities) and
    deduplicated first; row scaling cannot change the rank.
    """
    if max_multiplicity < 1:
        raise ValidationError("max_multiplicity must be at least 1")
    indicator = _indicator_matrix(spec)
    num_card_types = indicator.shape[0]
    num_decks = (max_multiplicity + 1) ** num_card_types - 1
    if num_decks <= enumeration_limit:
        mults = np.array(
            list(itertools.product(range(max_multiplicity + 1), repeat=num_card_types)),
            dtype=np.int64,
        )[1:]  # drop the all-zero deck
        counts = mults @ indicator
        counts //= np.gcd.reduce(counts, axis=1)[:, None]
        rows = np.unique(counts, axis=0)
    else:
        rows = indicator
    basis = ExactRowBasis(indicator.shape[1])
    for row in rows:
        basis.add(row.tolist())
    return basis.rank


@dataclass(frozen=True)
class KReport:
    """Degrees-of-freedom measurement for one system configuration.

    ``ensemble`` is the base ensemble size, by default ten members per
    fiducial probability (``10 * k_naive``); the measurement internally
    doubles it once and sets ``saturated`` iff the rank did not move.
    ``k_rank`` is the rank after doubling.  A classical ensemble stops
    early once its rank reaches the ceiling V*(N-1)+1 that the per-row sum
    check proves, since no later row could raise it; ``k_rank`` and
    ``saturated`` are those of the full doubled ensemble.  ``k_paper`` is
    the fiducial count N*V for the urn and the card box, and n**2 for
    quantum systems.
    """

    kind: str
    n: int
    v_or_m: int
    k_rank: int
    k_naive: int
    k_paper: int
    ensemble: int
    saturated: bool
    seed: int


def _base_ensemble(fiducials: int, ensemble: int | None) -> int:
    base = 10 * fiducials if ensemble is None else ensemble
    if base < 1:
        raise ValidationError("ensemble size must be at least 1")
    return base


MAX_BORN_ENTRIES = 2**25  # float64 entries of a quantum K run's arrays: 268 MB


def _check_born_entries(n: int, m: int, ensemble: int | None) -> None:
    """A quantum run's ``2·ensemble`` rows of ``n·M`` Born probabilities and
    its ``M`` complex ``n × n`` bases (``2·n²·M`` floats) must fit together."""
    base = _base_ensemble(n * m, ensemble)
    if 2 * base * n * m + 2 * n * n * m > MAX_BORN_ENTRIES:
        raise ValidationError(
            f"2 * ensemble * n * M + 2 * n * n * M = 2 * {base} * {n * m} + 2 * {n * n} * {m} "
            f"Born-matrix and basis entries exceed MAX_BORN_ENTRIES = {MAX_BORN_ENTRIES}"
        )


def _estimate_k_classical(
    spec: SystemSpec,
    kind: str,
    ensemble: int | None,
    max_multiplicity: int,
    rng: RandomStream,
) -> KReport:
    fiducials = spec.num_variables * spec.values_per_variable
    # _count_rows checks that every row's V value blocks sum to the deck
    # total: V - 1 independent equations, so no row raises the rank past
    # this ceiling.  The draws stop once it is reached, and the first draw
    # block is just large enough to reach it.
    ceiling = fiducials - (spec.num_variables - 1)
    base = _base_ensemble(fiducials, ensemble)
    rows = _count_rows(spec, 2 * base, max_multiplicity, rng, first_block=ceiling + 1)
    basis = ExactRowBasis(fiducials)

    def feed(count: int) -> None:
        for row in itertools.islice(rows, count):
            if basis.add(row) and basis.rank == ceiling:
                return

    feed(base)
    first_rank = basis.rank
    if first_rank < ceiling:
        feed(base)
    return KReport(
        kind=kind,
        n=spec.values_per_variable,
        v_or_m=spec.num_variables,
        k_rank=basis.rank,
        k_naive=fiducials,
        k_paper=fiducials,
        ensemble=base,
        saturated=basis.rank == first_rank,
        seed=rng.seed,
    )


def estimate_k_urn(
    n: int,
    *,
    ensemble: int | None = None,
    max_multiplicity: int = 2,
    rng: RandomStream,
) -> KReport:
    """K for the single-variable urn; the classical reference point K=N."""
    return _estimate_k_classical(urn_as_cardbox(n), "urn", ensemble, max_multiplicity, rng)


def estimate_k_cardbox(
    spec: SystemSpec,
    *,
    ensemble: int | None = None,
    max_multiplicity: int = 2,
    rng: RandomStream,
) -> KReport:
    """K for a card-box system; the raw fiducial count N*V is the naive K."""
    return _estimate_k_classical(spec, "cardbox", ensemble, max_multiplicity, rng)


def estimate_k_quantum(
    n: int,
    num_bases: int | None = None,
    *,
    ensemble: int | None = None,
    tol: float = RANK_TOL,
    rng: RandomStream,
) -> KReport:
    """K for an n-dimensional quantum system measured in random bases.

    The observable set is drawn once and shared by the whole ensemble of
    random pure states.  With the default n+1 bases the rank saturates at
    n**2, the quantum reference value.
    """
    _check_tolerance(tol)
    m = n + 1 if num_bases is None else num_bases
    fiducials = n * m
    if fiducials > 0:  # otherwise random_observable_set names the bad argument
        _check_born_entries(n, m, ensemble)
    observables = random_observable_set(n, num_bases, rng=rng)
    base = _base_ensemble(fiducials, ensemble)
    rows = fiducial_matrix_quantum(random_pure_states(n, 2 * base, rng), observables)
    # [A; B] = diag(Q1, Q2)·[R1; R2], and diag(Q1, Q2) has orthonormal
    # columns: the stacked R factors have the singular values of all rows,
    # and R1 those of the first half, so each half is reduced only once.
    first = np.linalg.qr(rows[:base], mode="r")
    first_rank = matrix_rank_numeric(first, tol)
    rank = matrix_rank_numeric(np.vstack([first, np.linalg.qr(rows[base:], mode="r")]), tol)
    return KReport(
        kind="quantum",
        n=n,
        v_or_m=m,
        k_rank=rank,
        k_naive=fiducials,
        k_paper=n * n,
        ensemble=base,
        saturated=rank == first_rank,
        seed=rng.seed,
    )


def estimate_k(
    kind: str,
    n: int,
    *,
    v: int | None = None,
    m: int | None = None,
    ensemble: int | None = None,
    max_multiplicity: int = 2,
    tol: float = RANK_TOL,
    rng: RandomStream,
) -> KReport:
    """Dispatch on system kind: "urn", "cardbox", or "quantum"."""
    if kind == "urn":
        return estimate_k_urn(
            n, ensemble=ensemble, max_multiplicity=max_multiplicity, rng=rng
        )
    if kind == "cardbox":
        if v is None:
            raise ValidationError("cardbox systems need a variable count v")
        return estimate_k_cardbox(
            cardbox_spec(n, v),
            ensemble=ensemble,
            max_multiplicity=max_multiplicity,
            rng=rng,
        )
    if kind == "quantum":
        return estimate_k_quantum(n, m, ensemble=ensemble, tol=tol, rng=rng)
    raise ValidationError(f"unknown system kind {kind!r}")


_KIND_CODES = {"cardbox": 0, "quantum": 1, "urn": 2}
_STREAM_FIELD_BITS = 20
STREAM_FIELD_LIMIT = 1 << _STREAM_FIELD_BITS  # N and V_or_M of a sweep cell stay below it


def _stream_id(kind: str, n: int, v: int) -> int:
    # One independent stream per table cell, derived from the master seed.
    # N and V (or M) each get a 20-bit field; a wider value would collide.
    if not (0 <= n < STREAM_FIELD_LIMIT and 0 <= v < STREAM_FIELD_LIMIT):
        raise ValidationError(
            f"N and V_or_M must be below 2**{_STREAM_FIELD_BITS} = {STREAM_FIELD_LIMIT} "
            f"to get distinct random streams, got N={n}, V_or_M={v}"
        )
    return (_KIND_CODES[kind] << (2 * _STREAM_FIELD_BITS)) | (n << _STREAM_FIELD_BITS) | v


def _sorted_distinct(values: Iterable[int]) -> Sequence[int]:
    # a range with a positive step is sorted and distinct already, and its
    # bounds are read without listing it
    if isinstance(values, range) and values.step > 0:
        return values
    return sorted(set(values))


def k_sweep(
    n_values: Iterable[int],
    v_values: Iterable[int],
    kinds: Iterable[str],
    seed: int,
    *,
    ensemble: int | None = None,
    max_multiplicity: int = 2,
    tol: float = RANK_TOL,
) -> list[KReport]:
    """One KReport per (kind, N, V) cell, in deterministic sorted order.

    Urn and quantum systems have no free V: the urn is always V=1 and the
    quantum reference always uses the full n+1 tomographic bases, so those
    kinds contribute one row per N.
    """
    n_list = _sorted_distinct(n_values)
    v_list = _sorted_distinct(v_values)
    kind_list = sorted(set(kinds))
    if not n_list or not v_list or not kind_list:
        raise ValidationError("sweep ranges must be nonempty")
    for kind in kind_list:
        if kind not in _KIND_CODES:
            raise ValidationError(f"unknown system kind {kind!r}")
    if n_list[0] < 2:
        raise ValidationError("N must be at least 2")
    if v_list[0] < 1:
        raise ValidationError("V must be at least 1")

    def v_values(kind: str, n: int) -> Sequence[int]:
        if kind == "cardbox":
            return v_list
        return [1 if kind == "urn" else n + 1]

    # A kind's largest cell (max N, max V) is the first to pass any limit,
    # so checking it checks every cell, before any cell is listed or run.
    for kind in kind_list:
        n = n_list[-1]
        v = v_values(kind, n)[-1]
        _stream_id(kind, n, v)
        if kind == "quantum":
            _check_tolerance(tol)
            _check_born_entries(n, v, ensemble)
        else:
            _check_draw_limits(n, v, max_multiplicity)

    return [
        estimate_k(kind, n, v=v, m=v, ensemble=ensemble, max_multiplicity=max_multiplicity,
                   tol=tol, rng=RandomStream(seed, _stream_id(kind, n, v)))
        for kind in kind_list
        for n in n_list
        for v in v_values(kind, n)
    ]
