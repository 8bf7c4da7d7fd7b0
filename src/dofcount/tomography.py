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
fraction-free integer Gaussian elimination (no tolerances) on count rows, a
random deck's multiplicities summed per value of each variable.  Every row
is checked to satisfy the V-1 normalization equations, which proves the
ceiling V*(N-1)+1, so a classical ensemble stops drawing once its rank
reaches it.  Its rows are drawn on demand: a first block of ceiling+1 rows,
then blocks that double up to 65,536 multiplicities each.  Quantum ranks
count singular values above a threshold, and stop once a prefix reaches
their ceiling min(n**2, M*(n-1)+1).  Otherwise each half of the Born matrix
is filled in row blocks, one real GEMM each, and reduced once to the R
factor of its QR factorization, whose stack has the singular values of all rows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cardbox import (
    Deck,
    SystemSpec,
    card_type_count,
    card_type_indices,
    initial_state,
    outcome_distribution,
)
from .errors import InvariantError, ValidationError
from .quantum import (
    _DRAW_BLOCK,
    RANK_TOL,
    DensityState,
    MeasurementBasis,
    ObservableSet,
    born_rows,
    measurement_distribution,
    random_observable_set,
    random_state_rows,
)
from .rng import RandomStream


def fiducial_vector_cardbox(deck: Deck) -> tuple[Fraction, ...]:
    """Exact probabilities of every value of every variable, spec order."""
    state = initial_state(deck)
    dists = (outcome_distribution(state, variable) for variable in deck.spec.variable_names)
    return tuple(p for dist in dists for p in dist.values())  # each dist in label order


def fiducial_vector_quantum(state: DensityState, observables: ObservableSet) -> np.ndarray:
    """Born probabilities of every outcome of every basis, concatenated."""
    bases = map(MeasurementBasis, observables.vectors)
    return np.concatenate([measurement_distribution(state, basis) for basis in bases])


_INT64_MAX = 2**63 - 1


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
    n: int,
    v: int,
    count: int,
    max_multiplicity: int,
    rng: RandomStream,
    first_block: int = _DRAW_BLOCK,
) -> Iterator[np.ndarray]:
    """Per-card-type multiplicities of random decks, one row per deck.

    Columns follow ``card_type_indices`` order, and each entry is uniform in
    {0..max}.  All-zero draws are rejected and redrawn, so every deck is
    nonempty.  Rows come in blocks, each drawn only when the caller asks
    for it: the first holds ``first_block`` rows and each later one twice
    as many, all capped at ``_DRAW_BLOCK`` multiplicities, and no more rows
    are drawn than decks remain.  A block of k rows holds the same draws as
    k one-row calls, so the decks do not depend on the block sizes.  The
    callers check ``count`` and ``_check_draw_limits`` first.
    """
    types = n ** v
    cap = max(1, _DRAW_BLOCK // types)
    block_rows = min(max(1, first_block), cap)
    remaining = count
    while remaining:
        block = rng.integers_below(max_multiplicity + 1, size=(min(remaining, block_rows), types))
        drawn = block.any(axis=1)
        if not drawn.all():
            block = block[drawn]
        remaining -= len(block)
        block_rows = min(2 * block_rows, cap)
        yield block


def random_deck_ensemble(
    spec: SystemSpec, count: int, max_multiplicity: int, rng: RandomStream
) -> list[Deck]:
    """Independent random decks: uniform multiplicity in {0..max} per card type.

    All-zero draws are rejected and redrawn, so every deck is nonempty.
    """
    types = card_type_indices(spec)
    if count < 1:
        raise ValidationError("ensemble count must be at least 1")
    _check_draw_limits(spec.values_per_variable, spec.num_variables, max_multiplicity)
    return [
        Deck(spec, types[mults > 0], mults[mults > 0])
        for block in _multiplicity_draws(
            spec.values_per_variable, spec.num_variables, count, max_multiplicity, rng
        )
        for mults in block
    ]


def _value_counts(block: np.ndarray, n: int, v: int) -> np.ndarray:
    """Per-variable value counts of multiplicity rows in ``card_type_indices`` order.

    Column ``i*N + x`` sums a row over the card types that show value ``x``
    of variable ``i``.  The first variable is the slowest axis of that order:
    rows reshaped to ``(r, N, N**(V-1))`` give its counts summed over the
    last axis, and the other variables' rows summed over the middle one.
    Exact in int64; every shape is explicit, so an empty block gives ``(0, V*N)``.
    """
    r = len(block)
    counts, rest = [], block
    for i in range(v - 1):
        split = rest.reshape(r, n, n ** (v - 1 - i))
        counts.append(split.sum(axis=2))
        rest = split.sum(axis=1)
    counts.append(rest)  # (r, N): the last variable's own counts
    return np.concatenate(counts, axis=1)


def _count_rows(
    n: int,
    v: int,
    count: int,
    max_multiplicity: int,
    rng: RandomStream,
    first_block: int = _DRAW_BLOCK,
) -> Iterator[list[int]]:
    """Per-variable value counts of random decks, one row per deck as drawn.

    Row ``e`` is the ``e``-th deck ``random_deck_ensemble`` draws from the
    same stream, its multiplicities summed per value (:func:`_value_counts`):
    ``deck.total * fiducial_vector_cardbox(deck)``, so the rows span the same
    space as the fiducial vectors.  Rows are drawn, counted and checked one
    ``_multiplicity_draws`` block at a time (the first ``first_block`` rows,
    then doubling), so a caller that stops early leaves the later blocks undrawn.
    """
    for block in _multiplicity_draws(n, v, count, max_multiplicity, rng, first_block):
        counts = _value_counts(block, n, v)
        if (counts.reshape(len(block), v, n).sum(axis=2) != block.sum(axis=1)[:, None]).any():
            raise InvariantError("a count row's value blocks do not all sum to the deck total")
        yield from counts.tolist()


class ExactRowBasis:
    """Incremental row-echelon basis over the integers, fraction-free.

    Rows of ints are fed one at a time (handy for streaming enumerations
    and saturation checks); ``rank`` is exact, with no tolerance anywhere.
    Pivot rows are kept in insertion order; each was reduced by all earlier
    pivots, so it is zero in their columns.  A new row is reduced by each
    pivot ``p`` with ``r <- r*p[c] - r[c]*p`` (Bareiss 1968) and divided by
    the gcd of its entries.
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
            raise ValidationError(f"row has {len(row)} entries, expected {self.width}")
        try:
            reduced = [operator.index(x) for x in row]
        except TypeError as exc:
            raise ValidationError(f"row entries must be ints: {exc}") from None
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


def _check_tolerance(tol: float) -> None:
    # a relative threshold of 1 or more counts no singular value, not even
    # the largest; the chained comparison is False for NaN
    if not 0.0 < tol < 1.0:
        raise ValidationError(f"tolerance must be finite and in (0, 1), got {tol}")


def matrix_rank_numeric(rows: np.ndarray, tol: float = RANK_TOL) -> int:
    """Numeric rank of a 2-D float64 ndarray: singular values above ``tol``
    times the largest.

    Any other input raises ``ValidationError``, unconverted: at lower
    precision rounding noise alone clears the default threshold, and a cast
    of a complex matrix would drop its imaginary parts.
    """
    _check_tolerance(tol)
    if not isinstance(rows, np.ndarray) or rows.dtype != np.float64 or rows.ndim != 2:
        got = f"{rows.ndim}-D {rows.dtype}" if isinstance(rows, np.ndarray) else type(rows).__name__
        raise ValidationError(f"matrix must be a 2-D float64 ndarray, got {got}")
    if len(rows) == 0:
        raise ValidationError("matrix must have at least one row")
    if not np.isfinite(rows).all():
        raise InvariantError("matrix contains NaN or infinity")
    singular = np.linalg.svd(rows, compute_uv=False)
    if singular.size == 0 or singular[0] == 0.0:
        return 0
    return int(np.sum(singular > tol * singular[0]))


@dataclass(frozen=True)
class KReport:
    """Degrees-of-freedom measurement for one system configuration.

    ``ensemble`` is the base ensemble size, by default ten members per
    fiducial probability (``10 * k_naive``); the measurement internally
    doubles it once and sets ``saturated`` iff the rank did not move.
    ``k_rank`` is the rank after doubling.  An ensemble stops once its rank
    reaches the ceiling that the per-row sum checks prove (V*(N-1)+1, or
    min(n**2, M*(n-1)+1) for quantum systems); ``k_rank`` and ``saturated``
    are those of the full doubled ensemble.  ``k_paper`` is the fiducial
    count N*V for the urn and the card box, and n**2 for quantum systems.
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


# Caps what a quantum run holds at once: its prefix, or, on the fallback, both halves.
MAX_BORN_ENTRIES = 2**25  # float64 entries of a quantum K run's arrays: 268 MB


def _quantum_head(n: int, m: int, base: int) -> tuple[int, int]:
    """``(c, head)``: the ceiling ``c = min(n**2, M*(n-1)+1)`` no rank of a
    quantum run exceeds, and the first-half prefix ranked before any other
    row is drawn."""
    ceiling = min(n * n, m * (n - 1) + 1)
    return ceiling, min(base, ceiling + 16)


def _check_born_entries(n: int, m: int, rows: int) -> None:
    """``rows`` rows of ``n·M`` Born probabilities and the ``M`` complex
    ``n × n`` bases (``2·n²·M`` floats) must fit together."""
    if rows * n * m + 2 * n * n * m > MAX_BORN_ENTRIES:
        raise ValidationError(
            f"{rows} * n * M + 2 * n * n * M = {rows} * {n * m} + 2 * {n * n} * {m} "
            f"Born-matrix and basis entries exceed MAX_BORN_ENTRIES = {MAX_BORN_ENTRIES}"
        )


def _check_cell(
    kind: str, n: int, v_or_m: int | None, ensemble: int | None, max_multiplicity: int, tol: float
) -> tuple[int, int]:
    """``(V_or_M, base ensemble)`` of one cell, once every limit known before
    its first draw is checked.

    The checks run in one order, so a cell with several faults always names
    the same one: the kind and its shape (a quantum cell's tolerance first),
    the random decks' ``_check_draw_limits`` (urn, card box), the ensemble,
    the quantum prefix's ``MAX_BORN_ENTRIES``, then the value the kind does not
    read (a classical ``tol``, a quantum ``max_multiplicity``), so a sweep
    refuses it whatever its kinds.  An urn is the card box with V = 1, a
    quantum cell has n+1 bases unless told otherwise, and the base ensemble
    is ten members per fiducial probability unless told otherwise.
    """
    if kind == "quantum":
        _check_tolerance(tol)
        if n < 2:
            raise ValidationError(f"dimension must be at least 2, got {n}")
        v_or_m = n + 1 if v_or_m is None else v_or_m
        if v_or_m < 1:
            raise ValidationError("observable set needs at least one basis")
    elif kind == "urn":
        if v_or_m not in (None, 1):
            raise ValidationError(f"an urn has one variable, got V={v_or_m}")
        if n < 2:
            raise ValidationError(f"an urn needs at least 2 positions, got {n}")
        v_or_m = 1
    elif kind == "cardbox":
        if v_or_m is None:
            raise ValidationError("cardbox systems need a variable count v")
        if v_or_m < 1 or n < 2:
            raise ValidationError(f"need at least 1 variable of 2 values, got V={v_or_m}, N={n}")
    else:
        raise ValidationError(f"unknown system kind {kind!r}")
    if kind != "quantum":
        _check_draw_limits(n, v_or_m, max_multiplicity)
    base = 10 * n * v_or_m if ensemble is None else ensemble
    if base < 1:
        raise ValidationError("ensemble size must be at least 1")
    if kind == "quantum":
        _check_born_entries(n, v_or_m, _quantum_head(n, v_or_m, base)[1])
        if max_multiplicity < 1:
            raise ValidationError("max_multiplicity must be at least 1")
    else:
        _check_tolerance(tol)
    return v_or_m, base


def _estimate_k_classical(
    n: int, v: int, base: int, max_multiplicity: int, rng: RandomStream
) -> tuple[int, int]:
    """``(rank, first_rank)``: exact ranks of the doubled and the base ensemble's count rows."""
    fiducials = n * v
    # _count_rows checks that every row's V value blocks sum to the deck
    # total: V - 1 independent equations, so no row raises the rank past
    # this ceiling.  The draws stop once it is reached, and the first draw
    # block is just large enough to reach it.
    ceiling = fiducials - (v - 1)
    basis = ExactRowBasis(fiducials)
    first_rank = ceiling  # the base ensemble's rank, unless it ends short of the ceiling
    rows = _count_rows(n, v, 2 * base, max_multiplicity, rng, first_block=ceiling + 1)
    for fed, row in enumerate(rows, 1):
        if basis.add(row) and basis.rank == ceiling:
            break
        if fed == base:
            first_rank = basis.rank
    return basis.rank, first_rank


def _estimate_k_quantum(
    n: int, m: int, base: int, tol: float, rng: RandomStream
) -> tuple[int, int]:
    """``(rank, first_rank)``: numeric ranks of the doubled and the base ensemble's Born rows.

    The M random bases are drawn once and shared by the whole ensemble of
    random pure states.  With n+1 bases the rank saturates at n**2, the
    quantum reference value.  No rank exceeds ``c = min(n**2, M*(n-1)+1)``:
    a run stops once its first ``min(ensemble, c + 16)`` states reach ``c``,
    and a rank above ``c`` raises ``ValidationError``.  ``MAX_BORN_ENTRIES``
    bounds that prefix before any draw (``_check_cell``), and both halves
    before the fallback draws them.
    """
    vectors = random_observable_set(n, m, rng=rng).vectors
    ceiling, head = _quantum_head(n, m, base)
    prefix = np.empty((head, n * m))
    step = max(1, _DRAW_BLOCK // (n * m))

    def fill(part: np.ndarray) -> None:  # drawn a row block at a time
        for block in (part[i : i + step] for i in range(0, len(part), step)):
            born_rows(random_state_rows(n, len(block), rng), vectors, block)

    fill(prefix)
    rank = first_rank = matrix_rank_numeric(prefix, tol)
    if rank < ceiling:
        _check_born_entries(n, m, 2 * base)  # both halves, before either is drawn
        rows = np.empty((base, n * m))  # one half's Born rows; the halves take turns
        rows[:head] = prefix
        fill(rows[head:])
        factors = [np.linalg.qr(rows, mode="r")]
        fill(rows)
        factors.append(np.linalg.qr(rows, mode="r"))
        # [A; B] = diag(Q1, Q2)·[R1; R2], and diag(Q1, Q2) has orthonormal
        # columns: the stacked R factors have the singular values of all rows,
        # and R1 those of the first half, so each half is reduced only once.
        first_rank = matrix_rank_numeric(factors[0], tol)
        rank = matrix_rank_numeric(np.vstack(factors), tol)
    if rank > ceiling:
        raise ValidationError(
            f"numeric rank {rank} exceeds its ceiling c = min(n**2, M*(n-1)+1) = {ceiling}: "
            f"--tol {tol:g} counts round-off singular values"
        )
    return rank, first_rank


def estimate_k(
    kind: str,
    n: int,
    v_or_m: int | None = None,
    *,
    ensemble: int | None = None,
    max_multiplicity: int = 2,
    tol: float = RANK_TOL,
    rng: RandomStream,
) -> KReport:
    """K of the cell ``(N, V_or_M)`` of a system kind: "urn", "cardbox" or "quantum".

    ``v_or_m`` is a card box's variable count V (required), a quantum system's
    basis count M (default n+1), and 1 for an urn: the classical reference
    point, one variable whose K is N.  Classical cells rank random decks with
    multiplicities up to ``max_multiplicity``; quantum cells count singular
    values above ``tol``.  ``_check_cell`` checks the cell before any draw.
    """
    v_or_m, base = _check_cell(kind, n, v_or_m, ensemble, max_multiplicity, tol)
    if kind == "quantum":
        rank, first_rank = _estimate_k_quantum(n, v_or_m, base, tol, rng)
    else:
        rank, first_rank = _estimate_k_classical(n, v_or_m, base, max_multiplicity, rng)
    return KReport(
        kind=kind, n=n, v_or_m=v_or_m, k_rank=rank, k_naive=n * v_or_m,
        k_paper=n * (n if kind == "quantum" else v_or_m), ensemble=base,
        saturated=rank == first_rank, seed=rng.seed,
    )


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


def k_sweep(
    n_values: range,
    v_values: range,
    kinds: Iterable[str],
    seed: int,
    *,
    ensemble: int | None = None,
    max_multiplicity: int = 2,
    tol: float = RANK_TOL,
) -> list[KReport]:
    """One KReport per (kind, N, V) cell: kinds sorted, then N and V ascending.

    N and V are ranges with step 1, read without listing them.  Urn and
    quantum systems have no free V: the urn is always V=1 and the quantum
    reference always uses the full n+1 tomographic bases, so those kinds
    contribute one row per N.
    """
    for values in (n_values, v_values):
        if not isinstance(values, range) or values.step != 1:
            raise ValidationError(f"sweep N and V must be ranges with step 1, got {values!r}")
    kind_list = sorted(set(kinds))
    if not n_values or not v_values or not kind_list:
        raise ValidationError("sweep ranges must be nonempty")
    for kind in kind_list:
        if kind not in _KIND_CODES:
            raise ValidationError(f"unknown system kind {kind!r}")
    if n_values[0] < 2:
        raise ValidationError("N must be at least 2")
    if v_values[0] < 1:
        raise ValidationError("V must be at least 1")

    def cell_vs(kind: str, n: int) -> Sequence[int]:
        return v_values if kind == "cardbox" else [1 if kind == "urn" else n + 1]

    # A kind's largest cell (max N, max V) is the first to pass any limit,
    # so checking it checks every cell, before any cell is listed or run.
    for kind in kind_list:
        n = n_values[-1]
        v = cell_vs(kind, n)[-1]
        _stream_id(kind, n, v)
        _check_cell(kind, n, v, ensemble, max_multiplicity, tol)

    return [
        estimate_k(kind, n, v, ensemble=ensemble, max_multiplicity=max_multiplicity,
                   tol=tol, rng=RandomStream(seed, _stream_id(kind, n, v)))
        for kind in kind_list
        for n in n_values
        for v in cell_vs(kind, n)
    ]
