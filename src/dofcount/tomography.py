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
point: K is not a function of N alone.  Classical ranks are exact, with no
tolerance, on count rows: a random deck's multiplicities summed per value of
each variable.  Every row is checked to satisfy the V-1 normalization
equations, which proves the ceiling c = V*(N-1)+1, so a classical ensemble
stops drawing once its rank reaches it.  Its rows are drawn on demand: a
first block of c+1 rows, then blocks that double up to 65,536 multiplicities
each.  From c = 5 on, the first min(2*ensemble, c+1+c//256) rows are
certified in floating point: a shifted Cholesky factorization of the Gram of
the c columns that the normalization equations leave free proves their rank
over Q full.  Smaller cells, and cells the certificate declines, are ranked
by fraction-free integer Gaussian elimination (Bareiss), the same rows in
the same order.  Quantum ranks count singular values above RANK_TOL = 1e-9
times the largest, and stop once a prefix reaches their ceiling
c = min(n**2, M*(n-1)+1).  The prefix is first certified without an SVD: its
block-sum residual bounds sigma_(c+1), and a shifted Cholesky of the Gram of
c of its columns (the classical certificate) bounds sigma_c, so that the SVD
would count exactly c.  When the certificate declines, the prefix's SVD runs
as the check instead.  A prefix short of c sends the run on: each half of
the Born matrix is filled in row blocks, one real GEMM each, and reduced
once to the R factor of its QR factorization, whose stack has the singular
values of all rows.
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


def _count_blocks(
    n: int,
    v: int,
    count: int,
    max_multiplicity: int,
    rng: RandomStream,
    first_block: int = _DRAW_BLOCK,
) -> Iterator[np.ndarray]:
    """Per-variable value counts of random decks, one int64 block per draw block.

    Row ``e`` of the joined blocks is the ``e``-th deck ``random_deck_ensemble``
    draws from the same stream, its multiplicities summed per value
    (:func:`_value_counts`): ``deck.total * fiducial_vector_cardbox(deck)``,
    so the rows span the same space as the fiducial vectors.  Rows are
    drawn, counted and checked one ``_multiplicity_draws`` block at a time
    (the first ``first_block`` rows, then doubling), so a caller that stops
    early leaves the later blocks undrawn.
    """
    for block in _multiplicity_draws(n, v, count, max_multiplicity, rng, first_block):
        counts = _value_counts(block, n, v)
        if (counts.reshape(len(block), v, n).sum(axis=2) != block.sum(axis=1)[:, None]).any():
            raise InvariantError("a count row's value blocks do not all sum to the deck total")
        yield counts


# Smallest ceiling c whose cells are certified before Bareiss runs.  Whole default
# cells, in-process medians of 200 interleaved seeds (2-core Xeon VM): certificate
# 67 vs Bareiss 58 us at c = 4 (urn(4)); 61 vs 57, 69 vs 73 and 93 vs 104 us at c = 5
# (urn(5), (N, V) = (3, 2), (2, 4)).
_CERTIFY_MIN_CEILING = 5


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


def matrix_rank_numeric(rows: np.ndarray, tol: float = RANK_TOL) -> int:
    """Numeric rank of a 2-D float64 ndarray: singular values above ``tol``
    times the largest.

    Any other input raises ``ValidationError``, unconverted: at lower
    precision rounding noise alone clears the default threshold, and a cast
    of a complex matrix would drop its imaginary parts.
    """
    # a relative threshold of 1 or more counts no singular value, not even
    # the largest; the chained comparison is False for NaN
    if not 0.0 < tol < 1.0:
        raise ValidationError(f"tolerance must be finite and in (0, 1), got {tol}")
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


# Factors of the rank certificates; _certify_full_rank and _certify_quantum_ceiling derive them.
_GRAM_SLACK = 2
_CERTIFICATE_MARGIN = 2
_EPS = float(np.finfo(np.float64).eps)


def _certify_full_rank(
    blocks: Iterable[np.ndarray], h: int, n: int, m: int, tol: float, frob: float | None = None
) -> bool:
    """True only if ``K`` has every singular value at least ``2*tol*frob``;
    False declines and proves nothing.

    ``K`` is the first ``h`` rows of ``blocks`` (``M`` blocks of ``n``
    entries each) less the last column of blocks 2..M: ``c = M*(n-1)+1``
    columns, copied a row block at a time into one float64 array, and ``F =
    frob >= ||K||_F`` (by default that array's own).  A Cholesky
    factorization of its Gram ``G`` (``K^T K`` if ``h >= c``, else ``K
    K^T``) less ``(2*tol*F)**2 + _GRAM_SLACK*(h+c)*eps*F**2`` times ``I``
    must succeed.  The computed Gram is off by at most its inner dimension
    times ``u*F**2`` in 2-norm (``u = eps/2``; Higham 2002, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3), and a Cholesky that runs to
    completion factors its input up to its size plus 1 times ``u`` times
    its trace (ch. 10; Rump 2006, "Verification of positive definiteness",
    BIT 46:433-452).  With the shift's own rounding these take
    ``(h+c+3)*u*F**2``, at most half the slack, so ``G``'s smallest
    eigenvalue is at least ``(2*tol*F)**2``.

    Integer rows (the classical count rows) pass ``tol = eps`` and no
    ``frob``.  Converting ``K`` to float64 is exact below ``2**53`` and off
    by at most ``u`` relative per entry above, so ``||K - fl(K)||_2 <=
    u*||K||_F <= u*F/(1-u)``, less than the ``2*eps*F`` the factorization
    proves of ``sigma_min(fl(K))``: by Weyl, ``sigma_min(K) > 0``, and the
    rank of ``K`` is exactly ``min(h, c)``.
    """
    c = m * (n - 1) + 1
    kept = np.empty((h, c))
    at = 0
    for block in blocks:
        part = block[: h - at].reshape(-1, m, n)
        kept[at : at + len(part), :n] = part[:, 0]
        kept[at : at + len(part), n:] = part[:, 1:, :-1].reshape(len(part), c - n)
        at += len(part)
    if frob is None:
        frob = math.sqrt(np.vdot(kept, kept)) * (1 + kept.size * _EPS)
    gram = kept.T @ kept if h >= c else kept @ kept.T
    del kept  # the factorization copies the Gram twice: urn(4096) needs the room
    gram.flat[:: len(gram) + 1] -= (2 * tol * frob) ** 2 + _GRAM_SLACK * (h + c) * _EPS * frob**2
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _certify_quantum_ceiling(prefix: np.ndarray, n: int, m: int, tol: float) -> bool:
    """True only if ``matrix_rank_numeric(prefix, tol)`` would count exactly
    ``c = M*(n-1)+1`` singular values; False declines and proves nothing.

    ``X = prefix`` holds ``h`` rows of ``M`` basis blocks of ``n`` entries,
    ``w = n*M`` columns.  With ``M <= n+1``, ``c = min(n**2, M*(n-1)+1)`` is
    the count of the columns ``K`` kept once the last column of blocks 2..M
    is dropped.  Rebuilding each dropped column from the identity "block j
    sums to what block 1 sums to" gives ``Y = K T`` of rank at most ``c``.
    ``X - Y`` is zero outside the dropped columns, which hold the
    differences ``s_j - s_1`` of each row's block sums; their norm ``r``
    bounds ``sigma_{c+1}(X)``.  ``T`` contains ``I_c``, so ``T T^T >= I``,
    ``sigma_c(Y) >= sigma_min(K)`` and, by Weyl, ``sigma_c(X) >=
    sigma_min(K) - r``.

    The SVD is backward stable: LAPACK bounds the error of each singular
    value by ``p(h, w)*eps*sigma_1`` with a modest ``p`` (LAPACK Users'
    Guide, section 4.9).  Here ``d = h*w*eps*F``, ``F >= ||X||_F >=
    sigma_1``: the worst-case growth of a Householder reduction's backward
    error (Higham 2002, ch. 19).  The all-ones vector's Rayleigh quotient
    gives ``sigma_1 >= S = ||X 1|| / sqrt(w)``, about ``0.7 F`` on Born
    rows.  Two checks prove the count:

    * ``r + d*(1+tol) <= tol*S / _CERTIFICATE_MARGIN``.  The computed
      ``sigma_{c+1}`` is at most ``r + d``, and the computed threshold at
      least ``tol*(S - d)*(1 - eps/2)``; the margin 2 covers that rounding.
    * ``_certify_full_rank`` accepts ``K`` with ``frob = F``.  So
      ``sigma_min(K) >= 2*tol*F``, and the computed ``sigma_c >= 2*tol*F -
      r - d`` clears the computed threshold ``tol*(F + d)*(1 + u)`` by the
      first check.

    ``F``, ``r`` and ``S`` are sums of at most ``h*w`` terms, each off by
    at most ``h*w*eps`` relative (ch. 3).  Rounding the block sums adds
    ``n*eps*sqrt(n)*(1 + sqrt(M-1))*F`` to ``r``: a block's absolute sum
    is at most ``sqrt(n)`` times its 2-norm.  Rounding the row sums takes
    ``w*eps*F`` off ``S``.  It declines past ``M = n+1``, with fewer than
    ``c`` rows, with a ``tol`` too close to ``eps``, and with rows too close
    to singular for the Gram.
    """
    h, width = prefix.shape
    ceiling = m * (n - 1) + 1
    if m > n + 1 or h < ceiling:
        return False
    rel = prefix.size * _EPS
    frob = math.sqrt(np.vdot(prefix, prefix)) * (1 + rel)
    sums = (prefix.reshape(h * m, n) @ np.ones(n)).reshape(h, m)
    spread = sums[:, 1:] - sums[:, :1]
    residual = (math.sqrt(np.vdot(spread, spread)) * (1 + rel)
                + n * _EPS * math.sqrt(n) * (1 + math.sqrt(m - 1)) * frob)
    row_sums = sums @ np.ones(m)
    sigma_low = math.sqrt(np.vdot(row_sums, row_sums) / width) * (1 - rel) - width * _EPS * frob
    svd_error = h * width * _EPS * frob
    # written so that a NaN anywhere declines
    if not residual + svd_error * (1 + tol) <= tol * sigma_low / _CERTIFICATE_MARGIN:
        return False
    return _certify_full_rank([prefix], h, n, m, tol, frob)


def _check_born_entries(n: int, m: int, rows: int) -> None:
    """``rows`` rows of ``n·M`` Born probabilities and the ``M`` complex
    ``n × n`` bases (``2·n²·M`` floats) must fit together."""
    if rows * n * m + 2 * n * n * m > MAX_BORN_ENTRIES:
        raise ValidationError(
            f"{rows} * n * M + 2 * n * n * M = {rows} * {n * m} + 2 * {n * n} * {m} "
            f"Born-matrix and basis entries exceed MAX_BORN_ENTRIES = {MAX_BORN_ENTRIES}"
        )


def _check_cell(
    kind: str, n: int, v_or_m: int | None, ensemble: int | None, max_multiplicity: int
) -> tuple[int, int]:
    """``(V_or_M, base ensemble)`` of one cell, once every limit known before
    its first draw is checked.

    The checks run in one order, so a cell with several faults always names
    the same one: the kind and its shape, the random decks'
    ``_check_draw_limits`` (urn, card box), the ensemble, then the quantum
    prefix's ``MAX_BORN_ENTRIES`` and the ``max_multiplicity`` a quantum
    cell does not read, so a sweep refuses it whatever its kinds.  An urn
    is the card box with V = 1, a quantum cell has n+1 bases unless told
    otherwise, and the base ensemble is ten members per fiducial
    probability unless told otherwise.
    """
    if kind == "quantum":
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
    return v_or_m, base


def _estimate_k_classical(
    n: int, v: int, base: int, max_multiplicity: int, rng: RandomStream
) -> tuple[int, int]:
    """``(rank, first_rank)``: exact ranks of the doubled and the base ensemble's count rows.

    ``_count_blocks`` checks in integers that each row's V value blocks sum
    to the deck total, so the last column of blocks 2..V is a combination
    of the others: the rows' rank is that of ``K``, the ``c = V*(N-1)+1``
    columns left, and never passes ``c``.  The draws stop once it is
    reached.  A cell with ``c >= _CERTIFY_MIN_CEILING`` hands its first
    ``want = min(2 * base, c + 1 + c // 256)`` rows to
    ``_certify_full_rank``; when it accepts, their rank, and the doubled
    ensemble's, is ``min(want, c)``.  The base ensemble's is ``c`` when it
    holds all ``want`` rows, and its row count when twice it fits under
    ``c`` (its rows are among independent ones) or when the certificate
    accepts its own rows.  Every other cell, and one the certificate
    declines, feeds ``ExactRowBasis`` the same rows in draw order, then
    the rest of the stream, so both give the same report.
    """
    fiducials = n * v
    ceiling = fiducials - (v - 1)
    blocks = _count_blocks(n, v, 2 * base, max_multiplicity, rng, first_block=ceiling + 1)
    head: list[np.ndarray] = []  # the draw blocks that hold the first want rows
    if ceiling >= _CERTIFY_MIN_CEILING:
        # c // 256 more rows than c + 1 keep the widest urns' Gram clear of its shift
        want = min(2 * base, ceiling + 1 + ceiling // 256)
        for block in blocks:  # held in the narrowest dtype: urn(4096) holds 4,113 x 4,096
            head.append(block.astype(np.min_scalar_type(block.max(initial=0)), copy=False))
            if sum(map(len, head)) >= want:
                break
        if _certify_full_rank(head, want, n, v, _EPS) and (
            base >= want or 2 * base <= ceiling or _certify_full_rank(head, base, n, v, _EPS)
        ):
            return min(want, ceiling), min(base, ceiling)
    basis = ExactRowBasis(fiducials)
    first_rank = ceiling  # the base ensemble's rank, unless it ends short of the ceiling
    fed = 0
    for block in itertools.chain(head, blocks):
        for row in block.tolist():
            fed += 1
            if basis.add(row) and basis.rank == ceiling:
                return ceiling, first_rank
            if fed == base:
                first_rank = basis.rank
    return basis.rank, first_rank


def _estimate_k_quantum(n: int, m: int, base: int, rng: RandomStream) -> tuple[int, int]:
    """``(rank, first_rank)``: numeric ranks of the doubled and the base ensemble's Born rows.

    Every rank counts singular values above ``RANK_TOL`` times the largest.
    The M random bases are drawn once and shared by the whole ensemble of
    random pure states.  With n+1 bases the rank saturates at n**2, the
    quantum reference value.  No rank exceeds ``c = min(n**2, M*(n-1)+1)``:
    a run stops once its first ``min(ensemble, c + 16)`` states reach ``c``,
    and a rank above ``c`` raises ``InvariantError``.  That prefix goes to
    ``_certify_quantum_ceiling`` first, which proves without an SVD that
    ``matrix_rank_numeric`` would count exactly ``c``; only when it
    declines does the SVD rank the prefix.  ``MAX_BORN_ENTRIES``
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
    if _certify_quantum_ceiling(prefix, n, m, RANK_TOL):
        return ceiling, ceiling
    rank = first_rank = matrix_rank_numeric(prefix, RANK_TOL)
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
        first_rank = matrix_rank_numeric(factors[0], RANK_TOL)
        rank = matrix_rank_numeric(np.vstack(factors), RANK_TOL)
    if rank > ceiling:
        raise InvariantError(
            f"numeric rank {rank} exceeds its ceiling c = min(n**2, M*(n-1)+1) = {ceiling}"
        )
    return rank, first_rank


def estimate_k(
    kind: str,
    n: int,
    v_or_m: int | None = None,
    *,
    ensemble: int | None = None,
    max_multiplicity: int = 2,
    rng: RandomStream,
) -> KReport:
    """K of the cell ``(N, V_or_M)`` of a system kind: "urn", "cardbox" or "quantum".

    ``v_or_m`` is a card box's variable count V (required), a quantum system's
    basis count M (default n+1), and 1 for an urn: the classical reference
    point, one variable whose K is N.  Classical cells rank random decks with
    multiplicities up to ``max_multiplicity``, exactly; quantum cells count
    singular values above the fixed relative threshold ``RANK_TOL``.
    ``_check_cell`` checks the cell before any draw.
    """
    v_or_m, base = _check_cell(kind, n, v_or_m, ensemble, max_multiplicity)
    if kind == "quantum":
        rank, first_rank = _estimate_k_quantum(n, v_or_m, base, rng)
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
    if not kind_list:
        raise ValidationError("sweep needs at least one system kind")
    if not n_values or not v_values:
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
        _check_cell(kind, n, v, ensemble, max_multiplicity)

    return [
        estimate_k(kind, n, v, ensemble=ensemble, max_multiplicity=max_multiplicity,
                   rng=RandomStream(seed, _stream_id(kind, n, v)))
        for kind in kind_list
        for n in n_values
        for v in cell_vs(kind, n)
    ]
