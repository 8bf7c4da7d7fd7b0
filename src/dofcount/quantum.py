"""Minimal finite-dimensional quantum reference system.

Just enough quantum mechanics for a degrees-of-freedom comparison: density
matrices, orthonormal measurement bases, Born-rule outcome probabilities,
and sharp projective collapse.  Collapse onto the observed basis vector is
the quantum counterpart of the card box rebuilding its subdeck: repeating
the same measurement is then certain, while a different basis
re-randomizes.

No POVMs, channels, or composite systems.  "Superselection" appears only
as an ObservableSet with fewer bases than the dimension allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensionError,
    DegenerateDrawError,
    DimensionMismatchError,
    InvariantError,
    ValidationError,
    ZeroProbabilityOutcomeError,
)
from .rng import RandomStream

# Tolerances for the floating-point (quantum) side, all in one place.
# The classical side is exact rational and needs none of these.
HERMITICITY_TOL = 1e-12      # elementwise |rho - rho^dagger|
TRACE_TOL = 1e-12            # |tr(rho) - 1|
EIGENVALUE_FLOOR = -1e-12    # smallest admissible eigenvalue
ORTHONORMALITY_TOL = 1e-10   # elementwise |Gram - I|
PROBABILITY_FLOOR = -1e-12   # smallest admissible Born probability
PROBABILITY_SUM_TOL = 1e-10  # |sum of Born probabilities - 1|
COLLAPSE_MIN_PROBABILITY = 1e-12
RANK_TOL = 1e-9              # relative singular value threshold


def _check_density_matrices(m: np.ndarray) -> None:
    """Hermitian, unit-trace and eigenvalue-floor checks on one (n, n) matrix
    or a stack of them (..., n, n)."""
    if np.max(np.abs(m - np.swapaxes(m.conj(), -1, -2))) > HERMITICITY_TOL:
        raise ValidationError("density matrix is not Hermitian")
    trace = np.trace(m, axis1=-2, axis2=-1)
    if np.max(np.abs(trace.real - 1.0)) > TRACE_TOL or np.max(np.abs(trace.imag)) > TRACE_TOL:
        raise ValidationError("density matrix trace is not 1")
    if np.min(np.linalg.eigvalsh(m)) < EIGENVALUE_FLOOR:
        raise ValidationError("density matrix has a negative eigenvalue")


@dataclass(frozen=True, eq=False)
class DensityState:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {m.shape}")
        _check_density_matrices(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Orthonormal basis; row k of ``vectors`` is the k-th outcome vector."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValidationError(f"basis must be n x n, got shape {v.shape}")
        gram = v @ v.conj().T
        if np.max(np.abs(gram - np.eye(v.shape[0]))) > ORTHONORMALITY_TOL:
            raise ValidationError("basis vectors are not orthonormal")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class ObservableSet:
    """The bases an experimenter is allowed to measure.

    Restricting the number of bases below dimension+1 models a system with
    fewer physically measurable variables than the dimension admits.
    """

    bases: tuple[MeasurementBasis, ...]

    def __post_init__(self):
        if not self.bases:
            raise ValidationError("observable set needs at least one basis")
        dims = {basis.dimension for basis in self.bases}
        if len(dims) != 1:
            raise DimensionMismatchError(f"bases have mixed dimensions {sorted(dims)}")

    @property
    def dimension(self) -> int:
        return self.bases[0].dimension

    @property
    def num_bases(self) -> int:
        return len(self.bases)


# States validated per chunk: bounds the (chunk, n, n) density stack at large n.
_DENSITY_CHECK_CHUNK = 512


def random_pure_states(n: int, count: int, rng: RandomStream) -> np.ndarray:
    """``count`` normalized complex Gaussian vectors, one per row.

    The single ``(count, 2, n)`` draw yields the same numbers as ``count``
    draws of n real parts followed by n imaginary parts, so a batch equals
    that many ``random_pure_state`` calls made in sequence.  Each state's
    density matrix gets the ``DensityState`` checks, a chunk at a time.
    """
    if n < 2:
        raise BadDimensionError(f"dimension must be at least 2, got {n}")
    if count < 1:
        raise ValidationError(f"state count must be at least 1, got {count}")
    parts = rng.standard_normal((count, 2, n))
    psi = parts[:, 0] + 1j * parts[:, 1]
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    for start in range(0, count, _DENSITY_CHECK_CHUNK):
        chunk = psi[start : start + _DENSITY_CHECK_CHUNK]
        _check_density_matrices(chunk[:, :, None] * chunk[:, None, :].conj())
    return psi


def random_pure_state(n: int, rng: RandomStream) -> DensityState:
    """Rank-one projector of a normalized complex Gaussian vector."""
    psi = random_pure_states(n, 1, rng)[0]
    return DensityState(np.outer(psi, psi.conj()))


_PIVOT_TOL = 1e-8
_MAX_BASIS_ATTEMPTS = 8


def random_basis(n: int, rng: RandomStream) -> MeasurementBasis:
    """Orthonormalized complex Gaussian matrix, Haar-distributed.

    QR of the draw, with each column's phase fixed so that R has a positive
    diagonal (Mezzadri 2007, math-ph/0609050): the unique such Q is the one
    Gram-Schmidt gives.  A draw with a pivot ``|r_jj|`` below ``_PIVOT_TOL``
    has (numerically) dependent columns and is thrown away and redrawn.
    """
    if n < 2:
        raise BadDimensionError(f"dimension must be at least 2, got {n}")
    for _ in range(_MAX_BASIS_ATTEMPTS):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(a)
        d = np.diagonal(r)
        if np.min(np.abs(d)) >= _PIVOT_TOL:
            return MeasurementBasis((q * (d / np.abs(d))).T)
    raise DegenerateDrawError(
        f"no nondegenerate basis draw in {_MAX_BASIS_ATTEMPTS} attempts"
    )


def random_observable_set(
    n: int, num_bases: int | None = None, rng: RandomStream | None = None
) -> ObservableSet:
    """``num_bases`` random bases; defaults to n+1, enough for full tomography.

    n+1 bases contribute 1 + (n+1)(n-1) = n**2 independent outcome
    probabilities, matching the dimension of the space of states.
    """
    if rng is None:
        raise ValidationError("random_observable_set requires a RandomStream")
    m = n + 1 if num_bases is None else num_bases
    if m < 1:
        raise ValidationError("observable set needs at least one basis")
    return ObservableSet(tuple(random_basis(n, rng) for _ in range(m)))


def measurement_distribution(
    state: DensityState, basis: MeasurementBasis
) -> np.ndarray:
    """Born probabilities p_k = <b_k| rho |b_k>, clamped to [0, 1]."""
    if state.dimension != basis.dimension:
        raise DimensionMismatchError(
            f"state dimension {state.dimension} != basis dimension {basis.dimension}"
        )
    raw = np.einsum("ki,ij,kj->k", basis.vectors.conj(), state.matrix, basis.vectors)
    return _checked_probabilities(raw.real)


def pure_state_distributions(psi: np.ndarray, basis: MeasurementBasis) -> np.ndarray:
    """Born probabilities |<b_k|psi_e>|^2 of a stack of state vectors.

    Row e holds the outcome distribution of the state in row e of ``psi``:
    ``measurement_distribution`` for pure states, without density matrices.
    """
    if psi.shape[-1] != basis.dimension:
        raise DimensionMismatchError(
            f"state dimension {psi.shape[-1]} != basis dimension {basis.dimension}"
        )
    amplitudes = psi @ basis.vectors.conj().T
    return _checked_probabilities(amplitudes.real**2 + amplitudes.imag**2)


def _checked_probabilities(raw: np.ndarray) -> np.ndarray:
    """Clamp raw Born probabilities (outcomes on the last axis) to [0, 1].

    Raises ``InvariantError`` if any is below the floor, or if any
    distribution's sum is off 1 by more than the tolerance.
    """
    if np.min(raw) < PROBABILITY_FLOOR:
        raise InvariantError(f"negative Born probability {np.min(raw)}")
    probs = np.clip(raw, 0.0, 1.0)
    sums = np.sum(probs, axis=-1)
    error = np.abs(sums - 1.0)
    if np.max(error) > PROBABILITY_SUM_TOL:
        raise InvariantError(f"Born probabilities sum to {sums.flat[np.argmax(error)]}")
    return probs


def collapse(state: DensityState, basis: MeasurementBasis, outcome: int) -> DensityState:
    """Sharp projective update: the state becomes |b_k><b_k|.

    Re-measuring the same basis immediately afterwards returns outcome k
    with certainty, mirroring the card box's subdeck rebuild.
    """
    probs = measurement_distribution(state, basis)
    if not 0 <= outcome < len(probs):
        raise ValidationError(f"outcome index {outcome} out of range")
    if probs[outcome] <= COLLAPSE_MIN_PROBABILITY:
        raise ZeroProbabilityOutcomeError(
            f"outcome {outcome} has probability {probs[outcome]:.3g}"
        )
    b = basis.vectors[outcome]
    return DensityState(np.outer(b, b.conj()))
