"""Minimal finite-dimensional quantum reference system.

Just enough quantum mechanics for a degrees-of-freedom comparison: density
matrices, orthonormal measurement bases and Born-rule outcome probabilities.

No POVMs, channels, or composite systems.  "Superselection" appears only
as an ObservableSet with fewer bases than the dimension allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, ValidationError
from .rng import RandomStream

# Tolerances for the floating-point (quantum) side, all in one place.
# The classical side is exact rational and needs none of these.
HERMITICITY_TOL = 1e-12      # elementwise |rho - rho^dagger|
TRACE_TOL = 1e-12            # |tr(rho) - 1|
EIGENVALUE_FLOOR = -1e-12    # smallest admissible eigenvalue
ORTHONORMALITY_TOL = 1e-10   # elementwise |Gram - I|
PROBABILITY_FLOOR = -1e-12   # smallest admissible Born probability
PROBABILITY_SUM_TOL = 1e-10  # |sum of Born probabilities - 1|
RANK_TOL = 1e-9              # relative singular value threshold


@dataclass(frozen=True, eq=False)
class DensityState:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValidationError("density matrix contains NaN or infinity")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValidationError("density matrix is not Hermitian")
        trace = np.trace(m)
        if abs(trace.real - 1.0) > TRACE_TOL or abs(trace.imag) > TRACE_TOL:
            raise ValidationError("density matrix trace is not 1")
        if np.min(np.linalg.eigvalsh(m)) < EIGENVALUE_FLOOR:
            raise ValidationError("density matrix has a negative eigenvalue")
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
        object.__setattr__(self, "vectors", _checked_bases(self.vectors, 2))

    @property
    def dimension(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True, eq=False)
class ObservableSet:
    """The bases an experimenter is allowed to measure.

    Restricting the number of bases below dimension+1 models a system with
    fewer physically measurable variables than the dimension admits.  Made
    from an ``(M, n, n)`` ndarray and nothing else, it keeps the checked
    stack: basis m's vectors are ``vectors[m]``.
    """

    vectors: np.ndarray

    def __post_init__(self):
        if not isinstance(self.vectors, np.ndarray):
            raise ValidationError(f"bases must be an ndarray, got {type(self.vectors).__name__}")
        vectors = _checked_bases(self.vectors, 3)
        if not len(vectors):
            raise ValidationError("observable set needs at least one basis")
        object.__setattr__(self, "vectors", vectors)


_DRAW_BLOCK = 2**16  # entries drawn or multiplied per call: bounds memory whatever the run


def _checked_bases(vectors, ndim: int) -> np.ndarray:
    """Read-only complex ``vectors``, each ``n x n`` basis on the last two axes
    checked finite and orthonormal, ``_DRAW_BLOCK`` Gram entries at a time."""
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != ndim or v.shape[-1] != v.shape[-2] or not v.shape[-1]:
        raise ValidationError(f"basis must be n x n, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValidationError("basis contains NaN or infinity")
    n = v.shape[-1]
    stack, step = v.reshape(-1, n, n), max(1, _DRAW_BLOCK // (n * n))
    for block in (stack[i : i + step] for i in range(0, len(stack), step)):
        if np.max(np.abs(block @ block.conj().transpose(0, 2, 1) - np.eye(n))) > ORTHONORMALITY_TOL:
            raise ValidationError("basis vectors are not orthonormal")
    v.flags.writeable = False
    return v


def random_state_rows(n: int, count: int, rng: RandomStream) -> np.ndarray:
    """``count`` normalized complex Gaussian vectors as real rows ``[Re psi | Im psi]``.

    A row is the ``(count, 2, n)`` draw itself, read as ``(count, 2n)`` and
    normalized in place: the same numbers as ``count`` one-state draws in
    sequence.  Each row is checked once, as a vector: finite, with squared
    norm within ``TRACE_TOL`` of 1, else ``InvariantError``.  That is the
    whole ``DensityState`` check on rho = psi psi^dagger: rho is Hermitian
    exactly, tr rho = |psi|^2, and its spectrum is {|psi|^2, 0, ..., 0}.
    """
    if n < 2:
        raise ValidationError(f"dimension must be at least 2, got {n}")
    if count < 1:
        raise ValidationError(f"state count must be at least 1, got {count}")
    rows = rng.standard_normal((count, 2, n)).reshape(count, 2 * n)
    rows /= np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    if not np.isfinite(rows).all():
        raise InvariantError("a drawn state contains NaN or infinity")
    if np.max(np.abs(np.einsum("ij,ij->i", rows, rows) - 1.0)) > TRACE_TOL:
        raise InvariantError("a drawn state does not have unit norm")
    return rows


def random_pure_state(n: int, rng: RandomStream) -> DensityState:
    """Rank-one projector of a normalized complex Gaussian vector."""
    row = random_state_rows(n, 1, rng)[0]
    psi = row[:n] + 1j * row[n:]
    return DensityState(np.outer(psi, psi.conj()))


_PIVOT_TOL = 1e-8
_MAX_BASIS_ATTEMPTS = 8


def random_basis(n: int, rng: RandomStream) -> MeasurementBasis:
    """One Haar-distributed basis, drawn as ``random_observable_set`` draws each."""
    return MeasurementBasis(random_observable_set(n, 1, rng=rng).vectors[0])


def random_observable_set(n: int, m: int, *, rng: RandomStream) -> ObservableSet:
    """``m`` Haar-distributed bases drawn from ``rng``; n+1 are enough for full tomography.

    n+1 bases contribute 1 + (n+1)(n-1) = n**2 independent outcome
    probabilities, matching the dimension of the space of states.

    Each basis is the QR of a complex Gaussian draw, its columns' phases
    fixed so that R has a positive diagonal (Mezzadri 2007, math-ph/0609050):
    the Q Gram-Schmidt gives.  A draw with a pivot ``|r_jj|`` below
    ``_PIVOT_TOL`` is degenerate and the next draw replaces it, up to
    ``_MAX_BASIS_ATTEMPTS`` per basis.  Draws come in stacks of at most
    ``_DRAW_BLOCK`` entries, each factored by one stacked QR.
    """
    if n < 2:
        raise ValidationError(f"dimension must be at least 2, got {n}")
    if m < 1:
        raise ValidationError("observable set needs at least one basis")
    vectors = np.empty((m, n, n), dtype=complex)
    done = failed = 0
    while done < m:
        parts = rng.standard_normal((min(m - done, max(1, _DRAW_BLOCK // (n * n))), 2, n, n))
        q, r = np.linalg.qr(parts[:, 0] + 1j * parts[:, 1])
        d = np.diagonal(r, axis1=1, axis2=2)
        kept = np.min(np.abs(d), axis=1) >= _PIVOT_TOL
        for ok in kept.tolist():
            failed = 0 if ok else failed + 1
            if failed == _MAX_BASIS_ATTEMPTS:
                raise InvariantError(f"no nondegenerate basis draw in {failed} attempts")
        q, d = q[kept], d[kept]
        vectors[done : done + len(q)] = (q * (d / np.abs(d))[:, None, :]).transpose(0, 2, 1)
        done += len(q)
    return ObservableSet(vectors)


def measurement_distribution(state: DensityState, basis: MeasurementBasis) -> np.ndarray:
    """Born probabilities p_k = <b_k| rho |b_k>, clamped to [0, 1]."""
    if state.dimension != basis.dimension:
        raise ValidationError(
            f"state dimension {state.dimension} != basis dimension {basis.dimension}"
        )
    raw = np.einsum("ki,ij,kj->k", basis.vectors.conj(), state.matrix, basis.vectors)
    return _checked_probabilities(raw.real)


def born_rows(states: np.ndarray, vectors: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Checked Born probabilities of real state rows ``[Re psi | Im psi]``, into ``out``.

    Row e of the C-contiguous ``out`` gets state e's outcome distributions
    in the bases of the ``(M, n, n)`` stack ``vectors``, one after another.
    With the conjugated bases side by side, ``W[i, m*n + k] =
    conj(vectors[m, k, i])``, a row times ``[[Re W, Im W], [-Im W, Re W]]``
    is ``[Re a | Im a]`` for the amplitudes ``a = psi W``: one real GEMM per
    ``_DRAW_BLOCK`` basis entries.
    """
    n = vectors.shape[-1]
    step = max(1, _DRAW_BLOCK // (n * n))
    for j in range(0, len(vectors), step):
        block = vectors[j : j + step]
        w = np.empty((2, n, 2, len(block), n))  # w[0, i, 0, m, k] = Re W[i, m*n + k]
        w[0, :, 0] = w[1, :, 1] = block.real.transpose(2, 0, 1)
        w[1, :, 0] = block.imag.transpose(2, 0, 1)
        w[0, :, 1] = -w[1, :, 0]
        a = (states @ w.reshape(2 * n, -1)).reshape(len(out), 2, -1)
        np.einsum("ikj,ikj->ij", a, a, out=out[:, j * n : (j + step) * n])
    _checked_probabilities(out.reshape(len(out), -1, n))
    return out


def _checked_probabilities(raw: np.ndarray) -> np.ndarray:
    """Clamp raw Born probabilities (outcomes on the last axis) to [0, 1], in place.

    Raises ``InvariantError`` if any is not finite or below the floor, or
    if any distribution's sum is off 1 by more than the tolerance.
    """
    low, high = np.min(raw), np.max(raw)  # NaN propagates to both
    if not (np.isfinite(low) and np.isfinite(high)):
        raise InvariantError("Born probabilities contain NaN or infinity")
    if low < PROBABILITY_FLOOR:
        raise InvariantError(f"negative Born probability {low}")
    if low < 0.0 or high > 1.0:
        np.clip(raw, 0.0, 1.0, out=raw)
    sums = raw @ np.ones(raw.shape[-1])
    error = np.abs(sums - 1.0)
    if np.max(error) > PROBABILITY_SUM_TOL:
        raise InvariantError(f"Born probabilities sum to {np.ravel(sums)[np.argmax(error)]}")
    return raw
