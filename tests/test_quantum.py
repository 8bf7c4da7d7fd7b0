import numpy as np
import pytest

from conftest import (
    DegenerateStream,
    collapse,
    complex_states,
    pure_state_distributions,
    sequential_random_basis,
)
from dofcount import RandomStream, quantum
from dofcount.errors import InvariantError, ValidationError
from dofcount.quantum import (
    _MAX_BASIS_ATTEMPTS,
    _PIVOT_TOL,
    DensityState,
    MeasurementBasis,
    ObservableSet,
    _checked_probabilities,
    measurement_distribution,
    random_basis,
    random_observable_set,
    random_pure_state,
    random_state_rows,
)

# Entries of unit vectors and probabilities are at most 1, so a few ulps of
# float64 bound any rounding difference between two summation orders.
ROUNDING_TOL = 8 * np.finfo(float).eps
NO_BASIS = rf"^no nondegenerate basis draw in {_MAX_BASIS_ATTEMPTS} attempts$"

STANDARD_2 = MeasurementBasis(np.eye(2))
UNBIASED_2 = MeasurementBasis(np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def _gram_schmidt(a: np.ndarray) -> list[np.ndarray] | None:
    """Reference orthonormalization: modified Gram-Schmidt on the columns of
    ``a``, with one re-orthogonalization pass; None for a degenerate draw."""
    n = a.shape[0]
    rows: list[np.ndarray] = []
    for j in range(n):
        v = a[:, j].astype(complex)
        for _ in range(2):  # second pass restores orthogonality lost to roundoff
            for q in rows:
                v = v - np.vdot(q, v) * q
        norm = np.linalg.norm(v)
        if norm < _PIVOT_TOL:
            return None
        rows.append(v / norm)
    return rows


def ket0_state():
    return DensityState(np.diag([1.0, 0.0]))


def maximally_mixed(n):
    return DensityState(np.eye(n) / n)


class TestDensityState:
    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match=r"^density matrix must be square, got shape \(1, 2\)$"):
            DensityState(np.array([[0.5, 0.5]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityState(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityState(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityState(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize(
        "matrix", [np.full((2, 2), np.nan), [[0.5, np.inf], [np.inf, 0.5]]]
    )
    def test_rejects_non_finite(self, matrix):
        with pytest.raises(ValidationError, match="NaN or infinity"):
            DensityState(matrix)

    def test_matrix_is_frozen(self):
        state = maximally_mixed(2)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 9.0


class TestMeasurementBasis:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValidationError):
            MeasurementBasis(np.array([[1.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="NaN or infinity"):
            MeasurementBasis([[bad, 0], [0, 1]])

    def test_observable_set_needs_a_basis(self):
        with pytest.raises(ValidationError, match=r"^observable set needs at least one basis$"):
            ObservableSet(np.empty((0, 2, 2), dtype=complex))
        with pytest.raises(ValidationError, match=r"^observable set needs at least one basis$"):
            random_observable_set(2, 0, rng=RandomStream(0))


class TestRandomPureState:
    def test_unit_trace(self):
        state = random_pure_state(2, RandomStream(0))
        assert abs(np.trace(state.matrix).real - 1.0) < 1e-12

    def test_deterministic_under_seed(self):
        a = random_pure_state(2, RandomStream(5, 1))
        b = random_pure_state(2, RandomStream(5, 1))
        assert np.array_equal(a.matrix, b.matrix)

    def test_rank_one(self):
        state = random_pure_state(4, RandomStream(3))
        eigenvalues = np.linalg.eigvalsh(state.matrix)
        assert abs(eigenvalues[-1] - 1.0) < 1e-10
        assert np.all(np.abs(eigenvalues[:-1]) < 1e-10)

    def test_thousand_sample_mean_is_maximally_mixed(self):
        # Monte Carlo oracle: E[|psi><psi|] = I/n for isotropic psi.
        rng = RandomStream(2024)
        mean = np.zeros((3, 3), dtype=complex)
        for _ in range(1000):
            mean += random_pure_state(3, rng).matrix
        mean /= 1000
        assert np.max(np.abs(mean - np.eye(3) / 3)) < 0.05

    def test_bad_dimension(self):
        with pytest.raises(ValidationError, match=r"^dimension must be at least 2, got 1$"):
            random_pure_state(1, RandomStream(0))


def as_complex(rows):
    """State rows ``[Re psi | Im psi]`` as complex vectors."""
    n = rows.shape[1] // 2
    return rows[:, :n] + 1j * rows[:, n:]


class TestRandomPureStates:
    """``random_state_rows``: the batched state draw of the K path."""

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_batch_equals_sequential_draws(self, n):
        batch = as_complex(random_state_rows(n, 600, RandomStream(11, n)))
        rng = RandomStream(11, n)
        for psi in batch:
            rho = random_pure_state(n, rng).matrix
            assert np.array_equal(rho, np.outer(psi, psi.conj()))

    def test_batch_matches_literal_vector_draws(self):
        # the per-state formula the batch replaces: n real parts, then n
        # imaginary parts, then normalization, one state at a time
        batch = as_complex(random_state_rows(5, 40, RandomStream(3)))
        rng = RandomStream(3)
        for psi in batch:
            expected = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            expected /= np.linalg.norm(expected)
            assert np.max(np.abs(psi - expected)) <= ROUNDING_TOL

    def test_rows_are_unit_vectors(self):
        batch = random_state_rows(4, 1100, RandomStream(8))
        assert batch.shape == (1100, 8)
        assert np.max(np.abs(np.linalg.norm(batch, axis=1) - 1.0)) <= ROUNDING_TOL

    def test_rows_are_the_draw_itself(self):
        # [Re psi | Im psi] is the (count, 2, n) draw read as (count, 2n),
        # normalized in place: the same buffer, no copy
        drawn = []

        class Recording:
            def standard_normal(self, size):
                drawn.append(RandomStream(5).standard_normal(size))
                return drawn[-1]

        rows = random_state_rows(3, 4, Recording())
        assert np.shares_memory(rows, drawn[0])
        psi = complex_states(3, 4, RandomStream(5))
        assert np.max(np.abs(as_complex(rows) - psi)) <= ROUNDING_TOL

    @pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (7, 2), (12, 3)])
    def test_vector_check_accepts_what_the_density_check_accepts(self, n, seed):
        for psi in as_complex(random_state_rows(n, 200, RandomStream(seed, n))):
            DensityState(np.outer(psi, psi.conj()))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "entries, value",
        [((1, 1), np.nan), ((0, 2), np.inf), (slice(None), 0.0), (slice(None), 1e200)],
    )
    def test_vector_check_rejects_what_the_density_check_rejects(
        self, monkeypatch, entries, value
    ):
        # state 2 of the draw is injected: one NaN or inf entry, all zeros
        # (no direction to normalize), or entries whose squared norm
        # overflows (normalized to the zero vector)
        parts = RandomStream(6).standard_normal((4, 2, 3))
        parts[2][entries] = value
        monkeypatch.setattr(RandomStream, "standard_normal", lambda self, size: parts.copy())
        with pytest.raises(InvariantError):
            random_state_rows(3, 4, RandomStream(0))
        psi = parts[:, 0] + 1j * parts[:, 1]
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        for row in (0, 1, 3):
            DensityState(np.outer(psi[row], psi[row].conj()))
        with pytest.raises(ValidationError):
            DensityState(np.outer(psi[2], psi[2].conj()))

    def test_bad_arguments(self):
        with pytest.raises(ValidationError, match=r"^dimension must be at least 2, got 1$"):
            random_state_rows(1, 3, RandomStream(0))
        with pytest.raises(ValidationError):
            random_state_rows(3, 0, RandomStream(0))


class TestRandomBasis:
    def test_gram_matrix_is_identity(self):
        basis = random_basis(2, RandomStream(1))
        gram = basis.vectors @ basis.vectors.conj().T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10

    def test_four_unit_vectors(self):
        basis = random_basis(4, RandomStream(2))
        assert basis.vectors.shape == (4, 4)
        norms = np.linalg.norm(basis.vectors, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_deterministic_under_seed(self):
        a = random_basis(3, RandomStream(8, 2))
        b = random_basis(3, RandomStream(8, 2))
        assert np.array_equal(a.vectors, b.vectors)

    def test_degenerate_draws_surface_after_retries(self):
        class ZeroStream:
            def standard_normal(self, size):
                return np.zeros(size)

        with pytest.raises(InvariantError, match=NO_BASIS):
            random_basis(2, ZeroStream())

    @pytest.mark.parametrize("n", range(2, 13))
    def test_qr_basis_equals_gram_schmidt_on_same_draw(self, n):
        for seed in range(3):
            basis = random_basis(n, RandomStream(seed, n))
            rng = RandomStream(seed, n)
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            expected = np.array(_gram_schmidt(a))
            assert np.max(np.abs(basis.vectors - expected)) < 1e-12



class TestRandomObservableSet:
    """The batched basis draw against one draw, QR and phase fix per basis."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_bases_equal_sequential_draws_bit_for_bit(self, n):
        for seed in range(3):
            for m in (1, 2, n + 1):
                vectors = random_observable_set(n, m, rng=RandomStream(seed, n)).vectors
                rng = RandomStream(seed, n)
                expected = np.stack([sequential_random_basis(n, rng) for _ in range(m)])
                assert np.array_equal(vectors, expected), (seed, m)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_random_basis_is_the_sequential_draw(self, n):
        expected = sequential_random_basis(n, RandomStream(4, n))
        assert np.array_equal(random_basis(n, RandomStream(4, n)).vectors, expected)

    @pytest.mark.parametrize("bases_per_block", [None, 1, 2, 3])
    @pytest.mark.parametrize(
        "zeroed", [{0}, {3}, {1, 2, 4}, set(range(_MAX_BASIS_ATTEMPTS - 1))], ids=str
    )
    def test_degenerate_draw_is_redrawn_as_in_sequence(self, monkeypatch, zeroed, bases_per_block):
        # a degenerate draw is replaced by the next one in the stream, so
        # every later basis moves on by one draw, across block edges too
        n, m = 3, 5
        if bases_per_block is not None:
            monkeypatch.setattr(quantum, "_DRAW_BLOCK", bases_per_block * n * n)
        vectors = random_observable_set(n, m, rng=DegenerateStream(7, n, zeroed)).vectors
        rng = DegenerateStream(7, n, zeroed)
        expected = np.stack([sequential_random_basis(n, rng) for _ in range(m)])
        assert np.array_equal(vectors, expected)
        # the stub did force a redraw: the bases are not the plain stream's
        assert not np.array_equal(vectors, random_observable_set(n, m, rng=RandomStream(7)).vectors)

    @pytest.mark.parametrize("bases_per_block", [None, 2])
    def test_too_many_degenerate_draws_in_a_row_raise(self, monkeypatch, bases_per_block):
        if bases_per_block is not None:
            monkeypatch.setattr(quantum, "_DRAW_BLOCK", bases_per_block * 9)
        zeroed = set(range(2, 2 + _MAX_BASIS_ATTEMPTS))
        rng = DegenerateStream(7, 3, zeroed)
        with pytest.raises(InvariantError, match=NO_BASIS):
            [sequential_random_basis(3, rng) for _ in range(4)]
        with pytest.raises(InvariantError, match=NO_BASIS):
            random_observable_set(3, 4, rng=DegenerateStream(7, 3, zeroed))

    def test_blocked_draws_equal_one_unblocked_draw(self, monkeypatch):
        n, m = 4, 11
        whole = random_observable_set(n, m, rng=RandomStream(2)).vectors
        monkeypatch.setattr(quantum, "_DRAW_BLOCK", 3 * n * n)  # blocks of 3, 3, 3 and 2 bases
        assert np.array_equal(random_observable_set(n, m, rng=RandomStream(2)).vectors, whole)

    @pytest.mark.parametrize("n, m", [(-3, None), (1, 0), (0, -2), (1, None)])
    def test_dimension_is_checked_before_the_basis_count(self, n, m):
        with pytest.raises(ValidationError, match=rf"^dimension must be at least 2, got {n}$"):
            random_observable_set(n, m, rng=RandomStream(0))

    def test_stack_and_bases_make_the_same_set(self):
        obs = random_observable_set(3, 4, rng=RandomStream(1))
        rebuilt = ObservableSet(np.stack([MeasurementBasis(v).vectors for v in obs.vectors]))
        assert np.array_equal(rebuilt.vectors, obs.vectors)
        assert rebuilt.vectors.shape == (4, 3, 3)
        with pytest.raises(ValueError):
            obs.vectors[0, 0, 0] = 1.0

    @pytest.mark.parametrize("bases_per_block", [None, 1, 2])
    def test_every_basis_of_a_stack_is_checked(self, monkeypatch, bases_per_block):
        if bases_per_block is not None:
            monkeypatch.setattr(quantum, "_DRAW_BLOCK", bases_per_block * 9)
        vectors = random_observable_set(3, 5, rng=RandomStream(1)).vectors.copy()
        vectors[4, 0] *= 1.001
        with pytest.raises(ValidationError, match="not orthonormal"):
            ObservableSet(vectors)
        vectors[4, 0] = np.nan
        with pytest.raises(ValidationError, match="NaN or infinity"):
            ObservableSet(vectors)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4), (0, 3, 3), (1, 0, 0)])
    def test_stack_shape_is_checked(self, shape):
        with pytest.raises(ValidationError):
            ObservableSet(np.zeros(shape, dtype=complex))


class TestMeasurementDistribution:
    def test_eigenstate(self):
        probs = measurement_distribution(ket0_state(), STANDARD_2)
        assert np.allclose(probs, [1.0, 0.0], atol=1e-12)

    def test_unbiased_basis(self):
        probs = measurement_distribution(ket0_state(), UNBIASED_2)
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_maximally_mixed(self):
        probs = measurement_distribution(maximally_mixed(2), UNBIASED_2)
        assert np.max(np.abs(probs - 0.5)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match=r"^state dimension 3 != basis dimension 2$"):
            measurement_distribution(maximally_mixed(3), STANDARD_2)

    def test_born_normalization_over_random_pairs(self):
        rng = RandomStream(99)
        for i in range(1000):
            n = 2 + i % 3
            state = random_pure_state(n, rng)
            basis = random_basis(n, rng)
            probs = measurement_distribution(state, basis)
            assert abs(float(np.sum(probs)) - 1.0) < 1e-10
            assert np.min(probs) >= 0.0


class TestPureStateDistributions:
    def test_rows_match_density_matrix_born_rule(self):
        rng = RandomStream(21)
        basis = random_basis(4, rng)
        psi = complex_states(4, 50, rng)
        probs = pure_state_distributions(psi, basis)
        assert probs.shape == (50, 4)
        for row, vector in zip(probs, psi):
            state = DensityState(np.outer(vector, vector.conj()))
            expected = measurement_distribution(state, basis)
            assert np.max(np.abs(row - expected)) < 1e-12

    def test_unnormalized_states_fail_the_sum_check(self):
        psi = complex_states(3, 5, RandomStream(4))
        psi[2] *= 1.01
        with pytest.raises(InvariantError):
            pure_state_distributions(psi, random_basis(3, RandomStream(5)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_states_are_invariant_errors(self, bad):
        with pytest.raises(InvariantError, match="NaN or infinity"):
            pure_state_distributions(np.array([[bad, 1.0]]), STANDARD_2)

    @pytest.mark.parametrize("raw", [[np.nan, 1.0], [np.inf, 0.0], [0.5, -np.inf]])
    def test_non_finite_probabilities_are_invariant_errors(self, raw):
        with pytest.raises(InvariantError, match="NaN or infinity"):
            _checked_probabilities(np.array(raw))

    def test_negative_probability_is_an_invariant_error(self):
        with pytest.raises(InvariantError, match=r"^negative Born probability -0.5$"):
            _checked_probabilities(np.array([1.5, -0.5]))

    def test_dimension_mismatch(self):
        psi = complex_states(3, 2, RandomStream(0))
        with pytest.raises(ValidationError, match=r"^state dimension 3 != basis dimension 2$"):
            pure_state_distributions(psi, STANDARD_2)

    @pytest.mark.parametrize("bases_per_block", [1, 2, 3])
    def test_bases_in_column_blocks_give_the_same_rows(self, monkeypatch, bases_per_block):
        # many bases are multiplied a column block at a time; each block's
        # Born rows must match |psi B^dagger|^2 one basis at a time
        rng = RandomStream(12)
        obs = random_observable_set(4, 7, rng=rng)
        psi = complex_states(4, 30, rng)
        expected = np.hstack([np.abs(psi @ b.conj().T) ** 2 for b in obs.vectors])
        monkeypatch.setattr(quantum, "_DRAW_BLOCK", bases_per_block * 16)
        assert np.max(np.abs(pure_state_distributions(psi, obs) - expected)) < 1e-12


class TestCollapse:
    def test_projects_onto_outcome_vector(self):
        state = collapse(maximally_mixed(2), STANDARD_2, 0)
        assert np.allclose(state.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_idempotent(self):
        once = collapse(maximally_mixed(2), UNBIASED_2, 1)
        twice = collapse(once, UNBIASED_2, 1)
        assert np.allclose(once.matrix, twice.matrix, atol=1e-12)

    def test_mixed_collapse_then_standard_measurement(self):
        # I/2 collapsed onto (1,1)/sqrt(2) is |+><+|; standard-basis Born
        # probabilities of |+><+| are (1/2, 1/2) by direct matrix arithmetic.
        plus = collapse(maximally_mixed(2), UNBIASED_2, 0)
        probs = measurement_distribution(plus, STANDARD_2)
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_zero_probability_outcome_rejected(self):
        with pytest.raises(ValidationError, match=r"^outcome 1 has probability 0$"):
            collapse(ket0_state(), STANDARD_2, 1)

    def test_outcome_index_range(self):
        with pytest.raises(ValidationError):
            collapse(ket0_state(), STANDARD_2, 5)

    def test_repeatability(self):
        rng = RandomStream(31)
        for i in range(50):
            n = 2 + i % 3
            state = random_pure_state(n, rng)
            basis = random_basis(n, rng)
            probs = measurement_distribution(state, basis)
            outcome = int(np.argmax(probs))
            after = collapse(state, basis, outcome)
            repeat = measurement_distribution(after, basis)
            assert abs(repeat[outcome] - 1.0) < 1e-10

    def test_disturbance_between_repeats(self):
        # |0>, unbiased measurement, collapse, then standard basis: the
        # intervening measurement has re-randomized Z, like the card box's
        # Face press between two Suit presses.
        after = collapse(ket0_state(), UNBIASED_2, 0)
        probs = measurement_distribution(after, STANDARD_2)
        assert np.max(np.abs(probs - 0.5)) < 1e-10
