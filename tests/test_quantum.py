import numpy as np
import pytest

from dofcount import (
    DensityState,
    MeasurementBasis,
    ObservableSet,
    RandomStream,
    collapse,
    measurement_distribution,
    pure_state_distributions,
    random_basis,
    random_observable_set,
    random_pure_state,
    random_pure_states,
)
from dofcount.errors import (
    BadDimensionError,
    DegenerateDrawError,
    DimensionMismatchError,
    InvariantError,
    ValidationError,
    ZeroProbabilityOutcomeError,
)
from dofcount.quantum import _PIVOT_TOL, _checked_probabilities

# Entries of unit vectors and probabilities are at most 1, so a few ulps of
# float64 bound any rounding difference between two summation orders.
ROUNDING_TOL = 8 * np.finfo(float).eps

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

    def test_observable_set_needs_matching_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            ObservableSet((STANDARD_2, MeasurementBasis(np.eye(3))))

    def test_observable_set_needs_a_basis(self):
        with pytest.raises(ValidationError):
            ObservableSet(())


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
        with pytest.raises(BadDimensionError):
            random_pure_state(1, RandomStream(0))


class TestRandomPureStates:
    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_batch_equals_sequential_draws(self, n):
        batch = random_pure_states(n, 600, RandomStream(11, n))
        rng = RandomStream(11, n)
        for psi in batch:
            rho = random_pure_state(n, rng).matrix
            assert np.array_equal(rho, np.outer(psi, psi.conj()))

    def test_batch_matches_literal_vector_draws(self):
        # the per-state formula the batch replaces: n real parts, then n
        # imaginary parts, then normalization, one state at a time
        batch = random_pure_states(5, 40, RandomStream(3))
        rng = RandomStream(3)
        for psi in batch:
            expected = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            expected /= np.linalg.norm(expected)
            assert np.max(np.abs(psi - expected)) <= ROUNDING_TOL

    def test_rows_are_unit_vectors(self):
        batch = random_pure_states(4, 1100, RandomStream(8))
        assert batch.shape == (1100, 4)
        assert np.max(np.abs(np.linalg.norm(batch, axis=1) - 1.0)) <= ROUNDING_TOL

    @pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (7, 2), (12, 3)])
    def test_vector_check_accepts_what_the_density_check_accepts(self, n, seed):
        for psi in random_pure_states(n, 200, RandomStream(seed, n)):
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
            random_pure_states(3, 4, RandomStream(0))
        psi = parts[:, 0] + 1j * parts[:, 1]
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        for row in (0, 1, 3):
            DensityState(np.outer(psi[row], psi[row].conj()))
        with pytest.raises(ValidationError):
            DensityState(np.outer(psi[2], psi[2].conj()))

    def test_bad_arguments(self):
        with pytest.raises(BadDimensionError):
            random_pure_states(1, 3, RandomStream(0))
        with pytest.raises(ValidationError):
            random_pure_states(3, 0, RandomStream(0))


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

        with pytest.raises(DegenerateDrawError):
            random_basis(2, ZeroStream())

    @pytest.mark.parametrize("n", range(2, 13))
    def test_qr_basis_equals_gram_schmidt_on_same_draw(self, n):
        for seed in range(3):
            basis = random_basis(n, RandomStream(seed, n))
            rng = RandomStream(seed, n)
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            expected = np.array(_gram_schmidt(a))
            assert np.max(np.abs(basis.vectors - expected)) < 1e-12

    def test_default_observable_count_is_dimension_plus_one(self):
        obs = random_observable_set(3, rng=RandomStream(0))
        assert obs.num_bases == 4


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
        with pytest.raises(DimensionMismatchError):
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
        psi = random_pure_states(4, 50, rng)
        probs = pure_state_distributions(psi, basis)
        assert probs.shape == (50, 4)
        for row, vector in zip(probs, psi):
            state = DensityState(np.outer(vector, vector.conj()))
            expected = measurement_distribution(state, basis)
            assert np.max(np.abs(row - expected)) < 1e-12

    def test_unnormalized_states_fail_the_sum_check(self):
        psi = random_pure_states(3, 5, RandomStream(4))
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

    def test_dimension_mismatch(self):
        psi = random_pure_states(3, 2, RandomStream(0))
        with pytest.raises(DimensionMismatchError):
            pure_state_distributions(psi, STANDARD_2)


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
        with pytest.raises(ZeroProbabilityOutcomeError):
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
