import functools
import math
import re
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    Card,
    StuckStatesStream,
    all_cards,
    cardbox_spec,
    complex_states,
    count_row,
    deck_strategy,
    entries,
    enumerate_decks,
    exhaustive_fiducial_rank,
    frame_rank,
    full_ensemble_k,
    integer_row,
    literal_random_decks,
    matrix_rank_exact,
    pure_state_distributions,
    rank_growth,
    spec_strategy,
    urn_spec,
    whole_born_matrix,
)
from dofcount import Deck, RandomStream, SystemSpec, estimate_k, k_sweep, tomography, uniform_deck
from dofcount.cardbox import MAX_CARD_TYPES
from dofcount.cli import cli_main
from dofcount.errors import InvariantError, ValidationError
from dofcount.quantum import (
    RANK_TOL,
    DensityState,
    MeasurementBasis,
    ObservableSet,
    random_observable_set,
    random_pure_state,
    random_state_rows,
)
from dofcount.tomography import (
    ExactRowBasis,
    fiducial_vector_cardbox,
    fiducial_vector_quantum,
    matrix_rank_numeric,
    random_deck_ensemble,
)

DATA = Path(__file__).parent / "data"
cached_exhaustive_rank = functools.cache(exhaustive_fiducial_rank)


class TestFiducialVectorCardbox:
    def test_uniform_deck(self, four_card_deck):
        assert fiducial_vector_cardbox(four_card_deck) == (
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_point_state(self, four_card_spec):
        deck = Deck.from_counts(four_card_spec, {("K", "H"): 1})
        assert fiducial_vector_cardbox(deck) == (1, 0, 0, 1)

    def test_weighted_deck(self, weighted_deck):
        assert fiducial_vector_cardbox(weighted_deck) == (
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(3, 4),
            Fraction(1, 4),
        )

    @given(deck=deck_strategy())
    def test_blocks_sum_to_one_exactly(self, deck):
        vector = fiducial_vector_cardbox(deck)
        n = deck.spec.values_per_variable
        for i in range(deck.spec.num_variables):
            assert sum(vector[i * n : (i + 1) * n]) == Fraction(1)

    @given(deck=deck_strategy(), factor=st.integers(1, 9))
    def test_scaling_invariance(self, deck, factor):
        scaled = Deck.from_counts(deck.spec, {card.values: m * factor for card, m in entries(deck)})
        assert fiducial_vector_cardbox(scaled) == fiducial_vector_cardbox(deck)


class TestFiducialVectorQuantum:
    def test_eigenstate_single_basis(self):
        from test_quantum import STANDARD_2, ket0_state

        obs = ObservableSet(np.stack([STANDARD_2.vectors]))
        assert np.allclose(
            fiducial_vector_quantum(ket0_state(), obs), [1.0, 0.0], atol=1e-12
        )

    def test_maximally_mixed_three_bases(self):
        from test_quantum import maximally_mixed

        rng = RandomStream(0)
        obs = random_observable_set(2, 3, rng=rng)
        vector = fiducial_vector_quantum(maximally_mixed(2), obs)
        assert np.max(np.abs(vector - 0.5)) < 1e-12

    def test_standard_and_unbiased_bases(self):
        from test_quantum import STANDARD_2, UNBIASED_2, ket0_state

        obs = ObservableSet(np.stack([STANDARD_2.vectors, UNBIASED_2.vectors]))
        assert np.allclose(
            fiducial_vector_quantum(ket0_state(), obs), [1, 0, 0.5, 0.5], atol=1e-12
        )

    def test_dimension_mismatch(self):
        from test_quantum import STANDARD_2, maximally_mixed

        with pytest.raises(ValidationError, match=r"^state dimension 3 != basis dimension 2$"):
            fiducial_vector_quantum(maximally_mixed(3), ObservableSet(np.stack([STANDARD_2.vectors])))

    def test_block_normalization(self):
        rng = RandomStream(17)
        obs = random_observable_set(3, 4, rng=rng)
        for _ in range(20):
            vector = fiducial_vector_quantum(random_pure_state(3, rng), obs)
            for m in range(len(obs.vectors)):
                assert abs(float(np.sum(vector[m * 3 : (m + 1) * 3])) - 1.0) < 1e-10


class TestFiducialMatrixQuantum:
    """``pure_state_distributions`` over a whole observable set."""

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (5, 6), (8, 9)])
    def test_rows_equal_stacked_fiducial_vectors(self, n, m):
        rng = RandomStream(n, m)
        obs = random_observable_set(n, m, rng=rng)
        psi = complex_states(n, 30, rng)
        matrix = pure_state_distributions(psi, obs)
        expected = np.array(
            [
                fiducial_vector_quantum(DensityState(np.outer(v, v.conj())), obs)
                for v in psi
            ]
        )
        assert matrix.shape == (30, n * m)
        assert np.max(np.abs(matrix - expected)) < 1e-12

    def test_dimension_mismatch(self):
        obs = random_observable_set(2, 3, rng=RandomStream(0))
        with pytest.raises(ValidationError, match=r"^state dimension 3 != basis dimension 2$"):
            pure_state_distributions(complex_states(3, 4, RandomStream(1)), obs)


class TestRandomDeckEnsemble:
    def test_deterministic_under_seed(self, four_card_spec):
        a = random_deck_ensemble(four_card_spec, 5, 2, RandomStream(3))
        b = random_deck_ensemble(four_card_spec, 5, 2, RandomStream(3))
        assert a == b

    def test_unit_multiplicity_gives_subsets(self, four_card_spec):
        for deck in random_deck_ensemble(four_card_spec, 30, 1, RandomStream(5)):
            assert set(deck.counts.tolist()) == {1}

    def test_fifty_decks_reach_rank_three(self, four_card_spec):
        decks = random_deck_ensemble(four_card_spec, 50, 2, RandomStream(1))
        rows = [fiducial_vector_cardbox(d) for d in decks]
        assert matrix_rank_exact(rows) == 3

    def test_parameter_validation(self, four_card_spec):
        with pytest.raises(ValidationError):
            random_deck_ensemble(four_card_spec, 0, 2, RandomStream(0))
        with pytest.raises(ValidationError):
            random_deck_ensemble(four_card_spec, 1, 0, RandomStream(0))


class TestCountRows:
    # (N, V, max multiplicity): at N=2, V=1, max 2 one draw in nine is all
    # zero and redrawn; at N=3, V=6 a draw block holds 89 decks
    SHAPES = [(2, 1, 2), (2, 1, 1), (2, 2, 2), (3, 2, 3), (3, 6, 2)]

    @pytest.mark.parametrize("n, v, max_mult", SHAPES)
    def test_rows_are_totals_times_fiducial_vectors(self, n, v, max_mult):
        spec = cardbox_spec(n, v)
        redrawn = 0
        for seed in range(4):
            literal, skipped = literal_random_decks(spec, 120, max_mult, RandomStream(seed, 5))
            redrawn += skipped
            decks = random_deck_ensemble(spec, 120, max_mult, RandomStream(seed, 5))
            rows = list(tomography._count_rows(n, v, 120, max_mult, RandomStream(seed, 5)))
            assert decks == literal
            assert rows == [count_row(deck) for deck in decks]
        if n ** v == 2:
            assert redrawn > 0  # the redraw rule was exercised

    @given(
        n=st.integers(2, 4), v=st.integers(1, 3), max_mult=st.integers(1, 3),
        count=st.integers(1, 60), first_block=st.integers(1, 80), seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, v=1, max_mult=1, count=40, first_block=1, seed=5)  # its first block is empty
    def test_rows_match_literal_decks(self, n, v, max_mult, count, first_block, seed):
        spec = cardbox_spec(n, v)
        decks, _ = literal_random_decks(spec, count, max_mult, RandomStream(seed))
        rows = tomography._count_rows(n, v, count, max_mult, RandomStream(seed), first_block)
        assert list(rows) == [count_row(deck) for deck in decks]

    def test_empty_block_counts_to_no_rows(self):
        # at N=2, V=1, max 1 and seed 5 the one-row first block is drawn all
        # zero, so nothing of it is left to count
        block = next(tomography._multiplicity_draws(2, 1, 40, 1, RandomStream(5), 1))
        assert block.shape == (0, 2)
        assert tomography._value_counts(block, 2, 1).shape == (0, 2)
        assert tomography._value_counts(np.zeros((0, 27), np.int64), 3, 3).shape == (0, 9)

    def test_first_row_of_the_widest_urn_is_small(self):
        # the first block of urn(4,096) holds 16 rows of 4,096 multiplicities;
        # counting it through a 4,096 x 4,096 indicator matrix peaked at 257 MiB
        tracemalloc.start()
        try:
            rows = tomography._count_rows(
                MAX_CARD_TYPES, 1, 20 * MAX_CARD_TYPES, 2, RandomStream(0), MAX_CARD_TYPES + 1
            )
            row = next(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(row) == MAX_CARD_TYPES and sum(row) > 0
        assert peak < 16 * 2**20, f"peak traced memory {peak:,} bytes"

    @pytest.mark.parametrize("block", [1, 7, 2**16])
    def test_draws_do_not_depend_on_block_size(self, monkeypatch, block):
        # urn and card-box shapes; first blocks below, at and past the cap
        monkeypatch.setattr(tomography, "_DRAW_BLOCK", block)
        for n, v in ((2, 1), (4, 1), (3, 2), (2, 3)):
            spec = cardbox_spec(n, v)
            expected, _ = literal_random_decks(spec, 50, 2, RandomStream(3))
            assert random_deck_ensemble(spec, 50, 2, RandomStream(3)) == expected
            rows = [count_row(deck) for deck in expected]
            for first_block in (1, 2, 5, 64, 2**16):
                drawn = tomography._count_rows(n, v, 50, 2, RandomStream(3), first_block)
                assert list(drawn) == rows

    @staticmethod
    def record_draws(monkeypatch):
        """Rows per ``integers_below`` call, all-zero rows and rows fed to a basis."""
        seen = {"blocks": [], "zero": 0, "fed": 0}
        draw, add = RandomStream.integers_below, ExactRowBasis.add

        def record_draw(rng, upper, size=None):
            block = draw(rng, upper, size)
            seen["blocks"].append(len(block))
            seen["zero"] += int((~block.any(axis=1)).sum())
            return block

        def record_add(basis, row):
            seen["fed"] += 1
            return add(basis, row)

        monkeypatch.setattr(RandomStream, "integers_below", record_draw)
        monkeypatch.setattr(ExactRowBasis, "add", record_add)
        return seen

    @pytest.mark.parametrize("kind, n, v, seed", [
        ("urn", 2, 1, 0), ("urn", 2, 1, 4), ("urn", 9, 1, 1), ("cardbox", 2, 2, 2),
        ("cardbox", 3, 2, 4), ("cardbox", 4, 4, 0), ("cardbox", 5, 4, 3), ("cardbox", 3, 6, 1),
    ])
    def test_draws_follow_the_early_stop(self, monkeypatch, kind, n, v, seed):
        # the first block is ceiling-sized and each later one doubles, so a
        # cell that reaches the ceiling draws at most the first block plus
        # twice the rows it fed or redrew
        seen = self.record_draws(monkeypatch)
        report = estimate_k(kind, n, v, rng=RandomStream(seed))
        ceiling = v * (n - 1) + 1
        first = min(ceiling + 1, 2**16 // n**v, 2 * report.ensemble)
        assert report.k_rank == ceiling
        assert seen["blocks"][0] == first
        assert sum(seen["blocks"]) <= 2 * (seen["fed"] + seen["zero"]) + first

    def test_cell_short_of_the_ceiling_draws_every_row(self, monkeypatch):
        seen = self.record_draws(monkeypatch)
        report = estimate_k("cardbox", 5, 4, ensemble=2, rng=RandomStream(0))
        assert report.k_rank < 17
        assert sum(seen["blocks"]) == seen["fed"] == 4

    def test_stream_continues_where_the_draws_stopped(self):
        # two ensembles drawn one after the other from one stream, as the
        # K path's base and doubled halves are
        spec = cardbox_spec(2, 1)
        rng, oracle = RandomStream(8), RandomStream(8)
        for _ in range(3):
            expected, _ = literal_random_decks(spec, 15, 2, oracle)
            assert random_deck_ensemble(spec, 15, 2, rng) == expected

    @pytest.mark.parametrize("kind, n, v, ensemble, seed, reached", [
        ("urn", 2, 1, 30, 4, "first"),
        ("cardbox", 3, 2, 30, 4, "first"),
        ("cardbox", 5, 4, 10, 0, "second"),
        ("cardbox", 5, 4, 2, 0, "never"),  # every drawn row is fed
    ])
    def test_k_path_feeds_rows_to_exhaustion(self, monkeypatch, kind, n, v, ensemble, seed, reached):
        # the rows fed are the literal decks' count rows in draw order, up to
        # the first at which a separate basis reaches the exhaustive rank
        spec = cardbox_spec(n, v)
        decks, _ = literal_random_decks(spec, 2 * ensemble, 2, RandomStream(seed))
        drawn = [count_row(deck) for deck in decks]
        exhausted = exhaustive_fiducial_rank(spec)
        oracle, expected = ExactRowBasis(n * v), []
        for row in drawn:
            expected.append(row)
            oracle.add(row)
            if oracle.rank == exhausted:
                break
        fed, add = [], ExactRowBasis.add

        def record(basis, row):
            fed.append(list(row))
            return add(basis, row)

        monkeypatch.setattr(ExactRowBasis, "add", record)
        estimate_k(kind, n, v, ensemble=ensemble, rng=RandomStream(seed))
        assert fed == expected
        stop = len(expected)
        if reached == "never":
            assert oracle.rank < exhausted and stop == 2 * ensemble
        else:
            assert oracle.rank == exhausted
            assert (stop <= ensemble) == (reached == "first")

    def test_multiplicities_at_the_int64_limit(self):
        spec = cardbox_spec(2, 2)
        max_mult = (2**63 - 1) // 4  # a deck total of up to 2**63 - 4
        decks = random_deck_ensemble(spec, 10, max_mult, RandomStream(2))
        rows = list(tomography._count_rows(2, 2, 10, max_mult, RandomStream(2)))
        assert max(d.total for d in decks) > 2**62
        assert rows == [count_row(deck) for deck in decks]
        report = estimate_k("cardbox", 2, 2, max_multiplicity=max_mult, rng=RandomStream(2))
        assert (report.k_rank, report.saturated) == (3, True)

    def test_unbalanced_row_is_an_invariant_error(self, monkeypatch):
        # a count row whose value blocks disagree on the deck total
        value_counts = tomography._value_counts

        def unbalanced(block, n, v):
            counts = value_counts(block, n, v)
            counts[:, 1] -= block[:, 3]  # card (val2, val2) no longer counts for var1
            return counts

        monkeypatch.setattr(tomography, "_value_counts", unbalanced)
        message = "a count row's value blocks do not all sum to the deck total"
        with pytest.raises(InvariantError, match=f"^{message}$"):
            estimate_k("cardbox", 2, 2, rng=RandomStream(0))


class TestDrawLimits:
    def test_card_type_limit_admits_its_boundary(self):
        spec = cardbox_spec(2, 12)
        assert MAX_CARD_TYPES == 2**12 == len(all_cards(spec))
        assert tomography._check_draw_limits(2, 12, 2) == 2**12

    @pytest.mark.parametrize(
        "build",
        [
            lambda spec: all_cards(spec),
            lambda spec: uniform_deck(spec),
            lambda spec: tomography._check_draw_limits(spec.values_per_variable,
                                                       spec.num_variables, 2),
            lambda spec: random_deck_ensemble(spec, 1, 2, RandomStream(0)),
            lambda spec: estimate_k("cardbox", spec.values_per_variable, spec.num_variables,
                                   rng=RandomStream(0)),
            lambda spec: exhaustive_fiducial_rank(spec),
        ],
    )
    @pytest.mark.parametrize("n, v", [(10, 8), (2, 13), (3, 8)])
    def test_card_type_limit(self, build, n, v):
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="MAX_CARD_TYPES = 4,096"):
            build(cardbox_spec(n, v))
        assert time.perf_counter() - start < 0.5

    def test_urn_positions_count_as_card_types(self):
        with pytest.raises(ValidationError, match="MAX_CARD_TYPES"):
            estimate_k("urn", MAX_CARD_TYPES + 1, rng=RandomStream(0))

    @pytest.mark.parametrize("max_mult", [2**62, 2**63, (2**63 - 1) // 4 + 1])
    def test_deck_total_must_fit_int64(self, max_mult):
        spec = cardbox_spec(2, 2)
        with pytest.raises(ValidationError, match=r"2\*\*63 - 1"):
            random_deck_ensemble(spec, 1, max_mult, RandomStream(0))
        with pytest.raises(ValidationError, match=r"2\*\*63 - 1"):
            estimate_k("cardbox", 2, 2, max_multiplicity=max_mult, rng=RandomStream(0))

    @pytest.mark.parametrize(
        "cells, max_mult",
        [
            ((range(2, 11), range(8, 9), ["cardbox"]), 2),  # (10, 8) comes after (2, 8)
            ((range(2, 5001), range(1, 2), ["quantum", "urn"]), 2),  # urn of 5,000 positions
            ((range(2, 3), range(1, 2), ["quantum", "urn"]), 2**63),  # quantum cells come first
            ((range(2, 77), range(1, 2), ["quantum"]), 2),  # n=76's prefix passes MAX_BORN_ENTRIES
        ],
    )
    def test_sweep_checks_every_cell_before_any_work(self, monkeypatch, cells, max_mult):
        def no_work(*args, **kwargs):
            raise AssertionError("a cell ran despite a later cell's limit")

        for name in ("_estimate_k_classical", "_estimate_k_quantum"):
            monkeypatch.setattr(tomography, name, no_work)
        with pytest.raises(ValidationError):
            k_sweep(*cells, 0, max_multiplicity=max_mult)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def fraction_matrices(draw, max_rows=6, max_cols=5):
    cols = draw(st.integers(1, max_cols))
    return draw(
        st.lists(
            st.lists(small_fractions, min_size=cols, max_size=cols),
            min_size=1,
            max_size=max_rows,
        )
    )


@st.composite
def big_integer_matrices(draw, max_rows=7, max_cols=5):
    # each row is fresh (entries up to 2**80 either sign) or a small integer
    # combination of earlier rows, so ranks fall short of full
    cols = draw(st.integers(1, max_cols))
    entries = st.integers(-(2**80), 2**80) | st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(cols)])
        else:
            rows.append(draw(st.lists(entries, min_size=cols, max_size=cols)))
    return rows


def assert_pivot_structure(basis):
    # each pivot row is primitive, nonzero in its own column and zero in
    # every earlier pivot's column
    columns = []
    for col, row in basis._pivots:
        assert math.gcd(*row) == 1
        assert row[col] != 0
        assert all(row[c] == 0 for c in columns)
        columns.append(col)


class TestMatrixRankExact:
    def test_unit_vector_rows(self):
        rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        assert matrix_rank_exact(rows) == 3

    def test_repeated_rows(self):
        row = [Fraction(1, 3), Fraction(2, 3), Fraction(1, 7)]
        assert matrix_rank_exact([row, row, row]) == 1

    def test_exhaustive_four_card_family(self, four_card_spec):
        # brute-force oracle: all 80 decks with multiplicities <= 2
        rows = [fiducial_vector_cardbox(d) for d in enumerate_decks(four_card_spec, 2)]
        assert len(rows) == 80
        assert matrix_rank_exact(rows) == 3

    @given(rows=fraction_matrices())
    def test_matches_sympy_rank(self, rows):
        expected = sympy.Matrix(
            [[sympy.Rational(x) for x in row] for row in rows]
        ).rank()
        assert matrix_rank_exact(rows) == expected

    @given(rows=big_integer_matrices())
    def test_big_and_negative_integers_match_sympy_rank(self, rows):
        assert matrix_rank_exact(rows) == sympy.Matrix(rows).rank()

    @given(rows=big_integer_matrices() | fraction_matrices())
    def test_pivot_rows_stay_primitive_and_reduced(self, rows):
        basis = ExactRowBasis(len(rows[0]))
        for row in rows:
            basis.add(integer_row(row))
        assert_pivot_structure(basis)

    def test_count_row_pivots_stay_primitive(self):
        basis = ExactRowBasis(20)
        for row in tomography._count_rows(5, 4, 200, 2, RandomStream(1)):
            basis.add(row)
        assert basis.rank == 17
        assert_pivot_structure(basis)

    def test_floats_are_read_exactly(self):
        # 0.6 is exactly twice 0.3 in binary, but 0.3 is not three times 0.1
        assert matrix_rank_exact([[0.1, 0.3], [0.2, 0.6]]) == 1
        assert matrix_rank_exact([[0.1, 0.3], [1, 3]]) == 2
        assert matrix_rank_exact([[0.5, Fraction(1, 3), -2], [3, 2, -12]]) == 1

    @given(rows=fraction_matrices())
    def test_rank_monotone_under_appended_rows(self, rows):
        basis = ExactRowBasis(len(rows[0]))
        previous = 0
        for i, row in enumerate(rows):
            basis.add(integer_row(row))
            assert previous <= basis.rank <= min(i + 1, len(rows[0]))
            previous = basis.rank

    def test_ragged_rejected(self):
        with pytest.raises(ValidationError, match=r"^row has 3 entries, expected 2$"):
            matrix_rank_exact([[1, 2], [1, 2, 3]])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            matrix_rank_exact([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        # a float is read exactly, and NaN or infinity has no exact value
        with pytest.raises(InvariantError, match=r"^row contains NaN or infinity$"):
            matrix_rank_exact([[bad, 1.0]])
        with pytest.raises(InvariantError, match=r"^row contains NaN or infinity$"):
            integer_row([Fraction(1, 3), np.float64(bad)])

    @pytest.mark.parametrize(
        "entry, kind",
        [(Fraction(2, 1), "Fraction"), (2.0, "float"), (np.float64("nan"), "numpy.float64"),
         ("2", "str"), (None, "NoneType")],
    )
    def test_basis_takes_ints_only(self, entry, kind):
        # the rank reads int rows only; scaling other rows is the caller's
        # (integer_row's) job
        basis = ExactRowBasis(2)
        with pytest.raises(ValidationError, match=rf"^row entries must be ints: '{kind}' object"):
            basis.add([1, entry])
        assert basis.rank == 0
        assert basis.add([np.int64(1), 2]) and basis.rank == 1

    def test_width_must_be_positive(self):
        with pytest.raises(ValidationError, match=r"^matrix width must be at least 1$"):
            ExactRowBasis(0)

    def test_span_membership(self):
        basis = ExactRowBasis(3)
        basis.add([1, 0, 1])
        basis.add([0, 1, 1])
        assert not basis.add([2, 3, 5])  # in the span: rank unchanged
        assert basis.add([0, 0, 1])


class TestMatrixRankNumeric:
    def test_identity_block(self):
        matrix = np.vstack([np.eye(4), np.eye(4)])
        assert matrix_rank_numeric(matrix) == 4

    @pytest.mark.parametrize("shape", [(3, 2), (2, 0)])
    def test_zero_and_columnless_matrices_have_rank_zero(self, shape):
        assert matrix_rank_numeric(np.zeros(shape)) == 0

    def test_tiny_noise_below_threshold(self):
        u = np.array([1.0, 2.0, 3.0])
        v = np.array([0.5, -1.0, 2.0, 4.0])
        matrix = np.outer(u, v) + 1e-15
        assert matrix_rank_numeric(matrix, tol=1e-9) == 1

    def test_known_rank_products(self):
        gen = np.random.Generator(np.random.PCG64(12))
        for r in (1, 2, 3):
            matrix = gen.standard_normal((8, r)) @ gen.standard_normal((r, 5))
            assert matrix_rank_numeric(matrix) == r

    def test_quantum_desk_example(self):
        # 20 random pure states, 3 random bases, n=2: rank 4, cross-checked
        # against numpy's independent SVD-based rank.
        rng = RandomStream(123)
        obs = random_observable_set(2, 3, rng=rng)
        rows = np.array(
            [fiducial_vector_quantum(random_pure_state(2, rng), obs) for _ in range(20)]
        )
        assert matrix_rank_numeric(rows) == 4
        assert int(np.linalg.matrix_rank(rows)) == 4

    def test_non_finite_rejected(self):
        with pytest.raises(InvariantError, match=r"^matrix contains NaN or infinity$"):
            matrix_rank_numeric(np.array([[1.0, float("nan")]]))

    def test_bad_tolerance(self):
        for tol in (0.0, -1e-9, float("nan"), float("inf"), -float("inf"), 1.0, 2.0):
            with pytest.raises(ValidationError):
                matrix_rank_numeric(np.array([[1.0]]), tol=tol)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.complex64])
    def test_narrow_float_array_rejected(self, dtype):
        # at float32 a rank-3 9x6 product reads as rank 6 against RANK_TOL
        gen = np.random.Generator(np.random.PCG64(5))
        matrix = gen.standard_normal((9, 3)) @ gen.standard_normal((3, 6))
        message = rf"^matrix must be a 2-D float64 ndarray, got 2-D {np.dtype(dtype)}$"
        with pytest.raises(ValidationError, match=message):
            matrix_rank_numeric(matrix.astype(dtype))

    def test_float_array_checks(self):
        with pytest.raises(ValidationError):
            matrix_rank_numeric(np.empty((0, 4)))
        with pytest.raises(InvariantError, match=r"^matrix contains NaN or infinity$"):
            matrix_rank_numeric(np.array([[1.0, np.inf]]))

    def test_complex_array_rejected(self):
        # casting would drop the imaginary parts and read i*I as rank 0
        with pytest.raises(ValidationError, match="got 2-D complex128$"):
            matrix_rank_numeric(np.array([[1j, 0], [0, 1j]]))

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
    def test_array_that_is_not_2d_rejected(self, shape):
        with pytest.raises(ValidationError, match=f"got {len(shape)}-D float64$"):
            matrix_rank_numeric(np.ones(shape))


_FACE_SUIT = SystemSpec.from_mapping({"Face": ["K", "Q"], "Suit": ["S", "H"]})
_KS = Card((("Face", "K"), ("Suit", "S")))
_RANK_FORM = "matrix must be a 2-D float64 ndarray, got "


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: matrix_rank_numeric([[1.0, 0.0], [0.0, 1.0]]), _RANK_FORM + "list"),
        (lambda: matrix_rank_numeric(3), _RANK_FORM + "int"),
        (lambda: matrix_rank_numeric(np.eye(2, dtype=np.int64)), _RANK_FORM + "2-D int64"),
        (lambda: matrix_rank_numeric(np.eye(2, dtype=np.float32)), _RANK_FORM + "2-D float32"),
        (lambda: matrix_rank_numeric(np.eye(2, dtype=complex)), _RANK_FORM + "2-D complex128"),
        (lambda: matrix_rank_numeric(np.ones(3)), _RANK_FORM + "1-D float64"),
        (lambda: matrix_rank_numeric(np.ones((2, 2, 2))), _RANK_FORM + "3-D float64"),
        (
            lambda: ObservableSet((MeasurementBasis(np.eye(2)), MeasurementBasis(np.eye(2)))),
            "bases must be an ndarray, got tuple",
        ),
        (
            lambda: Deck.from_counts(_FACE_SUIT, {_KS: 1}),
            f"expected a tuple of 2 value names, got {_KS!r}",
        ),
    ],
    ids=["list", "int", "int64", "float32", "complex", "1-D", "3-D", "bases", "Card key"],
)
def test_narrowed_entry_points_refuse_the_dropped_forms(call, message):
    # each takes the one form the program passes it, and refuses the rest unconverted
    with pytest.raises(ValidationError) as raised:
        call()
    assert str(raised.value) == message


class TestExhaustiveRank:
    def test_single_cards_match_the_literal_enumeration(self):
        # every deck of multiplicity at most 2, enumerated literally
        for n, v in [(2, 2), (2, 3), (3, 2)]:
            spec = cardbox_spec(n, v)
            literal = matrix_rank_exact(count_row(deck) for deck in enumerate_decks(spec, 2))
            assert exhaustive_fiducial_rank(spec) == literal == v * (n - 1) + 1

    def test_rank_law_at_desk_scale(self):
        # every (N, V) with N**V <= 81
        for n, v in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (9, 1)]:
            assert exhaustive_fiducial_rank(cardbox_spec(n, v)) == v * (n - 1) + 1

    def test_urn_exactness(self):
        for n in range(2, 9):
            assert exhaustive_fiducial_rank(urn_spec(n)) == n

    @given(deck=deck_strategy(max_multiplicity=4))
    def test_every_deck_lies_in_single_card_span(self, deck):
        # the reduction the large-family path relies on
        basis = ExactRowBasis(
            deck.spec.num_variables * deck.spec.values_per_variable
        )
        for card in all_cards(deck.spec):
            basis.add(integer_row(fiducial_vector_cardbox(Deck.from_counts(deck.spec, {card.values: 1}))))
        assert not basis.add(integer_row(fiducial_vector_cardbox(deck)))


class TestEstimates:
    def test_urn_four(self):
        report = estimate_k("urn", 4, rng=RandomStream(7))
        assert (report.k_rank, report.k_naive, report.k_paper) == (4, 4, 4)
        assert report.kind == "urn"
        assert report.v_or_m == 1
        assert report.saturated
        assert report.seed == 7

    def test_cardbox_two_by_two(self):
        report = estimate_k("cardbox", 2, 2, rng=RandomStream(7))
        assert (report.k_rank, report.k_naive, report.k_paper) == (3, 4, 4)
        assert report.ensemble == 40

    def test_quantum_qubit(self):
        report = estimate_k("quantum", 2, 3, rng=RandomStream(7))
        assert (report.k_rank, report.k_naive, report.k_paper) == (4, 6, 4)
        assert report.v_or_m == 3

    def test_quantum_default_bases(self):
        report = estimate_k("quantum", 3, rng=RandomStream(2))
        assert report.v_or_m == 4
        assert report.k_rank == 9

    def test_rank_never_exceeds_naive(self):
        for seed in range(5):
            report = estimate_k("cardbox", 3, 2, rng=RandomStream(seed))
            assert 1 <= report.k_rank <= report.k_naive

    def test_doubling_a_saturated_ensemble_keeps_rank(self):
        first = estimate_k("cardbox", 2, 2, ensemble=40, rng=RandomStream(5))
        assert first.saturated
        doubled = estimate_k("cardbox", 2, 2, ensemble=80, rng=RandomStream(5))
        assert doubled.k_rank == first.k_rank

    @staticmethod
    def early_stop_matches_full_ensemble(spec, kind, ensemble, max_mult, seed):
        """Check one cell; returns (saturated, whether the exhaustive rank was reached)."""
        # the report must equal the full ensemble's, and the rows reduced
        # must end at the first one that reaches the exhaustive rank
        ranks = rank_growth(spec, 2 * ensemble, max_mult, RandomStream(seed))
        oracle = full_ensemble_k(spec, ensemble, max_mult, RandomStream(seed))
        exhausted = cached_exhaustive_rank(spec)
        needed = ranks.index(exhausted) + 1 if exhausted in ranks else len(ranks)
        calls, add = [], ExactRowBasis.add

        def count(basis, row):
            calls.append(None)
            return add(basis, row)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ExactRowBasis, "add", count)
            report = estimate_k(kind, spec.values_per_variable, spec.num_variables,
                                ensemble=ensemble, max_multiplicity=max_mult,
                                rng=RandomStream(seed))
        assert (report.k_rank, report.saturated, report.ensemble) == oracle
        assert len(calls) == needed
        return report.saturated, report.k_rank == exhausted

    @given(
        kind=st.sampled_from(["urn", "cardbox"]),
        n=st.integers(2, 5),
        v=st.integers(1, 4),
        max_mult=st.integers(1, 3),
        ensemble=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_early_stop_equals_the_full_ensemble(self, kind, n, v, max_mult, ensemble, seed):
        spec = urn_spec(n) if kind == "urn" else cardbox_spec(n, v)
        self.early_stop_matches_full_ensemble(spec, kind, ensemble, max_mult, seed)

    def test_early_stop_equals_the_full_ensemble_on_every_branch(self):
        # small ensembles reach the exhaustive rank in the first half, in
        # the doubled half, or never; the unsaturated outcomes must occur
        outcomes = {
            self.early_stop_matches_full_ensemble(cardbox_spec(n, v), "cardbox", ensemble, 2, seed)
            for n, v in [(2, 1), (3, 2), (2, 4), (5, 4)]
            for ensemble in range(1, 5)
            for seed in range(3)
        }
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}

    def test_wide_urn_stops_at_its_ceiling(self):
        # 1,280 count rows of width 64: about 0.06 s when the draws stop at
        # rank 64, 1.3 s when every row is reduced (2-core Xeon VM); the
        # bound leaves 8x headroom and still fails the full run by 2.6x
        start = time.perf_counter()
        report = estimate_k("urn", 64, rng=RandomStream(1))
        elapsed = time.perf_counter() - start
        assert (report.k_rank, report.saturated) == (64, True)
        assert elapsed < 0.5, f"estimate_k('urn', 64) took {elapsed:.2f} s"

    def test_dispatcher(self):
        report = estimate_k("urn", 3, rng=RandomStream(1))
        assert report.kind == "urn" and report.k_rank == 3
        assert estimate_k("urn", 3, 1, rng=RandomStream(1)) == report
        with pytest.raises(ValidationError, match="^cardbox systems need a variable count v$"):
            estimate_k("cardbox", 3, rng=RandomStream(1))
        with pytest.raises(ValidationError):
            estimate_k("abacus", 3, rng=RandomStream(1))

    @pytest.mark.parametrize("v_or_m", [0, 2, 3])
    def test_urn_has_one_variable(self, v_or_m):
        # an urn is the card box with V = 1: another count is an error, not ignored
        with pytest.raises(ValidationError, match=rf"^an urn has one variable, got V={v_or_m}$"):
            estimate_k("urn", 4, v_or_m, rng=RandomStream(0))

    def test_urn_needs_two_positions(self):
        with pytest.raises(ValidationError, match=r"^an urn needs at least 2 positions, got 1$"):
            estimate_k("urn", 1, rng=RandomStream(0))

    def test_quantum_rank_margin(self):
        # sigma_K / sigma_1 shrinks with n (about 3e-4 at n=12 over all rows,
        # down to 1.6e-5 over the first-half prefix the path ranks first):
        # fail well before it nears RANK_TOL, and before noise nears it from
        # below.  The ratios come from the whole-matrix oracle's Born matrix
        # and its first n**2 + 16 rows, not from what the rank path makes of
        # its own rows.
        cases = [(n, seed) for n in range(2, 13) for seed in range(3)] + [(16, 0)]
        for n, seed in cases:
            report = estimate_k("quantum", n, rng=RandomStream(seed, n))
            rows, _ = whole_born_matrix(n, None, None, seed)
            k = n * n
            assert report.k_rank == k, f"n={n} seed={seed}"
            for name, matrix in (("all rows", rows), ("prefix", rows[: quantum_head(n, None, None)])):
                singular = np.linalg.svd(matrix, compute_uv=False)
                k_ratio = singular[k - 1] / singular[0]
                k1_ratio = singular[k] / singular[0]
                message = (
                    f"n={n} seed={seed} {name}: sigma_K/sigma_1={k_ratio:.3g}, "
                    f"sigma_K+1/sigma_1={k1_ratio:.3g}, RANK_TOL={RANK_TOL:g}"
                )
                assert k_ratio > 100 * RANK_TOL, message
                assert k1_ratio < RANK_TOL / 100, message

    @pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf"), 1.0])
    def test_quantum_tolerance_checked_before_any_draw(self, monkeypatch, tol):
        def no_draw(self, size):
            raise AssertionError("drew states under an unusable tolerance")

        monkeypatch.setattr(RandomStream, "standard_normal", no_draw)
        with pytest.raises(ValidationError, match="tolerance"):
            estimate_k("quantum", 3, tol=tol, rng=RandomStream(0))

    @given(n=st.integers(2, 7), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_quantum_k_rank_is_the_frame_rank(self, n, data, seed):
        # K_rank, the span of the drawn bases' projectors and the ceiling all agree
        m = data.draw(st.integers(1, n + 1), label="M")
        report = estimate_k("quantum", n, m, rng=RandomStream(seed))
        vectors = random_observable_set(n, m, rng=RandomStream(seed)).vectors
        assert report.k_rank == frame_rank(vectors) == min(n * n, m * (n - 1) + 1)

    def test_quantum_restricted_observables_reduce_rank(self):
        # two bases instead of three: only 1 + 2*(n-1) = 3 independent
        # probabilities survive for n=2, the superselection-style restriction
        report = estimate_k("quantum", 2, 2, rng=RandomStream(4))
        assert report.k_rank == 3
        assert report.k_paper == 4


def quantum_ceiling(n, m):
    """The rank no quantum Born matrix exceeds: rho has n**2 real parameters,
    and each of the M basis blocks sums to 1."""
    return min(n * n, (n + 1 if m is None else m) * (n - 1) + 1)


def quantum_head(n, m, ensemble):
    """Rows of the first-half prefix that a quantum ``estimate_k`` ranks first."""
    base = 10 * n * (n + 1 if m is None else m) if ensemble is None else ensemble
    return min(base, quantum_ceiling(n, m) + 16)


class TestQuantumStop:
    """The prefix stop against the whole-ensemble oracle."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_report_equals_the_whole_ensemble_oracle(self, n):
        # every branch: ensembles below the ceiling c (the fallback, no
        # prefix to spare), at it and past it, and the default ensemble
        outcomes = set()
        for m in sorted({1, 2, n - 1, n, n + 1, n + 3}):
            c = quantum_ceiling(n, m)
            for ensemble in sorted({1, c - 1, c, c + 16}) + [None]:
                for seed in range(3):
                    report = estimate_k("quantum", n, m, ensemble=ensemble,
                                        rng=RandomStream(seed, n))
                    rows, base = whole_born_matrix(n, m, ensemble, seed)
                    rank = matrix_rank_numeric(rows)
                    saturated = rank == matrix_rank_numeric(rows[:base])
                    assert (report.k_rank, report.saturated) == (rank, saturated), (
                        m, ensemble, seed)
                    outcomes.add(saturated)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n, m, ensemble", [
        (2, None, None), (6, None, None), (9, None, None), (5, 2, None), (4, None, 20),
    ])
    def test_saturating_run_draws_only_its_prefix(self, monkeypatch, n, m, ensemble):
        # no QR outside the bases, and the states drawn are the prefix's
        inside, qr_inside, state_entries = [False], [], []
        observable_set, qr = tomography.random_observable_set, np.linalg.qr
        standard_normal = RandomStream.standard_normal

        def bases(*args, **kwargs):
            inside[0] = True
            try:
                return observable_set(*args, **kwargs)
            finally:
                inside[0] = False

        def record_qr(*args, **kwargs):
            qr_inside.append(inside[0])
            return qr(*args, **kwargs)

        def record_draw(self, size):
            out = standard_normal(self, size)
            if not inside[0]:
                state_entries.append(out.size)
            return out

        monkeypatch.setattr(tomography, "random_observable_set", bases)
        monkeypatch.setattr(np.linalg, "qr", record_qr)
        monkeypatch.setattr(RandomStream, "standard_normal", record_draw)
        report = estimate_k("quantum", n, m, ensemble=ensemble, rng=RandomStream(1, n))
        assert (report.k_rank, report.saturated) == (quantum_ceiling(n, m), True)
        assert qr_inside and all(qr_inside)
        assert sum(state_entries) == quantum_head(n, m, ensemble) * 2 * n

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_rank_above_the_ceiling_is_an_error(self, n):
        # at tol 1e-17 round-off singular values clear the threshold; the
        # stop path (default ensemble) and the fallback (c - 1) both refuse
        c = quantum_ceiling(n, None)
        for ensemble in (None, c - 1):
            with pytest.raises(ValidationError, match=rf"rank \d+ exceeds its ceiling .* = {c}: "
                                                      r"--tol 1e-17"):
                estimate_k("quantum", n, ensemble=ensemble, tol=1e-17, rng=RandomStream(0, n))
            argv = ["rank", "--system", "quantum", "--n", str(n), "--tol", "1e-17"]
            if ensemble is not None:
                argv += ["--ensemble", str(ensemble)]
            assert cli_main(argv) == 2


def quantum_stream(n, m, ensemble, seed, stuck):
    """A fresh ``RandomStream(seed, n)``; if ``stuck``, its prefix states are one state."""
    if not stuck:
        return RandomStream(seed, n)
    return StuckStatesStream(seed, n, n + 1 if m is None else m, quantum_head(n, m, ensemble))


def fallback_cases(n):
    """``(m, ensemble, seed, stuck)`` cells that rank both halves: base
    ensembles below the ceiling, down to halves shorter than they are wide,
    and default or restricted cells whose prefix is one state."""
    cases = [(None, ensemble, 1, False) for ensemble in sorted({1, 3, quantum_ceiling(n, None) - 1})]
    cases += [(None, None, seed, True) for seed in range(3)]
    return cases + [(m, None, 0, True) for m in (1, 2, n)]


class TestQuantumRankFromRFactors:
    """The blocked halves and their R-factor ranks against the whole-matrix oracle."""

    @staticmethod
    def capture_halves(monkeypatch):
        # each half's Born rows as a quantum estimate_k hands them to its QR
        halves, qr = [], np.linalg.qr

        def capture(rows, mode="reduced"):
            if mode == "r":
                halves.append(rows.copy())
            return qr(rows, mode)

        monkeypatch.setattr(np.linalg, "qr", capture)
        return halves

    @pytest.mark.parametrize("n", range(2, 13))
    def test_ranks_equal_the_whole_matrix_ranks(self, monkeypatch, n):
        ranked = []

        def capture(rows, tol):
            ranked.append(rows.copy())
            return matrix_rank_numeric(rows, tol)

        monkeypatch.setattr(tomography, "matrix_rank_numeric", capture)
        halves = self.capture_halves(monkeypatch)
        for m, ensemble, seed, stuck in fallback_cases(n):
            report = estimate_k(
                "quantum", n, m, ensemble=ensemble, rng=quantum_stream(n, m, ensemble, seed, stuck))
            rows, base = whole_born_matrix(
                n, m, ensemble, seed, quantum_stream(n, m, ensemble, seed, stuck))
            head = quantum_head(n, m, ensemble)
            assert len(ranked) >= 3 and matrix_rank_numeric(ranked[-3]) < quantum_ceiling(n, m)
            np.testing.assert_allclose(ranked[-3], rows[:head], rtol=0, atol=1e-12)
            np.testing.assert_allclose(np.vstack(halves[-2:]), rows, rtol=0, atol=1e-12)
            rank = matrix_rank_numeric(rows)
            assert report.k_rank == rank, (m, ensemble, seed)
            assert report.saturated == (rank == matrix_rank_numeric(rows[:base])), (m, ensemble, seed)
            for reduced, whole in ((ranked[-2], rows[:base]), (ranked[-1], rows)):
                expected = np.linalg.svd(whole, compute_uv=False)
                np.testing.assert_allclose(
                    np.linalg.svd(reduced, compute_uv=False), expected,
                    rtol=0, atol=1e-12 * expected[0],
                )


class TestBlockedQuantumRun:
    """The blocked draws of a quantum estimate_k against one unblocked draw."""

    @pytest.mark.parametrize("rows_per_block", [1, 7, 50, 80])
    @pytest.mark.parametrize("ensemble, stuck", [(8, False), (50, True)])
    def test_blocked_state_draws_equal_one_unblocked_draw(
        self, monkeypatch, rows_per_block, ensemble, stuck
    ):
        # both fallbacks at n = 3, M = 4 (ceiling 9): 8 states per half, or
        # 50 whose first 25, the prefix, are one state.  Blocks of 7 cross
        # the block edges, the prefix's edge and the edge between the
        # halves; 50 and 80 hold a whole half
        n, m, seed = 3, 4, 6
        head = quantum_head(n, m, ensemble)
        stream = functools.partial(quantum_stream, n, m, ensemble, seed, stuck)
        rng = stream()
        random_observable_set(n, m, rng=rng)
        expected = random_state_rows(n, 2 * ensemble, rng)
        unblocked = estimate_k("quantum", n, m, ensemble=ensemble, rng=stream())
        drawn = []

        def record(n, count, rng):
            drawn.append(random_state_rows(n, count, rng))
            return drawn[-1]

        monkeypatch.setattr(tomography, "random_state_rows", record)
        monkeypatch.setattr(tomography, "_DRAW_BLOCK", rows_per_block * n * m)
        halves = TestQuantumRankFromRFactors.capture_halves(monkeypatch)
        report = estimate_k("quantum", n, m, ensemble=ensemble, rng=stream())
        parts = (head, ensemble - head, ensemble)  # the prefix, the rest of A, and B
        assert len(drawn) == sum(math.ceil(rows / rows_per_block) for rows in parts)
        assert np.array_equal(np.vstack(drawn), expected)
        assert report == unblocked
        rows, _ = whole_born_matrix(n, m, ensemble, seed, stream())
        np.testing.assert_allclose(np.vstack(halves), rows, rtol=0, atol=1e-12)

    def test_many_basis_run_is_quick_and_small(self):
        # 20,000 bases at n = 4 and one state per half: the bases are drawn
        # and checked 4,096 at a time and multiplied a column block at a
        # time.  The per-basis path took 2.8 s and 15.1 MB of traced peak;
        # the blocked one 0.16 s and 12.4 MB (2-core Xeon VM).  Whole-stack
        # Gram checks or a whole amplitude matrix would add about 10 MB.
        tracemalloc.start()
        try:
            start = time.perf_counter()
            report = estimate_k("quantum", 4, 20_000, ensemble=1, rng=RandomStream(0))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.k_rank, report.k_naive, report.saturated) == (2, 80_000, False)
        assert elapsed < 1.0, f"estimate_k('quantum', 4, 20000) took {elapsed:.2f} s"
        assert peak < 16 * 2**20, f"peak traced memory {peak:,} bytes"


class Drew(Exception):
    pass


class TestBornEntryLimit:
    def test_limit_admits_its_boundary(self, monkeypatch):
        def drew(*args, **kwargs):
            raise Drew

        monkeypatch.setattr(tomography, "random_observable_set", drew)
        # n = 2 at ensemble 4, the whole prefix: 4 rows of 2 * M Born entries
        # plus the bases' 2 * 2**2 * M floats are exactly MAX_BORN_ENTRIES at
        # M = 2**21
        with pytest.raises(Drew):
            estimate_k("quantum", 2, 2**21, ensemble=4, rng=RandomStream(0))
        with pytest.raises(ValidationError, match="MAX_BORN_ENTRIES"):
            estimate_k("quantum", 2, 2**21 + 1, ensemble=4, rng=RandomStream(0))
        # default ensembles size only their n**2 + 16 row prefix before any
        # draw: 33.0M entries at n = 75 and 34.8M at n = 76
        for n in (32, 36, 75):
            with pytest.raises(Drew):
                estimate_k("quantum", n, rng=RandomStream(0))
        with pytest.raises(ValidationError, match="MAX_BORN_ENTRIES"):
            estimate_k("quantum", 76, rng=RandomStream(0))

    @pytest.mark.parametrize("ensemble, refused", [(39_925, False), (39_926, True)])
    def test_fallback_sizes_both_halves_before_drawing_them(self, monkeypatch, ensemble, refused):
        # n = 20, M = 21 (c = 400): the 416-row prefix fits, and is one state.
        # 2 * 39,925 rows of 420 Born entries plus the bases' 2 * 20**2 * 21
        # floats are the most that fit
        n, m = 20, 21
        head = quantum_head(n, m, ensemble)
        drawn = []

        def record(n, count, rng):
            if sum(drawn) == head:  # the first state past the prefix
                raise Drew
            drawn.append(count)
            return random_state_rows(n, count, rng)

        monkeypatch.setattr(tomography, "random_state_rows", record)
        rng = StuckStatesStream(0, n, m, head)
        with pytest.raises(ValidationError if refused else Drew):
            estimate_k("quantum", n, m, ensemble=ensemble, rng=rng)
        assert sum(drawn) == head

    def test_fallback_past_the_limit_exits_2(self, monkeypatch, capsys):
        n, ensemble = 20, 39_926
        head = quantum_head(n, None, ensemble)
        rng = StuckStatesStream(0, n, n + 1, head)
        monkeypatch.setattr("dofcount.cli.RandomStream", lambda seed: rng)
        argv = ["rank", "--system", "quantum", "--n", str(n), "--ensemble", str(ensemble)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert "MAX_BORN_ENTRIES" in captured.err and captured.out == ""
        # the bases' entries and the prefix's states, no state of the halves
        assert rng._at == 2 * n * n * (n + 1) + 2 * n * head

    def test_default_ensemble_at_n_36_stops_at_its_prefix(self, capsys):
        argv = ["rank", "--system", "quantum", "--n", "36"]
        assert cli_main(argv) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[1:4] == ["36", "37", "1296"] and row[7] == "true"


class TestKSweep:
    def test_cells_are_estimate_k_on_their_own_streams(self, monkeypatch):
        # one estimate_k call per cell, in sorted cell order, each on the
        # stream its (kind, N, V_or_M) names
        cells = [
            ("cardbox", 2, 1), ("cardbox", 2, 2), ("cardbox", 2, 3),
            ("cardbox", 3, 1), ("cardbox", 3, 2), ("cardbox", 3, 3),
            ("quantum", 2, 3), ("quantum", 3, 4), ("urn", 2, 1), ("urn", 3, 1),
        ]
        expected = [
            estimate_k(kind, n, v, ensemble=7,
                       rng=RandomStream(5, tomography._stream_id(kind, n, v)))
            for kind, n, v in cells
        ]
        calls = []

        def record(kind, n, v_or_m, *, rng, **kwargs):
            calls.append((kind, n, v_or_m, rng.seed, rng.stream_id))
            return estimate_k(kind, n, v_or_m, rng=rng, **kwargs)

        monkeypatch.setattr(tomography, "estimate_k", record)
        reports = k_sweep(range(2, 4), range(1, 4), ["urn", "quantum", "cardbox"], 5, ensemble=7)
        assert reports == expected
        assert calls == [
            (kind, n, v, 5, tomography._stream_id(kind, n, v)) for kind, n, v in cells
        ]

    def test_quantum_tolerance_checked_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a cell ran despite an unusable tolerance")

        for name in ("_estimate_k_classical", "_estimate_k_quantum"):
            monkeypatch.setattr(tomography, name, no_work)
        with pytest.raises(ValidationError, match="tolerance"):
            k_sweep(range(2, 3), range(1, 2), ["cardbox", "quantum"], 0, tol=float("nan"))

    def test_v_dependence_at_n3(self):
        reports = k_sweep(range(3, 4), range(1, 4), ["cardbox"], 42)
        assert [r.k_rank for r in reports] == [3, 5, 7]

    def test_single_variable_cardbox_matches_urn(self):
        reports = k_sweep(range(2, 3), range(1, 2), ["cardbox", "urn"], 42)
        by_kind = {r.kind: r for r in reports}
        assert by_kind["cardbox"].k_rank == by_kind["urn"].k_rank == 2

    def test_quantum_exceeds_cardbox_exceeds_urn_at_n2(self):
        reports = k_sweep(range(2, 3), range(2, 3), ["cardbox", "urn", "quantum"], 42)
        ranks = {r.kind: r.k_rank for r in reports}
        assert ranks["quantum"] == 4
        assert ranks["cardbox"] == 3
        assert ranks["urn"] == 2

    def test_rows_sorted_and_deterministic(self):
        a = k_sweep(range(2, 4), range(1, 3), ["urn", "cardbox"], 9)
        b = k_sweep(range(2, 4), range(1, 3), ("cardbox", "urn", "urn"), 9)
        assert a == b
        keys = [(r.kind, r.n, r.v_or_m) for r in a]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n_values", [range(3, 1, -1), range(2, 6, 2), [2, 3]])
    def test_n_and_v_must_be_ranges_with_step_1(self, n_values):
        message = r"sweep N and V must be ranges with step 1, got "
        with pytest.raises(ValidationError, match=message + re.escape(repr(n_values))):
            k_sweep(n_values, range(1, 2), ["urn"], 0)
        with pytest.raises(ValidationError, match=message + re.escape(repr(n_values))):
            k_sweep(range(2, 3), n_values, ["cardbox"], 0)

    @pytest.mark.parametrize("flags, suffix", [([], "csv"), (["--json"], "json")])
    def test_classical_sweep_matches_golden_file(self, capsys, flags, suffix):
        argv = ["sweep", "--systems", "cardbox,urn", "--n-range", "2..5",
                "--v-range", "1..4", "--seed", "42", *flags]
        assert cli_main(argv) == 0
        expected = (DATA / f"sweep_classical_n2-5_v1-4_seed42.{suffix}").read_text()
        assert capsys.readouterr().out == expected

    def test_wide_classical_sweep_matches_golden_csv(self, capsys):
        # V = 5..6 covers the benchmark's N=3, V=6 cell and N**V = 4**6 =
        # MAX_CARD_TYPES, whose draws span several blocks; the file was made
        # when count rows were an indicator-matrix product
        argv = ["sweep", "--systems", "cardbox,urn", "--n-range", "2..4",
                "--v-range", "5..6", "--seed", "42"]
        assert cli_main(argv) == 0
        expected = (DATA / "sweep_classical_n2-4_v5-6_seed42.csv").read_text()
        assert capsys.readouterr().out == expected

    def test_quantum_sweep_matches_golden_csv(self, capsys):
        argv = ["sweep", "--systems", "quantum", "--n-range", "2..6",
                "--v-range", "1..1", "--seed", "42"]
        assert cli_main(argv) == 0
        expected = (DATA / "sweep_quantum_n2-6_seed42.csv").read_text()
        assert capsys.readouterr().out == expected

    def test_quantum_sweep_on_both_paths_matches_golden_csv(self, capsys):
        # at 20 states per half, n = 2..4 stop at their prefix and n = 5..8
        # rank both halves; the file was made before the prefix stop existed
        argv = ["sweep", "--systems", "quantum", "--n-range", "2..8",
                "--v-range", "1..1", "--ensemble", "20", "--seed", "42"]
        assert cli_main(argv) == 0
        expected = (DATA / "sweep_quantum_n2-8_ens20_seed42.csv").read_text()
        assert capsys.readouterr().out == expected

    def test_quantum_sweep_at_benchmark_sizes_matches_golden_csv(self, capsys):
        # n = 7..12 covers the benchmark's n = 9 and 12; the file was made
        # by the per-basis path, before the bases and Born rows were batched
        argv = ["sweep", "--systems", "quantum", "--n-range", "7..12",
                "--v-range", "1..1", "--seed", "9001"]
        assert cli_main(argv) == 0
        expected = (DATA / "sweep_quantum_n7-12_seed9001.csv").read_text()
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "n_values, v_values, kind",
        [
            (range(2**20, 2**20 + 1), range(1, 2), "urn"),
            (range(2, 3), range(2**20, 2**20 + 1), "cardbox"),
            (range(2**20 - 1, 2**20), range(1, 2), "quantum"),
        ],
    )
    def test_stream_id_fields_fail_fast(self, n_values, v_values, kind):
        # each would collide with another cell's stream; none may start work
        with pytest.raises(ValidationError, match=r"2\*\*20"):
            k_sweep(n_values, v_values, [kind], 0)

    @pytest.mark.parametrize("kind", ["cardbox", "urn"])
    def test_largest_cell_checked_before_cells_are_listed(self, kind):
        # ~5 million card-box cells or ~5,000 urn cells; the largest of each
        # kind is past MAX_CARD_TYPES, so none is listed
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="MAX_CARD_TYPES"):
            k_sweep(range(2, 5000), range(1, 1000), [kind], 0)
        assert time.perf_counter() - start < 0.5

    def test_stream_ids_distinct_up_to_the_limit(self):
        top = 2**20 - 1
        ids = {
            tomography._stream_id(kind, n, v)
            for kind in ("cardbox", "quantum", "urn")
            for n in (0, 1, top)
            for v in (0, 1, top)
        }
        assert len(ids) == 27

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            k_sweep(range(2, 2), range(1, 2), ["urn"], 0)
        with pytest.raises(ValidationError):
            k_sweep(range(1, 2), range(1, 2), ["urn"], 0)
        with pytest.raises(ValidationError):
            k_sweep(range(2, 3), range(0, 1), ["cardbox"], 0)
        with pytest.raises(ValidationError):
            k_sweep(range(2, 3), range(1, 2), ["abacus"], 0)


@given(spec=spec_strategy(max_variables=2, max_values=3))
def test_estimates_saturate_to_exhaustive_rank(spec):
    # random-ensemble rank agrees with the exhaustive ground truth
    report = estimate_k("cardbox", spec.values_per_variable, spec.num_variables,
                        rng=RandomStream(0))
    assert report.k_rank == exhaustive_fiducial_rank(spec)
