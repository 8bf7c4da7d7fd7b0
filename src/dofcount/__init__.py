"""dofcount: how many probabilities does it take to know a state?

Simulates three kinds of systems -- a card-box device with V incompatible
N-valued variables, the classical single-variable urn, and a small quantum
reference system -- and measures each one's informational degrees of
freedom K as the rank of stacked fiducial probability vectors.  The
headline observation: at fixed N, K grows with the number of variables V,
for the classical card box just as for quantum systems.
"""

from .cardbox import (
    BoxState,
    Card,
    Deck,
    Outcome,
    SystemSpec,
    cardbox_spec,
    filter_deck,
    initial_state,
    observe,
    outcome_distribution,
    uniform_deck,
)
from .deckfile import parse_deck_file, serialize_deck_file
from .quantum import (
    DensityState,
    MeasurementBasis,
    ObservableSet,
    measurement_distribution,
    random_basis,
    random_observable_set,
    random_pure_state,
    random_state_rows,
)
from .rng import RandomStream
from .sequences import (
    ClassicalityWitness,
    RepeatabilityResult,
    SequenceDistribution,
    check_repeatability,
    find_classicality_witness,
    sequence_distribution,
    simulate_plan,
)
from .tomography import (
    ExactRowBasis,
    KReport,
    estimate_k,
    fiducial_vector_cardbox,
    fiducial_vector_quantum,
    k_sweep,
    matrix_rank_numeric,
    random_deck_ensemble,
)

__version__ = "0.1.0"
