"""dofcount: how many probabilities does it take to know a state?

Simulates three kinds of systems -- a card-box device with V incompatible
N-valued variables, the classical single-variable urn, and a small quantum
reference system -- and measures each one's informational degrees of
freedom K as the rank of stacked fiducial probability vectors.  The
headline observation: at fixed N, K grows with the number of variables V,
for the classical card box just as for quantum systems.
"""

from .cardbox import Deck, Outcome, SystemSpec, uniform_deck
from .rng import RandomStream
from .sequences import (
    check_repeatability,
    find_classicality_witness,
    sequence_distribution,
    simulate_plan,
)
from .tomography import estimate_k, k_sweep

__version__ = "0.1.0"
