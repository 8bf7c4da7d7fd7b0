"""Reproducible random streams.

Every source of randomness in the package is a ``RandomStream`` identified
by a ``(seed, stream_id)`` pair.  The same pair always yields the same draw
sequence; distinct stream ids behave independently.  Experiments use one
master seed and hand derived stream ids to their sub-tasks, so results do
not depend on evaluation order or parallelism.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


class RandomStream:
    """Deterministic random source addressed by (seed, stream_id)."""

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        for name, value in (("seed", seed), ("stream_id", stream_id)):
            if value < 0:
                raise ValidationError(f"{name} must be non-negative")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"

    def randint_below(self, upper: int) -> int:
        """Uniform integer in [0, upper), exact for any int ``upper``.

        A bound past int64 takes ``upper.bit_length()`` bits of 63-bit words,
        drawn again until they fall below it.
        """
        if upper <= 0:
            raise ValidationError("upper must be positive")
        if upper < 2**63:  # int64: one Generator draw
            return int(self._gen.integers(upper))
        bits = int(upper).bit_length()
        words = -(-bits // 63)
        while True:
            value = 0
            for word in self._gen.integers(2**63, size=words).tolist():
                value = value << 63 | word
            value >>= 63 * words - bits
            if value < upper:
                return value

    def integers_below(self, upper: int, size=None) -> np.ndarray:
        """Array of ``size`` independent uniform integers in [0, upper)."""
        if upper <= 0:
            raise ValidationError("upper must be positive")
        return self._gen.integers(0, upper, size=size)

    def multinomial(self, trials: int, pvals) -> np.ndarray:
        """Counts of ``trials`` picks over outcomes of probabilities ``pvals``."""
        return self._gen.multinomial(trials, pvals)

    def standard_normal(self, size) -> np.ndarray:
        return self._gen.standard_normal(size)
