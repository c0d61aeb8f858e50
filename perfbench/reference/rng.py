"""Deterministic pseudo-randomness shared by every pipeline stage.

A fixed 64-bit linear congruential generator keeps runs bit-for-bit
reproducible from a single integer seed: the same seed yields the same
planes, the same gamma draws and the same loop order on every run.

Stream conventions (pinned by golden tests):
  * next_u64 advances the state first, then returns it,
  * uniforms use the top 53 bits of the new state,
  * complex entries draw the real part first, then the imaginary part,
  * matrices fill row-major,
  * spawned child streams seed from a mixed draw, so parent and child
    never walk the same state sequence.
"""

from __future__ import annotations

import numpy as np

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finalizer; decorrelates child seeds from the parent.

    Without it a child seeded with next_u64() would reproduce the
    parent's own continuation, the LCG being its own state sequence.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class Lcg64:
    """64-bit linear congruential generator, state' = mult*state + inc mod 2^64."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_signed(self) -> float:
        """Uniform double in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0

    def complex_entry(self) -> complex:
        re = self.uniform_signed()
        return complex(re, self.uniform_signed())

    def complex_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Complex (rows x cols) matrix with entries uniform on [-1,1) x [-1,1)i."""
        flat = [self.complex_entry() for _ in range(rows * cols)]
        return np.array(flat, dtype=complex).reshape(rows, cols)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return min(int(self.uniform() * bound), bound - 1)

    def spawn(self) -> "Lcg64":
        """Independent child stream (advances this stream once)."""
        return Lcg64(_mix64(self.next_u64()))
