"""Named, counter-based random number streams.

Every source of randomness in the package draws from an explicitly seeded
Philox stream keyed by (seed, stream name). There is no global RNG state:
two call sites asking for different stream names receive independent
generators, and the same (seed, name) pair always yields the same stream
regardless of call order or thread schedule.

A model built only to have its parameters loaded needs no draws: seed None
hands every constructor `NO_DRAWS`, whose `normal` returns zeros.
"""

from __future__ import annotations

import zlib

import numpy as np


class _NoDraws:
    """Stands in for a generator whose draws would be overwritten."""

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return np.zeros(size)


NO_DRAWS = _NoDraws()


def named_rng(seed: int | None, stream: str) -> np.random.Generator:
    """Return a Philox generator keyed by an integer seed and a stream name,
    or `NO_DRAWS` for seed None."""
    if seed is None:
        return NO_DRAWS
    ident = zlib.crc32(stream.encode("utf-8"))
    seq = np.random.SeedSequence([int(seed), ident])
    return np.random.Generator(np.random.Philox(seq))
