"""Seeding helpers.

All randomness in this package flows through numpy's PCG64 generator.  A
master seed plus an integer path (experiment id, size, trial index, ...)
is mapped to an independent stream via ``SeedSequence(seed, spawn_key=path)``.
A stream depends only on (seed, path), never on the order streams are drawn.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_rng"]


def derive_rng(seed, *path):
    """Independent Generator for (seed, *path); seed None draws OS entropy.

    Same arguments give the same stream; different paths give streams that
    are independent for practical purposes.
    """
    if seed is None:
        return np.random.default_rng()
    path = tuple(int(x) for x in path)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=path))
