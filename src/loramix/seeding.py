"""Deterministic per-component random streams.

Every randomly initialized tensor gets its own generator derived from the
run seed plus a structural key (component code, layer index, sub index).
Two builds that share a seed therefore agree on any component they have in
common, even when one of them skips components the other draws; this is
what lets a plain adapter drawn from expert 0's stream reproduce a
one-expert mixture bit for bit.
"""

from __future__ import annotations

import numpy as np

# Component codes used in spawn keys. Order is frozen; append only.
EMBEDDING = 0
POSITIONAL = 1
ATTENTION = 2
FFN_BASE = 3
EXPERT = 4
ROUTER = 5
UNEMBED = 6
SHUFFLE = 7
JITTER = 8


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Generator for one component, independent of all other components."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))
