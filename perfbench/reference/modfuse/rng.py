"""Deterministic, label-addressed random streams.

Every component (backbone, each adapter, each benchmark example) draws
from its own generator derived from (seed, label), so adding or removing
one component never shifts the random numbers any other component sees.
"""

from __future__ import annotations

import hashlib

import numpy as np


def component_rng(seed: int, label: str) -> np.random.Generator:
    """A generator keyed by (seed, label), stable across runs and platforms."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = np.frombuffer(digest[:16], dtype="<u4")
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + words.tolist()))
