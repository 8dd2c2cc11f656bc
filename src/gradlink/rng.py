"""Labeled RNG streams.

One master seed spawns independent named streams (corpus generation per
client, client batching, the shuffler, DP noise per client) so that
toggling one feature never perturbs the draws of another. Three draws use
`np.random.default_rng(seed)` directly instead of a named stream: the
initial weights (`model.init_model`), the k-means seeding
(`attack.kmeans_points`) and the random baseline (`report.random_baseline`).
"""

import zlib

import numpy as np


def labeled_rng(seed: int, label: str) -> np.random.Generator:
    """Return a generator for `label`, independent of all other labels."""
    key = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))
