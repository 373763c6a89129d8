"""Deterministic seed derivation.

All randomness in the project flows from a single integer run seed. Substream
seeds are derived with ``mix``: the parts are rendered with ``repr``, joined
with ``|``, hashed with SHA-256, and the first 8 bytes are read as a big-endian
unsigned integer. The rule is fixed; changing it invalidates reproducibility
of persisted runs.

A substream is ``np.random.default_rng(mix(*parts))`` (``rng_for``).
"""

import hashlib

import numpy as np


def mix(*parts) -> int:
    """Derive a 64-bit substream seed from a tuple of hashable parts."""
    text = "|".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(*parts) -> np.random.Generator:
    return np.random.default_rng(mix(*parts))
