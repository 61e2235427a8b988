"""Deterministic random-stream derivation.

Every command and chain derives its generator from a single root seed via
``numpy.random.SeedSequence`` spawn keys, so that one ``--seed`` flag fixes
all randomness. The spawn-key registry is part of the public contract:

===============  ==========================
purpose          spawn key
===============  ==========================
data operations  ``(0, index)``
fit chain        ``(1, chain_index)``
ranking chain    ``(2, chain_index)``
train/test split ``(3,)``
balancing        ``(4,)``
===============  ==========================

Two runs with the same root seed and the same purpose therefore see
identical streams regardless of what other subsystems consumed.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

DOMAIN_DATA = 0
DOMAIN_FIT = 1
DOMAIN_RANK = 2
DOMAIN_SPLIT = 3
DOMAIN_BALANCE = 4


def seed_sequence(root_seed: int, *spawn_key: int) -> np.random.SeedSequence:
    """SeedSequence for ``root_seed`` at the given spawn key; DomainError if it is negative."""
    if root_seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {root_seed}")
    return np.random.SeedSequence(root_seed, spawn_key=tuple(spawn_key))


def derive_seed(root_seed: int, *spawn_key: int) -> int:
    """Integer seed deterministically derived from the root seed and key."""
    return int(seed_sequence(root_seed, *spawn_key).generate_state(1)[0])


def derive_rng(root_seed: int, *spawn_key: int) -> np.random.Generator:
    """Generator deterministically derived from the root seed and key."""
    return np.random.default_rng(seed_sequence(root_seed, *spawn_key))
