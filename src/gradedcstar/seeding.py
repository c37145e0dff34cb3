"""Deterministic RNG plumbing.

One 64-bit seed governs every randomized routine. It comes from, in order:
an explicit argument, the GRADEDCSTAR_SEED environment variable, or the
fixed default below. Routines derive independent streams by salting the
seed with small integers, so adding a retry in one place never shifts the
draws of another.
"""

import os

import numpy as np

from .errors import InputError

DEFAULT_SEED = 0x5EED0C5A
SEED_ENV_VAR = "GRADEDCSTAR_SEED"


def resolve_seed(seed=None):
    """The effective global seed: argument, else environment, else default.
    An environment value that is not an integer is an InputError."""
    if seed is not None:
        return int(seed)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise InputError(
                f"{SEED_ENV_VAR}={env!r} is not an integer"
            ) from None
    return DEFAULT_SEED


def make_rng(seed, *salts):
    """A numpy Generator for stream (seed; salts), independent across salts."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in salts))
    return np.random.default_rng(ss)
