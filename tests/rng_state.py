"""Stream-state comparisons for tests: two ``RngStream``s whose states are
equal draw the same values next."""

import numpy as np

from asms.core import RngStream


def generator_state(gen):
    """A numpy ``Generator``'s bit-generator state, with its arrays as lists
    so that two states compare with ``==``."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(gen.bit_generator.state)


def rng_state(rng):
    """The stream's Philox state, comparable with ``==``."""
    return generator_state(rng._gen)


def untouched(rng):
    """True when the stream has drawn nothing since it was made."""
    return rng_state(rng) == rng_state(RngStream(rng.seed, rng.stream))
