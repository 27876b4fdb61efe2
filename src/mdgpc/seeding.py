"""Deterministic seed derivation for nested random streams.

Every stochastic component takes an integer seed as an argument, never
inside a settings object; independent substreams (per step, per episode,
per batch) are derived through SeedSequence spawn keys so reruns are
bit-identical and streams never alias.
"""

import numpy as np

# Seed-stream tags: the first derivation key after a run seed. Each tag names
# one independent stream; the values are part of the reproducibility contract
# and must not change or collide.
STREAM_COMPARE_OUTER_EXTRACTOR = 0  # compare-outer: extractor under a run seed
STREAM_INNER_MC = 1  # inner-loop draws of a training episode (train, compare-outer)
STREAM_TRAIN_PRED = 2  # query prediction draws during training
STREAM_EVAL_INNER = 3  # inner-loop draws of an evaluation episode
STREAM_EVAL_PRED = 4  # query prediction draws during evaluation
STREAM_MONITOR_INNER = 5  # compare-outer monitor bank: inner-loop draws
STREAM_MONITOR_PRED = 6  # compare-outer monitor bank: prediction draws
STREAM_MONITOR_EP = 7  # compare-outer monitor episodes
STREAM_COMPARE_OUTER_EP = 8  # compare-outer training episodes
STREAM_TRAIN_EP = 9  # train episodes
STREAM_EVAL_EP = 10  # eval episodes
STREAM_COMPARE_MC = 11  # compare-inner draws per episode
STREAM_COMPARE_EP = 12  # compare-inner episodes
STREAM_COMPARE_OUTER = 20  # compare-outer run seeds
STREAM_GEN_DATA = 30  # gen-data pool
STREAM_VERIFY = 40  # verify instances
STREAM_EXTRACTOR = 99  # compare-inner extractor per episode
STREAM_TRAIN_EXTRACTOR = 100  # train extractor initialization
# A key after an inner loop's draw seed, not after a run seed, so it may
# share its value with a tag above; meta derives it to draw the step set.
STREAM_STEP_DRAWS = 1  # the one node set every inner-loop step reads


def derive_seed(seed: int, *key: int) -> int:
    """A stable 64-bit seed for substream `key` of `seed`."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Generator for substream `key` of `seed`."""
    if key:
        return np.random.default_rng(derive_seed(seed, *key))
    return np.random.default_rng(int(seed))

