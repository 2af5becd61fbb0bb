"""Randomness utilities.

Every stochastic component of the library accepts either a seed, an existing
:class:`numpy.random.Generator`, or ``None``.  Funnelling all randomness
through :func:`ensure_rng` keeps experiments reproducible and keeps the tests
deterministic without any module-level global state.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

RandomState = Union[None, int, np.random.Generator]


def ensure_rng(random_state: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``random_state``.

    Parameters
    ----------
    random_state:
        ``None`` for a fresh non-deterministic generator, an ``int`` seed for a
        deterministic generator, or an existing generator which is returned
        unchanged.

    Returns
    -------
    numpy.random.Generator
        A generator ready for sampling.
    """
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(int(random_state))
    raise TypeError(
        "random_state must be None, an int seed, or a numpy Generator, "
        f"got {type(random_state).__name__}"
    )


def spawn_children(rng: np.random.Generator, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    ``Generator.spawn`` needs a seed sequence that can spawn; a generator
    over a legacy-seeded bit generator (e.g. ``MT19937._legacy_seeding``)
    lacks one and raises ``TypeError``, so its children are seeded from its
    own stream instead.
    """
    try:
        return list(rng.spawn(count))
    except TypeError:
        return [
            np.random.default_rng(int(rng.integers(0, 2**63))) for _ in range(count)
        ]


def spawn_rngs(random_state: RandomState, count: int) -> list[np.random.Generator]:
    """Split ``random_state`` into ``count`` independent generators.

    Useful when an experiment runs several mechanisms that should each see an
    independent, but reproducible, noise stream.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = ensure_rng(random_state)
    seeds = rng.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(seed)) for seed in seeds]
