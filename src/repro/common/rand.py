"""Seeded random-number plumbing.

Simulations must be reproducible: a single integer seed has to determine every
stochastic choice (job arrivals, loss noise, straggler events, speed noise).
At the same time, adding one more random draw in one subsystem must not shift
the random stream of every other subsystem. We therefore hand each subsystem
its own child :class:`numpy.random.Generator`, derived from the experiment
seed and a stable textual *label* via ``numpy``'s ``SeedSequence`` spawning.
"""

from __future__ import annotations

import zlib
from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, "RandomSource", None]


def _label_key(label: str) -> int:
    """Map a textual label to a stable 32-bit integer."""
    return zlib.crc32(label.encode("utf8"))


class RandomSource:
    """A named tree of reproducible random generators.

    Parameters
    ----------
    seed:
        Root seed of the experiment. ``None`` draws a fresh unpredictable
        seed (still recorded in :attr:`seed` for later replay).

    Examples
    --------
    >>> root = RandomSource(7)
    >>> a = root.child("arrivals")
    >>> b = root.child("loss-noise")
    >>> a.rng.random() != b.rng.random()
    True
    >>> (RandomSource(7).child("arrivals").rng.random()
    ...  == RandomSource(7).child("arrivals").rng.random())
    True
    """

    def __init__(self, seed: Optional[int] = None, _entropy: Optional[tuple] = None):
        if seed is None:
            seed = int(np.random.SeedSequence().entropy) % (2**32)
        self.seed = int(seed)
        self._path: tuple = _entropy if _entropy is not None else ()
        self._rng: Optional[np.random.Generator] = None

    @property
    def rng(self) -> np.random.Generator:
        """The generator for this node; created at the first draw, then cached.

        Its ``SeedSequence`` is built here too, so a node that is only a
        parent of other streams holds no numpy object.
        """
        if self._rng is None:
            sequence = np.random.SeedSequence((self.seed,) + self._path)
            self._rng = np.random.default_rng(sequence)
        return self._rng

    def child(self, label: str) -> "RandomSource":
        """Derive an independent, reproducible child source for *label*."""
        return RandomSource(self.seed, self._path + (_label_key(label),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(seed={self.seed}, path={self._path})"


def spawn_rng(seed: SeedLike, label: str = "default") -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Accepts an ``int`` (spawns the labelled child of a fresh
    :class:`RandomSource`), an existing generator (returned as-is), a
    :class:`RandomSource` (its labelled child's generator) or ``None``
    (an unseeded generator).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, RandomSource):
        return seed.child(label).rng
    if seed is None:
        return np.random.default_rng()
    return RandomSource(int(seed)).child(label).rng
