"""Named, reproducible random-number streams.

Every stochastic subsystem (trace generation, PoW latency, PBFT latency, SE
timers, baseline algorithms, ...) draws from its *own* named stream derived
from one root seed.  This gives two properties the experiments rely on:

* **Reproducibility** -- a fixed root seed reproduces every figure exactly.
* **Isolation** -- adding a draw in one subsystem does not shift the random
  sequence seen by any other subsystem, so ablations stay comparable.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

import numpy as np


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 so the mapping is stable across Python versions and
    processes (unlike ``hash``).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seed(root_seed: int, name: str) -> int:
    """Public alias for the stable 64-bit child-seed derivation."""
    return _derive_seed(root_seed, name)


def spawn_rng(root_seed: int, name: str) -> np.random.Generator:
    """Create an independent generator for stream ``name``."""
    return np.random.default_rng(_derive_seed(root_seed, name))


def spawn_fast_rng(root_seed: int, name: str) -> random.Random:
    """Create an independent stdlib ``random.Random`` for stream ``name``.

    Scalar-draw hot paths (the SE timer race) use the Mersenne Twister's
    C-level ``random()``, which is ~10x cheaper per call than a NumPy
    ``Generator`` scalar draw.  Seeding it through the same SHA-256
    derivation keeps the named-stream isolation guarantees; this is the
    only sanctioned way to obtain a stdlib RNG (lint rule MV001 flags
    direct ``random.*`` construction everywhere else).
    """
    return random.Random(_derive_seed(root_seed, name))


def philox_key(rng: np.random.Generator) -> np.ndarray:
    """Draw a 128-bit Philox key (two ``uint64`` words) from ``rng``.

    Kernels that need *random-access* randomness — chunked batch kernels
    addressing each work item by absolute counter offset — draw one
    fixed-size key from their sequential stream and derive everything
    else through :func:`counter_rng`.  The consumption is two ``uint64``
    words regardless of the batch or chunk shape, so chunking never
    shifts the calling stream's position.
    """
    return rng.integers(0, 2**64, size=2, dtype=np.uint64)


def counter_rng(key: np.ndarray, counter_block: int) -> np.random.Generator:
    """A generator positioned at absolute Philox counter ``counter_block``.

    Philox-4x64 emits four ``uint64`` words per counter increment, so a
    consumer that opens item ``k``'s generator at a block no other item's
    draws reach -- ``k * budget // 4`` for a fixed budget padded to a
    multiple of four words, or ``k * stride`` with a stride far beyond
    any item's draws when a sampler's consumption varies (the ziggurat's
    rejections) -- reproduces the same bytes whether items are drawn
    singly, in chunks, or all at once.
    This is the sanctioned constructor for counter-addressed streams
    (lint rule MV001 bans raw ``np.random.*`` construction elsewhere).
    """
    if counter_block < 0:
        raise ValueError("counter_block must be non-negative")
    return np.random.Generator(np.random.Philox(key=key, counter=int(counter_block)))


class RandomStreams:
    """A registry of named random streams sharing one root seed.

    >>> streams = RandomStreams(seed=7)
    >>> a = streams.get("pow")
    >>> b = streams.get("pbft")
    >>> a is streams.get("pow")
    True
    >>> float(a.random()) != float(b.random())
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream called ``name``."""
        if name not in self._streams:
            self._streams[name] = spawn_rng(self.seed, name)
        return self._streams[name]

    def fork(self, name: str) -> "RandomStreams":
        """Create a child registry whose streams are independent of this one."""
        return RandomStreams(_derive_seed(self.seed, f"fork:{name}"))

    def reset(self) -> None:
        """Drop all streams so the next ``get`` restarts each sequence."""
        self._streams.clear()
