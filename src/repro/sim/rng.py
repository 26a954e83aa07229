"""Named, reproducible random-number streams.

Every stochastic subsystem (trace generation, PoW latency, PBFT latency, SE
timers, baseline algorithms, ...) draws from its *own* named stream derived
from one root seed.  This gives two properties the experiments rely on:

* **Reproducibility** -- a fixed root seed reproduces every figure exactly.
* **Isolation** -- adding a draw in one subsystem does not shift the random
  sequence seen by any other subsystem, so ablations stay comparable.

Isolation also needs each named stream to be derived once per consumer: a
stream derived again restarts, and its consumer replays its draws.  With
``REPRO_CONTRACTS=1`` every derivation is checked at run time.  One SE
solve, one storm generation and one chain epoch each open a *stream scope*
(:func:`isolated_streams`; scopes nest), and deriving the same
``(root seed, name)`` twice inside the innermost open scope raises
:class:`~repro.analysis.contracts.ContractViolation`.  The flag is read
once, at import; disarmed, a derivation pays one boolean check.
"""

from __future__ import annotations

import functools
import hashlib
import random
from typing import Callable, Dict, List, Optional, Set, Tuple, TypeVar

import numpy as np

from repro.analysis.contracts import ContractViolation, contracts_enabled

F = TypeVar("F", bound=Callable)

#: Is the derivation ledger armed?  Read once, as the contract decorators do.
_LEDGER_ARMED = contracts_enabled()
#: The open stream scopes, innermost last: the pairs each has derived.
_scopes: List[Set[Tuple[int, str]]] = []


def isolated_streams(func: F) -> F:
    """Decorator: every call of ``func`` is one scope of the derivation ledger.

    Returns ``func`` unchanged when the ledger is disarmed.
    """
    if not _LEDGER_ARMED:
        return func

    @functools.wraps(func)
    def scoped(*args, **kwargs):
        _scopes.append(set())
        try:
            return func(*args, **kwargs)
        finally:
            _scopes.pop()

    return scoped  # type: ignore[return-value]


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 so the mapping is stable across Python versions and
    processes (unlike ``hash``).  Every named stream is derived here, so
    this is where the armed ledger records it.
    """
    if _LEDGER_ARMED and _scopes:
        derived = _scopes[-1]
        if (root_seed, name) in derived:
            raise ContractViolation(
                f"stream {name!r} of root seed {root_seed} derived twice in one "
                "scope: the second consumer replays the first one's draws"
            )
        derived.add((root_seed, name))
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

    Scalar-draw hot paths (the serial SE race, kept as the test oracle)
    use the Mersenne Twister's C-level ``random()``, which is ~10x cheaper
    per call than a NumPy ``Generator`` scalar draw.  Seeding it through the same SHA-256
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


_WORD = 2**64 - 1


def counter_rng(
    key: np.ndarray, counter_block: int, rng: Optional[np.random.Generator] = None
) -> np.random.Generator:
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

    ``rng``, a generator an earlier call returned, is re-seated in place
    and returned: a loop over many items builds one generator, not one
    per item.  Either way the bytes equal
    ``Generator(Philox(key=key, counter=counter_block))``'s.
    """
    if not 0 <= counter_block < 2**256:
        raise ValueError("counter_block must be in [0, 2**256)")
    if rng is None:
        # Seeded, because an unseeded Philox reads OS entropy for a state
        # that the assignment below replaces anyway.
        rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array(
                [(int(counter_block) >> shift) & _WORD for shift in (0, 64, 128, 192)],
                dtype=np.uint64,
            ),
            "key": np.asarray(key, dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


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
