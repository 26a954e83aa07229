"""Incremental solution representation.

A :class:`Solution` is a selection of shards over an epoch instance with
cached aggregates (utility, packed TXs, cardinality) that update in O(1)
per move.  The SE algorithm performs tens of millions of swap evaluations
at ``|I_j| = 1000``, so the selection is stored as a ``bytearray`` (fast
scalar membership tests) with a NumPy view materialised on demand for the
vectorised consumers (metrics, exact solvers, tests).

Invariant: ``utility == instance.utility(mask)`` and
``weight == instance.weight(mask)`` at all times.  The property-based tests
in ``tests/test_solution_properties.py`` hammer this invariant through
random move sequences.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.problem import EpochInstance


class Solution:
    """A mutable selection of shards with O(1) move updates."""

    __slots__ = ("instance", "selected", "_utility", "_weight", "_count")

    def __init__(self, instance: EpochInstance, mask: Optional[np.ndarray] = None) -> None:
        self.instance = instance
        if mask is None:
            self.selected = bytearray(instance.num_shards)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (instance.num_shards,):
                raise ValueError("mask length does not match instance")
            self.selected = bytearray(mask.astype(np.uint8).tobytes())
        self.recompute()

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_indices(cls, instance: EpochInstance, indices: Iterable[int]) -> "Solution":
        """Build a selection from an iterable of positions.

        The cached utility/weight aggregates (eq. 2 and const. 4 terms)
        are computed once here and maintained in O(1) per move after.
        """
        mask = np.zeros(instance.num_shards, dtype=bool)
        mask[np.asarray(list(indices), dtype=np.int64)] = True
        return cls(instance, mask)

    @classmethod
    def from_cached(
        cls,
        instance: EpochInstance,
        selected: "bytes | bytearray",
        utility: float,
        weight: int,
        count: int,
    ) -> "Solution":
        """Rehydrate a selection whose aggregates are already known.

        The batched race kernel's array rows carry the incremental float
        caches alongside the mask; recomputing utility from the mask can
        differ in the last bit, so this constructor installs the caches verbatim instead of
        calling :meth:`recompute`.  The caller owns the invariant that the
        aggregates match the mask.
        """
        solution = cls.__new__(cls)
        solution.instance = instance
        solution.selected = bytearray(selected)
        solution._utility = utility
        solution._weight = weight
        solution._count = count
        return solution

    def copy(self) -> "Solution":
        """Independent deep copy (shares only the immutable instance).

        Cached utility/weight/cardinality aggregates carry over verbatim,
        so the copy's feasibility (const. 3-4) matches the original's.
        """
        clone = Solution.__new__(Solution)
        clone.instance = self.instance
        clone.selected = bytearray(self.selected)
        clone._utility = self._utility
        clone._weight = self._weight
        clone._count = self._count
        return clone

    # ------------------------------------------------------------------ #
    # cached aggregates
    # ------------------------------------------------------------------ #
    @property
    def mask(self) -> np.ndarray:
        """Boolean selection mask (freshly materialised NumPy array).

        The comparison materialises a new bool array directly from the
        ``bytearray`` buffer -- one allocation, no intermediate ``bytes``
        copy (this is called per round in traced runs and per result in
        the harness).
        """
        return np.frombuffer(self.selected, dtype=np.uint8) != 0

    @property
    def utility(self) -> float:
        """Cached utility U(f)."""
        return self._utility

    @property
    def weight(self) -> int:
        """Cached packed-TX total."""
        return self._weight

    @property
    def count(self) -> int:
        """Cached number of selected shards."""
        return self._count

    @property
    def capacity_feasible(self) -> bool:
        """Constraint (4): packed TXs within the capacity."""
        return self._weight <= self.instance.capacity

    @property
    def feasible(self) -> bool:
        """Constraints (3) and (4) together."""
        return self.capacity_feasible and self._count >= self.instance.n_min

    # ------------------------------------------------------------------ #
    # moves
    # ------------------------------------------------------------------ #
    def flip(self, index: int) -> None:
        """Toggle one shard in or out."""
        if self.selected[index]:
            self.selected[index] = 0
            sign = -1
        else:
            self.selected[index] = 1
            sign = 1
        self._utility += sign * self.instance.values_list[index]
        self._weight += sign * self.instance.tx_counts_list[index]
        self._count += sign

    def swap(self, index_out: int, index_in: int) -> None:
        """The paper's transition move: deselect ``index_out``, select ``index_in``.

        Keeps the cardinality fixed (Section IV-C conditions a/b).
        """
        if not self.selected[index_out]:
            raise ValueError(f"shard position {index_out} is not selected")
        if self.selected[index_in]:
            raise ValueError(f"shard position {index_in} is already selected")
        self.flip(index_out)
        self.flip(index_in)

    def swap_delta(self, index_out: int, index_in: int) -> float:
        """Utility change a :meth:`swap` would cause, without applying it."""
        return self.instance.values_list[index_in] - self.instance.values_list[index_out]

    def swap_weight(self, index_out: int, index_in: int) -> int:
        """Packed-TX total after a hypothetical swap."""
        return self._weight + (
            self.instance.tx_counts_list[index_in] - self.instance.tx_counts_list[index_out]
        )

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def selected_positions(self) -> np.ndarray:
        """Positions currently selected (ascending)."""
        return np.flatnonzero(self.mask)

    def unselected_positions(self) -> np.ndarray:
        """Positions currently unselected (ascending)."""
        return np.flatnonzero(~self.mask)

    def selected_ids(self) -> tuple:
        """Stable shard ids of the selection (survives rebasing)."""
        return tuple(
            shard_id
            for shard_id, chosen in zip(self.instance.shard_ids, self.selected)
            if chosen
        )

    def recompute(self) -> None:
        """Recompute caches from scratch (used by tests and constructors)."""
        mask = self.mask
        self._utility = float(self.instance.values[mask].sum())
        self._weight = int(self.instance.tx_counts[mask].sum())
        self._count = int(mask.sum())

    def rebase(self, instance: EpochInstance) -> "Solution":
        """Project this solution onto a *different* instance by shard id.

        Used when committees join or leave: positions shift, ids survive.
        Shards that no longer exist are dropped silently, and the utility/
        weight caches recompute against the new instance's values — so
        feasibility (N_min, Ĉ) must be re-checked by the caller.
        """
        chosen = set(self.selected_ids())
        mask = np.array([sid in chosen for sid in instance.shard_ids], dtype=bool)
        return Solution(instance, mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Solution):
            return NotImplemented
        return self.instance is other.instance and self.selected == other.selected

    def __hash__(self) -> int:
        return hash((id(self.instance), bytes(self.selected)))

    def key(self) -> int:
        """Canonical integer encoding of the selection (LSB = position 0)."""
        key = 0
        for position, chosen in enumerate(self.selected):
            if chosen:
                key |= 1 << position
        return key

    def __repr__(self) -> str:
        return (
            f"Solution(count={self._count}, weight={self._weight}, "
            f"utility={self._utility:.1f}, feasible={self.feasible})"
        )
