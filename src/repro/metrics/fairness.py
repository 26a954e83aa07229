"""Fairness metrics over committee selection.

MVCom's utility can rationally starve small or stale committees (see the
Fig. 3 carry-over ablation in ``benchmarks/bench_ablations.py``), which
matters in a permissionless system: committees that never land in a final
block earn nothing and leave.  These metrics quantify that effect across
epochs:

* :func:`selection_counts` -- per-committee admission counts;
* :func:`jain_index` -- Jain's fairness index of those counts
  (1 = perfectly even, 1/n = one committee takes everything);
* :func:`starved_fraction` -- committees never admitted at all.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np


def selection_counts(epochs: Iterable[Tuple[Sequence[int], Sequence[bool]]]) -> Dict[int, int]:
    """Tally admissions from ``(shard_ids, mask)`` pairs, one per epoch.

    Every committee that *appeared* in any epoch is present in the result
    (with 0 if never admitted).
    """
    counts: Dict[int, int] = {}
    for shard_ids, mask in epochs:
        shard_ids = list(shard_ids)
        mask = list(mask)
        if len(shard_ids) != len(mask):
            raise ValueError("shard_ids and mask lengths differ")
        for shard_id, admitted in zip(shard_ids, mask):
            counts.setdefault(int(shard_id), 0)
            if admitted:
                counts[int(shard_id)] += 1
    return counts


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index :math:`(\\sum x)^2 / (n \\sum x^2)`."""
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        raise ValueError("need at least one value")
    if (array < 0).any():
        raise ValueError("values must be non-negative")
    denominator = array.size * float((array**2).sum())
    if denominator == 0:
        return 1.0  # all-zero: trivially even
    return float(array.sum()) ** 2 / denominator


def starved_fraction(counts: Dict[int, int]) -> float:
    """Fraction of committees never admitted."""
    if not counts:
        raise ValueError("no committees observed")
    return sum(1 for value in counts.values() if value == 0) / len(counts)


def fairness_report(epochs: Iterable[Tuple[Sequence[int], Sequence[bool]]]) -> dict:
    """One-row summary for the reporting layer."""
    counts = selection_counts(epochs)
    values = list(counts.values())
    return {
        "committees_seen": len(counts),
        "jain_index": round(jain_index(values), 4),
        "starved_fraction": round(starved_fraction(counts), 4),
        "max_admissions": max(values),
        "min_admissions": min(values),
    }
