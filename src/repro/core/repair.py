"""Feasibility repair moves shared by SE and the baselines.

The paper's constraints — :math:`\\sum_i x_i \\ge N_{min}` (const. 3) and
:math:`\\sum_i x_i s_i \\le \\hat C` (const. 4) — can both be broken by
dynamic events: a LEAVE removes selected shards (cardinality drops), a JOIN
re-values every shard (the carried incumbent may suddenly exceed Ĉ after a
rebase).  This module holds the deterministic repair used everywhere a
solution must be coerced back into the feasible region without discarding
the exploration state that produced it.

Historically :func:`repair_cardinality` lived in ``repro.baselines.base``;
it moved here so :mod:`repro.core.se` can repair carried incumbents after
dynamic events without ``core`` importing ``baselines`` (the import must
flow the other way).  ``repro.baselines.base`` re-exports it for
compatibility.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.problem import EpochInstance
from repro.core.solution import Solution


def repair_cardinality(instance: EpochInstance, solution: Solution) -> None:
    """Enforce const. (3) ``count >= N_min`` in place, keeping const. (4).

    Pads with the highest-value unselected shard that still fits the
    capacity Ĉ; when no shard fits, swaps the heaviest selected shard for
    the lightest outsider (strictly reducing weight) and retries.
    Terminates because weight is a strictly decreasing integer across
    consecutive swaps, and always succeeds when ``n_min <=
    max_feasible_cardinality`` — which :class:`EpochInstance` guarantees by
    construction.
    """
    tx_counts = instance.tx_counts
    values = instance.values
    while solution.count < instance.n_min:
        unselected = solution.unselected_positions()
        if len(unselected) == 0:
            break
        slack = instance.capacity - solution.weight
        fitting = unselected[tx_counts[unselected] <= slack]
        if len(fitting):
            solution.flip(int(fitting[np.argmax(values[fitting])]))
            continue
        selected = solution.selected_positions()
        if len(selected) == 0:
            break  # nothing fits at all: n_cap = 0, so n_min = 0 too
        heaviest = int(selected[np.argmax(tx_counts[selected])])
        lightest = int(unselected[np.argmin(tx_counts[unselected])])
        if int(tx_counts[lightest]) >= int(tx_counts[heaviest]):
            break  # cannot reduce weight further
        solution.swap(heaviest, lightest)


def repair_capacity(instance: EpochInstance, solution: Solution) -> None:
    """Enforce const. (4) ``weight <= Ĉ`` in place by trimming worst picks.

    Drops the lowest-value selected shard until the packed TXs fit the
    capacity Ĉ.  May leave the cardinality below ``N_min`` (const. 3);
    callers that need both constraints follow up with
    :func:`repair_cardinality`, whose pad-or-swap loop never re-breaks the
    capacity.
    """
    while not solution.capacity_feasible and solution.count > 0:
        selected = solution.selected_positions()
        worst = selected[np.argmin(instance.values[selected])]
        solution.flip(int(worst))


def repair_feasibility(instance: EpochInstance, solution: Solution) -> None:
    """Re-establish const. (3) *and* (4) in place after a rebase.

    Order matters: the capacity trim first (it only removes shards), then
    the cardinality pad (it only adds shards that fit the remaining Ĉ
    slack, or performs weight-reducing swaps) — so the composition lands in
    the feasible region whenever the instance admits one at all.
    """
    repair_capacity(instance, solution)
    repair_cardinality(instance, solution)


def greedy_improve(instance: EpochInstance, solution: Solution) -> None:
    """One deterministic local-improvement pass in place (feasible → feasible).

    Used when a *carried* incumbent is rebased onto a drifted epoch
    instance (warm starts): the old membership is a base worth keeping,
    but the instance's values have moved under it.  Two monotone phases,
    each strictly utility-improving:

    1. drop every negative-value member, most negative first, while
       const. (3) ``count > N_min`` holds (dropping also frees Ĉ slack);
    2. add unselected positive-value shards, best value first, whenever
       the remaining slack fits them (const. 4).

    Draws no randomness and never worsens the solution, so applying it to
    a warm incumbent cannot break the feasibility contract — it just turns
    carried knowledge into an actual head start.
    """
    values = instance.values
    tx_counts = instance.tx_counts
    selected = solution.selected_positions()
    negative = selected[values[selected] < 0]
    for position in negative[np.argsort(values[negative])]:
        if solution.count <= instance.n_min:
            break
        solution.flip(int(position))
    unselected = solution.unselected_positions()
    gains = unselected[values[unselected] > 0]
    for position in gains[np.argsort(-values[gains])]:
        if int(tx_counts[position]) <= instance.capacity - solution.weight:
            solution.flip(int(position))


class RowRepair(NamedTuple):
    """A batch of solution rows: the outcome of :func:`resize_rows` or of SE's Alg. 2.

    ``masks``/``utility``/``weight``/``count`` hold every row's final state
    and caches; they are meaningful only where ``ok`` is true (a failed row
    is left wherever its repair stopped and must be re-initialised).
    """

    ok: np.ndarray
    masks: np.ndarray
    utility: np.ndarray
    weight: np.ndarray
    count: np.ndarray


def row_utility(values: np.ndarray, masks: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Each row's selected values summed in position order.

    Bit-equal to ``values[mask].sum()`` per row (numpy's pairwise
    summation): rows of one selected count are summed together as one
    ``(rows, count)`` row sum.  ``count[r]`` must be row ``r``'s number of
    selected positions.
    """
    utility = np.zeros(len(masks))
    for size in np.unique(count):
        rows = np.flatnonzero(count == size)
        picked = np.nonzero(masks[rows])[1].reshape(rows.size, size)
        utility[rows] = values[picked].sum(axis=1)
    return utility


def _first(where: np.ndarray, order: np.ndarray) -> tuple:
    """Per row, the ``where`` column that comes first in ``order``, and whether one exists.

    ``order`` is a stable ``argsort``, so equal keys keep the lower position
    first: the tie rule of a scalar ``argmin``/``argmax`` over ascending
    positions.
    """
    column = order[where[:, order].argmax(axis=1)]
    return column, where[np.arange(len(where)), column]


#: Improving swaps per re-seated row (see :func:`resize_rows`).
MAX_IMPROVING_SWAPS = 4


def resize_rows(
    instance: EpochInstance, masks: np.ndarray, cardinalities: np.ndarray
) -> RowRepair:
    """Re-seat a population of rebased solution rows in one array pass.

    The repair a warm-started solution thread :math:`f_n` needs when
    committee churn broke its exact-``n`` family shape, applied to all
    ``(T, N)`` rows at once.  Each row, independently:

    1. *resize*: trims its lowest-value member while over its cardinality;
       pads with the best-value fitting outsider while short, falling back
       to weight-reducing swaps (heaviest member for lightest outsider)
       when nothing fits; then swaps its heaviest member for the best-value
       lighter outsider until const. (4) holds.  A row fails (``ok``
       false) when its shape is unreachable;
    2. *improve*: up to :data:`MAX_IMPROVING_SWAPS` cardinality-preserving
       improving swaps, each the lowest-value member for the best-value
       outsider that fits the freed capacity, stopping at the first
       non-improving exchange.  The budget is deliberately small: the pass
       re-anchors a stale thread to the drifted instance without collapsing
       the Γ replicas' population diversity onto one greedy point.

    Every move is one step over all active rows, picking each row's first
    qualifying column in a stable value or weight order, and the caches
    evolve exactly as :class:`Solution` moves would evolve them one thread
    at a time:

    * the starting utility is :func:`row_utility`, bit-equal to
      ``values[mask].sum()`` per row;
    * a swap is two flips, ``+= -v_out`` then ``+= v_in``;
    * ties break to the lowest position.

    Draws no randomness, so batching cannot perturb a seeded trajectory.
    """
    values = instance.values
    tx_counts = instance.tx_counts
    capacity = instance.capacity
    n = instance.num_shards
    masks = np.array(masks, dtype=bool)
    cardinalities = np.asarray(cardinalities, dtype=np.int64)
    count = masks.sum(axis=1, dtype=np.int64)
    utility = row_utility(values, masks, count)
    weight = np.where(masks, tx_counts, 0).sum(axis=1)
    ok = np.ones(len(masks), dtype=bool)
    best_value = np.argsort(-values, kind="stable")
    worst_value = np.argsort(values, kind="stable")
    heaviest_first = np.argsort(-tx_counts, kind="stable")
    lightest_first = np.argsort(tx_counts, kind="stable")

    def flip(rows: np.ndarray, positions: np.ndarray, selected: bool) -> None:
        masks[rows, positions] = selected
        sign = 1 if selected else -1
        utility[rows] += values[positions] if selected else -values[positions]
        weight[rows] += sign * tx_counts[positions]
        count[rows] += sign

    def swap(rows: np.ndarray, out: np.ndarray, into: np.ndarray) -> None:
        flip(rows, out, False)
        flip(rows, into, True)

    def fail(rows: np.ndarray, failed: np.ndarray) -> np.ndarray:
        ok[rows[failed]] = False
        return ~failed

    # Resize, phase 1: trim the worst member while over.
    rows = np.flatnonzero(count > cardinalities)
    while rows.size:
        flip(rows, _first(masks[rows], worst_value)[0], False)
        rows = rows[count[rows] > cardinalities[rows]]
    # Phase 2: pad with the best fitting outsider, else a weight-reducing swap.
    rows = np.flatnonzero(count < cardinalities)
    while rows.size:
        live = fail(rows, count[rows] == n)
        selected = masks[rows]
        best, fits = _first(~selected & (tx_counts <= (capacity - weight[rows])[:, None]),
                            best_value)
        flip(rows[fits], best[fits], True)
        stuck = live & ~fits
        if stuck.any():
            stuck[stuck] = fail(rows[stuck], count[rows[stuck]] == 0)
            heaviest = _first(selected[stuck], heaviest_first)[0]
            lightest = _first(~selected[stuck], lightest_first)[0]
            lighter = tx_counts[lightest] < tx_counts[heaviest]
            stuck[stuck] = fail(rows[stuck], ~lighter)
            swap(rows[stuck], heaviest[lighter], lightest[lighter])
        rows = rows[ok[rows] & (count[rows] < cardinalities[rows])]
    # Phase 3: swap the heaviest member for the best lighter outsider until Ĉ holds.
    rows = np.flatnonzero(ok & (weight > capacity))
    while rows.size:
        rows = rows[fail(rows, (count[rows] == 0) | (count[rows] == n))]
        selected = masks[rows]
        heaviest = _first(selected, heaviest_first)[0]
        lighter, found = _first(
            ~selected & (tx_counts < tx_counts[heaviest][:, None]), best_value
        )
        found = fail(rows, ~found)
        rows = rows[found]
        swap(rows, heaviest[found], lighter[found])
        rows = rows[weight[rows] > capacity]
    # Improve: swap the worst member for the best fitting outsider while it gains.
    rows = np.flatnonzero(ok)
    for _ in range(MAX_IMPROVING_SWAPS):
        rows = rows[(count[rows] > 0) & (count[rows] < n)]
        selected = masks[rows]
        worst = _first(selected, worst_value)[0]
        slack = capacity - weight[rows] + tx_counts[worst]
        best, found = _first(~selected & (tx_counts <= slack[:, None]), best_value)
        gains = found & (values[best] > values[worst])
        rows = rows[gains]
        if not rows.size:
            break
        swap(rows, worst[gains], best[gains])
    return RowRepair(ok, masks, utility, weight, count)
