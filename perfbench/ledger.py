"""Pure helpers of the epoch benchmark: statistics, checks, the layer ledger.

Nothing here imports :mod:`repro`; the workloads (:mod:`workloads`) feed
these helpers plain numbers, and the tests in ``perfbench/tests`` pin them.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The tail rule needs this many samples strictly above the reported one.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail percentile together with the evidence behind it."""

    percentile: int
    value: float
    samples: int
    beyond: int


def tail_percentile(
    samples: Sequence[float], min_beyond: int = MIN_BEYOND, floor: int = 50
) -> Tail:
    """The highest whole percentile with at least ``min_beyond`` samples beyond it.

    Percentiles use the nearest-rank rule: percentile ``p`` of ``n`` sorted
    samples is the ``ceil(p * n / 100)``-th smallest.  The highest ``p`` whose
    rank leaves ``min_beyond`` samples above it is ``floor(100 (n - m) / n)``.
    A tail below the median means nothing, so with fewer than
    ``2 * min_beyond`` samples the rule stops at percentile ``floor``, which
    then has fewer than ``min_beyond`` samples beyond it.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    percentile = max(floor, 100 * (n - min_beyond) // n)
    rank = max(1, -(-percentile * n // 100))
    return Tail(percentile, float(sorted(samples)[rank - 1]), n, n - rank)


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sequence, as a float."""
    return float(statistics.median(samples))


def harrell_davis(samples: Sequence[float], p: float = 0.5, steps: int = 64) -> float:
    """Harrell–Davis estimate of quantile ``p`` of a non-empty sequence.

    A weighted mean of every order statistic: the ``i``-th smallest of ``n``
    samples weighs the mass a Beta(p(n+1), (1-p)(n+1)) density puts on
    ``((i-1)/n, i/n]``.  It estimates the same quantile as the order
    statistic at that rank, but averages over the samples around it, so noise
    that reorders neighbouring samples moves it far less.  Each cell's mass
    is taken by the midpoint rule on ``steps`` sub-intervals.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile {p} is not inside (0, 1)")
    xs = sorted(float(x) for x in samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1
    h = 1.0 / (n * steps)
    mids = ((k + 0.5) * h for k in range(n * steps))
    density = [math.exp(a * math.log(t) + b * math.log1p(-t)) for t in mids]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def residual(epoch_wall_s: float, busy_s: Dict[str, float]) -> Tuple[float, float]:
    """Epoch wall not covered by the named layers: ``(seconds, share of wall)``."""
    unattributed = epoch_wall_s - sum(busy_s.values())
    share = unattributed / epoch_wall_s if epoch_wall_s > 0 else 0.0
    return unattributed, share


def decision_faults(count: int, weight: int, n_min: int, capacity: int) -> List[str]:
    """The constraints a final-committee decision breaks (empty when feasible).

    Const. (3) asks for at least ``N_min`` permitted shards; const. (4)
    caps the permitted transactions at the final block's capacity.
    """
    faults = []
    if count < n_min:
        faults.append(f"const. (3): {count} shards < N_min {n_min}")
    if weight > capacity:
        faults.append(f"const. (4): {weight} txs > capacity {capacity}")
    return faults


@dataclass
class FailureTally:
    """Attempted/failed epochs, with the first reason of each failure."""

    attempted: int = 0
    failures: List[Tuple[int, str]] = field(default_factory=list)

    def record(self, epoch: int, faults: Sequence[str]) -> None:
        """Count one checked epoch; it failed when ``faults`` is non-empty."""
        self.attempted += 1
        if faults:
            self.failures.append((epoch, "; ".join(faults)))

    def fail_run(self, reason: str) -> None:
        """A run-level check failed (it is charged to no single epoch)."""
        self.failures.append((-1, reason))

    @property
    def failed(self) -> int:
        """Failed epochs (run-level failures count once each)."""
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.failures


class LayerClock:
    """Busy time per layer and call, timed around public entry points."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.samples: Dict[str, List[float]] = {}

    def add(self, layer: str, seconds: float) -> None:
        self.samples.setdefault(layer, []).append(seconds)

    def total(self, layer: str) -> float:
        """Busy seconds of ``layer`` over every call (0.0 if never called)."""
        return sum(self.samples.get(layer, ()))

    def wrap(self, layer: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """``fn`` timed into ``layer``; ``on_result(result, seconds)`` sees each return."""
        clock = self.clock

        def timed(*args, **kwargs):
            started = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - started
            self.add(layer, elapsed)
            if on_result is not None:
                on_result(result, elapsed)
            return result

        return timed


_ABSENT = object()


class Patches:
    """Replace attributes (module globals, instance attributes) and put them back.

    An attribute that lived on the object itself is restored to the very
    same object; one that was only inherited (a method looked up on the
    class) is deleted again, so lookup falls back to the class.  Use as a
    context manager, or call :meth:`restore` explicitly.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, value: object) -> None:
        own = vars(owner).get(name, _ABSENT)
        if own is _ABSENT and not hasattr(owner, name):
            raise AttributeError(f"{owner!r} has no attribute {name!r} to wrap")
        self._saved.append((owner, name, own))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, own = self._saved.pop()
            if own is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, own)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False
