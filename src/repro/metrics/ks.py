"""Two-sample Kolmogorov-Smirnov helpers (no scipy in this environment).

Used by the chain fastpath parity tests and benches to compare latency
samples from the DES reference simulation against the closed-form kernel:
the kernel is distributionally exact only up to one documented
approximation (see :mod:`repro.chain.fastpath`), so equivalence is
asserted statistically rather than byte-wise.  A family of such tests
shares one family-wise level through :func:`holm`.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np


def ks_statistic(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Two-sample KS statistic: sup |F_a - F_b| over the pooled grid."""
    a = np.sort(np.asarray(sample_a, dtype=np.float64))
    b = np.sort(np.asarray(sample_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.union1d(a, b)
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_critical_value(n: int, m: int, alpha: float = 0.01) -> float:
    """Large-sample two-sample KS rejection threshold at level ``alpha``.

    ``c(alpha) * sqrt((n + m) / (n * m))`` with
    ``c(alpha) = sqrt(-ln(alpha / 2) / 2)`` (1.628 at alpha=0.01, matching
    the constant used across the engine-parity tests).
    """
    c_alpha = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c_alpha * math.sqrt((n + m) / (n * m))


def ks_pvalue(d_stat: float, n: int, m: int, terms: int = 100) -> float:
    """Asymptotic p-value for a two-sample KS statistic.

    Kolmogorov's series ``Q(lambda) = 2 * sum_{k>=1} (-1)^{k-1}
    exp(-2 k^2 lambda^2)`` evaluated at the effective-sample-size scaled
    statistic; accurate for the sample sizes the benches use (>= ~25 per
    side).
    """
    if n <= 0 or m <= 0:
        raise ValueError("sample sizes must be positive")
    effective = math.sqrt(n * m / (n + m))
    lam = (effective + 0.12 + 0.11 / effective) * d_stat
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for k in range(1, terms + 1):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return float(min(max(total, 0.0), 1.0))


def ks_two_sample(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    alpha: float = 0.01,
) -> Tuple[float, float, bool]:
    """(statistic, p-value, rejected-at-alpha) for two samples."""
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    d_stat = ks_statistic(a, b)
    p_value = ks_pvalue(d_stat, a.size, b.size)
    return d_stat, p_value, d_stat >= ks_critical_value(a.size, b.size, alpha)


def holm(pvalues: Sequence[float], alpha: float) -> List[bool]:
    """Holm's step-down test: which hypotheses a family rejects at ``alpha``.

    The ``m`` p-values are visited in ascending order; the ``i``-th
    smallest (``i = 0 .. m-1``) is rejected while it is at most
    ``alpha / (m - i)``, and the first one that is not stops the walk, so
    every larger p-value stands too.  The family-wise error rate stays at
    most ``alpha`` under any dependence between the tests.  Returns one
    flag per input, in input order (ties keep input order).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    m = len(pvalues)
    rejected = [False] * m
    for rank, index in enumerate(sorted(range(m), key=lambda i: pvalues[i])):
        if pvalues[index] > alpha / (m - rank):
            break
        rejected[index] = True
    return rejected
