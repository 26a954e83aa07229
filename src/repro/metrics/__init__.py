"""Evaluation metrics.

* :mod:`repro.metrics.valuable_degree` -- the paper's Valuable Degree
  (Section VI-E).
* :mod:`repro.metrics.summary` -- throughput / age / utility summaries per
  schedule.
* :mod:`repro.metrics.traces` -- trace alignment and statistics helpers for
  the convergence figures.
* :mod:`repro.metrics.ks` -- scipy-free two-sample Kolmogorov-Smirnov
  statistic/p-value for the engine-parity tests and benches, and Holm's
  step-down correction for a family of them.
"""

from repro.metrics.valuable_degree import valuable_degree, per_shard_valuable_degree
from repro.metrics.summary import ScheduleSummary, summarize_schedule
from repro.metrics.traces import align_traces, trace_statistics, converged_value
from repro.metrics.fairness import fairness_report, jain_index, selection_counts
from repro.metrics.ks import holm, ks_critical_value, ks_pvalue, ks_statistic, ks_two_sample

__all__ = [
    "holm",
    "ks_critical_value",
    "ks_pvalue",
    "ks_statistic",
    "ks_two_sample",
    "valuable_degree",
    "per_shard_valuable_degree",
    "ScheduleSummary",
    "summarize_schedule",
    "align_traces",
    "trace_statistics",
    "converged_value",
    "fairness_report",
    "jain_index",
    "selection_counts",
]
