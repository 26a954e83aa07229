"""MVCom core: the paper's primary contribution.

* :mod:`repro.core.problem` -- the MVCom utility-maximisation problem
  (Section III): epochs, shards, DDL, cumulative age, constraints.
* :mod:`repro.core.solution` -- incremental solution representation.
* :mod:`repro.core.logsumexp` -- log-sum-exp approximation (Section IV-B).
* :mod:`repro.core.markov` -- the designed Markov chain, exact verification
  of detailed balance / irreducibility, Theorem 1 mixing-time bounds.
* :mod:`repro.core.timers` -- exponential timer sampling (eq. 8), log-space.
* :mod:`repro.core.se` -- the online distributed Stochastic-Exploration
  algorithm (Algs. 1-3, Section IV-D).
* :mod:`repro.core.engine` -- the batched SE race kernel (the serial
  reference loop is the test oracle, ``tests/serial_oracle.py``).
* :mod:`repro.core.dynamics` -- committee join/leave/failure event handling.
* :mod:`repro.core.failure` -- Section V analysis (Lemma 4, Theorem 2).
* :mod:`repro.core.exact` -- exact solvers used as ground truth in tests.
"""

from repro.core.problem import EpochInstance, MVComConfig, build_instance
from repro.core.solution import Solution
from repro.core.se import SEConfig, SEResult, StochasticExploration
from repro.core.dynamics import CommitteeEvent, DynamicSchedule, EventKind
from repro.core.exact import branch_and_bound_optimum, brute_force_optimum
from repro.core.bounds import certify, fractional_knapsack_bound, lagrangian_bound
from repro.core.ddl import BudgetedAge, DdlPolicy, FixedTimeout, PercentileArrival

__all__ = [
    "EpochInstance",
    "MVComConfig",
    "build_instance",
    "Solution",
    "SEConfig",
    "SEResult",
    "StochasticExploration",
    "CommitteeEvent",
    "DynamicSchedule",
    "EventKind",
    "brute_force_optimum",
    "branch_and_bound_optimum",
    "certify",
    "fractional_knapsack_bound",
    "lagrangian_bound",
    "BudgetedAge",
    "DdlPolicy",
    "FixedTimeout",
    "PercentileArrival",
]
