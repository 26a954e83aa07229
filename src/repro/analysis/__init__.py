"""Static analysis & runtime contracts for the MVCom reproduction.

Two halves, one goal — machine-checked determinism and constraint safety:

* :mod:`repro.analysis.engine` + :mod:`repro.analysis.rules` — a per-file
  AST lint pass enforcing the named-RNG-stream discipline (MV001/MV003),
  no wall-clock or entropy reads in replayable code (MV102), and the
  paper-contract documentation convention.  Run it as
  ``python -m repro.analysis src/`` or ``mvcom lint src/``; suppress a
  finding only with an inline ``# repro: ignore[MVxxx]`` pragma.
* :mod:`repro.analysis.contracts` — opt-in runtime assertions
  (``REPRO_CONTRACTS=1``) that solver results satisfy const. (3)-(4).
  The same flag arms :mod:`repro.sim.rng`'s stream ledger, which checks
  at run time that no named stream is derived twice in one scope.

Everything here is stdlib-only so the linter runs in bare CI images.
"""

from repro.analysis.contracts import (
    ContractViolation,
    check_result_feasible,
    check_solution_feasible,
    contracts_enabled,
    feasible_result,
    finite_utility,
    sane_instance,
)
from repro.analysis.diagnostics import Diagnostic, render_report
from repro.analysis.engine import LintEngine, registered_rules, run_analysis

__all__ = [
    "ContractViolation",
    "Diagnostic",
    "LintEngine",
    "check_result_feasible",
    "check_solution_feasible",
    "contracts_enabled",
    "feasible_result",
    "finite_utility",
    "registered_rules",
    "render_report",
    "run_analysis",
    "sane_instance",
]
