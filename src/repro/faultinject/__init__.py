"""Deterministic fault injection for the dynamic-events path.

The paper exercises dynamic committee events with single hand-authored
scenarios (Figs. 9a/9b/14); this package batters the same code with
seeded *churn storms* — bursty correlated leave/join sequences, duplicate
and out-of-order notifications, membership swings to the ``N_min`` floor —
while event-boundary invariants (feasibility, replica conservation,
membership bookkeeping, Theorem-2 perturbation sanity, trace monotonicity)
stay armed.  A failing storm shrinks to a 1-minimal replayable JSON
reproducer.

Entry points: :func:`run_storm` (one SE solve), :func:`run_serve_storm`
(the serve loop, the only multi-epoch storm), :func:`replay_reproducer`
(either reproducer format), ``mvcom storm`` on the command line.
"""

from repro.faultinject.invariants import (
    DEFAULT_INVARIANTS,
    KNOWN_INVARIANTS,
    StormInvariantViolation,
    StormProbe,
    check_trace_monotone,
)
from repro.faultinject.reproducer import (
    REPRODUCER_FORMAT,
    SERVE_REPRODUCER_FORMAT,
    event_from_json,
    event_to_json,
    load_reproducer,
    make_reproducer,
    make_serve_reproducer,
    replay_reproducer,
    save_reproducer,
)
from repro.faultinject.runner import (
    DEFAULT_ARMED,
    StormOutcome,
    build_storm_instance,
    run_storm,
    shrink_storm,
    storm_workload_config,
)
from repro.faultinject.serve import ServeStormConfig, ServeStormOutcome, run_serve_storm
from repro.faultinject.shrink import shrink_events
from repro.faultinject.storm import StormConfig, generate_storm

__all__ = [
    "DEFAULT_ARMED",
    "DEFAULT_INVARIANTS",
    "KNOWN_INVARIANTS",
    "REPRODUCER_FORMAT",
    "SERVE_REPRODUCER_FORMAT",
    "ServeStormConfig",
    "ServeStormOutcome",
    "StormConfig",
    "StormInvariantViolation",
    "StormOutcome",
    "StormProbe",
    "build_storm_instance",
    "check_trace_monotone",
    "event_from_json",
    "event_to_json",
    "generate_storm",
    "load_reproducer",
    "make_reproducer",
    "make_serve_reproducer",
    "replay_reproducer",
    "run_serve_storm",
    "run_storm",
    "save_reproducer",
    "shrink_events",
    "shrink_storm",
    "storm_workload_config",
]
