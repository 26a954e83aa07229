"""``mvcom storm``: churn-storm fault injection from the command line.

Harness glue around :mod:`repro.faultinject`: maps CLI flags onto a
:class:`~repro.faultinject.StormConfig` (one SE solve) or, with
``--epochs N > 1``, onto a warm :class:`~repro.faultinject.ServeStormConfig`
(the serve loop ``mvcom serve`` runs, ``--events`` split evenly over the
epochs), owns the telemetry hub (rule MV007 — the faultinject package only
*receives* one), renders a human summary, and on a violation writes a
reproducer JSON so CI can attach it as an artifact: a single solve writes
its shrunk schedule under ``--shrink``, a serve storm always writes its
whole event history.  ``--replay`` reruns either reproducer format.

Exit codes: 0 for ``survived`` (and for graceful ``infeasible``
degradation), 1 for a ``violated`` invariant — so ``mvcom storm`` slots
directly into a CI job — and 2 for a replay file that is not a reproducer.
"""

from __future__ import annotations

from repro.faultinject import (
    DEFAULT_ARMED,
    ServeStormConfig,
    ServeStormOutcome,
    StormConfig,
    StormOutcome,
    load_reproducer,
    make_reproducer,
    make_serve_reproducer,
    replay_reproducer,
    run_serve_storm,
    run_storm,
    save_reproducer,
    shrink_storm,
)
from repro.harness.tracing import build_telemetry
from repro.obs.telemetry import NULL_TELEMETRY

#: Default path for the reproducer artifact.
DEFAULT_REPRODUCER_PATH = "storm_reproducer.json"


def config_from_args(args) -> StormConfig:
    """Map the CLI namespace onto a single-solve :class:`StormConfig`."""
    return StormConfig(
        seed=args.seed,
        num_events=args.events,
        num_committees=args.committees,
        capacity=args.capacity,
        gamma=args.gamma,
        max_iterations=args.iterations,
        convergence_window=max(args.iterations // 4, 50),
    )


def serve_config_from_args(args) -> ServeStormConfig:
    """Map the CLI namespace onto a warm :class:`ServeStormConfig`."""
    return ServeStormConfig(
        seed=args.seed,
        epochs=args.epochs,
        num_committees=args.committees,
        events_per_epoch=max(args.events // args.epochs, 1),
        gamma=args.gamma,
        max_iterations=args.iterations,
        convergence_window=max(args.iterations // 4, 50),
    )


def _armed_from_args(args):
    armed = DEFAULT_ARMED
    if getattr(args, "strict", False):
        armed = armed + ("strict-n-min",)
    return armed


def _print_outcome(outcome: StormOutcome, label: str = "storm") -> None:
    config = outcome.config
    print(
        f"{label}: seed={config.seed} events={len(outcome.events)} "
        f"committees={config.num_committees} gamma={config.gamma}"
    )
    print(
        f"  status={outcome.status}  boundaries={len(outcome.boundaries)}"
        f"  invariant-checks={outcome.checks_run}"
        f"  theorem2-checks={outcome.theorem2_checked}"
    )
    if outcome.result is not None:
        result = outcome.result
        print(
            f"  iterations={result.iterations}  converged={result.converged}"
            f"  best_utility={result.best_utility:.2f}"
            f"  best_count={result.best_count}  best_weight={result.best_weight}"
        )
    if outcome.violation is not None:
        print(f"  VIOLATION: {outcome.violation}")
    if outcome.infeasible_reason is not None:
        print(f"  infeasible (graceful): {outcome.infeasible_reason}")


def _print_serve_outcome(outcome: ServeStormOutcome) -> None:
    config = outcome.config
    print(
        f"serve storm: seed={config.seed} epochs={config.epochs} "
        f"committees={config.num_committees} gamma={config.gamma} warm={config.warm}"
    )
    print(
        f"  status={outcome.status}  epochs-run={len(outcome.epoch_outcomes)}"
        f"  invariant-checks={outcome.checks_run}"
    )
    for epoch, epoch_outcome in enumerate(outcome.epoch_outcomes):
        _print_outcome(epoch_outcome, label=f"epoch {epoch}")


def _handle_violation(outcome: StormOutcome, args, telemetry) -> None:
    if not getattr(args, "shrink", False):
        return
    print(f"  shrinking {len(outcome.events)}-event schedule ...")
    minimal, probes = shrink_storm(outcome, telemetry=telemetry)
    print(f"  minimal reproducer: {len(minimal.events)} events ({probes} replay probes)")
    for event in sorted(minimal.events, key=lambda e: e.iteration):
        print(f"    it={event.iteration:5d}  {event.kind.name:5s}  shard={event.shard_id}")
    _write(args, make_reproducer(minimal))


def _write(args, reproducer) -> None:
    out_path = args.out or DEFAULT_REPRODUCER_PATH
    save_reproducer(out_path, reproducer)
    print(f"  [reproducer written to {out_path}]")


def _run_replay(args, telemetry) -> int:
    try:
        reproducer = load_reproducer(args.replay)
    except (OSError, ValueError) as exc:
        print(f"mvcom storm: cannot replay: {exc}")
        return 2
    failure = reproducer.get("failure", {})
    print(f"replaying {args.replay}")
    print(f"  recorded failure: [{failure.get('invariant')}] {failure.get('message')}")
    outcome = replay_reproducer(reproducer, telemetry=telemetry)
    if isinstance(outcome, ServeStormOutcome):
        _print_serve_outcome(outcome)
    else:
        _print_outcome(outcome)
    if outcome.status == "violated":
        recorded = failure.get("invariant")
        if recorded and outcome.violation.invariant == recorded:
            print("  replay reproduced the recorded failure")
        return 1
    print("  replay did NOT reproduce the recorded failure")
    return 0


def run_storm_cli(args) -> int:
    """Entry point for ``mvcom storm``; returns the process exit code."""
    telemetry = build_telemetry(args.trace) if args.trace else NULL_TELEMETRY
    try:
        if args.replay:
            return _run_replay(args, telemetry)
        armed = _armed_from_args(args)
        if args.epochs is not None and args.epochs > 1:
            serve_outcome = run_serve_storm(
                serve_config_from_args(args), armed=armed, telemetry=telemetry
            )
            _print_serve_outcome(serve_outcome)
            if serve_outcome.status == "violated":
                _write(args, make_serve_reproducer(serve_outcome))
                return 1
            return 0
        outcome = run_storm(config_from_args(args), armed=armed, telemetry=telemetry)
        _print_outcome(outcome)
        if outcome.status == "violated":
            _handle_violation(outcome, args, telemetry)
            return 1
        return 0
    finally:
        if telemetry is not NULL_TELEMETRY:
            telemetry.close()
            if args.trace:
                print(f"[trace written to {args.trace}]")
