"""Replayable storm reproducers: one document shape per storm, one I/O path.

A violated storm becomes a JSON document that replays bit-for-bit from
its stored seed, so a CI artifact is a complete bug report:

* ``mvcom-storm-reproducer-v1`` (:func:`make_reproducer`) — one SE solve:
  the storm config and its (usually shrunk) event schedule;
* ``mvcom-serve-reproducer-v1`` (:func:`make_serve_reproducer`) — the
  serve loop: the serve-storm config and the whole epoch-by-epoch event
  history up to the failure.

:func:`save_reproducer` / :func:`load_reproducer` read and write either
tag (anything else is rejected), and :func:`replay_reproducer` dispatches
on it.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Dict, Optional, Sequence, Union

from repro.core.dynamics import CommitteeEvent, EventKind
from repro.faultinject.invariants import KNOWN_INVARIANTS
from repro.faultinject.runner import StormOutcome, run_storm
from repro.faultinject.serve import ServeStormConfig, ServeStormOutcome, run_serve_storm
from repro.faultinject.storm import StormConfig
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry

#: On-disk format tag for single-solve reproducer files.
REPRODUCER_FORMAT = "mvcom-storm-reproducer-v1"

#: On-disk format tag for serve-mode reproducer files.
SERVE_REPRODUCER_FORMAT = "mvcom-serve-reproducer-v1"


def event_to_json(event: CommitteeEvent) -> Dict:
    """One event as a JSON-safe dict (kind stored by enum value)."""
    payload: Dict = {
        "iteration": int(event.iteration),
        "kind": event.kind.value,
        "shard_id": int(event.shard_id),
    }
    if event.kind is EventKind.JOIN:
        payload["tx_count"] = int(event.tx_count)
        payload["latency"] = float(event.latency)
    return payload


def event_from_json(payload: Dict) -> CommitteeEvent:
    """Inverse of :func:`event_to_json`."""
    return CommitteeEvent(
        iteration=int(payload["iteration"]),
        kind=EventKind(payload["kind"]),
        shard_id=int(payload["shard_id"]),
        tx_count=payload.get("tx_count"),
        latency=payload.get("latency"),
    )


def make_reproducer(
    outcome: StormOutcome,
    events: Optional[Sequence[CommitteeEvent]] = None,
) -> Dict:
    """A replayable JSON document for a violated single-solve outcome.

    ``events`` defaults to the outcome's full schedule; pass the shrunk
    list to store the minimal reproducer instead.
    """
    if outcome.violation is None:
        raise ValueError("a reproducer records a violation; this outcome has none")
    chosen = list(events if events is not None else outcome.events)
    return {
        "format": REPRODUCER_FORMAT,
        "config": asdict(outcome.config),
        "armed": list(outcome.armed),
        "failure": {
            "invariant": outcome.violation.invariant,
            "iteration": outcome.violation.iteration,
            "message": str(outcome.violation),
        },
        "events": [event_to_json(event) for event in chosen],
    }


def make_serve_reproducer(outcome: ServeStormOutcome) -> Dict:
    """A replayable JSON document for a failed serve-storm run.

    Stores the *entire* epoch-by-epoch event history (earlier epochs set
    up the stream/warm state the failing epoch inherits), so replaying is
    a pure function of this document.
    """
    if outcome.violation is None and outcome.status != "infeasible":
        raise ValueError("a reproducer records a failure; this outcome has none")
    failure: Dict = {"epoch": outcome.failed_epoch}
    if outcome.violation is not None:
        failure["invariant"] = outcome.violation.invariant
        failure["iteration"] = outcome.violation.iteration
        failure["message"] = str(outcome.violation)
    else:
        failure["infeasible_reason"] = outcome.infeasible_reason
    return {
        "format": SERVE_REPRODUCER_FORMAT,
        "config": asdict(outcome.config),
        "armed": list(outcome.armed),
        "failure": failure,
        "events_by_epoch": [
            [event_to_json(event) for event in epoch.events]
            for epoch in outcome.epoch_outcomes
        ],
    }


def _checked_format(reproducer, source: str) -> str:
    fmt = reproducer.get("format") if isinstance(reproducer, dict) else None
    if fmt not in (REPRODUCER_FORMAT, SERVE_REPRODUCER_FORMAT):
        raise ValueError(
            f"{source} is not a {REPRODUCER_FORMAT} or {SERVE_REPRODUCER_FORMAT} "
            f"file (format={fmt!r})"
        )
    return fmt


def save_reproducer(path: str, reproducer: Dict) -> None:
    """Write a reproducer deterministically (sorted keys, stable floats)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reproducer, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_reproducer(path: str) -> Dict:
    """Read a reproducer of either format, validating the format tag."""
    with open(path, "r", encoding="utf-8") as handle:
        reproducer = json.load(handle)
    _checked_format(reproducer, path)
    return reproducer


def replay_reproducer(
    reproducer: Dict,
    telemetry: NullTelemetry = NULL_TELEMETRY,
    engine: str = "serial",
) -> Union[StormOutcome, ServeStormOutcome]:
    """Re-run a stored reproducer exactly (same seeds, same events, same arms).

    A single-solve document replays through :func:`run_storm` on
    ``engine``; storms deliberately default to ``serial`` rather than
    ``auto``, because a reproducer must replay byte-for-byte on any
    machine and ``auto`` may route large instances to the distributional
    batched kernel.  A serve document replays through
    :func:`run_serve_storm`, which pins ``serial`` itself.  Custom
    ``extra_invariants`` cannot be serialised, so a document recorded with
    them replays with the built-in subset (the stored failure data still
    names the original invariant).
    """
    armed = tuple(name for name in reproducer["armed"] if name in KNOWN_INVARIANTS)
    config = dict(reproducer["config"])
    if _checked_format(reproducer, "reproducer") == SERVE_REPRODUCER_FORMAT:
        events_by_epoch = [
            [event_from_json(payload) for payload in events]
            for events in reproducer["events_by_epoch"]
        ]
        return run_serve_storm(
            ServeStormConfig(**config),
            events_by_epoch=events_by_epoch,
            armed=armed,
            telemetry=telemetry,
        )
    # Documents written before the chain-loop storm was removed carry
    # ``"epochs": 1``; a single solve has no epoch count.
    config.pop("epochs", None)
    return run_storm(
        StormConfig(**config),
        events=[event_from_json(payload) for payload in reproducer["events"]],
        armed=armed,
        telemetry=telemetry,
        engine=engine,
    )
