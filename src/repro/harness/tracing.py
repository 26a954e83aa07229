"""Traced runs: wire a live telemetry hub into one SE + chain-phase solve.

This is the harness side of :mod:`repro.obs`: it is the one place that owns
wall clocks and sinks (the instrumented packages only ever *receive* a
hub), builds the standard hub for ``mvcom solve --trace``, and runs a
small end-to-end scenario -- an epoch workload through
:class:`~repro.core.se.StochasticExploration` followed by a final-committee
PBFT round on the DES substrate -- so one JSONL stream contains SE
transition/RESET events, sim-engine stats, and a chain-phase span.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.chain.committee import Committee, run_pbft_rounds
from repro.chain.node import spawn_nodes
from repro.chain.params import ChainParams
from repro.chain.pbft import PbftOutcome
from repro.core.se import SEConfig, SEResult, StochasticExploration
from repro.data.workload import WorkloadConfig, generate_epoch_workload
from repro.obs.profiling import profile_call
from repro.obs.sinks import JsonlSink, RingBufferSink
from repro.obs.telemetry import Telemetry
from repro.sim.rng import RandomStreams


def build_telemetry(trace_path: Optional[str] = None) -> Telemetry:
    """The harness's standard hub: ring buffer + optional JSONL stream.

    Wall time comes from ``time.perf_counter`` -- legitimate here because
    the harness is *outside* the replayable packages; deterministic ``t``
    stamps stay on the hub's emission sequence.
    """
    sinks: List = [RingBufferSink()]
    if trace_path is not None:
        sinks.append(JsonlSink(trace_path))
    return Telemetry(wall_clock=time.perf_counter, sinks=sinks)


def sample_resources() -> Optional[dict]:
    """Peak RSS and CPU times of this process via ``resource.getrusage``.

    Harness-only by design (wall/OS state would break MV102 inside the
    replayable packages); returns ``None`` where the stdlib ``resource``
    module is unavailable (non-POSIX platforms) so callers can skip the
    gauge instead of crashing.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only module
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is KiB on Linux but bytes on macOS.
    divisor = 1024.0 if sys.platform == "darwin" else 1.0
    return {
        "peak_rss_kib": usage.ru_maxrss / divisor,
        "user_s": usage.ru_utime,
        "system_s": usage.ru_stime,
    }


def emit_resource_gauge(
    telemetry: Telemetry,
    wall_s: Optional[float] = None,
    sampler: Optional[Callable[[], Optional[dict]]] = None,
) -> Optional[dict]:
    """Emit the opt-in ``obs.resources`` gauge into an injected hub.

    One ``obs.resources`` event carries the full sample (peak RSS, CPU
    times, and the caller-measured wall duration) and a companion gauge
    tracks ``peak_rss_kib`` so the metrics aggregator sees it as a keyed
    series.  The hub is injected (MV007-clean) and the sample values are
    machine state, which is why ``mvcom trace diff`` excludes
    ``obs.resources*`` series from regression comparison by default.
    """
    sample = (sampler or sample_resources)()
    if sample is None:
        return None
    fields = dict(sample)
    if wall_s is not None:
        fields["wall_s"] = wall_s
    telemetry.event("obs.resources", **fields)
    telemetry.gauge("obs.resources.peak_rss_kib", float(sample["peak_rss_kib"]))
    return fields


@dataclass
class TracedRun:
    """Everything one traced solve produced."""

    result: SEResult
    pbft: PbftOutcome
    telemetry: Telemetry
    records: List[dict]
    hotspots: List[dict]
    trace_path: Optional[str]


def traced_solve(
    num_committees: int = 100,
    capacity: Optional[int] = None,
    gamma: int = 10,
    seed: int = 0,
    max_iterations: int = 2000,
    convergence_window: int = 500,
    alpha: float = 1.5,
    trace_path: Optional[str] = None,
    profile: bool = False,
    top_n: int = 10,
    telemetry: Optional[Telemetry] = None,
    chain_engine: str = "des",
    resources: bool = False,
    resource_sampler: Optional[Callable[[], Optional[dict]]] = None,
) -> TracedRun:
    """Run one fully-traced SE solve plus a final-committee PBFT round.

    Builds (or accepts) a telemetry hub, solves a trace-driven epoch
    workload under it, then runs one PBFT round for the final committee so
    the stream carries a chain-phase span.  With ``profile=True`` the
    solver call additionally runs under cProfile and its top-``top_n``
    hotspots land in the same stream as a ``profile.hotspots`` event.

    ``chain_engine`` selects the substrate for the final PBFT round
    (``des`` reference simulation or the ``fastpath`` closed-form kernel),
    which runs through :func:`repro.chain.committee.run_pbft_rounds` like
    every epoch's rounds.  With ``resources=True`` the
    harness-only ``obs.resources`` gauge (peak RSS via ``getrusage``, wall
    from the solve span's ``wall_dt``) is emitted when the solve span closes;
    ``resource_sampler`` injects a fake sampler for tests.
    """
    owns_hub = telemetry is None
    if telemetry is None:
        telemetry = build_telemetry(trace_path)
    ring = next(
        (sink for sink in telemetry.sinks if isinstance(sink, RingBufferSink)), None
    )

    workload = generate_epoch_workload(
        WorkloadConfig(
            num_committees=num_committees,
            capacity=capacity if capacity is not None else 1000 * num_committees,
            alpha=alpha,
            seed=seed,
        )
    )
    solver = StochasticExploration(
        SEConfig(
            num_threads=gamma,
            max_iterations=max_iterations,
            convergence_window=convergence_window,
            seed=seed,
        ),
        telemetry=telemetry,
    )
    hotspots: List[dict] = []
    with telemetry.span("harness.se_solve", committees=num_committees, gamma=gamma) as span:
        if profile:
            result, hotspots = profile_call(
                solver.solve,
                workload.instance,
                telemetry=telemetry,
                name="StochasticExploration.solve",
                top_n=top_n,
            )
        else:
            result = solver.solve(workload.instance)
    if resources:
        emit_resource_gauge(telemetry, wall_s=span.wall_dt, sampler=resource_sampler)

    # One chain-phase: the final committee's PBFT round on the selected engine.
    streams = RandomStreams(seed)
    params = ChainParams(chain_engine=chain_engine)
    members = spawn_nodes(
        count=params.committee_size,
        byzantine_fraction=0.0,
        rng=streams.get("traced-final-members"),
    )
    with telemetry.span("harness.chain_phase"):
        (pbft,) = run_pbft_rounds(
            [Committee(committee_id=0, epoch=0, members=members)],
            ["traced-final"],
            params,
            streams.get("traced-final-pbft"),
            telemetry=telemetry,
        )

    telemetry.event(
        "harness.done",
        utility=result.best_utility,
        iterations=result.iterations,
        converged=result.converged,
        pbft_committed=pbft.committed,
        pbft_latency=pbft.latency if pbft.committed else None,
    )
    records = ring.records if ring is not None else []
    if owns_hub:
        telemetry.close()
    return TracedRun(
        result=result,
        pbft=pbft,
        telemetry=telemetry,
        records=records,
        hotspots=hotspots,
        trace_path=trace_path,
    )
