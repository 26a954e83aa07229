"""The benchmark's three seeded, closed-loop epoch workloads.

Each workload runs in this one process on one thread: the next epoch starts
when the previous decision is made.  :func:`run` with ``trace=False`` yields
the end-to-end metrics.  With ``trace=True`` it replays the same epochs
untraced, then with timing wrappers on each layer's public entry point, checks
that both made the same decisions, and yields the layer ledger.

Fixtures and seeds:

- The eth2 workloads run one fixed validator deployment (``DEPLOYMENT_SEED``).
  With ``byzantine_fraction=0.1`` the number of Byzantine-primary
  committees, hence of PBFT replays under the reference DES, varies by about
  40% between deployments, which would swamp any change to the code.  The
  benchmark seed draws each epoch's shard transaction loads and seeds the SE
  scheduler: every decision changes with it, the chain's work does not.
- serve-warm replays one fixed service run (``SERVE_SEED`` seeds both the
  mempool stream and the solver) and does not use the benchmark seed.  Its
  warm solves stop at convergence after 400 to 2000 rounds, so the median of
  26 decisions moves by about 15% between solver seeds, more than any change
  to the code the bound should catch.
"""

from __future__ import annotations

import gc
import resource
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chain import elastico
from repro.chain.elastico import ElasticoSimulation
from repro.chain.final import FinalCommittee
from repro.chain.params import ChainParams
from repro.core.problem import MVComConfig
from repro.core.se import SEConfig, StochasticExploration
from repro.data.stream import EpochStream
from repro.harness import serve
from repro.harness.presets import PRESETS
from repro.harness.serve import ServeConfig, rounds_to_target, run_serve
from repro.harness.tracing import build_telemetry
from repro.obs.telemetry import Telemetry

from ledger import (
    MIN_BEYOND,
    FailureTally,
    LayerClock,
    Patches,
    decision_faults,
    harrell_davis,
    median,
    residual,
    tail_percentile,
)

clock = time.perf_counter

#: Validator-set seed shared by every run of the eth2 workloads.
DEPLOYMENT_SEED = 0
#: Stream and solver seed of every serve-warm run.
SERVE_SEED = 0
#: Mean shard load, the program's own synthetic default (``run_epoch``).
SHARD_TX_MEAN = 1400
#: Deployments built per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest timed epochs a run makes, whatever ``--seconds`` says.
MIN_EPOCHS = 4

#: End-to-end metrics (``--trace 0``) and their units.
E2E_UNITS = {
    "epoch_s": "s",
    "decision_p50_s": "s",
    "decision_tail_s": "s",
    "committed_tx": "tx",
    "cumulative_age": "shard-s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics (``--trace 1``) and their units; times are per timed epoch.
LAYER_UNITS = {
    "epoch.wall_s": "s",
    "formation.busy_s": "s",
    "formation.committees_formed": "count",
    "formation.fill_share": "share",
    "pbft.busy_s": "s",
    "pbft.committees": "count",
    "pbft.submitted": "count",
    "pbft.fallbacks": "count",
    "pbft.fallbacks.byzantine_primary": "count",
    "pbft.fallbacks.view_change_timeout": "count",
    "pbft.fallback_share": "share",
    "pbft.kernel_s": "s",
    "pbft.fallback_s": "s",
    "final.busy_s": "s",
    "final.arrived": "count",
    "final.permitted": "count",
    "se.busy_s": "s",
    "se.rounds": "count",
    "se.round_us": "us",
    "se.rounds_to_99": "count",
    "se.converged_share": "share",
    "stream.busy_s": "s",
    "stream.txs_fed": "tx",
    "stream.churned": "count",
    "obs.records": "count",
    "obs.overhead_s": "s",
    "setup.deploy_s": "s",
    "setup.warmup_s": "s",
    "unattributed_s": "s",
    "unattributed_share": "share",
    "trace.overhead_share": "share",
}


@dataclass(frozen=True)
class ChainWorkload:
    """An eth2-shaped Elastico deployment, differing only in size and faults."""

    num_nodes: int
    overrides: Dict[str, float]
    nominal_epoch_s: float


@dataclass(frozen=True)
class ServeWorkload:
    """``mvcom serve`` at the ``BENCH_serve`` shape."""

    num_committees: int
    gamma: int
    churn: float
    iterations: int
    window: int
    nominal_epoch_s: float


WORKLOADS = {
    "eth2-honest": ChainWorkload(131_072, {"byzantine_fraction": 0.0}, 1.6),
    "byzantine-fallback": ChainWorkload(32_768, {}, 6.5),
    "serve-warm": ServeWorkload(100, 25, 0.1, 2000, 400, 0.77),
}


@dataclass
class RunResult:
    """What one benchmark run reports."""

    metrics: Dict[str, float]
    units: Dict[str, str]
    tally: FailureTally
    notes: List[str]


def timed_epochs(seconds: float, nominal_epoch_s: float, minimum: int = MIN_EPOCHS) -> int:
    """Epochs worth ``seconds`` of nominal work.

    The count depends only on the arguments, so a seed always times the same
    epochs and its decisions repeat exactly.
    """
    return max(minimum, int(round(seconds / nominal_epoch_s)))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rounds_to_99(trace: np.ndarray) -> int:
    """SE rounds until the incumbent is within 1% of its final utility.

    Same convention as ``repro.harness.serve.time_to_99``: a negative final
    utility is approached from below, so the target is ``final / 0.99``.
    """
    final = float(trace[-1])
    return rounds_to_target(trace, 0.99 * final if final >= 0 else final / 0.99)


def _decision_metrics(decision_walls: Sequence[float]) -> Tuple[Dict[str, float], str]:
    """Harrell–Davis estimates of the decision median and tail.

    The tail rule picks the percentile.  serve-warm's decisions differ in
    work (a warm solve stops after 400 to 2000 rounds), so host noise
    reorders neighbouring walls, and a single order statistic jumps between
    them from run to run.
    """
    tail = tail_percentile(decision_walls)
    note = (
        f"Harrell-Davis estimates over {tail.samples} decisions; decision_tail_s "
        f"is p{tail.percentile} ({tail.beyond} beyond it)"
    )
    metrics = {
        "decision_p50_s": harrell_davis(decision_walls, 0.5),
        "decision_tail_s": harrell_davis(decision_walls, tail.percentile / 100),
    }
    return metrics, note


# ---------------------------------------------------------------------- #
# eth2 workloads: ElasticoSimulation.run_epoch_streaming per epoch
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Decision:
    """One SE solve made for the final committee."""

    wall_s: float
    rounds: int
    converged: bool
    utility_trace: np.ndarray


@dataclass(frozen=True)
class ChainEpoch:
    """One checked eth2 epoch."""

    wall_s: float
    decision: Optional[Decision]
    committed_tx: int
    cumulative_age: float
    block_hash: str


class Deployment:
    """An Elastico deployment whose final committee schedules with SE.

    The scheduler is the injection point the orchestrator already offers,
    so every solve is timed here without a wrapper.
    """

    def __init__(self, workload: ChainWorkload, seed: int) -> None:
        preset = PRESETS["eth2scale"]
        extras = preset.extras
        self.params = ChainParams(
            num_nodes=workload.num_nodes,
            committee_size=extras["committee_size"],
            seed=DEPLOYMENT_SEED,
            chain_engine="fastpath",
            max_batch_bytes=extras["max_batch_bytes"],
            **workload.overrides,
        )
        self.solver = StochasticExploration(
            SEConfig(
                engine="auto",
                num_threads=preset.gamma,
                max_iterations=preset.se_iterations,
                convergence_window=min(preset.se_iterations, preset.convergence_window),
                seed=seed,
            )
        )
        self.decisions: List[Decision] = []
        self.sim = ElasticoSimulation(
            self.params,
            mvcom_config=MVComConfig(
                capacity=extras["capacity_per_committee"] * self.params.num_committees
            ),
            scheduler=self._schedule,
        )

    def _schedule(self, instance) -> np.ndarray:
        started = clock()
        result = self.solver.solve(instance)
        wall = clock() - started
        self.decisions.append(
            Decision(wall, int(result.iterations), bool(result.converged), result.utility_trace)
        )
        return result.best_mask

    def run_epoch(self, tx_counts: np.ndarray, tally: FailureTally) -> ChainEpoch:
        """One epoch, checked: a feasible decision sealed onto the previous head."""
        head = self.sim.chain.head_hash
        decided = len(self.decisions)
        started = clock()
        outcome = self.sim.run_epoch_streaming(tx_counts)
        wall = clock() - started
        final = outcome.final
        decision = self.decisions[-1] if len(self.decisions) > decided else None
        if final is None:
            tally.record(outcome.epoch, ["no final block committed"])
            return ChainEpoch(wall, decision, 0, 0.0, "")
        instance, mask = final.instance, final.permitted_mask
        faults = decision_faults(
            int(mask.sum()), instance.weight(mask), instance.n_min, instance.capacity
        )
        if final.block.parent_hash != head or self.sim.chain.head_hash != final.block.block_hash:
            faults.append("final block does not extend the previous head")
        tally.record(outcome.epoch, faults)
        return ChainEpoch(
            wall, decision, final.permitted_txs, instance.cumulative_age(mask),
            final.block.block_hash,
        )


def shard_loads(seed: int, epochs: int, num_committees: int) -> List[np.ndarray]:
    """Per-epoch shard transaction counts drawn from the benchmark seed."""
    rng = np.random.default_rng(seed)
    return [rng.poisson(SHARD_TX_MEAN, size=num_committees) for _ in range(epochs)]


def _chain_inputs(workload: ChainWorkload, seed: int, seconds: float):
    """Timed epoch count and the shard loads of the warm-up plus timed epochs."""
    epochs = timed_epochs(seconds, workload.nominal_epoch_s)
    num_committees = ChainParams(
        num_nodes=workload.num_nodes,
        committee_size=PRESETS["eth2scale"].extras["committee_size"],
    ).num_committees
    return epochs, shard_loads(seed, 1 + epochs, num_committees)


def _chain_e2e(
    warmups: Sequence[ChainEpoch], records: Sequence[ChainEpoch], setups: Sequence[float]
):
    """End-to-end metrics of the timed ``records``.

    The decision metrics pool the warm-up epochs' solves too: the eth2 epochs
    are slow, and a median of the few timed solves alone is mostly host noise.
    """
    walls = [r.wall_s for r in records]
    decisions = [r.decision.wall_s for r in (*warmups, *records) if r.decision is not None]
    metrics = {"epoch_s": sum(walls) / len(walls)}
    notes = []
    if decisions:
        decision_metrics, note = _decision_metrics(decisions)
        metrics.update(decision_metrics)
        notes.append(note)
    metrics["committed_tx"] = float(np.mean([r.committed_tx for r in records]))
    metrics["cumulative_age"] = float(np.mean([r.cumulative_age for r in records]))
    metrics["setup_s"] = median(setups)
    return metrics, notes


def run_chain(workload: ChainWorkload, seed: int, seconds: float) -> RunResult:
    epochs, loads = _chain_inputs(workload, seed, seconds)
    tally = FailureTally()
    setups, warmups = [], []
    deployment = None
    for _ in range(SETUP_REPEATS):
        deployment = None
        gc.collect()
        started = clock()
        deployment = Deployment(workload, seed)
        warmups.append(deployment.run_epoch(loads[0], tally))
        setups.append(clock() - started)
    records = [deployment.run_epoch(loads[e], tally) for e in range(1, 1 + epochs)]
    metrics, notes = _chain_e2e(warmups, records, setups)
    metrics["peak_rss_mib"] = peak_rss_mib()
    notes.append(f"{epochs} timed epochs, setup repeated {SETUP_REPEATS}x")
    return RunResult(metrics, E2E_UNITS, tally, notes)


class Stage3Probe:
    """Times stage 3 and splits it into the batched kernel and the DES fallbacks.

    Installed as a sink of a wall-clocked hub, it reads the program's own
    ``chain.fastpath.chunks`` event (stamped just before the kernel runs) and
    ``chain.fastpath.fallback`` events (one per DES replay, with its reason).
    The fallbacks run after the kernel, until stage 3 returns.
    """

    def __init__(self, layers: LayerClock) -> None:
        self.layers = layers
        self.reasons: Counter = Counter()
        self.committees = 0
        self.submitted = 0
        self._kernel_from: Optional[float] = None
        self._fallback_from: Optional[float] = None

    def emit(self, record: dict) -> None:
        name = record.get("name")
        if name == "chain.fastpath.chunks":
            self._kernel_from = record["wall"]
        elif name == "chain.fastpath.fallback":
            self.reasons[record["reason"]] += 1
            if self._fallback_from is None:
                self._fallback_from = record["wall"]

    def wrap(self, stage3: Callable) -> Callable:
        def timed_stage3(committees, *args, **kwargs):
            self._kernel_from = self._fallback_from = None
            started = clock()
            submitted = stage3(committees, *args, **kwargs)
            ended = clock()
            self.layers.add("pbft", ended - started)
            fallback_from = self._fallback_from if self._fallback_from is not None else ended
            if self._kernel_from is not None:
                self.layers.add("pbft.kernel", fallback_from - self._kernel_from)
            self.layers.add("pbft.fallback", ended - fallback_from)
            self.committees += len(committees)
            self.submitted += submitted
            return submitted

        return timed_stage3


def _timed_final_committee(layers: LayerClock, deployment: Deployment, counts: Counter):
    """A ``FinalCommittee`` whose ``run_streaming`` is timed minus its SE solve."""

    class TimedFinalCommittee(FinalCommittee):
        def run_streaming(self, *args, **kwargs):
            decided = len(deployment.decisions)
            started = clock()
            result = super().run_streaming(*args, **kwargs)
            elapsed = clock() - started
            solve_s = sum(d.wall_s for d in deployment.decisions[decided:])
            layers.add("final", elapsed - solve_s)
            if result is not None:
                counts["arrived"] += result.instance.num_shards
                counts["permitted"] += result.permitted_committees
            return result

    return TimedFinalCommittee


def trace_chain(workload: ChainWorkload, seed: int, seconds: float) -> RunResult:
    epochs, loads = _chain_inputs(workload, seed, seconds)
    tally = FailureTally()

    reference = Deployment(workload, seed)
    reference.run_epoch(loads[0], tally)
    untraced = [reference.run_epoch(loads[e], tally) for e in range(1, 1 + epochs)]
    reference = None
    gc.collect()

    started = clock()
    deployment = Deployment(workload, seed)
    deploy_s = clock() - started
    started = clock()
    deployment.run_epoch(loads[0], tally)
    warmup_s = clock() - started

    layers = LayerClock(clock)
    probe = Stage3Probe(layers)
    hub = Telemetry(wall_clock=clock, sinks=[probe])
    final_counts: Counter = Counter()
    formed: List[int] = []
    sim = deployment.sim
    originals = _chain_entry_points(sim)
    with Patches() as patches:
        patches.replace(sim, "telemetry", hub)
        patches.replace(
            sim, "form_committees",
            layers.wrap("formation", sim.form_committees,
                        on_result=lambda committees, _: formed.append(len(committees))),
        )
        patches.replace(
            elastico, "run_intra_consensus_streaming",
            probe.wrap(elastico.run_intra_consensus_streaming),
        )
        patches.replace(
            elastico, "FinalCommittee",
            _timed_final_committee(layers, deployment, final_counts),
        )
        decided = len(deployment.decisions)
        traced = [deployment.run_epoch(loads[e], tally) for e in range(1, 1 + epochs)]
    if _chain_entry_points(sim) != originals:
        tally.fail_run("a timing wrapper was not restored")
    key = lambda r: (r.block_hash, r.committed_tx, r.cumulative_age)
    if [key(r) for r in untraced] != [key(r) for r in traced]:
        tally.fail_run("traced and untraced runs made different decisions")

    n = len(traced)
    epoch_wall = sum(r.wall_s for r in traced) / n
    untraced_wall = sum(r.wall_s for r in untraced) / n
    decisions = deployment.decisions[decided:]
    se_s = sum(d.wall_s for d in decisions) / n
    busy = {
        "formation": layers.total("formation") / n,
        "pbft": layers.total("pbft") / n,
        "final": layers.total("final") / n,
        "se": se_s,
    }
    unattributed, share = residual(epoch_wall, busy)
    fallbacks = sum(probe.reasons.values())
    rounds = sum(d.rounds for d in decisions)
    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    metrics.update({
        "epoch.wall_s": epoch_wall,
        "formation.busy_s": busy["formation"],
        "formation.committees_formed": sum(formed) / n,
        "formation.fill_share": sum(formed) / (n * deployment.params.num_committees),
        "pbft.busy_s": busy["pbft"],
        "pbft.committees": probe.committees / n,
        "pbft.submitted": probe.submitted / n,
        "pbft.fallbacks": fallbacks / n,
        "pbft.fallbacks.byzantine_primary": probe.reasons["byzantine-primary"] / n,
        "pbft.fallbacks.view_change_timeout": probe.reasons["view-change-timeout"] / n,
        "pbft.fallback_share": fallbacks / max(probe.committees, 1),
        "pbft.kernel_s": layers.total("pbft.kernel") / n,
        "pbft.fallback_s": layers.total("pbft.fallback") / n,
        "final.busy_s": busy["final"],
        "final.arrived": final_counts["arrived"] / n,
        "final.permitted": final_counts["permitted"] / n,
        "se.busy_s": se_s,
        "se.rounds": rounds / n,
        "se.round_us": 1e6 * se_s * n / max(rounds, 1),
        "se.rounds_to_99": float(np.mean([rounds_to_99(d.utility_trace) for d in decisions])),
        "se.converged_share": sum(d.converged for d in decisions) / len(decisions),
        "setup.deploy_s": deploy_s,
        "setup.warmup_s": warmup_s,
        "unattributed_s": unattributed,
        "unattributed_share": share,
        "trace.overhead_share": (epoch_wall - untraced_wall) / untraced_wall,
    })
    notes = [
        f"{epochs} timed epochs; fallbacks by reason: {dict(probe.reasons) or 'none'}",
        _share_note(epoch_wall, {
            "formation": busy["formation"],
            "pbft.kernel": metrics["pbft.kernel_s"],
            "pbft.fallback": metrics["pbft.fallback_s"],
            "pbft.other": busy["pbft"] - metrics["pbft.kernel_s"] - metrics["pbft.fallback_s"],
            "final": busy["final"],
            "se": se_s,
            "unattributed": unattributed,
        }),
    ]
    return RunResult(metrics, LAYER_UNITS, tally, notes)


def _chain_entry_points(sim: ElasticoSimulation) -> tuple:
    """The names the traced run wraps, as the orchestrator would look them up."""
    return (
        vars(sim).get("telemetry"),
        vars(sim).get("form_committees"),
        elastico.run_intra_consensus_streaming,
        elastico.FinalCommittee,
    )


def _share_note(epoch_wall: float, busy: Dict[str, float]) -> str:
    parts = ", ".join(f"{name} {100 * s / epoch_wall:.1f}%" for name, s in busy.items())
    return f"share of the {epoch_wall:.3f} s epoch: {parts}"


# ---------------------------------------------------------------------- #
# serve-warm: one repro.harness.serve.run_serve loop iteration per epoch
# ---------------------------------------------------------------------- #
class EpochMarks:
    """Hub sink stamping the end of each ``run_serve`` iteration.

    ``run_serve`` emits one ``serve.epoch`` event per loop iteration, after
    the decision; its wall stamp closes the iteration.
    """

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.seqs: List[int] = []

    def emit(self, record: dict) -> None:
        if record.get("name") == "serve.epoch":
            self.walls.append(record["wall"])
            self.seqs.append(record["seq"])


@dataclass
class ServeRun:
    """One ``run_serve`` call observed from outside."""

    report: object
    started: float
    marks: EpochMarks

    @property
    def setup_s(self) -> float:
        """Service start to the end of epoch 0's cold bootstrap."""
        return self.marks.walls[0] - self.started

    @property
    def epoch_walls(self) -> List[float]:
        """Walls of the timed iterations (epoch 1 onwards)."""
        walls = self.marks.walls
        return [b - a for a, b in zip(walls, walls[1:])]


def serve_config(workload: ServeWorkload, epochs: int) -> ServeConfig:
    return ServeConfig(
        epochs=epochs,
        num_committees=workload.num_committees,
        churn=workload.churn,
        gamma=workload.gamma,
        seed=SERVE_SEED,
        max_iterations=workload.iterations,
        convergence_window=workload.window,
        engine="auto",
        warm=True,
    )


def serve_once(config: ServeConfig) -> ServeRun:
    """``run_serve`` on the hub ``mvcom serve`` builds, plus the epoch marks."""
    marks = EpochMarks()
    hub = build_telemetry()
    hub.add_sink(marks)
    started = clock()
    report = run_serve(config, telemetry=hub, collect_results=True)
    return ServeRun(report, started, marks)


def _check_serve(report, tally: FailureTally) -> None:
    for row, result in zip(report.rows, report.results):
        instance, mask = result.final_instance, result.best_mask
        faults = decision_faults(
            int(mask.sum()), instance.weight(mask), instance.n_min, instance.capacity
        )
        if row.weight != int(result.best_weight):
            faults.append("reported weight differs from the decision")
        tally.record(row.epoch, faults)


def _serve_key(result) -> tuple:
    return (result.best_utility, int(result.best_weight), result.best_mask.tobytes())


def run_serve_workload(workload: ServeWorkload, seconds: float) -> RunResult:
    epochs = timed_epochs(seconds, workload.nominal_epoch_s, minimum=2 * MIN_BEYOND + 1)
    config = serve_config(workload, 1 + epochs)
    tally = FailureTally()
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        start_only = serve_once(replace(config, epochs=1))
        _check_serve(start_only.report, tally)
        setups.append(start_only.setup_s)
        start_only = None
        gc.collect()
    run = serve_once(config)
    _check_serve(run.report, tally)
    setups.append(run.setup_s)
    rows = run.report.rows[1:]
    metrics = {"epoch_s": sum(run.epoch_walls) / epochs}
    decision_metrics, note = _decision_metrics([row.wall_s for row in rows])
    metrics.update(decision_metrics)
    metrics["committed_tx"] = float(np.mean([row.weight for row in rows]))
    metrics["cumulative_age"] = float(np.mean([
        r.final_instance.cumulative_age(r.best_mask) for r in run.report.results[1:]
    ]))
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mib"] = peak_rss_mib()
    rounds = sum(row.iterations for row in rows)
    notes = [note, f"{epochs} timed epochs, {rounds / epochs:.0f} SE rounds per epoch, "
             f"setup repeated {SETUP_REPEATS}x"]
    return RunResult(metrics, E2E_UNITS, tally, notes)


def bare_replay(config: ServeConfig) -> Tuple[List[float], List]:
    """The serve decisions without the service: ``advance`` + warm ``solve``.

    The solver keeps its default ``NULL_TELEMETRY`` hub, so no sink runs.
    Returns each iteration's wall and each decision.
    """
    stream = EpochStream(config.stream_config())
    solver = StochasticExploration(config.solver_config(0))
    previous = None
    permitted: List[int] = []
    walls, results = [], []
    for _ in range(config.epochs):
        started = clock()
        tick = stream.advance(permitted)
        result = solver.solve(tick.instance, warm=previous)
        previous = result
        instance = result.final_instance
        permitted = [instance.shard_ids[i] for i in np.flatnonzero(result.best_mask)]
        walls.append(clock() - started)
        results.append(result)
    return walls, results


def trace_serve(workload: ServeWorkload, seconds: float) -> RunResult:
    epochs = timed_epochs(seconds, workload.nominal_epoch_s, minimum=2 * MIN_BEYOND + 1)
    config = serve_config(workload, 1 + epochs)
    tally = FailureTally()

    untraced = serve_once(config)
    _check_serve(untraced.report, tally)

    layers = LayerClock(clock)
    solves: List = []
    ticks: List = []

    def timed_stream(*args, **kwargs):
        started = clock()
        stream = EpochStream(*args, **kwargs)
        layers.add("deploy", clock() - started)
        stream.advance = layers.wrap(
            "stream", stream.advance, on_result=lambda tick, _: ticks.append(tick)
        )
        return stream

    def timed_solver(*args, **kwargs):
        started = clock()
        solver = StochasticExploration(*args, **kwargs)
        layers.add("deploy", clock() - started)
        solver.solve = layers.wrap(
            "se", solver.solve, on_result=lambda result, wall: solves.append((result, wall))
        )
        return solver

    originals = (serve.EpochStream, serve.StochasticExploration)
    with Patches() as patches:
        patches.replace(serve, "EpochStream", timed_stream)
        patches.replace(serve, "StochasticExploration", timed_solver)
        traced = serve_once(config)
    if (serve.EpochStream, serve.StochasticExploration) != originals:
        tally.fail_run("a timing wrapper was not restored")
    _check_serve(traced.report, tally)

    replay_walls, replayed = bare_replay(config)
    reference = [_serve_key(r) for r in untraced.report.results]
    if [_serve_key(r) for r in traced.report.results] != reference:
        tally.fail_run("traced and untraced runs made different decisions")
    if [_serve_key(r) for r in replayed] != reference:
        tally.fail_run("the bare replay made different decisions from run_serve")

    walls = traced.epoch_walls
    epoch_wall = sum(walls) / epochs
    untraced_wall = sum(untraced.epoch_walls) / epochs
    stream_s = sum(layers.samples["stream"][1:]) / epochs
    timed_solves = solves[1:]
    se_s = sum(wall for _, wall in timed_solves) / epochs
    unattributed, share = residual(epoch_wall, {"stream": stream_s, "se": se_s})
    rounds = sum(int(r.iterations) for r, _ in timed_solves)
    seqs = traced.marks.seqs
    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    metrics.update({
        "epoch.wall_s": epoch_wall,
        "se.busy_s": se_s,
        "se.rounds": rounds / epochs,
        "se.round_us": 1e6 * se_s * epochs / max(rounds, 1),
        "se.rounds_to_99": float(np.mean([
            rounds_to_99(r.utility_trace)
            for r, _ in timed_solves
        ])),
        "se.converged_share": sum(bool(r.converged) for r, _ in timed_solves) / epochs,
        "stream.busy_s": stream_s,
        "stream.txs_fed": sum(t.txs_fed for t in ticks[1:]) / epochs,
        "stream.churned": sum(len(t.departed) for t in ticks[1:]) / epochs,
        "obs.records": (seqs[-1] - seqs[0]) / epochs,
        "obs.overhead_s": untraced_wall - sum(replay_walls[1:]) / epochs,
        "setup.deploy_s": layers.total("deploy"),
        "setup.warmup_s": traced.setup_s - layers.total("deploy"),
        "unattributed_s": unattributed,
        "unattributed_share": share,
        "trace.overhead_share": (epoch_wall - untraced_wall) / untraced_wall,
    })
    notes = [
        f"{epochs} timed epochs; bare replay {sum(replay_walls[1:]) / epochs:.4f} s/epoch "
        f"against run_serve {untraced_wall:.4f} s/epoch",
        _share_note(epoch_wall, {
            "stream": stream_s, "se": se_s, "obs (inside se)": metrics["obs.overhead_s"],
            "unattributed": unattributed,
        }),
    ]
    return RunResult(metrics, LAYER_UNITS, tally, notes)


def run(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    workload = WORKLOADS[name]
    if isinstance(workload, ServeWorkload):
        return (trace_serve if trace else run_serve_workload)(workload, seconds)
    return (trace_chain if trace else run_chain)(workload, seed, seconds)
