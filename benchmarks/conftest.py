"""Shared helpers for the figure benches.

Every bench regenerates one paper figure's series via the harness, asserts
the figure's *qualitative shape* (who wins, directions of trends), prints
the series as an aligned table, and writes CSVs under ``results/``.
Absolute values come from our simulator, not the authors' testbed, so no
bench asserts a specific number from the paper.

Benches can also push SE-solve performance records into the session-scoped
``perf_recorder`` fixture; at session end every record lands in
``BENCH_se_convergence.json`` at the repo root (wall-time per solve,
iteration counts, and the converged-utility statistics from
:func:`repro.metrics.traces.trace_statistics`).
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# Benches that race the serial test oracle import it as ``tests.serial_oracle``.
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

#: Repo-root perf log written by :func:`pytest_sessionfinish`.
BENCH_RECORD_PATH = ROOT / "BENCH_se_convergence.json"

_PERF_RECORDS = {}


def emit(capsys_or_none, text: str) -> None:
    """Print bench output so ``pytest benchmarks/ -s`` shows the figures."""
    print()
    print(text)


@pytest.fixture(scope="session")
def bench_results():
    """Session-scoped cache so multi-test benches reuse one expensive run."""
    return {}


@pytest.fixture(scope="session")
def perf_recorder():
    """Collect named SE-solve perf records for ``BENCH_se_convergence.json``.

    Call it as ``perf_recorder(name, wall_s=..., trace=[...], **extra)``;
    the trace is summarised via ``trace_statistics`` so the JSON carries
    converged utility and iteration counts, not raw series.
    """
    from repro.metrics.traces import trace_statistics

    def record(name, wall_s=None, trace=None, **extra):
        entry = dict(extra)
        if wall_s is not None:
            entry["wall_s_per_solve"] = float(wall_s)
        if trace is not None:
            entry.update(trace_statistics(trace))
        _PERF_RECORDS[name] = entry
        return entry

    return record


def pytest_sessionfinish(session, exitstatus):
    """Merge this session's perf records into the repo-root perf log.

    Merging (rather than overwriting) keeps records from benches that were
    not part of this run, so a partial ``pytest benchmarks/bench_x.py``
    invocation cannot clobber the other benches' entries.
    """
    if not _PERF_RECORDS:
        return
    records = {}
    if BENCH_RECORD_PATH.exists():
        try:
            records = json.loads(BENCH_RECORD_PATH.read_text())
        except (json.JSONDecodeError, OSError):
            records = {}
    records.update(_PERF_RECORDS)
    BENCH_RECORD_PATH.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
