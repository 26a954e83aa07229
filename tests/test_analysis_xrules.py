"""Tests for the cross-module MV1xx rules (repro.analysis.rules_graph)."""

import textwrap

import pytest

from repro.analysis.engine import LintEngine


def xlint(files):
    """Lint a {path: source} fixture set with per-file AND project rules."""
    return LintEngine().lint_sources(
        {path: textwrap.dedent(source) for path, source in files.items()}
    )


def rule_hits(diagnostics, rule_id):
    return [d for d in diagnostics if d.rule_id == rule_id]


# ---------------------------------------------------------------------- #
# MV102 wall-clock / entropy taint, direct and transitive
# ---------------------------------------------------------------------- #
class TestMV102:
    def test_transitive_wall_clock_flagged_with_chain(self):
        files = {
            "repro/core/solver.py": """
            from repro.core.util import stamp

            def solve():
                return stamp()
            """,
            "repro/core/util.py": """
            import time

            def stamp():
                return time.time()
            """,
        }
        hits = rule_hits(xlint(files), "MV102")
        # the chain at its first call, and the direct sink at its own line
        assert [(d.path, d.line) for d in hits] == [
            ("repro/core/solver.py", 5),
            ("repro/core/util.py", 5),
        ]
        assert "time.time" in hits[0].message
        assert "solve -> stamp" in hits[0].message

    def test_direct_sink_reported_once(self):
        files = {
            "repro/core/util.py": """
            import time

            def stamp():
                return time.time()
            """
        }
        diagnostics = xlint(files)
        assert [(d.line, d.rule_id) for d in diagnostics] == [(5, "MV102")]
        assert "wall-clock call time.time()" in diagnostics[0].message

    @pytest.mark.parametrize(
        "path, source, sink",
        [
            ("repro/core/ids.py", "import os\n\ndef fresh():\n    return os.urandom(8)\n",
             "os.urandom"),
            ("repro/core/ids.py", "import uuid\n\ndef fresh():\n    return uuid.uuid4()\n",
             "uuid.uuid4"),
            ("repro/chain/ids.py",
             "import secrets\n\ndef fresh():\n    return secrets.token_bytes(8)\n",
             "secrets.token_bytes"),
            ("repro/faultinject/clock.py",
             "import time\n\ndef stamp():\n    return time.time()\n", "time.time"),
            ("repro/core/boot.py", "import time\n\n\nSTART = time.time()\n", "time.time"),
            # defaults run at def time, in the enclosing (module) scope
            ("repro/core/boot.py",
             "import time\n\n\ndef stamp(at=time.monotonic()):\n    return at\n",
             "time.monotonic"),
        ],
        ids=["os-urandom-core", "uuid4-core", "secrets-chain", "time-faultinject",
             "module-level-core", "default-arg-core"],
    )
    def test_direct_entropy_and_clock_calls_flagged(self, path, source, sink):
        diagnostics = xlint({path: source})
        assert [(d.path, d.line, d.rule_id) for d in diagnostics] == [(path, 4, "MV102")]
        assert f"{sink}()" in diagnostics[0].message

    def test_transitive_entropy_flagged(self):
        files = {
            "repro/core/solver.py": """
            from repro.core.ids import fresh_id

            def solve():
                return fresh_id()
            """,
            "repro/core/ids.py": """
            import os

            def fresh_id():
                return os.urandom(8)
            """,
        }
        hits = rule_hits(xlint(files), "MV102")
        assert [d.path for d in hits] == ["repro/core/ids.py", "repro/core/solver.py"]
        assert "transitively reaches os.urandom()" in hits[1].message

    def test_rng_module_streams_are_not_taint_sources(self):
        files = {
            "repro/core/solver.py": """
            from repro.sim.rng import spawn_rng

            def solve(seed):
                return spawn_rng(seed, "se").random()
            """,
            "repro/sim/rng.py": """
            import random

            def spawn_rng(seed, name):
                return random.Random(seed)
            """,
        }
        assert rule_hits(xlint(files), "MV102") == []

    def test_non_replay_packages_not_flagged(self):
        files = {
            "repro/obs/report.py": """
            from repro.obs.clock import now

            def render():
                return now()
            """,
            "repro/obs/clock.py": """
            import time

            def now():
                return time.time()
            """,
        }
        assert rule_hits(xlint(files), "MV102") == []


# ---------------------------------------------------------------------- #
# MV104 telemetry-guard flow
# ---------------------------------------------------------------------- #
class TestMV104:
    def test_unguarded_loop_emission_flagged(self):
        files = {
            "repro/core/loop.py": """
            def run(items, telemetry):
                for item in items:
                    telemetry.event("se.step", item=item)
            """
        }
        hits = rule_hits(xlint(files), "MV104")
        assert len(hits) == 1
        assert "telemetry.event" in hits[0].message

    def test_direct_enabled_guard_clean(self):
        files = {
            "repro/core/loop.py": """
            def run(items, telemetry):
                for item in items:
                    if telemetry.enabled:
                        telemetry.event("se.step", item=item)
            """
        }
        assert rule_hits(xlint(files), "MV104") == []

    def test_hoisted_local_alias_clean(self):
        files = {
            "repro/core/loop.py": """
            def run(items, telemetry):
                traced = telemetry.enabled
                for item in items:
                    if traced:
                        telemetry.event("se.step", item=item)
            """
        }
        assert rule_hits(xlint(files), "MV104") == []

    def test_cross_module_hoisted_attribute_clean(self):
        # engine.py pattern: the guard was hoisted onto another object in a
        # different module; the flow pass follows the attribute name.
        files = {
            "repro/obs/run.py": """
            class EngineRun:
                def __init__(self, telemetry):
                    self.telemetry = telemetry
                    self.traced = telemetry.enabled
            """,
            "repro/core/loop.py": """
            def run_serial(run, items):
                telemetry = run.telemetry
                traced = run.traced
                for item in items:
                    if traced:
                        telemetry.event("se.step", item=item)
            """,
        }
        assert rule_hits(xlint(files), "MV104") == []

    def test_early_exit_guard_clean(self):
        files = {
            "repro/core/loop.py": """
            def run(items, telemetry):
                if not telemetry.enabled:
                    return
                for item in items:
                    telemetry.event("se.step", item=item)
            """
        }
        assert rule_hits(xlint(files), "MV104") == []

    def test_emission_outside_loop_clean(self):
        files = {
            "repro/core/loop.py": """
            def run(telemetry):
                telemetry.event("se.start")
            """
        }
        assert rule_hits(xlint(files), "MV104") == []

    def test_non_replay_package_clean(self):
        files = {
            "repro/obs/report.py": """
            def render(records, telemetry):
                for record in records:
                    telemetry.event("report.row")
            """
        }
        assert rule_hits(xlint(files), "MV104") == []


# ---------------------------------------------------------------------- #
# engine plumbing for the project pass
# ---------------------------------------------------------------------- #
class TestEnginePlumbing:
    def test_lint_source_never_runs_project_rules(self):
        engine = LintEngine()
        source = textwrap.dedent(
            """
            def run(items, telemetry):
                for item in items:
                    telemetry.event("se.step")
            """
        )
        assert engine.lint_source(source, path="repro/core/loop.py") == []

    def test_comment_line_pragma_applies_to_next_line(self):
        files = {
            "repro/core/loop.py": """
            def run(items, telemetry):
                for item in items:
                    # repro: ignore[MV104]
                    telemetry.event("se.step")
            """
        }
        assert rule_hits(xlint(files), "MV104") == []
