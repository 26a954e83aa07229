"""Tests for the repro.analysis lint engine (rules MV001-MV009 and MV102)."""

import pathlib
import textwrap
import tokenize

import pytest

from repro.analysis.engine import (
    LintEngine,
    pragma_suppressions,
    registered_rules,
    run_analysis,
)
from repro.harness.cli import main as cli_main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def lint(source, path="repro/core/somefile.py"):
    return LintEngine().lint_source(textwrap.dedent(source), path=path)


def rule_hits(diagnostics, rule_id):
    return [(d.line, d.rule_id) for d in diagnostics if d.rule_id == rule_id]


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
def test_registry_ships_the_core_rules():
    assert set(registered_rules()) >= {
        "MV001", "MV003", "MV004", "MV005", "MV006", "MV007", "MV009", "MV102",
    }
    assert "MV002" not in registered_rules()  # folded into MV102
    assert "MV104" not in registered_rules()  # a runtime check in test_obs_telemetry


# ---------------------------------------------------------------------- #
# MV001 raw RNG
# ---------------------------------------------------------------------- #
class TestMV001:
    def test_default_rng_flagged(self):
        bad = """
        import numpy as np

        def draw():
            return np.random.default_rng(42).random()
        """
        hits = rule_hits(lint(bad), "MV001")
        assert hits == [(5, "MV001")]

    def test_np_random_seed_flagged(self):
        bad = """
        import numpy as np
        np.random.seed(0)
        """
        assert rule_hits(lint(bad), "MV001") == [(3, "MV001")]

    def test_stdlib_random_module_flagged(self):
        bad = """
        import random

        def draw():
            random.seed(1)
            return random.random()
        """
        assert rule_hits(lint(bad), "MV001") == [(5, "MV001"), (6, "MV001")]

    def test_from_random_import_flagged(self):
        bad = """
        from random import shuffle
        """
        assert rule_hits(lint(bad), "MV001") == [(2, "MV001")]

    def test_random_Random_construction_flagged(self):
        bad = """
        import random
        rng = random.Random(7)
        """
        assert rule_hits(lint(bad), "MV001") == [(3, "MV001")]

    def test_rng_module_itself_exempt(self):
        allowed = """
        import random
        import numpy as np

        def spawn(seed):
            return np.random.default_rng(seed), random.Random(seed)
        """
        assert lint(allowed, path="src/repro/sim/rng.py") == []

    def test_named_stream_usage_clean(self):
        good = """
        from repro.sim.rng import spawn_rng

        def draw(seed):
            return spawn_rng(seed, "pow").random()
        """
        assert rule_hits(lint(good), "MV001") == []

    def test_generator_annotation_not_flagged(self):
        good = """
        import numpy as np

        def use(rng: np.random.Generator) -> float:
            return rng.random()
        """
        assert rule_hits(lint(good), "MV001") == []


# ---------------------------------------------------------------------- #
# MV102 direct wall-clock and entropy calls
# ---------------------------------------------------------------------- #
class TestMV102DirectWallClock:
    def test_time_time_flagged_in_core(self):
        bad = """
        import time

        def stamp():
            return time.time()
        """
        assert rule_hits(lint(bad, path="src/repro/core/x.py"), "MV102") == [(5, "MV102")]

    def test_from_time_import_flagged(self):
        bad = """
        from time import monotonic

        def stamp():
            return monotonic()
        """
        assert rule_hits(lint(bad, path="src/repro/sim/x.py"), "MV102") == [(5, "MV102")]

    def test_datetime_now_flagged(self):
        bad = """
        from datetime import datetime

        def stamp():
            return datetime.now()
        """
        assert rule_hits(lint(bad, path="src/repro/chain/x.py"), "MV102") == [(5, "MV102")]

    def test_harness_is_out_of_scope(self):
        timed = """
        import time

        def stamp():
            return time.time()
        """
        assert rule_hits(lint(timed, path="src/repro/harness/x.py"), "MV102") == []

    def test_virtual_clock_clean(self):
        good = """
        def advance(clock):
            return clock.now() + 1.0
        """
        assert rule_hits(lint(good, path="src/repro/sim/x.py"), "MV102") == []

    def test_direct_sink_reported_once(self):
        source = """
        import time

        def stamp():
            return time.time()
        """
        diagnostics = lint(source, path="repro/core/util.py")
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
            # rng.py may build seeded generators (MV001), never read entropy
            ("repro/sim/rng.py", "import os\n\ndef fresh():\n    return os.urandom(8)\n",
             "os.urandom"),
        ],
        ids=["os-urandom-core", "uuid4-core", "secrets-chain", "time-faultinject",
             "module-level-core", "default-arg-core", "os-urandom-rng-module"],
    )
    def test_direct_entropy_and_clock_calls_flagged(self, path, source, sink):
        diagnostics = lint(source, path=path)
        assert [(d.path, d.line, d.rule_id) for d in diagnostics] == [(path, 4, "MV102")]
        assert f"{sink}()" in diagnostics[0].message

    def test_rng_module_streams_are_not_taint_sources(self):
        # A seeded global-RNG constructor is MV001's business (rng.py is
        # exempt there), never a wall-clock or entropy read.
        caller = """
        from repro.sim.rng import spawn_rng

        def solve(seed):
            return spawn_rng(seed, "se").random()
        """
        rng_module = """
        import random

        def spawn_rng(seed, name):
            return random.Random(seed)
        """
        assert lint(caller, path="repro/core/solver.py") == []
        assert lint(rng_module, path="repro/sim/rng.py") == []

    def test_non_replay_packages_not_flagged(self):
        caller = """
        from repro.obs.clock import now

        def render():
            return now()
        """
        clock = """
        import time

        def now():
            return time.time()
        """
        assert rule_hits(lint(caller, path="repro/obs/report.py"), "MV102") == []
        assert rule_hits(lint(clock, path="repro/obs/clock.py"), "MV102") == []


# ---------------------------------------------------------------------- #
# MV003 rng parameter typing
# ---------------------------------------------------------------------- #
class TestMV003:
    def test_unannotated_rng_flagged(self):
        bad = """
        def pick(instance, rng):
            return rng.integers(10)
        """
        assert rule_hits(lint(bad), "MV003") == [(2, "MV003")]

    def test_wrongly_annotated_rng_flagged(self):
        bad = """
        def pick(instance, rng: int):
            return rng
        """
        assert rule_hits(lint(bad), "MV003") == [(2, "MV003")]

    def test_generator_annotation_clean(self):
        good = """
        import numpy as np

        def pick(instance, rng: np.random.Generator):
            return rng.integers(10)
        """
        assert rule_hits(lint(good), "MV003") == []

    def test_string_annotation_accepted(self):
        good = """
        def pick(instance, rng: "np.random.Generator"):
            return rng.integers(10)
        """
        assert rule_hits(lint(good), "MV003") == []

    def test_rng_param_plus_global_rng_flagged(self):
        # The global draw is MV001's finding alone; MV003 only checks typing.
        bad = """
        import numpy as np

        def pick(instance, rng: np.random.Generator):
            return rng.integers(10) + np.random.default_rng().integers(10)
        """
        diagnostics = lint(bad)
        assert rule_hits(diagnostics, "MV001") == [(5, "MV001")]
        assert rule_hits(diagnostics, "MV003") == []


# ---------------------------------------------------------------------- #
# MV004 mutable defaults
# ---------------------------------------------------------------------- #
class TestMV004:
    def test_list_default_flagged(self):
        bad = """
        def collect(items=[]):
            return items
        """
        assert rule_hits(lint(bad), "MV004") == [(2, "MV004")]

    def test_dict_and_set_call_defaults_flagged(self):
        bad = """
        def collect(a={}, *, b=set()):
            return a, b
        """
        assert len(rule_hits(lint(bad), "MV004")) == 2

    def test_none_default_clean(self):
        good = """
        def collect(items=None):
            return items or []
        """
        assert rule_hits(lint(good), "MV004") == []


# ---------------------------------------------------------------------- #
# MV005 silent except
# ---------------------------------------------------------------------- #
class TestMV005:
    def test_bare_except_flagged(self):
        bad = """
        def risky():
            try:
                return 1
            except:
                return 0
        """
        assert rule_hits(lint(bad), "MV005") == [(5, "MV005")]

    def test_except_exception_pass_flagged(self):
        bad = """
        def risky():
            try:
                return 1
            except Exception:
                pass
        """
        assert rule_hits(lint(bad), "MV005") == [(5, "MV005")]

    def test_handled_exception_clean(self):
        good = """
        def risky(log):
            try:
                return 1
            except ValueError:
                return 0
            except Exception as error:
                log(error)
                raise
        """
        assert rule_hits(lint(good), "MV005") == []


# ---------------------------------------------------------------------- #
# MV006 paper-contract docstrings
# ---------------------------------------------------------------------- #
class TestMV006:
    def test_missing_docstring_flagged(self):
        bad = """
        from repro.core.problem import EpochInstance

        def schedule(instance: EpochInstance) -> float:
            return 0.0
        """
        assert rule_hits(lint(bad, path="src/repro/core/x.py"), "MV006") == [(4, "MV006")]

    def test_docstring_without_paper_tokens_flagged(self):
        bad = '''
        from repro.core.solution import Solution

        def polish(solution: Solution) -> Solution:
            """Make it better."""
            return solution
        '''
        assert rule_hits(lint(bad, path="src/repro/core/x.py"), "MV006") == [(4, "MV006")]

    def test_constraint_reference_clean(self):
        good = '''
        from repro.core.solution import Solution

        def polish(solution: Solution) -> Solution:
            """Improve utility while keeping const. (3) N_min and capacity."""
            return solution
        '''
        assert rule_hits(lint(good, path="src/repro/core/x.py"), "MV006") == []

    def test_private_functions_out_of_scope(self):
        private = """
        from repro.core.solution import Solution

        def _scratch(solution: Solution) -> Solution:
            return solution
        """
        assert rule_hits(lint(private, path="src/repro/core/x.py"), "MV006") == []

    def test_non_core_paths_out_of_scope(self):
        elsewhere = """
        from repro.core.solution import Solution

        def helper(solution: Solution) -> Solution:
            return solution
        """
        assert rule_hits(lint(elsewhere, path="src/repro/baselines/x.py"), "MV006") == []


# ---------------------------------------------------------------------- #
# MV007 injected telemetry only
# ---------------------------------------------------------------------- #
class TestMV007:
    def test_hub_construction_in_replay_code_flagged(self):
        bad = """
        from repro.obs.telemetry import Telemetry

        def solve():
            return Telemetry()
        """
        assert rule_hits(lint(bad, path="src/repro/core/se.py"), "MV007") == [(5, "MV007")]

    def test_sink_construction_flagged_even_aliased(self):
        bad = """
        from repro.obs.sinks import JsonlSink as Sink, RingBufferSink

        def solve():
            a = Sink("trace.jsonl")
            b = RingBufferSink(16)
        """
        assert rule_hits(lint(bad, path="src/repro/sim/engine.py"), "MV007") == [
            (5, "MV007"),
            (6, "MV007"),
        ]

    def test_module_attribute_construction_flagged(self):
        bad = """
        import repro.obs.telemetry

        def solve():
            return repro.obs.telemetry.Telemetry()
        """
        assert rule_hits(lint(bad, path="src/repro/chain/pbft.py"), "MV007") == [(5, "MV007")]

    def test_null_telemetry_default_is_clean(self):
        good = """
        from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry

        def solve(telemetry: NullTelemetry = NULL_TELEMETRY):
            if telemetry.enabled:
                telemetry.event("x")
            return NullTelemetry()
        """
        assert rule_hits(lint(good, path="src/repro/core/se.py"), "MV007") == []

    def test_harness_may_build_hubs(self):
        harness = """
        from repro.obs.sinks import JsonlSink
        from repro.obs.telemetry import Telemetry

        def build():
            return Telemetry(sinks=[JsonlSink("t.jsonl")])
        """
        assert rule_hits(lint(harness, path="src/repro/harness/tracing.py"), "MV007") == []


# ---------------------------------------------------------------------- #
# MV009 builtin hash() is PYTHONHASHSEED-salted
# ---------------------------------------------------------------------- #
class TestMV009:
    def test_builtin_hash_flagged_in_chain(self):
        bad = """
        def addr(node_id):
            return hash(f"node-{node_id}") % 10_000
        """
        assert rule_hits(lint(bad, path="src/repro/chain/pbft.py"), "MV009") == [
            (3, "MV009"),
        ]

    def test_builtin_hash_flagged_in_sim(self):
        bad = """
        def bucket(key):
            return hash(key)
        """
        assert rule_hits(lint(bad, path="src/repro/sim/engine.py"), "MV009") == [
            (3, "MV009"),
        ]

    def test_hashlib_digest_is_clean(self):
        good = """
        import hashlib

        def addr(node_id):
            digest = hashlib.sha256(str(node_id).encode()).digest()
            return int.from_bytes(digest[:8], "little")
        """
        assert rule_hits(lint(good, path="src/repro/chain/fastpath.py"), "MV009") == []

    def test_shadowed_hash_is_clean(self):
        good = """
        def hash(value):
            return 7

        def addr(node_id):
            return hash(node_id)
        """
        assert rule_hits(lint(good, path="src/repro/chain/pbft.py"), "MV009") == []

    def test_packages_outside_chain_and_sim_ignored(self):
        elsewhere = """
        def key(obj):
            return hash(obj)
        """
        assert rule_hits(lint(elsewhere, path="src/repro/core/se.py"), "MV009") == []


# ---------------------------------------------------------------------- #
# whole-tree + CLI
# ---------------------------------------------------------------------- #
class TestTreeAndCli:
    def test_repo_source_tree_is_clean(self):
        diagnostics = run_analysis(["src"])
        assert diagnostics == []

    def test_every_pragma_in_the_tree_names_a_registered_rule(self):
        # A pragma for a deleted rule would linger silently otherwise.
        rules = set(registered_rules())
        stale = []
        for path in sorted(SRC.rglob("*.py")):
            with path.open("rb") as handle:
                for token in tokenize.tokenize(handle.readline):
                    if token.type != tokenize.COMMENT:
                        continue
                    for line, ids in pragma_suppressions(token.string).items():
                        stale += [f"{path}:{token.start[0]} {rule}" for rule in ids - rules]
        assert stale == []

    def test_mvcom_lint_runs_clean_on_repo(self, capsys):
        assert cli_main(["lint", "src/"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_module_entry_point_nonzero_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "dirty.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nrng = np.random.default_rng(3)\n")
        from repro.analysis.__main__ import main as module_main

        assert module_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "MV001" in out and "dirty.py:2" in out

    def test_module_entry_point_rejects_missing_path(self, capsys):
        from repro.analysis.__main__ import main as module_main

        assert module_main(["no/such/dir"]) == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_syntax_error_reported_not_raised(self):
        diagnostics = LintEngine().lint_source("def broken(:\n", path="x.py")
        assert diagnostics and diagnostics[0].rule_id == "MV000"


# ---------------------------------------------------------------------- #
# audit regressions: scope confinement and partial unwrapping
# ---------------------------------------------------------------------- #
class TestMV003Audit:
    def test_star_and_doublestar_rng_flagged_as_packing(self):
        bad = """
        def fanout(*rng):
            return rng


        def gather(**rng):
            return rng
        """
        findings = [d for d in lint(bad) if d.rule_id == "MV003"]
        assert [d.line for d in findings] == [2, 6]
        assert all("packs arguments" in d.message for d in findings)

    def test_nested_global_rng_call_blamed_once_on_inner_scope(self):
        # Both outer and inner take ``rng``; the np.random call lives in
        # inner.  It is reported exactly once across every rule.
        bad = """
        import numpy as np


        def outer(rng: np.random.Generator):
            def inner(rng: np.random.Generator):
                return np.random.random()

            return inner
        """
        findings = [d for d in lint(bad, path="repro/core/nested.py") if d.line == 7]
        assert [d.rule_id for d in findings] == ["MV001"]


class TestMV009Audit:
    def test_function_local_shadow_does_not_silence_module_wide(self):
        # ``compute`` rebinds hash locally; ``key`` still calls the builtin.
        # The old whole-tree binding collection silenced the entire module.
        bad = """
        def compute(obj, custom):
            hash = custom
            return hash(obj)


        def key(obj):
            return hash(obj)
        """
        hits = rule_hits(lint(bad, path="repro/chain/pbft.py"), "MV009")
        assert hits == [(8, "MV009")]

    def test_module_level_rebinding_applies_everywhere(self):
        good = """
        from repro.sim.util import stable_digest as hash


        def key(obj):
            return hash(obj)
        """
        assert rule_hits(lint(good, path="repro/chain/pbft.py"), "MV009") == []


# ---------------------------------------------------------------------- #
# pragmas on per-file rules
# ---------------------------------------------------------------------- #
class TestPragmas:
    def test_same_line_pragma_suppresses_named_rule(self):
        source = "def build(items=[]):  # repro: ignore[MV004]\n    return items\n"
        assert lint(source) == []

    def test_pragma_for_other_rule_does_not_suppress(self):
        source = "def build(items=[]):  # repro: ignore[MV005]\n    return items\n"
        assert rule_hits(lint(source), "MV004") == [(1, "MV004")]

    def test_comment_only_pragma_line_covers_next_line(self):
        source = (
            "# repro: ignore[MV004, MV005]\n"
            "def build(items=[]):\n"
            "    return items\n"
        )
        assert lint(source) == []

    def test_comment_line_pragma_applies_to_next_line(self):
        # An indented comment-only pragma covers the statement below it.
        source = """
        import time

        def run(items):
            for item in items:
                # repro: ignore[MV102]
                time.time()
        """
        assert lint(source) == []
        unsuppressed = source.replace("# repro: ignore[MV102]", "# timed")
        assert rule_hits(lint(unsuppressed), "MV102") == [(7, "MV102")]
