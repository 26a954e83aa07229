"""Tests for the whole-program graph (repro.analysis.graph)."""

import textwrap

from repro.analysis.graph import (
    MODULE_BODY,
    build_graph_from_sources,
    module_name_for_path,
)


def build(files):
    """files: {posix path: dedented source} -> ProjectGraph."""
    return build_graph_from_sources(
        {path: (path, textwrap.dedent(source)) for path, source in files.items()}
    )


# ---------------------------------------------------------------------- #
# module naming
# ---------------------------------------------------------------------- #
class TestModuleNames:
    def test_src_prefix_stripped(self):
        assert module_name_for_path("src/repro/core/se.py") == "repro.core.se"

    def test_package_init_collapses(self):
        assert module_name_for_path("src/repro/sim/__init__.py") == "repro.sim"

    def test_bare_path(self):
        assert module_name_for_path("repro/chain/pbft.py") == "repro.chain.pbft"


# ---------------------------------------------------------------------- #
# function collection
# ---------------------------------------------------------------------- #
class TestCollection:
    def test_functions_methods_and_nested(self):
        graph = build(
            {
                "repro/core/a.py": """
                class Solver:
                    def solve(self):
                        def helper():
                            return 1
                        return helper()

                def top():
                    return 2
                """
            }
        )
        names = set(graph.functions)
        assert "repro.core.a.Solver.solve" in names
        assert "repro.core.a.Solver.solve.helper" in names
        assert "repro.core.a.top" in names
        assert f"repro.core.a.{MODULE_BODY}" in names
        helper = graph.functions["repro.core.a.Solver.solve.helper"]
        assert helper.is_nested and helper.parent == "repro.core.a.Solver.solve"

    def test_syntax_error_files_skipped(self):
        graph = build(
            {
                "repro/core/ok.py": "def fine():\n    return 1\n",
                "repro/core/broken.py": "def broken(:\n",
            }
        )
        assert "repro.core.ok" in graph.modules
        assert "repro.core.broken" not in graph.modules


# ---------------------------------------------------------------------- #
# call resolution
# ---------------------------------------------------------------------- #
class TestResolution:
    def test_same_module_and_self_method(self):
        graph = build(
            {
                "repro/core/a.py": """
                class Solver:
                    def solve(self):
                        return self.step()

                    def step(self):
                        return helper()

                def helper():
                    return 1
                """
            }
        )
        solve = graph.functions["repro.core.a.Solver.solve"]
        assert [s.target for s in solve.calls] == ["repro.core.a.Solver.step"]
        step = graph.functions["repro.core.a.Solver.step"]
        assert [s.target for s in step.calls] == ["repro.core.a.helper"]

    def test_cross_module_import_forms(self):
        graph = build(
            {
                "repro/sim/util.py": """
                def derive(x):
                    return x
                """,
                "repro/core/a.py": """
                from repro.sim.util import derive

                def run():
                    return derive(1)
                """,
                "repro/core/b.py": """
                import repro.sim.util as util

                def run():
                    return util.derive(2)
                """,
            }
        )
        for module in ("a", "b"):
            run = graph.functions[f"repro.core.{module}.run"]
            assert [s.target for s in run.calls] == ["repro.sim.util.derive"]

    def test_class_construction_resolves_to_init(self):
        graph = build(
            {
                "repro/sim/rng.py": """
                class RandomStreams:
                    def __init__(self, seed):
                        self.seed = seed
                """,
                "repro/core/a.py": """
                from repro.sim.rng import RandomStreams

                def make():
                    return RandomStreams(7)
                """,
            }
        )
        make = graph.functions["repro.core.a.make"]
        assert [s.target for s in make.calls] == [
            "repro.sim.rng.RandomStreams.__init__"
        ]

    def test_unknown_attribute_calls_produce_no_edge(self):
        graph = build(
            {
                "repro/core/a.py": """
                def run(thing):
                    return thing.mystery()
                """
            }
        )
        run = graph.functions["repro.core.a.run"]
        assert [s.target for s in run.calls] == [None]


# ---------------------------------------------------------------------- #
# caller index and path rendering
# ---------------------------------------------------------------------- #
class TestPaths:
    FILES = {
        "repro/core/a.py": """
        def entry():
            return middle()

        def middle():
            return leaf()

        def leaf():
            return 1
        """
    }

    def test_callers_of(self):
        graph = build(self.FILES)
        callers = [caller for caller, _ in graph.callers_of("repro.core.a.leaf")]
        assert callers == ["repro.core.a.middle"]

    def test_render_path_drops_module_prefix(self):
        graph = build(self.FILES)
        rendered = graph.render_path(
            ("repro.core.a.entry", "repro.core.a.middle", "repro.core.a.leaf")
        )
        assert rendered == "entry -> middle -> leaf"
