"""``python -m repro.analysis`` — lint the tree, exit non-zero on findings.

Also reachable as ``mvcom lint``; the harness CLI forwards its arguments
here verbatim.  Supported modes::

    python -m repro.analysis src/                  # text report
    python -m repro.analysis --format json src/    # machine-readable
    python -m repro.analysis --format sarif src/   # SARIF 2.1.0 for CI upload
    python -m repro.analysis --annotate src/       # GitHub workflow commands
    python -m repro.analysis --graph src/          # call/stream graph dump

Exit codes: 0 clean, 1 findings (errors), 2 usage/configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.analysis.config import load_config
from repro.analysis.diagnostics import Severity, render_report
from repro.analysis.engine import LintEngine, registered_rules
from repro.analysis.output import (
    render_annotations,
    render_graph,
    render_json,
    render_sarif,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the MV00x/MV1xx rules over ``paths``; exit 1 on error findings."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="MVCom determinism & contract linter (rules MV001-MV104)",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories to lint")
    parser.add_argument("--config", help="explicit pyproject.toml (default: nearest ancestor)")
    parser.add_argument("--list-rules", action="store_true", help="print the rule registry and exit")
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--annotate",
        action="store_true",
        help="also print GitHub ::error workflow commands (PR annotations)",
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help="dump the whole-program call/stream graph instead of linting",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, rule_class in registered_rules().items():
            print(f"{rule_id}  {rule_class.description}")
        return 0

    if args.config is not None and not os.path.isfile(args.config):
        print(f"repro.analysis: error: --config file not found: {args.config}", file=sys.stderr)
        return 2
    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        for path in missing:
            print(f"repro.analysis: error: no such file or directory: {path}", file=sys.stderr)
        return 2

    config = load_config(pyproject_path=args.config)
    engine = LintEngine(config=config)

    if args.graph:
        print(render_graph(engine.build_graph(args.paths)), end="")
        return 0

    diagnostics = engine.lint_paths(args.paths)
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    if args.format == "json":
        print(render_json(diagnostics), end="")
    elif args.format == "sarif":
        print(render_sarif(diagnostics), end="")
    else:
        report = render_report(diagnostics)
        if report:
            print(report)
        else:
            print(f"repro.analysis: clean ({', '.join(args.paths)})")
    if args.annotate and diagnostics:
        print(render_annotations(diagnostics))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
