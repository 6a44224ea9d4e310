"""Command-line entry point: ``python -m repro.devtools.shapecheck``.

Runs every driver check (nn/recsys forward passes and all four policy
variants at two prime batch sizes, ranker probes) on real arrays and
reports per-check status.
Exit codes follow the shared analyzer convention
(:mod:`repro.devtools.common`): 0 when every contract holds, 1 on any
violation, 2 on an internal failure.  ``--format=json`` emits the same
machine-readable payload shape as the other analyzer CLIs.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..common import EXIT_CLEAN, EXIT_FINDINGS, json_report
from .drivers import CheckResult, run_all


def _render(results: List[CheckResult], verbose: bool) -> int:
    failures = [r for r in results if not r.ok]
    for result in results:
        if result.ok:
            if verbose:
                print(f"   ok {result.name}")
        else:
            print(f" FAIL {result.name}")
            for line in result.detail.splitlines():
                print(f"      {line}")
    if failures:
        print(f"shapecheck: {len(failures)} of {len(results)} checks "
              f"failed", file=sys.stderr)
        return EXIT_FINDINGS
    print(f"shapecheck: clean ({len(results)} checks)", file=sys.stderr)
    return EXIT_CLEAN


def _render_json(results: List[CheckResult]) -> int:
    failures = [r for r in results if not r.ok]
    rows = [{"name": r.name, "ok": r.ok, "detail": r.detail}
            for r in results if not r.ok]
    print(json_report(rows,
                      {"checks": len(results), "failures": len(failures)},
                      checks_run=len(results)))
    return EXIT_FINDINGS if failures else EXIT_CLEAN


def main(argv: Optional[List[str]] = None) -> int:
    """Run the whole-repo shape check; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.shapecheck",
        description="Run every model forward pass on real arrays at "
                    "two prime batch sizes and verify @shape_spec "
                    "contracts.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print passing checks too")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="output format (json suppresses the human "
                             "report; exit codes are unchanged)")
    args = parser.parse_args(argv)
    results = run_all()
    if args.format == "json":
        return _render_json(results)
    return _render(results, args.verbose)
