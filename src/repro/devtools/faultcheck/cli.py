"""faultcheck CLI — static fault-tolerance verification for ``repro``.

Usage::

    python -m repro.devtools.faultcheck                 # analyze src/repro
    python -m repro.devtools.faultcheck --rules         # describe rules
    python -m repro.devtools.faultcheck --format=json   # machine-readable
    python -m repro.devtools.faultcheck --self-test     # planted-bug
                                                        # end-to-end check

The options, output formats and suppression comments are effectcheck's
(:func:`repro.devtools.effectcheck.cli.run` drives both), with the
``# faultcheck: disable=REP013`` marker.

``--self-test`` copies the analyzed tree and plants the two historical
fault-path bugs this tool exists to prevent: it widens the supervised
handler in ``CampaignScheduler._run_slice`` to swallow ``MemoryError``
(deleting the isinstance-HOST_ERRORS re-raise gate) and deletes the
inherited-signal resets at the top of the pool worker entry
``_worker_main`` (the leaked-worker bug).  The doctored copy must fail
with a REP013 at the exact handler line (call chain through
``CampaignScheduler.run``) and a REP015 at the worker entry (provenance
chain naming ``DrainController.install``); the self-test then exits
``0``, and ``2`` on a miss.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from ..effectcheck import cli as effectcheck
from ..effectcheck.cli import Plant, Tool, run
from .rules import check_all


def _delete_lines(path: Path, spans: Sequence[Tuple[int, int]]) -> None:
    """Remove the 1-based inclusive line spans from ``path``."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    doomed = {line for start, end in spans
              for line in range(start, end + 1)}
    path.write_text(
        "".join(line for number, line in enumerate(lines, start=1)
                if number not in doomed), encoding="utf-8")


def _plant_swallowed_host_error(root: Path) -> Tuple[Path, int]:
    """Widen the supervised scheduler handler to swallow MemoryError.

    Deletes the ``if isinstance(error, HOST_ERRORS): raise`` gate from
    the broad ``except Exception`` in ``CampaignScheduler._run_slice``.
    Returns the doctored file and the handler's 1-based line (unchanged:
    the deleted lines sit below it).
    """
    target = root / "serve" / "scheduler.py"
    tree = ast.parse(target.read_text(encoding="utf-8"))
    gate: Optional[ast.If] = None
    handler_line: Optional[int] = None
    for node in ast.walk(tree):
        if not (isinstance(node, ast.FunctionDef)
                and node.name == "_run_slice"):
            continue
        for inner in ast.walk(node):
            if not isinstance(inner, ast.ExceptHandler):
                continue
            for stmt in inner.body:
                if isinstance(stmt, ast.If) \
                        and isinstance(stmt.test, ast.Call) \
                        and isinstance(stmt.test.func, ast.Name) \
                        and stmt.test.func.id == "isinstance":
                    gate = stmt
                    handler_line = inner.lineno
    if gate is None or handler_line is None:
        raise RuntimeError(
            "self-test: HOST_ERRORS gate in _run_slice not found")
    _delete_lines(target, [(gate.lineno,
                            gate.end_lineno or gate.lineno)])
    return target, handler_line


def _plant_deleted_signal_reset(root: Path) -> Tuple[Path, int]:
    """Delete the worker's inherited-signal resets.

    Removes every top-level ``signal.signal(..., SIG_DFL/SIG_IGN)``
    statement from ``_worker_main`` in ``perf/pool.py``.  Returns the
    doctored file and the worker entry's 1-based ``def`` line.
    """
    target = root / "perf" / "pool.py"
    tree = ast.parse(target.read_text(encoding="utf-8"))
    worker: Optional[ast.FunctionDef] = None
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) \
                and node.name == "_worker_main":
            worker = node
    if worker is None:
        raise RuntimeError("self-test: _worker_main not found")
    spans: List[Tuple[int, int]] = []
    for stmt in worker.body:
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)):
            continue
        call = stmt.value
        refs = [ast.unparse(arg) for arg in call.args[1:2]]
        if isinstance(call.func, ast.Attribute) \
                and call.func.attr == "signal" \
                and any(ref.endswith(("SIG_DFL", "SIG_IGN"))
                        for ref in refs):
            spans.append((stmt.lineno, stmt.end_lineno or stmt.lineno))
    if not spans:
        raise RuntimeError(
            "self-test: signal resets in _worker_main not found")
    _delete_lines(target, spans)
    return target, worker.lineno


TOOL = Tool(
    name="faultcheck",
    description="cross-procedural exception-flow and fork-protocol "
                "verification",
    rules=(
        ("REP013", "no taxonomy laundering of host errors",
         "handlers broad enough to catch MemoryError/SystemError/"
         "RecursionError must re-raise them (the CampaignScheduler."
         "_run_slice gate) or ship them out of process (the pool "
         "worker)"),
        ("REP014", "taxonomy exhaustiveness on the query path",
         "every statically-typed raise escaping the supervised query "
         "path must map into the Transient/Fatal taxonomy "
         "(CampaignError), the host triple, control-flow or contract "
         "exceptions"),
        ("REP015", "fork-protocol safety",
         "code reachable from a forked worker entry must not install "
         "signal handlers, spawn threads/processes or touch parent fds; "
         "the entry must reset inherited SIGTERM/SIGINT handlers"),
        ("REP016", "journal torn-tail write protocol",
         "self-stored open() journal handles are append-only, every "
         "write is flushed in the same method, the class fsyncs the "
         "handle, and nothing seeks or truncates it"),
        ("REP017", "restore-on-raise consistency",
         "a method that mutates ranker state inside a try must restore "
         "it in any re-raising handler before the raise (the "
         "RecommenderSystem.inject pattern)"),
    ),
    check=check_all,
    count_key="functions_analyzed",
    plants=(
        Plant("REP013", _plant_swallowed_host_error,
              ("CampaignScheduler.run",)),
        Plant("REP015", _plant_deleted_signal_reset,
              ("DrainController.install",)),
    ),
)


def analyze_package(root: Path):
    """Index, summarize and fault-rule-check one package tree."""
    return effectcheck.analyze_package(root, (TOOL,))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """faultcheck CLI entry point; returns the process exit code."""
    return run((TOOL,), argv)


def main_with_effects(argv: Optional[Sequence[str]] = None) -> int:
    """effectcheck then faultcheck over one analysis (``repro check``)."""
    return run((effectcheck.TOOL, TOOL), argv)


if __name__ == "__main__":
    sys.exit(main())
