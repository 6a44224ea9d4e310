"""The flow-analyzer driver, and the effectcheck CLI built on it.

effectcheck (REP009-REP012) and faultcheck (REP013-REP017) are two rule
tables, each a :class:`Tool`, over one analysis: a :class:`PackageIndex`
plus the per-function summaries :func:`build_summaries` fills in one
walk and propagates in one fixed point.  :func:`run` is the CLI both
share — it analyzes the package once for any set of tools (``repro
check`` passes both), filters suppressions, renders text or JSON, and
runs the planted-bug self-test each tool declares.

Usage::

    python -m repro.devtools.effectcheck                 # analyze src/repro
    python -m repro.devtools.effectcheck --rules         # describe rules
    python -m repro.devtools.effectcheck --format=json   # machine-readable
    python -m repro.devtools.effectcheck --self-test     # planted-mutation
                                                         # end-to-end check

A diagnostic can be silenced with a trailing comment on any physical
line of the offending statement::

    self._cache[key] = value  # effectcheck: disable=REP012

``# effectcheck: disable`` (no rule ids) silences every rule there.

``--self-test`` proves the analyzer end-to-end without executing any
repro code: it copies the analyzed tree, inserts each tool's plants
(deliberate violations) and requires every one to be reported at its
exact line with its required call chain.  It exits ``0`` when all are,
and ``2`` when any is missed, because a miss is an analyzer defect.
effectcheck plants a hidden in-place write inside ``ItemPop.score``,
which must be reported both directly and through the inherited
``RecommenderSystem.recommend`` call chain.
"""

from __future__ import annotations

import argparse
import ast
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..common import (EXIT_CLEAN, EXIT_FINDINGS, EXIT_INTERNAL,
                      SuppressionFilter, describe_rules, display_path,
                      exit_code, json_report, render_chain_text,
                      rule_statistics)
from .index import PackageIndex
from .rules import Diagnostic, check_all
from .summaries import FunctionSummary, build_summaries


@dataclass(frozen=True)
class Plant:
    """A deliberate violation the self-test inserts into a source copy."""

    rule: str
    #: Doctors the tree rooted at its argument; returns (file, line).
    insert: Callable[[Path], Tuple[Path, int]]
    #: Each entry must occur in a frame of some diagnostic's chain at the
    #: plant; ``""`` requires a direct (chainless) diagnostic.
    chains: Tuple[str, ...]


@dataclass(frozen=True)
class Tool:
    """One rule table over the shared analysis."""

    name: str
    description: str
    #: (rule id, title, rationale) rows for ``--rules``.
    rules: Tuple[Tuple[str, str, str], ...]
    check: Callable[[PackageIndex, Dict[str, FunctionSummary]],
                    List[Diagnostic]]
    #: JSON key holding the number of indexed functions.
    count_key: str
    plants: Tuple[Plant, ...]

    @property
    def rule_ids(self) -> List[str]:
        """Every rule id this tool reports."""
        return [rule_id for rule_id, _, _ in self.rules]


def default_root() -> Path:
    """The ``repro`` package directory this module is installed in."""
    return Path(__file__).resolve().parents[2]


def _plant_mutation(root: Path) -> Tuple[Path, int]:
    """Insert a hidden in-place write into ``ItemPop.score``.

    Returns the doctored file and the 1-based line of the planted write.
    """
    target = root / "recsys" / "itempop.py"
    source = target.read_text(encoding="utf-8")
    tree = ast.parse(source)
    score: Optional[ast.FunctionDef] = None
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "ItemPop":
            for child in node.body:
                if isinstance(child, ast.FunctionDef) \
                        and child.name == "score":
                    score = child
    if score is None:
        raise RuntimeError("self-test: ItemPop.score not found")
    anchor = score.body[-1].lineno  # plant just before the return
    lines = source.splitlines(keepends=True)
    indent = " " * score.body[-1].col_offset
    lines.insert(anchor - 1, f"{indent}self.counts[0] += 1.0\n")
    target.write_text("".join(lines), encoding="utf-8")
    return target, anchor


TOOL = Tool(
    name="effectcheck",
    description="cross-procedural purity/effect verification",
    rules=(
        ("REP009", "sanctioned mutation channels",
         "ranker/log state may only change through assign_, snapshot "
         "restore, splice/unsplice or poison_revert"),
        ("REP010", "snapshot coverage",
         "state written or RNG streams drawn on the reward-query path "
         "must be captured by RankerSnapshot, or restore breaks "
         "bit-exactness"),
        ("REP011", "fork safety",
         "objects shipped to QueryPool workers must not hold open "
         "handles, locks or live generators"),
        ("REP012", "effect contracts",
         "@pure/@mutates declarations are verified against "
         "cross-procedural effect summaries; protocol methods must "
         "carry one"),
    ),
    check=check_all,
    count_key="functions_summarized",
    plants=(Plant("REP012", _plant_mutation,
                  ("", "RecommenderSystem.recommend")),),
)


def analyze_package(root: Path, tools: Sequence[Tool] = (TOOL,)
                    ) -> Tuple[PackageIndex, Dict[str, FunctionSummary],
                               List[Diagnostic]]:
    """Index and summarize one package tree once, then check it.

    Returns the unsuppressed diagnostics of every tool, each tool's
    sorted by location, in tool order.
    """
    index = PackageIndex(Path(root))
    summaries = build_summaries(index)
    modules = {module.path: module for module in index.modules.values()}
    diagnostics: List[Diagnostic] = []
    for tool in tools:
        filters: Dict[str, SuppressionFilter] = {}
        for diag in tool.check(index, summaries):
            module = modules.get(diag.path)
            if module is not None:
                if diag.path not in filters:
                    filters[diag.path] = SuppressionFilter(
                        tool.name, module.source_lines, module.tree)
                if filters[diag.path].covers(diag.rule, diag.line):
                    continue
            diagnostics.append(diag)
    return index, summaries, diagnostics


def _report(tool: Tool, diagnostics: Sequence[Diagnostic],
            index: PackageIndex, args: argparse.Namespace) -> int:
    """Print one tool's report; returns its exit code."""
    modules, functions = len(index.modules), len(index.functions)
    statistics = rule_statistics(diagnostics, tool.rule_ids)
    if args.format == "json":
        rows = [{"path": display_path(d.path), "line": d.line,
                 "rule": d.rule, "message": d.message,
                 "chain": list(d.chain)} for d in diagnostics]
        print(json_report(rows, statistics, modules_checked=modules,
                          **{tool.count_key: functions}))
        return exit_code(diagnostics)
    render_chain_text(diagnostics)
    if args.statistics:
        for rule_id, count in sorted(statistics.items()):
            print(f"{rule_id}  {count}")
    if diagnostics:
        files = len({d.path for d in diagnostics})
        print(f"{tool.name}: {len(diagnostics)} error(s) in {files} "
              f"file(s) ({modules} modules, {functions} functions)",
              file=sys.stderr)
        return EXIT_FINDINGS
    print(f"{tool.name}: clean ({modules} modules, {functions} "
          f"{tool.count_key.replace('_', ' ')})", file=sys.stderr)
    return EXIT_CLEAN


def run_self_test(tools: Sequence[Tool]) -> int:
    """Copy the tree, insert every plant, require each to be reported."""
    with tempfile.TemporaryDirectory(prefix=f"{tools[0].name}-") as scratch:
        copy_root = Path(scratch) / "repro"
        shutil.copytree(default_root(), copy_root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        planted = [(tool, plant, *plant.insert(copy_root))
                   for tool in tools for plant in tool.plants]
        _, _, diagnostics = analyze_package(copy_root, tools)
        code = EXIT_CLEAN
        for tool, plant, path, line in planted:
            hits = [d for d in diagnostics
                    if d.rule == plant.rule and d.path == str(path)
                    and d.line == line]
            missing = [want for want in plant.chains
                       if not any((any(want in frame for frame in d.chain)
                                   if want else not d.chain)
                                  for d in hits)]
            where = f"{plant.rule} at {path.name}:{line}"
            if hits and not missing:
                print(f"{tool.name} --self-test: planted {where} caught "
                      f"({len(hits)} diagnostics)", file=sys.stderr)
                continue
            print(f"{tool.name} --self-test: FAILED — planted {where} "
                  f"missed ({len(hits)} diagnostics, chains missing: "
                  f"{missing})", file=sys.stderr)
            render_chain_text(hits)
            code = EXIT_INTERNAL
        return code


def run(tools: Sequence[Tool], argv: Optional[Sequence[str]] = None) -> int:
    """The CLI of ``tools`` over one analysis; returns the exit code."""
    names = " + ".join(tool.name for tool in tools)
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.devtools.{tools[0].name}",
        description=f"{names}: " + "; ".join(tool.description
                                             for tool in tools))
    parser.add_argument("--root", default=None,
                        help="package directory to analyze "
                             "(default: the installed repro package)")
    parser.add_argument("--rules", action="store_true",
                        help="describe every rule and exit")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="output format (json suppresses the human "
                             "report; exit codes are unchanged)")
    parser.add_argument("--statistics", action="store_true",
                        help="print per-rule diagnostic counts")
    parser.add_argument("--self-test", action="store_true",
                        help="insert deliberate violations into a copy of "
                             "the source and require each to be reported "
                             "at its line (exit 0) — a miss exits 2")
    args = parser.parse_args(argv)
    if args.rules:
        for tool in tools:
            describe_rules(tool.rules)
        return EXIT_CLEAN
    if args.self_test:
        return run_self_test(tools)
    root = Path(args.root) if args.root else default_root()
    if not root.is_dir():
        print(f"{names}: no such directory: {root}", file=sys.stderr)
        return EXIT_INTERNAL
    index, _, diagnostics = analyze_package(root, tools)
    if index.errors:
        for error in index.errors:
            print(f"{names}: {error}", file=sys.stderr)
        return EXIT_INTERNAL
    return max(_report(tool, [d for d in diagnostics
                              if d.rule in tool.rule_ids], index, args)
               for tool in tools)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """effectcheck CLI entry point; returns the process exit code."""
    return run((TOOL,), argv)


if __name__ == "__main__":
    sys.exit(main())
