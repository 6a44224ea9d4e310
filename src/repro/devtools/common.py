"""Shared CLI infrastructure for the repo's static analyzers.

graphlint, shapecheck, effectcheck and faultcheck each grew their own
copies of three conventions; this module is the single home for all of
them:

* **suppression comments** — ``# <tool>: disable=REPxxx`` on any
  physical line of the innermost statement containing a diagnostic
  (``disable`` with no ids silences every rule there);
* **output plumbing** — ``--format=json`` payload assembly and the
  per-rule ``--statistics`` counts;
* **exit codes** — ``0`` clean, ``1`` findings, ``2`` internal error
  (bad paths, unparseable sources, analyzer crashes).  ``argparse``
  usage errors also exit ``2``, so the codes are uniform across all
  four CLIs and CI can gate on them without per-tool cases.

Nothing here imports the analyzed package or the numeric stack; the
module is stdlib-only so the linters stay runnable in a bare container.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

#: Uniform analyzer exit codes (see module docstring).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL = 2


def suppression_pattern(tool: str) -> "re.Pattern[str]":
    """The compiled ``# <tool>: disable[=ids]`` comment pattern."""
    return re.compile(
        rf"#\s*{re.escape(tool)}:\s*disable(?:=(?P<ids>[A-Za-z0-9_,\s]+))?")


def suppressed_rules(line: str,
                     pattern: "re.Pattern[str]") -> Optional[frozenset]:
    """Rule ids disabled on ``line``; empty set means "all rules"."""
    match = pattern.search(line)
    if match is None:
        return None
    ids = match.group("ids")
    if not ids:
        return frozenset()
    return frozenset(part.strip().upper() for part in ids.split(",")
                     if part.strip())


def stmt_spans(tree: ast.AST) -> List[Tuple[int, int]]:
    """Physical line spans of every statement, headers only for blocks.

    A compound statement's span stops before its first body statement so
    a suppression inside a ``def`` cannot silence a diagnostic anchored
    on the ``def`` line itself.
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = max(start, body[0].lineno - 1)
        else:
            end = getattr(node, "end_lineno", None) or start
        spans.append((start, end))
    return spans


class SuppressionFilter:
    """Per-file suppression lookups for one tool.

    The disable comment may sit on any physical line of the *innermost*
    statement of ``tree`` containing the diagnostic — multi-line calls
    and parenthesized expressions commonly carry it on their closing
    line.
    """

    def __init__(self, tool: str, lines: Sequence[str],
                 tree: ast.AST) -> None:
        self.pattern = suppression_pattern(tool)
        self.lines = lines
        self.spans = stmt_spans(tree)

    def covers(self, rule: str, line: int) -> bool:
        """Whether a disable comment silences ``rule`` at ``line``."""
        candidates = {line}
        best: Optional[Tuple[int, int]] = None
        for start, end in self.spans:
            if start <= line <= end:
                if best is None or end - start < best[1] - best[0]:
                    best = (start, end)
        if best is not None:
            candidates.update(range(best[0], best[1] + 1))
        for lineno in candidates:
            if not 0 < lineno <= len(self.lines):
                continue
            disabled = suppressed_rules(self.lines[lineno - 1], self.pattern)
            if disabled is not None and (not disabled or rule in disabled):
                return True
        return False


def rule_statistics(diagnostics: Iterable, rule_ids: Iterable[str]) -> dict:
    """Diagnostic counts per rule id, covering every registered rule."""
    counts = {rule_id: 0 for rule_id in rule_ids}
    for diag in diagnostics:
        counts[diag.rule] = counts.get(diag.rule, 0) + 1
    return counts


def json_report(rows: Sequence[dict], statistics: dict, **extra) -> str:
    """The ``--format=json`` payload shared by every analyzer CLI."""
    payload = {"diagnostics": list(rows), "statistics": statistics}
    payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True)


def display_path(path: str) -> str:
    """Render ``path`` relative to the CWD when possible (clickable)."""
    try:
        return str(Path(path).resolve().relative_to(Path.cwd()))
    except ValueError:
        return path


def render_chain_text(diagnostics: Sequence) -> None:
    """Print path:line diagnostics with their ``via``/``->`` call chains."""
    for diag in diagnostics:
        print(f"{display_path(diag.path)}:{diag.line}: "
              f"{diag.rule} {diag.message}")
        for depth, frame in enumerate(diag.chain):
            arrow = "via" if depth == 0 else " ->"
            print(f"    {arrow} {frame}")


def describe_rules(rules: Iterable[Tuple[str, str, str]]) -> None:
    """Print the ``--rules`` listing: id, title, indented rationale."""
    for rule_id, title, rationale in rules:
        print(f"{rule_id}  {title}")
        print(f"        {rationale}")


def exit_code(diagnostics: Sequence) -> int:
    """The uniform exit code for a finished, non-crashed analysis."""
    return EXIT_FINDINGS if diagnostics else EXIT_CLEAN
