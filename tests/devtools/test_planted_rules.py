"""Planted-bug coverage for every effect and fault rule, REP009-REP017.

One copy of ``src/repro`` receives a deliberate violation of each rule:
the three ``--self-test`` plants (REP012, REP013, REP015) plus one plant
per remaining rule.  Each must be reported at its exact line.  A change
that silently disabled a rule would still pass every clean-tree test,
but not this one.
"""

import ast
import shutil
from pathlib import Path
from typing import Callable, List, Tuple

import pytest

from repro.devtools.effectcheck import cli as effectcheck
from repro.devtools.effectcheck.cli import (_plant_mutation,
                                            analyze_package, default_root)
from repro.devtools.faultcheck import cli as faultcheck
from repro.devtools.faultcheck.cli import (_plant_deleted_signal_reset,
                                           _plant_swallowed_host_error)

SRC_ROOT = default_root()


def _method(path: Path, cls: str, name: str) -> ast.FunctionDef:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for child in node.body:
                if isinstance(child, ast.FunctionDef) and child.name == name:
                    return child
    raise LookupError(f"{cls}.{name} not found in {path}")


def _lines(path: Path) -> List[str]:
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


def _insert_before_last(path: Path, cls: str, name: str,
                        statement: str) -> Tuple[Path, int]:
    """Insert ``statement`` just above the method's last statement."""
    anchor = _method(path, cls, name).body[-1]
    lines = _lines(path)
    lines.insert(anchor.lineno - 1,
                 " " * anchor.col_offset + statement + "\n")
    path.write_text("".join(lines), encoding="utf-8")
    return path, anchor.lineno


def _plant_foreign_write(root: Path) -> Tuple[Path, int]:
    """REP009: the recommender writes its ranker's state directly."""
    return _insert_before_last(root / "recsys" / "system.py",
                               "RecommenderSystem", "attack",
                               "self.ranker.counts = None")


def _plant_uncaptured_state(root: Path) -> Tuple[Path, int]:
    """REP010: poison_update writes state the snapshot does not capture."""
    return _insert_before_last(root / "recsys" / "itempop.py", "ItemPop",
                               "poison_update", "self.last_poison = poison")


def _plant_shipped_lock(root: Path) -> Tuple[Path, int]:
    """REP011: a pool-shipped log holds a lock."""
    return _insert_before_last(root / "data" / "interactions.py",
                               "InteractionLog", "__init__",
                               "self._lock = threading.Lock()")


def _plant_unclassified_raise(root: Path) -> Tuple[Path, int]:
    """REP014: a bare RuntimeError escapes the supervised query path."""
    return _insert_before_last(root / "recsys" / "system.py",
                               "RecommenderSystem", "attack",
                               'raise RuntimeError("planted")')


def _plant_truncating_journal(root: Path) -> Tuple[Path, int]:
    """REP016: the JSONL sink opens its handle with mode "w"."""
    path = root / "obs" / "jsonl.py"
    fn = _method(path, "JsonlSink", "_ensure_open")
    stmt = next(node for node in ast.walk(fn)
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "open")
    mode = stmt.value.args[1]
    lines = _lines(path)
    row = lines[mode.lineno - 1]
    lines[mode.lineno - 1] = (row[:mode.col_offset] + '"w"'
                              + row[mode.end_col_offset:])
    path.write_text("".join(lines), encoding="utf-8")
    return path, stmt.lineno


def _plant_unrestored_handler(root: Path) -> Tuple[Path, int]:
    """REP017: inject's re-raising handler no longer restores the ranker."""
    path = root / "recsys" / "system.py"
    fn = _method(path, "RecommenderSystem", "inject")
    handler = next(node for node in ast.walk(fn)
                   if isinstance(node, ast.ExceptHandler))
    restore = next(stmt for stmt in handler.body
                   if isinstance(stmt, ast.Expr)
                   and isinstance(stmt.value, ast.Call)
                   and isinstance(stmt.value.func, ast.Attribute)
                   and stmt.value.func.attr == "restore")
    lines = _lines(path)
    del lines[restore.lineno - 1:restore.end_lineno]
    path.write_text("".join(lines), encoding="utf-8")
    return path, handler.lineno


#: (rule, plant) pairs.  Plants sharing a file are applied top-down, so
#: no later edit shifts the line an earlier plant returned.
PLANTS: List[Tuple[str, Callable[[Path], Tuple[Path, int]]]] = [
    ("REP017", _plant_unrestored_handler),
    ("REP009", _plant_foreign_write),
    ("REP014", _plant_unclassified_raise),
    ("REP010", _plant_uncaptured_state),
    ("REP012", _plant_mutation),
    ("REP011", _plant_shipped_lock),
    ("REP013", _plant_swallowed_host_error),
    ("REP015", _plant_deleted_signal_reset),
    ("REP016", _plant_truncating_journal),
]


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """All nine plants in one copy, analyzed once for both tools."""
    root = tmp_path_factory.mktemp("planted") / "repro"
    shutil.copytree(SRC_ROOT, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    sites = {rule: plant(root) for rule, plant in PLANTS}
    index, _, diagnostics = analyze_package(
        root, (effectcheck.TOOL, faultcheck.TOOL))
    # A plant that breaks the syntax makes the index skip its module,
    # and the analyzers then report nothing for it.
    assert index.errors == []
    return sites, diagnostics


@pytest.mark.parametrize("rule", [rule for rule, _ in PLANTS])
def test_plant_reported_at_its_line(planted, rule):
    sites, diagnostics = planted
    path, line = sites[rule]
    hits = [d for d in diagnostics
            if d.rule == rule and Path(d.path) == path and d.line == line]
    assert hits, [f"{d.path}:{d.line} {d.rule}" for d in diagnostics]
