"""Fault-tolerance rules REP013-REP017 over exception-flow facts.

================  =====================================================
REP013            a handler broad enough to catch ``HOST_ERRORS``
                  (MemoryError/SystemError/RecursionError) must re-raise
                  them — the supervised handler in
                  ``CampaignScheduler._run_slice`` is the sanctioned
                  shape, the pool worker's ship-and-exit pattern the
                  sanctioned exception
REP014            every statically-typed raise escaping the supervised
                  query path maps into the Transient/Fatal taxonomy
                  (``CampaignError``), the host triple, control-flow
                  exceptions, or the programmer-contract builtins
REP015            code reachable from a forked worker entry must not
                  install signal handlers, spawn threads/processes or
                  touch parent-owned fds; the entry itself must reset
                  inherited SIGTERM/SIGINT handlers
REP016            journal write protocol: self-stored ``open`` handles
                  are append-mode, every write is flushed in the same
                  method, the class fsyncs the handle, and nothing
                  seeks/truncates it
REP017            a function that mutates ranker state inside a ``try``
                  (per the summaries' call sites) must restore it in any
                  re-raising handler before the raise
================  =====================================================

The rules read the same :class:`FunctionSummary` records effectcheck
does, and reuse its :class:`Diagnostic` (path/line/rule/message plus a
call chain), so both analyzers render identically.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..effectcheck.index import ClassInfo, PackageIndex, dotted_name
from ..effectcheck.rules import Diagnostic
from ..effectcheck.summaries import (MAX_CHAIN, FunctionSummary, Handler,
                                     TryFrame)

#: The host-fault triple the serve layer must never classify away.
HOST_ERROR_NAMES = ("MemoryError", "SystemError", "RecursionError")

#: Entry points of the supervised query path (class name, method name):
#: the agent's training loop, the fleet scheduler's drive loop, the
#: recommender's reload-and-poison query, and the pool's batch dispatch.
QUERY_PATH_ENTRIES: Tuple[Tuple[str, str], ...] = (
    ("PoisonRec", "train"),
    ("CampaignScheduler", "run"),
    ("RecommenderSystem", "attack"),
    ("QueryPool", "attack_many"),
)

#: Exception *ancestry names* allowed to escape the query path (REP014).
#: Everything else — bare RuntimeError, ad-hoc customs — would reach
#: ``CampaignSupervisor.classify`` unclassifiable.
TAXONOMY_ROOT = "CampaignError"
CONTROL_EXCEPTIONS = frozenset({
    "SystemExit", "KeyboardInterrupt", "GeneratorExit", "StopIteration",
    "DrainRequested",
})
CONTRACT_EXCEPTIONS = frozenset({
    "ValueError", "TypeError", "KeyError", "IndexError", "LookupError",
    "AttributeError", "NotImplementedError", "AssertionError",
    "ZeroDivisionError", "OverflowError", "FloatingPointError",
    "OSError", "FileNotFoundError", "FileExistsError", "PermissionError",
    "IsADirectoryError", "EOFError", "UnicodeError", "ImportError",
})
_ALLOWED_ANCESTRY = (frozenset({TAXONOMY_ROOT}) | set(HOST_ERROR_NAMES)
                     | CONTROL_EXCEPTIONS | CONTRACT_EXCEPTIONS)

#: Sanctioned repair channels for REP017 (and excluded from its list of
#: state-mutating triggers — they *are* the restore path).
RESTORE_METHODS = frozenset({"restore", "poison_revert"})


@dataclass
class FaultContext:
    """The entry points the five rules start from, resolved once."""

    index: PackageIndex
    summaries: Dict[str, FunctionSummary]
    entries: Tuple[str, ...] = ()
    #: fn key -> chain from a query-path entry (provenance for REP013).
    query_reach: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Function keys passed as ``target=`` to ``Process(...)``.
    fork_entries: Tuple[str, ...] = ()

    @classmethod
    def build(cls, index: PackageIndex,
              summaries: Dict[str, FunctionSummary]) -> "FaultContext":
        """Resolve the query-path and forked-worker entry points."""
        ctx = cls(index=index, summaries=summaries)
        entries: List[str] = []
        for class_name, method in QUERY_PATH_ENTRIES:
            owner = index.class_named(class_name)
            if owner is None:
                continue
            fn = index.find_method(owner, method)
            if fn is not None:
                entries.append(fn.key)
        ctx.entries = tuple(entries)
        ctx.query_reach = reachability(index, summaries, entries)
        ctx.fork_entries = tuple(sorted(
            {target for summary in summaries.values()
             for target in summary.process_targets}))
        return ctx


def reachability(index: PackageIndex,
                 summaries: Dict[str, FunctionSummary],
                 entries: Sequence[str]) -> Dict[str, Tuple[str, ...]]:
    """BFS call closure from ``entries``: fn key -> chain from an entry.

    The chain holds one ``qualname (path:line)`` frame per hop,
    outermost first; entries map to the empty chain.
    """
    reach: Dict[str, Tuple[str, ...]] = {key: () for key in entries
                                         if key in summaries}
    queue: List[str] = list(reach)
    while queue:
        key = queue.pop(0)
        summary = summaries.get(key)
        if summary is None:
            continue
        chain = reach[key]
        if len(chain) >= MAX_CHAIN:
            continue
        frame = (f"{summary.fn.qualname} "
                 f"({index.relpath(summary.fn.path)}")
        for site in summary.call_sites:
            hop = f"{frame}:{site.line})"
            for callee_key in site.callees:
                if callee_key in reach:
                    continue
                reach[callee_key] = chain + (hop,)
                queue.append(callee_key)
    return reach


# ----------------------------------------------------------------------
# REP013: no taxonomy laundering of host errors
# ----------------------------------------------------------------------
def _host_coverage(handler: Handler) -> Set[str]:
    """Which of the host triple this handler could catch."""
    if handler.bare:
        return set(HOST_ERROR_NAMES)
    covered: Set[str] = set()
    for name in handler.covers:
        if name in ("Exception", "BaseException"):
            return set(HOST_ERROR_NAMES)
        if name in HOST_ERROR_NAMES:
            covered.add(name)
    return covered


def check_host_laundering(ctx: FaultContext) -> List[Diagnostic]:
    """REP013: broad handlers must re-raise the host-error triple."""
    diagnostics: List[Diagnostic] = []
    for key, summary in ctx.summaries.items():
        for handler in (handler for frame in summary.try_blocks
                        for handler in frame.handlers):
            covered = _host_coverage(handler)
            if not covered:
                continue
            if handler.transparent or handler.ships:
                continue
            swallowed = sorted(covered - set(handler.gate))
            if not swallowed:
                continue
            what = "bare except" if handler.bare else \
                "except " + "/".join(handler.covers or ("?",))
            diagnostics.append(Diagnostic(
                path=summary.fn.path, line=handler.line, rule="REP013",
                message=(f"'{summary.fn.qualname}' {what} can swallow "
                         f"{'/'.join(swallowed)}; a sick host is not a "
                         f"campaign-local fault — re-raise HOST_ERRORS "
                         f"(the CampaignScheduler._run_slice pattern)"),
                chain=ctx.query_reach.get(key, ())))
    return diagnostics


# ----------------------------------------------------------------------
# REP014: taxonomy exhaustiveness on the supervised query path
# ----------------------------------------------------------------------
def check_taxonomy(ctx: FaultContext) -> List[Diagnostic]:
    """REP014: raises escaping the query path must be classified."""
    diagnostics: List[Diagnostic] = []
    seen: Set[Tuple[str, int, str]] = set()
    for entry_key in ctx.entries:
        summary = ctx.summaries.get(entry_key)
        if summary is None:
            continue
        for raised in summary.raises.values():
            if ctx.index.exception_ancestry(raised.type_key) \
                    & _ALLOWED_ANCESTRY:
                continue
            dedup = (raised.path, raised.line, raised.name)
            if dedup in seen:
                continue
            seen.add(dedup)
            diagnostics.append(Diagnostic(
                path=raised.path, line=raised.line, rule="REP014",
                message=(f"'{raised.name}' raised here escapes the "
                         f"supervised query path "
                         f"('{summary.fn.qualname}') but maps into "
                         f"neither the Transient/Fatal taxonomy nor the "
                         f"contract allowlist; base it on CampaignError "
                         f"(repro.runtime.errors) or classify it "
                         f"on-path"),
                chain=raised.chain))
    return diagnostics


# ----------------------------------------------------------------------
# REP015: fork-protocol safety of the worker closure
# ----------------------------------------------------------------------
def _installer_frames(ctx: FaultContext) -> Tuple[str, ...]:
    """Provenance: in-package signal installers workers would inherit."""
    frames: List[str] = []
    for summary in ctx.summaries.values():
        for op in summary.ops:
            if op.kind != "signal_install":
                continue
            frames.append(
                f"{summary.fn.qualname} "
                f"({ctx.index.relpath(summary.fn.path)}:{op.line}) "
                f"installs {op.detail} — forked workers inherit it")
    return tuple(sorted(frames))


_OP_MESSAGES = {
    "signal_install": "installs a signal handler",
    "spawn": "spawns a thread/process",
    "parent_fd": "touches a parent-owned fd",
}


def check_fork_protocol(ctx: FaultContext) -> List[Diagnostic]:
    """REP015: worker entries reset signals; their closure stays clean."""
    diagnostics: List[Diagnostic] = []
    required = {"SIGTERM", "SIGINT"}
    for entry_key in ctx.fork_entries:
        entry = ctx.summaries.get(entry_key)
        if entry is None:
            continue
        missing = sorted(required - entry.resets)
        if missing:
            diagnostics.append(Diagnostic(
                path=entry.fn.path, line=entry.fn.node.lineno,
                rule="REP015",
                message=(f"forked worker entry '{entry.fn.qualname}' "
                         f"does not reset the inherited "
                         f"{'/'.join(missing)} handler(s) at entry; "
                         f"without signal.signal(..., SIG_DFL/SIG_IGN) "
                         f"resets, workers inherit the parent's drain "
                         f"handlers and terminate() leaks processes"),
                chain=_installer_frames(ctx)))
        closure = reachability(ctx.index, ctx.summaries, [entry_key])
        for key, chain in sorted(closure.items()):
            summary = ctx.summaries.get(key)
            if summary is None:
                continue
            for op in summary.ops:
                if op.kind == "signal_reset":
                    continue          # resets are always fork-safe
                message = _OP_MESSAGES.get(op.kind)
                if message is None:
                    continue
                diagnostics.append(Diagnostic(
                    path=summary.fn.path, line=op.line, rule="REP015",
                    message=(f"'{summary.fn.qualname}' {message} "
                             f"({op.detail}) in code reachable from the "
                             f"forked worker entry "
                             f"'{entry.fn.qualname}'; fork-side code "
                             f"must stay signal- and fd-clean"),
                    chain=chain))
    return diagnostics


# ----------------------------------------------------------------------
# REP016: journal/JSONL torn-tail write protocol
# ----------------------------------------------------------------------
def _handle_calls(fn_node: ast.AST, receiver: str,
                  attr: str) -> List[Tuple[str, int, ast.Call]]:
    """``self.<attr>.<method>(...)`` calls inside one method body."""
    target = f"{receiver}.{attr}"
    calls: List[Tuple[str, int, ast.Call]] = []
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and dotted_name(node.func.value) == target:
            calls.append((node.func.attr, node.lineno, node))
    return calls


def _mentions_handle(node: ast.AST, receiver: str, attr: str) -> bool:
    target = f"{receiver}.{attr}"
    return any(isinstance(sub, ast.Attribute)
               and dotted_name(sub) == target
               for sub in ast.walk(node))


def check_journal_protocol(ctx: FaultContext) -> List[Diagnostic]:
    """REP016: append-only, write->flush->fsync, no seek/truncate."""
    diagnostics: List[Diagnostic] = []
    for cls in ctx.index.classes.values():
        for attr, (mode, open_line) in sorted(cls.open_handles.items()):
            writable = any(flag in mode for flag in "wax+")
            if writable and "a" not in mode:
                diagnostics.append(Diagnostic(
                    path=cls.path, line=open_line, rule="REP016",
                    message=(f"'{cls.name}.{attr}' stores a mode="
                             f"{mode!r} write handle; journal handles "
                             f"must be append-only ('a') so a crash can "
                             f"at worst tear the final record")))
                continue
            if "a" not in mode:
                continue              # read-only handle: not a journal
            fsynced = False
            for fn in cls.methods.values():
                receiver = fn.receiver_name()
                if receiver is None:
                    continue
                writes: List[int] = []
                flushes: List[int] = []
                for method, line, _ in _handle_calls(fn.node, receiver,
                                                     attr):
                    if method == "write":
                        writes.append(line)
                    elif method == "flush":
                        flushes.append(line)
                    elif method in ("seek", "truncate"):
                        diagnostics.append(Diagnostic(
                            path=fn.path, line=line, rule="REP016",
                            message=(f"'{fn.qualname}' calls "
                                     f".{method}() on the append-only "
                                     f"journal handle "
                                     f"'{cls.name}.{attr}'; records are "
                                     f"immutable once written")))
                for node in ast.walk(fn.node):
                    if isinstance(node, ast.Call) \
                            and dotted_name(node.func) == "os.fsync" \
                            and node.args \
                            and _mentions_handle(node.args[0], receiver,
                                                 attr):
                        fsynced = True
                for write_line in writes:
                    if not any(line > write_line for line in flushes):
                        diagnostics.append(Diagnostic(
                            path=fn.path, line=write_line, rule="REP016",
                            message=(f"'{fn.qualname}' writes to journal "
                                     f"handle '{cls.name}.{attr}' "
                                     f"without flushing it afterwards "
                                     f"in the same method; an "
                                     f"acknowledged record could sit in "
                                     f"userspace buffers at kill -9")))
            if not fsynced:
                diagnostics.append(Diagnostic(
                    path=cls.path, line=open_line, rule="REP016",
                    message=(f"'{cls.name}.{attr}' is an append-mode "
                             f"journal handle but the class never "
                             f"os.fsync()s it; flushed-but-unsynced "
                             f"records do not survive power loss")))
    return diagnostics


# ----------------------------------------------------------------------
# REP017: restore-on-raise around ranker mutations
# ----------------------------------------------------------------------
def _ranker_attrs(ctx: FaultContext, cls: ClassInfo,
                  ranker_keys: FrozenSet[str]) -> Set[str]:
    attrs = {attr for attr, types
             in ctx.index.merged_attr_types(cls).items()
             if types & ranker_keys}
    attrs |= {attr for attr in ctx.index.merged_own_attrs(cls)
              if attr in ("ranker", "_ranker")}
    return attrs


def _restore_lines(body: Sequence[ast.stmt], receiver: str,
                   attrs: Set[str]) -> List[int]:
    lines: List[int] = []
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in RESTORE_METHODS:
                base = dotted_name(node.func.value)
                if base is not None and base.startswith(f"{receiver}.") \
                        and base.split(".", 1)[1] in attrs:
                    lines.append(node.lineno)
    return lines


def _first_ranker_write(ctx: FaultContext, summary: FunctionSummary,
                        frame: TryFrame,
                        attrs: Set[str]) -> Optional[Tuple[str, int]]:
    """(attr, line) of the first call in ``frame``'s body that writes a
    ranker attribute's state, restore channels excluded."""
    for site in summary.call_sites:
        if frame not in site.frames or site.receiver_roots is None:
            continue
        if any(key.rsplit(".", 1)[-1] in RESTORE_METHODS
               for key in site.callees):
            continue
        hit = sorted(name for kind, name in site.receiver_roots
                     if kind == "self" and name in attrs)
        if hit and any(effect.kind == "write" and effect.root[0] == "self"
                       for key in site.callees
                       if key in ctx.summaries
                       for effect in ctx.summaries[key].effects.values()):
            return hit[0], site.line
    return None


def check_restore_on_raise(ctx: FaultContext) -> List[Diagnostic]:
    """REP017: try-scoped ranker mutations restore before re-raising."""
    diagnostics: List[Diagnostic] = []
    ranker = ctx.index.class_named("Ranker")
    ranker_keys: FrozenSet[str] = frozenset(
        [ranker.key] + [c.key for c in ctx.index.subclasses(ranker)]
    ) if ranker is not None else frozenset()
    for cls in ctx.index.classes.values():
        attrs = _ranker_attrs(ctx, cls, ranker_keys)
        if not attrs:
            continue
        for fn in cls.methods.values():
            receiver = fn.receiver_name()
            if receiver is None:
                continue
            summary = ctx.summaries[fn.key]
            for frame in summary.try_blocks:
                mutated = _first_ranker_write(ctx, summary, frame, attrs)
                if mutated is None or _restore_lines(frame.node.finalbody,
                                                     receiver, attrs):
                    continue
                for handler in frame.node.handlers:
                    raises = [inner.lineno for stmt in handler.body
                              for inner in ast.walk(stmt)
                              if isinstance(inner, ast.Raise)]
                    if not raises:
                        continue
                    first_raise = min(raises)
                    restores = _restore_lines(handler.body, receiver,
                                              attrs)
                    if any(line < first_raise for line in restores):
                        continue
                    attr, mut_line = mutated
                    diagnostics.append(Diagnostic(
                        path=fn.path, line=handler.lineno, rule="REP017",
                        message=(f"'{fn.qualname}' mutates "
                                 f"self.{attr} inside this try (line "
                                 f"{mut_line}) but the handler "
                                 f"re-raises without restoring it; "
                                 f"call self.{attr}.restore(...) before "
                                 f"the raise (the "
                                 f"RecommenderSystem.inject pattern)")))
    return diagnostics


def check_all(index: PackageIndex,
              summaries: Dict[str, FunctionSummary]) -> List[Diagnostic]:
    """Run every fault rule; diagnostics sorted by location."""
    ctx = FaultContext.build(index, summaries)
    diagnostics = (check_host_laundering(ctx) + check_taxonomy(ctx)
                   + check_fork_protocol(ctx)
                   + check_journal_protocol(ctx)
                   + check_restore_on_raise(ctx))
    diagnostics.sort(key=Diagnostic.sort_key)
    return diagnostics
