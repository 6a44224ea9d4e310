"""Per-function summaries and bottom-up propagation.

Every function in the indexed package gets a :class:`FunctionSummary`,
the one fact record both effectcheck and faultcheck read.  It holds the
set of observable mutations the function performs, each tracked back to
a *root* — the ``self`` attribute or parameter through which the mutated
object was reached — plus where the leaf write happens, and the
function's fault-path facts: its escaping raise set, its ``try`` blocks
with summarized handlers, its concurrency operations and the functions
it hands to ``Process(target=...)``.  Summaries are first extracted
intra-procedurally with local alias tracking (a write through
``seq = self._sequences[user]`` is a write of ``_sequences``), then
propagated bottom-up over the call graph to one fixed point, so callers
inherit their callees' effects and escaping raises with the full call
chain preserved.

Recognized mutation forms:

* attribute / subscript / slice assignment, augmented assignment and
  ``del``, through any alias of a ``self`` attribute or parameter;
* in-place NumPy calls (``np.copyto``, ``np.add.at``, ``out=`` kwargs);
* builtin container mutators (``append``, ``update``, ``pop``, ...) on
  aliased receivers;
* RNG stream draws: any method call on a ``default_rng`` attribute or an
  ``rng`` parameter is an effect of kind ``"rng"`` (a draw advances the
  stream — exactly the state :class:`RankerSnapshot` must capture).

Unresolvable method calls fall back to class-hierarchy analysis (union
over every indexed class defining that method); calls on provably fresh
objects (results of constructors or allocating NumPy calls) are
discarded, which keeps e.g. ``InteractionLog.copy`` pure.

A raise set holds every ``raise SomeError(...)`` whose class resolves
statically (to a package class or a builtin) and that no enclosing
``except`` absorbs, plus every such callee raise that escapes the
``try`` blocks around the call site.  Dynamic re-raises (``raise err``)
and raises inside nested functions are out of scope: the taxonomy
classes all flow through first-class ``raise Class(...)`` statements.
Handler subtraction is deliberately absorbing: a handler that matches
an exception type swallows it unless it *always* re-raises (top-level
bare ``raise``) or its ``isinstance`` gate names the type.  A handler
that conditionally re-raises has made a classification decision;
REP013 separately polices that the decision never launders host errors.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .index import ClassInfo, FunctionInfo, PackageIndex, dotted_name

#: Root meaning "the bound instance itself".
SELF: Tuple[str, Optional[str]] = ("self", None)

Root = Tuple[str, Optional[str]]

#: Builtins whose result aliases their argument(s).
ALIAS_BUILTINS = {"zip", "enumerate", "reversed", "iter", "list", "tuple",
                  "sorted", "filter", "vars", "dict"}

#: Method names whose result aliases the receiver (``d.get(k)`` hands out
#: the stored object, ``module.parameters()`` yields the live tensors).
ALIAS_METHODS = {"get", "setdefault", "items", "keys", "values",
                 "parameters"}

#: Builtin container/tensor mutators: calling one on an aliased receiver
#: is a write to the alias root.
MUTATOR_METHODS = {"append", "extend", "insert", "remove", "clear",
                   "update", "add", "discard", "pop", "popitem", "sort",
                   "reverse", "fill", "setflags", "sum_duplicates",
                   "setdiag", "step", "zero_grad", "backward", "assign_",
                   "load_state_dict", "shuffle", "splice", "unsplice"}

#: ``np.<name>(target, ...)`` functions mutating their first argument.
NP_INPLACE_FIRST_ARG = {"copyto", "put", "place", "fill_diagonal"}

#: Call targets recognized as thread/process creation (REP015).
SPAWN_FACTORIES = {"Thread", "Process", "Pool", "ThreadPoolExecutor",
                   "ProcessPoolExecutor", "Popen", "Timer"}

#: Dotted stdlib calls that fork (REP015).
FORK_CALLS = {"os.fork", "os.forkpty"}

#: Receivers that are fds owned by the parent process (REP015).
PARENT_FD_RECEIVERS = {"sys.stdin", "sys.stdout", "sys.stderr"}


@dataclass(frozen=True)
class Effect:
    """One observable mutation, anchored at its leaf write site."""

    kind: str                    # "write" | "rng"
    root: Root                   # ("self", attr) | ("param", name)
    attr: Optional[str]          # attribute name written at the leaf
    path: str
    line: int
    detail: str
    chain: Tuple[str, ...] = ()  # caller frames, outermost first

    @property
    def key(self) -> Tuple[str, Root, Optional[str]]:
        """Deduplication key within one summary."""
        return (self.kind, self.root, self.attr)


@dataclass(frozen=True)
class RaiseFact:
    """One exception type escaping a function, with its origin chain."""

    type_key: str                 # package class key or builtin name
    name: str                     # trailing class name
    path: str
    line: int
    chain: Tuple[str, ...] = ()   # caller frames, outermost first

    @property
    def key(self) -> Tuple[str, str, int]:
        """Deduplication key within one function's raise set."""
        return (self.type_key, self.path, self.line)


@dataclass(frozen=True)
class Handler:
    """One summarized ``except`` clause."""

    #: Trailing names of the caught types, tuple aliases expanded;
    #: empty together with ``bare=True`` for ``except:``.
    covers: Tuple[str, ...]
    bare: bool
    line: int
    #: Unconditional top-level bare ``raise``: everything passes through.
    transparent: bool
    #: Type names re-raised via ``if isinstance(err, T): raise`` gates.
    gate: Tuple[str, ...]
    #: The pool-worker pattern: the caught error is shipped out through
    #: a call (``conn.send((.., error, ..))``) and the handler raises
    #: ``SystemExit`` — classification happens on the receiving side.
    ships: bool


@dataclass(frozen=True, eq=False)
class TryFrame:
    """One ``try`` statement and its summarized handler clauses."""

    node: ast.Try
    handlers: Tuple[Handler, ...]


@dataclass(frozen=True)
class OpSite:
    """One concurrency-protocol-relevant operation (REP015)."""

    kind: str   # "signal_reset" | "signal_install" | "spawn" | "parent_fd"
    line: int
    detail: str


@dataclass
class CallSite:
    """One resolved call edge inside a function body."""

    callees: Tuple[str, ...]               # FunctionInfo keys
    receiver_roots: Optional[FrozenSet[Root]]
    argmaps: Dict[str, Dict[str, FrozenSet[Root]]]  # callee key -> map
    line: int
    #: The ``try`` statements whose body holds the call, outermost first.
    frames: Tuple[TryFrame, ...] = ()


@dataclass
class FunctionSummary:
    """Effects, raises, call/alias and fault facts of one function."""

    fn: FunctionInfo
    effects: Dict[Tuple[str, Root, Optional[str]], Effect] = \
        field(default_factory=dict)
    returns_aliases: FrozenSet[Root] = frozenset()
    call_sites: List[CallSite] = field(default_factory=list)
    #: Exception types escaping the function, its own raises first.
    raises: Dict[Tuple[str, str, int], RaiseFact] = \
        field(default_factory=dict)
    #: Every ``try`` statement in the body, in source order.
    try_blocks: List[TryFrame] = field(default_factory=list)
    ops: List[OpSite] = field(default_factory=list)
    #: Signal names reset (SIG_DFL/SIG_IGN) at the function's top level.
    resets: Set[str] = field(default_factory=set)
    #: Function keys passed as ``target=`` to a ``Process(...)`` call.
    process_targets: List[str] = field(default_factory=list)

    def add(self, effect: Effect) -> bool:
        """Record ``effect`` unless an equivalent one is already known."""
        if effect.key in self.effects:
            return False
        self.effects[effect.key] = effect
        return True

    def direct_effects(self) -> List[Effect]:
        """Effects whose leaf write is in this very function."""
        return [e for e in self.effects.values() if not e.chain]


class _Analyzer:
    """Single-function intra-procedural effect extraction."""

    def __init__(self, index: PackageIndex, fn: FunctionInfo,
                 alias_table: Dict[str, FrozenSet[Root]]) -> None:
        self.index = index
        self.fn = fn
        self.alias_table = alias_table
        self.summary = FunctionSummary(fn=fn)
        self.env: Dict[str, FrozenSet[Root]] = {}
        self.receiver = fn.receiver_name()
        self.rng_params: Set[str] = set()
        self.cls_rng_attrs: Set[str] = (
            index.merged_rng_attrs(fn.cls) if fn.cls else set())
        self.cls_attr_types: Dict[str, Set[str]] = (
            index.merged_attr_types(fn.cls) if fn.cls else {})
        self._site_cache: Dict[int, Optional[CallSite]] = {}
        self._returns: Set[Root] = set()
        #: The ``try`` statements enclosing the current one.
        self.frames: Tuple[TryFrame, ...] = ()
        #: Set while a loop body is walked a second time, whose fault
        #: facts the first walk already recorded.
        self.replay = False
        self._top_level_calls = {id(stmt.value) for stmt in fn.node.body
                                 if isinstance(stmt, ast.Expr)}

    # ------------------------------------------------------------------
    def run(self) -> FunctionSummary:
        """Extract this function's summary."""
        node = self.fn.node
        for name in self.fn.param_names():
            if name == self.receiver:
                self.env[name] = frozenset({SELF})
            else:
                self.env[name] = frozenset({("param", name)})
        for arg in (node.args.posonlyargs + node.args.args
                    + node.args.kwonlyargs):
            annotation = ast.dump(arg.annotation) if arg.annotation else ""
            if arg.arg == "rng" or "Generator" in annotation:
                self.rng_params.add(arg.arg)
        for stmt in node.body:
            self._statement(stmt)
        self.summary.returns_aliases = frozenset(self._returns)
        return self.summary

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _statements(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        self._scan_own_expressions(stmt)
        if isinstance(stmt, ast.Assign):
            roots = self._roots(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, roots, stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind_target(stmt.target, self._roots(stmt.value), stmt)
        elif isinstance(stmt, ast.AugAssign):
            value_roots = self._roots(stmt.value)
            self._augmented_target(stmt.target, value_roots, stmt)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._write_target(target, stmt, "del")
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if not isinstance(stmt, ast.While):
                self._bind_target(stmt.target, self._roots(stmt.iter), stmt)
            # Two passes so aliases established late in the body are seen
            # by mutations earlier in the next iteration.
            self._statements(stmt.body)
            replay, self.replay = self.replay, True
            self._statements(stmt.body)
            self.replay = replay
            self._statements(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._statements(stmt.body)
            self._statements(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars,
                                      self._roots(item.context_expr), stmt)
            self._statements(stmt.body)
        elif isinstance(stmt, ast.Try):
            frame = TryFrame(stmt, tuple(self._handler(handler)
                                         for handler in stmt.handlers))
            if not self.replay:
                self.summary.try_blocks.append(frame)
            outer, self.frames = self.frames, self.frames + (frame,)
            self._statements(stmt.body)
            self.frames = outer
            for handler in stmt.handlers:
                self._statements(handler.body)
            self._statements(stmt.orelse)
            self._statements(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            self._raise(stmt)

    def _scan_own_expressions(self, stmt: ast.stmt) -> None:
        """Handle calls/yields in the statement's own expressions."""
        for value in ast.iter_child_nodes(stmt):
            if not isinstance(value, ast.expr):
                continue
            for node in ast.walk(value):
                if isinstance(node, ast.Call):
                    self._call(node)
                elif isinstance(node, (ast.Yield, ast.YieldFrom)) \
                        and node.value is not None:
                    self._returns |= self._roots(node.value)
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self._returns |= self._roots(stmt.value)

    # ------------------------------------------------------------------
    # Targets and writes
    # ------------------------------------------------------------------
    def _bind_target(self, target: ast.expr,
                     roots: FrozenSet[Root], stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = roots
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, roots, stmt)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, roots, stmt)
        else:
            self._write_target(target, stmt, "assignment")

    def _augmented_target(self, target: ast.expr,
                          value_roots: FrozenSet[Root],
                          stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            # ``table -= lr * grad`` mutates in place when ``table``
            # aliases an array; the name also keeps its aliases.
            existing = self.env.get(target.id, frozenset())
            for root in existing:
                self._record_write(root, self._target_attr(target, root),
                                   stmt, "augmented assignment")
            self.env[target.id] = existing | value_roots
        else:
            self._write_target(target, stmt, "augmented assignment")

    def _write_target(self, target: ast.expr, stmt: ast.stmt,
                      what: str) -> None:
        if isinstance(target, ast.Attribute):
            base_roots = self._roots(target.value)
            for root in base_roots:
                mapped = ("self", target.attr) if root == SELF else root
                self._record_write(mapped, target.attr, stmt,
                                   f"{what} to .{target.attr}")
        elif isinstance(target, ast.Subscript):
            base = target.value
            attr = base.attr if isinstance(base, ast.Attribute) else None
            for root in self._roots(base):
                mapped = ("self", attr) if (root == SELF and attr) else root
                self._record_write(mapped, attr or self._root_attr(mapped),
                                   stmt, f"{what} through subscript")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._write_target(element, stmt, what)

    @staticmethod
    def _root_attr(root: Root) -> Optional[str]:
        return root[1] if root[0] == "self" else None

    def _target_attr(self, target: ast.expr, root: Root) -> Optional[str]:
        if isinstance(target, ast.Attribute):
            return target.attr
        return self._root_attr(root)

    def _record_write(self, root: Root, attr: Optional[str],
                      node: ast.AST, detail: str) -> None:
        if root == SELF and attr:
            root = ("self", attr)
        self.summary.add(Effect(
            kind="write", root=root, attr=attr, path=self.fn.path,
            line=getattr(node, "lineno", 0),
            detail=f"{detail} (root {self._describe_root(root)})"))

    def _record_rng(self, root: Root, node: ast.AST) -> None:
        self.summary.add(Effect(
            kind="rng", root=root, attr=self._root_attr(root),
            path=self.fn.path, line=getattr(node, "lineno", 0),
            detail=f"RNG stream draw on {self._describe_root(root)}"))

    @staticmethod
    def _describe_root(root: Root) -> str:
        kind, name = root
        if root == SELF:
            return "self"
        return f"self.{name}" if kind == "self" else f"parameter '{name}'"

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def _call(self, node: ast.Call) -> None:
        if not self.replay:
            self._classify_op(node)
        site = self._resolve_site(node)
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = func.value
            receiver_roots = self._roots(receiver)
            if self._numpy_inplace(node, func):
                return
            # The mutator-name fallback covers builtin containers only;
            # resolved repo callees contribute their real summaries.
            if site is None and func.attr in MUTATOR_METHODS:
                attr = receiver.attr if isinstance(receiver, ast.Attribute) \
                    else None
                for root in receiver_roots:
                    mapped = ("self", attr) if (root == SELF and attr) \
                        else root
                    self._record_write(mapped, attr or
                                       self._root_attr(mapped), node,
                                       f".{func.attr}() mutator call")
            for root in receiver_roots:
                if self._is_rng_root(root):
                    self._record_rng(root, node)
        # ``out=`` keyword: in-place result placement.
        for keyword in node.keywords:
            if keyword.arg == "out":
                for root in self._roots(keyword.value):
                    self._record_write(root, self._root_attr(root), node,
                                       "out= keyword")
        if site is not None:
            self.summary.call_sites.append(site)

    def _is_rng_root(self, root: Root) -> bool:
        kind, name = root
        if kind == "self" and name in self.cls_rng_attrs:
            return True
        return kind == "param" and name in self.rng_params

    def _numpy_inplace(self, node: ast.Call, func: ast.Attribute) -> bool:
        """Handle ``np.copyto(dst, ...)`` / ``np.add.at(dst, ...)``."""
        ref = dotted_name(func)
        if ref is None or not node.args:
            return False
        head = ref.split(".")[0]
        imported = self.index.modules[self.fn.module].imports.get(head, "")
        if imported.split(".")[0] != "numpy":
            return False
        terminal = ref.rsplit(".", 1)[-1]
        if terminal in NP_INPLACE_FIRST_ARG or terminal == "at":
            for root in self._roots(node.args[0]):
                self._record_write(root, self._root_attr(root), node,
                                   f"in-place np.{terminal}")
            return True
        return False

    def _resolve_site(self, node: ast.Call) -> Optional[CallSite]:
        key = id(node)
        if key in self._site_cache:
            return self._site_cache[key]
        site = self._resolve_site_uncached(node)
        self._site_cache[key] = site
        return site

    def _resolve_site_uncached(self, node: ast.Call) -> Optional[CallSite]:
        func = node.func
        callees: List[FunctionInfo] = []
        receiver_roots: Optional[FrozenSet[Root]] = None
        unbound = False
        if isinstance(func, ast.Name):
            resolved = self.index.resolve_function(self.fn.module, func.id)
            if resolved is None or resolved.cls is not None:
                return None
            callees = [resolved]
        elif isinstance(func, ast.Attribute):
            receiver = func.value
            method = func.attr
            if isinstance(receiver, ast.Call) \
                    and isinstance(receiver.func, ast.Name) \
                    and receiver.func.id == "super":
                callees = self._resolve_super(method)
                receiver_roots = frozenset({SELF})
            elif isinstance(receiver, ast.Name):
                as_class = self.index.resolve_class(self.fn.module,
                                                    receiver.id)
                if as_class is not None:
                    found = self.index.find_method(as_class, method)
                    if found is not None:
                        callees = [found]
                        unbound = True
                        receiver_roots = frozenset()
                else:
                    receiver_roots = self._roots(receiver)
                    callees = self._resolve_bound(receiver, method,
                                                  receiver_roots)
            else:
                receiver_roots = self._roots(receiver)
                callees = self._resolve_bound(receiver, method,
                                               receiver_roots)
        if not callees:
            return None
        argmaps = {c.key: self._argmap(node, c, unbound) for c in callees}
        return CallSite(callees=tuple(c.key for c in callees),
                        receiver_roots=receiver_roots,
                        argmaps=argmaps,
                        line=node.lineno,
                        frames=self.frames)

    def _resolve_super(self, method: str) -> List[FunctionInfo]:
        if self.fn.cls is None:
            return []
        for ancestor in self.index.mro(self.fn.cls)[1:]:
            found = ancestor.methods.get(method)
            if found is not None:
                return [found]
        return []

    def _resolve_bound(self, receiver: ast.expr, method: str,
                       receiver_roots: FrozenSet[Root]
                       ) -> List[FunctionInfo]:
        cls = self.fn.cls
        # self.m(...): nearest MRO definition, widened over subclasses
        # when only an abstract declaration exists.
        if SELF in receiver_roots and cls is not None:
            found = self.index.find_method(cls, method)
            if found is not None and not found.is_abstract:
                return [found]
            return self._cha_subclasses(cls, method)
        # self.attr.m(...) with a known attribute type.
        if isinstance(receiver, ast.Attribute) \
                and isinstance(receiver.value, ast.Name) \
                and receiver.value.id == self.receiver:
            type_keys = self.cls_attr_types.get(receiver.attr, set())
            resolved: List[FunctionInfo] = []
            for type_key in type_keys:
                type_cls = self.index.classes.get(type_key)
                if type_cls is None:
                    continue
                found = self.index.find_method(type_cls, method)
                if found is not None:
                    resolved.append(found)
            if resolved:
                return resolved
        # Fallback: class-hierarchy analysis over every definer.
        return [definer.methods[method]
                for definer in self.index.defining_classes(method)]

    def _cha_subclasses(self, cls: ClassInfo,
                        method: str) -> List[FunctionInfo]:
        resolved: List[FunctionInfo] = []
        for sub in self.index.subclasses(cls):
            fn = sub.methods.get(method)
            if fn is not None and not fn.is_abstract:
                resolved.append(fn)
        return resolved

    def _argmap(self, node: ast.Call, callee: FunctionInfo,
                unbound: bool) -> Dict[str, FrozenSet[Root]]:
        params = callee.param_names()
        receiver = callee.receiver_name()
        if receiver is not None and not unbound:
            params = [p for p in params if p != receiver]
        elif callee.is_classmethod and params:
            params = params[1:]
        mapping: Dict[str, FrozenSet[Root]] = {}
        for param, arg in zip(params, node.args):
            if isinstance(arg, ast.Starred):
                break
            mapping[param] = self._roots(arg)
        for keyword in node.keywords:
            if keyword.arg is not None and keyword.arg in callee. \
                    param_names():
                mapping[keyword.arg] = self._roots(keyword.value)
        return mapping

    # ------------------------------------------------------------------
    # Fault facts
    # ------------------------------------------------------------------
    def _raise(self, stmt: ast.Raise) -> None:
        exc = stmt.exc
        if exc is None:
            return                            # bare re-raise: transparent
        ref = dotted_name(exc.func if isinstance(exc, ast.Call) else exc)
        if ref is None:
            return
        type_key = self.index.resolve_exception(self.fn.module, ref)
        if type_key is None:
            return                            # ``raise err``: dynamic
        if escapes(self.index, type_key, self.frames):
            raised = RaiseFact(type_key=type_key,
                               name=type_key.rsplit(".", 1)[-1],
                               path=self.fn.path, line=stmt.lineno)
            self.summary.raises[raised.key] = raised

    def _exception_names(self, expr: ast.expr) -> List[str]:
        """Names an ``except``/``isinstance`` type expression covers."""
        elements = expr.elts if isinstance(expr, ast.Tuple) else [expr]
        names: List[str] = []
        for element in elements:
            ref = dotted_name(element)
            if ref is not None:
                names.extend(self.index.exception_names(self.fn.module,
                                                        ref))
        return names

    def _handler(self, node: ast.ExceptHandler) -> Handler:
        covers = () if node.type is None else \
            tuple(self._exception_names(node.type))
        transparent = any(isinstance(stmt, ast.Raise) and stmt.exc is None
                          for stmt in node.body)
        return Handler(covers=covers, bare=node.type is None,
                       line=node.lineno, transparent=transparent,
                       gate=self._gate_names(node),
                       ships=self._ships_and_exits(node))

    def _gate_names(self, node: ast.ExceptHandler) -> Tuple[str, ...]:
        """Types re-raised through ``if isinstance(err, T): raise``."""
        if node.name is None:
            return ()
        gate: List[str] = []
        for stmt in node.body:
            if not (isinstance(stmt, ast.If)
                    and isinstance(stmt.test, ast.Call)
                    and isinstance(stmt.test.func, ast.Name)
                    and stmt.test.func.id == "isinstance"
                    and len(stmt.test.args) == 2
                    and isinstance(stmt.test.args[0], ast.Name)
                    and stmt.test.args[0].id == node.name):
                continue
            if any(isinstance(inner, ast.Raise) and inner.exc is None
                   for inner in stmt.body):
                gate.extend(self._exception_names(stmt.test.args[1]))
        return tuple(gate)

    @staticmethod
    def _ships_and_exits(node: ast.ExceptHandler) -> bool:
        """The worker pattern: error shipped out, then ``SystemExit``."""
        if node.name is None:
            return False
        shipped = False
        exits = False
        for stmt in node.body:
            for inner in ast.walk(stmt):
                if isinstance(inner, ast.Call):
                    for arg in ast.walk(inner):
                        if isinstance(arg, ast.Name) \
                                and arg.id == node.name \
                                and arg is not inner.func:
                            shipped = True
                if isinstance(inner, ast.Raise) and inner.exc is not None:
                    target = inner.exc.func \
                        if isinstance(inner.exc, ast.Call) else inner.exc
                    if dotted_name(target) == "SystemExit":
                        exits = True
        return shipped and exits

    def _classify_op(self, node: ast.Call) -> None:
        """Record signal, spawn and parent-fd operations (REP015)."""
        func = node.func
        ref = dotted_name(func)
        dotted = self._stdlib_target(ref)
        ops = self.summary.ops
        if dotted == "signal.signal":
            self._signal_call(node)
            return
        if dotted in FORK_CALLS:
            ops.append(OpSite("spawn", node.lineno, f"{dotted}()"))
            return
        terminal = ref.rsplit(".", 1)[-1] if ref else None
        if terminal in SPAWN_FACTORIES \
                and self.index.resolve_class(self.fn.module,
                                             ref or "") is None:
            ops.append(OpSite("spawn", node.lineno,
                              f"{terminal}(...) constructor"))
            if terminal == "Process":
                self._process_target(node)
            return
        if isinstance(func, ast.Attribute):
            receiver = dotted_name(func.value)
            if receiver is not None \
                    and self._stdlib_target(receiver) \
                    in PARENT_FD_RECEIVERS:
                ops.append(OpSite("parent_fd", node.lineno,
                                  f"{receiver}.{func.attr}()"))
        elif isinstance(func, ast.Name) and func.id == "input":
            ops.append(OpSite("parent_fd", node.lineno, "input()"))

    def _stdlib_target(self, ref: Optional[str]) -> Optional[str]:
        """Map ``sig.signal`` through the module's import table."""
        if ref is None:
            return None
        head, _, rest = ref.partition(".")
        target = self.index.modules[self.fn.module].imports.get(head)
        if target is None:
            return ref
        return f"{target}.{rest}" if rest else target

    def _signal_call(self, node: ast.Call) -> None:
        signame = None
        if node.args:
            sig_ref = dotted_name(node.args[0])
            if sig_ref:
                signame = sig_ref.rsplit(".", 1)[-1]
        handler_ref = dotted_name(node.args[1]) if len(node.args) > 1 \
            else None
        tail = handler_ref.rsplit(".", 1)[-1] if handler_ref else None
        shown = signame or "?"
        if tail not in ("SIG_DFL", "SIG_IGN"):
            self.summary.ops.append(OpSite(
                "signal_install", node.lineno,
                f"signal.signal({shown}, ...)"))
            return
        self.summary.ops.append(OpSite(
            "signal_reset", node.lineno, f"signal.signal({shown}, {tail})"))
        if signame is not None and id(node) in self._top_level_calls:
            self.summary.resets.add(signame)

    def _process_target(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg != "target":
                continue
            ref = dotted_name(keyword.value)
            if ref is None:
                continue
            resolved = self.index.resolve_function(self.fn.module, ref)
            if resolved is not None:
                self.summary.process_targets.append(resolved.key)

    # ------------------------------------------------------------------
    # Alias roots
    # ------------------------------------------------------------------
    def _roots(self, expr: ast.expr) -> FrozenSet[Root]:
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id, frozenset())
        if isinstance(expr, ast.Attribute):
            base = self._roots(expr.value)
            if SELF in base:
                return (base - {SELF}) | {("self", expr.attr)}
            return base
        if isinstance(expr, ast.Subscript):
            return self._roots(expr.value)
        if isinstance(expr, ast.Starred):
            return self._roots(expr.value)
        if isinstance(expr, ast.Call):
            return self._call_roots(expr)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            roots: Set[Root] = set()
            for element in expr.elts:
                roots |= self._roots(element)
            return frozenset(roots)
        if isinstance(expr, ast.Dict):
            roots = set()
            for value in expr.values:
                if value is not None:
                    roots |= self._roots(value)
            return frozenset(roots)
        if isinstance(expr, ast.IfExp):
            return self._roots(expr.body) | self._roots(expr.orelse)
        if isinstance(expr, ast.BoolOp):
            roots = set()
            for value in expr.values:
                roots |= self._roots(value)
            return frozenset(roots)
        if isinstance(expr, ast.NamedExpr):
            roots = self._roots(expr.value)
            self.env[expr.target.id] = roots
            return roots
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._comprehension_roots(expr)
        # Arithmetic, comparisons, literals, f-strings: fresh objects.
        return frozenset()

    def _comprehension_roots(self, expr: ast.expr) -> FrozenSet[Root]:
        saved = dict(self.env)
        try:
            for generator in expr.generators:
                self._bind_target(generator.target,
                                  self._roots(generator.iter), expr)
            if isinstance(expr, ast.DictComp):
                return self._roots(expr.value)
            return self._roots(expr.elt)
        finally:
            self.env = saved

    def _call_roots(self, node: ast.Call) -> FrozenSet[Root]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ALIAS_BUILTINS:
            roots: Set[Root] = set()
            for arg in node.args:
                roots |= self._roots(arg)
            return frozenset(roots)
        if isinstance(func, ast.Attribute) and func.attr in ALIAS_METHODS:
            return self._roots(func.value)
        site = self._resolve_site(node)
        if site is None:
            return frozenset()
        roots = set()
        for callee_key in site.callees:
            aliases = self.alias_table.get(callee_key)
            if not aliases:
                continue
            argmap = site.argmaps.get(callee_key, {})
            for alias in aliases:
                roots |= self._map_callee_root(alias, site, argmap)
        return frozenset(roots)

    @staticmethod
    def _map_callee_root(root: Root, site: CallSite,
                         argmap: Dict[str, FrozenSet[Root]]
                         ) -> Set[Root]:
        kind, name = root
        if kind == "param":
            return set(argmap.get(name, frozenset()))
        # self-rooted: map through the receiver.
        if site.receiver_roots is None:
            return set()
        mapped: Set[Root] = set()
        for receiver_root in site.receiver_roots:
            if receiver_root == SELF:
                mapped.add(("self", name) if name else SELF)
            else:
                mapped.add(receiver_root)
        return mapped


# ----------------------------------------------------------------------
# Whole-package analysis
# ----------------------------------------------------------------------
#: Propagated call chains longer than this stop growing (cycle guard).
MAX_CHAIN = 10


def escapes(index: PackageIndex, type_key: str,
            frames: Sequence[TryFrame]) -> bool:
    """Whether ``type_key`` raised in the body of ``frames`` leaves them.

    It does unless some frame's first matching handler absorbs it: one
    that neither re-raises unconditionally nor names it in an
    ``isinstance`` gate.
    """
    ancestry = index.exception_ancestry(type_key)
    for frame in frames:
        for handler in frame.handlers:
            if handler.bare or set(handler.covers) & ancestry:
                if not handler.transparent \
                        and not set(handler.gate) & ancestry:
                    return False              # absorbed (classified here)
                break
    return True


def build_summaries(index: PackageIndex) -> Dict[str, FunctionSummary]:
    """Extract and propagate summaries for the whole package.

    Two extraction passes (the second sees every function's return-alias
    facts, so cross-module helpers like ``iter_sequences`` alias
    correctly), then one fixed point pushing callee effects and escaping
    raises into callers with call-chain frames attached.
    """
    alias_table: Dict[str, FrozenSet[Root]] = {}
    summaries: Dict[str, FunctionSummary] = {}
    for _ in range(2):
        summaries = {}
        for fn in index.iter_functions():
            summary = _Analyzer(index, fn, alias_table).run()
            summaries[fn.key] = summary
        alias_table = {key: s.returns_aliases
                       for key, s in summaries.items()}
    _propagate(index, summaries)
    return summaries


def _propagate(index: PackageIndex,
               summaries: Dict[str, FunctionSummary]) -> None:
    """Bottom-up fixed point over every call site.

    The visiting order (summaries, call sites, callees, callee facts)
    decides which chain is found first for a key, and the first one is
    the one reported.
    """
    changed = True
    while changed:
        changed = False
        for caller in summaries.values():
            where = f"{caller.fn.qualname} ({index.relpath(caller.fn.path)}"
            for site in caller.call_sites:
                frame = f"{where}:{site.line})"
                for callee_key in site.callees:
                    callee = summaries.get(callee_key)
                    if callee is None:
                        continue
                    argmap = site.argmaps.get(callee_key, {})
                    for effect in list(callee.effects.values()):
                        if len(effect.chain) >= MAX_CHAIN:
                            continue
                        for root in _Analyzer._map_callee_root(
                                effect.root, site, argmap):
                            if caller.add(Effect(
                                    kind=effect.kind, root=root,
                                    attr=effect.attr, path=effect.path,
                                    line=effect.line, detail=effect.detail,
                                    chain=(frame,) + effect.chain)):
                                changed = True
                    for raised in list(callee.raises.values()):
                        if len(raised.chain) >= MAX_CHAIN \
                                or raised.key in caller.raises \
                                or not escapes(index, raised.type_key,
                                               site.frames):
                            continue
                        caller.raises[raised.key] = RaiseFact(
                            type_key=raised.type_key, name=raised.name,
                            path=raised.path, line=raised.line,
                            chain=(frame,) + raised.chain)
                        changed = True
