"""Static package index for the effect analyzer.

Parses every module of a package into a queryable model: modules with
their import maps, classes with a C3-lite method-resolution order, and
functions/methods with their effect-contract decorators.  Everything is
derived from the AST — the analyzed package is never imported, which is
what lets the planted-mutation self-test analyze a doctored copy of the
source without executing it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

#: Decorator names recognized as effect contracts (``repro.effects``).
_PURE_NAMES = {"pure"}
_MUTATES_NAMES = {"mutates"}
_CHANNEL_NAMES = {"sanctioned_channel"}
_ABSTRACT_NAMES = {"abstractmethod"}

#: Constructor calls whose result is fork-unsafe to ship to pool workers
#: (REP011): live OS handles, locks and threads do not survive
#: ``fork`` + copy-on-write cleanly.
FORK_UNSAFE_FACTORIES = {
    "open", "fdopen", "FileIO", "TextIOWrapper", "BufferedReader",
    "BufferedWriter", "socket", "create_connection", "Lock", "RLock",
    "Condition", "Event", "Semaphore", "BoundedSemaphore", "Barrier",
    "Thread", "Process", "Pool", "Queue", "SimpleQueue", "Popen", "mmap",
    "TemporaryFile", "NamedTemporaryFile", "connect",
}


#: Builtin exception hierarchy (child -> parent), enough to decide what
#: ``except Exception`` catches without importing anything.
BUILTIN_EXCEPTION_BASES: Dict[str, Optional[str]] = {
    "BaseException": None,
    "Exception": "BaseException",
    "SystemExit": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "GeneratorExit": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "OSError": "Exception",
    "IOError": "OSError",
    "BlockingIOError": "OSError",
    "BrokenPipeError": "OSError",
    "ConnectionError": "OSError",
    "ConnectionResetError": "ConnectionError",
    "FileExistsError": "OSError",
    "FileNotFoundError": "OSError",
    "InterruptedError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "PermissionError": "OSError",
    "TimeoutError": "OSError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "SyntaxError": "Exception",
    "IndentationError": "SyntaxError",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "Warning": "Exception",
}


def decorator_terminal_name(node: ast.expr) -> Optional[str]:
    """The rightmost identifier of a decorator expression.

    ``@pure`` → ``pure``; ``@effects.mutates("x")`` → ``mutates``;
    ``@shape_spec("...")`` → ``shape_spec``.
    """
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def dotted_name(node: ast.expr) -> Optional[str]:
    """Flatten ``a.b.c`` attribute chains to a dotted string."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FunctionInfo:
    """One analyzed function or method."""

    name: str
    qualname: str
    module: str
    path: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    cls: Optional["ClassInfo"] = None
    #: Effect contract: ``None`` undeclared, ``()`` pure, attrs otherwise.
    spec: Optional[Tuple[str, ...]] = None
    #: Source line of the contract decorator (for missing/violation diags).
    spec_line: int = 0
    channel: bool = False
    is_abstract: bool = False
    is_classmethod: bool = False
    is_staticmethod: bool = False
    is_property: bool = False

    @property
    def key(self) -> str:
        """Stable summary-table key (module-qualified name)."""
        return f"{self.module}.{self.qualname}"

    def receiver_name(self) -> Optional[str]:
        """The bound-instance parameter name (``self``), if any."""
        if self.cls is None or self.is_staticmethod or self.is_classmethod:
            return None
        args = self.node.args
        if args.posonlyargs:
            return args.posonlyargs[0].arg
        if args.args:
            return args.args[0].arg
        return None

    def param_names(self) -> List[str]:
        """Positional-or-keyword parameter names, receiver included."""
        args = self.node.args
        return [a.arg for a in args.posonlyargs + args.args]


@dataclass
class ClassInfo:
    """One analyzed class with its directly defined methods."""

    name: str
    qualname: str
    module: str
    path: str
    node: ast.ClassDef
    base_refs: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attr -> class qualnames assigned via ``self.attr = ClassName(...)``.
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)
    #: self attributes assigned anywhere in this class's own methods.
    own_attrs: Set[str] = field(default_factory=set)
    #: self attributes assigned ``np.random.default_rng(...)``.
    rng_attrs: Set[str] = field(default_factory=set)
    #: (attr, line, what) for fork-unsafe constructor assignments.
    unsafe_attrs: List[Tuple[str, int, str]] = field(default_factory=list)
    #: attr -> (mode, line) for ``self.attr = open(...)`` handles.
    open_handles: Dict[str, Tuple[str, int]] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Stable class key (module-qualified name)."""
        return f"{self.module}.{self.name}"


@dataclass
class ModuleInfo:
    """One parsed module: its tree, import map and top-level names."""

    dotted: str
    path: str
    tree: ast.Module
    source_lines: List[str]
    #: local name -> dotted target (``np`` -> ``numpy``,
    #: ``Ranker`` -> ``repro.recsys.base.Ranker``).
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)


class PackageIndex:
    """Whole-package static model with name/method resolution helpers."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.package = self.root.name
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: method name -> classes defining it (class-hierarchy analysis).
        self.method_definers: Dict[str, List[ClassInfo]] = {}
        self.errors: List[str] = []
        #: ``module.NAME`` -> expanded type names, for module-level
        #: exception tuples like ``HOST_ERRORS = (MemoryError, ...)``.
        self.exception_tuples: Dict[str, Tuple[str, ...]] = {}
        self._mro_cache: Dict[str, List[ClassInfo]] = {}
        self._ancestry_cache: Dict[str, FrozenSet[str]] = {}
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for path in sorted(self.root.rglob("*.py")):
            dotted = self._dotted_for(path)
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (SyntaxError, OSError) as exc:
                self.errors.append(f"{path}: {exc}")
                continue
            info = ModuleInfo(dotted=dotted, path=str(path), tree=tree,
                              source_lines=source.splitlines())
            self._collect_imports(info)
            self._collect_definitions(info)
            self.modules[dotted] = info
        for module in self.modules.values():
            for cls in module.classes.values():
                self._scan_class_attrs(cls, module)
            self._scan_exception_tuples(module)

    def _dotted_for(self, path: Path) -> str:
        relative = path.relative_to(self.root).with_suffix("")
        parts = [self.package] + list(relative.parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def _collect_imports(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    module.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(module.dotted, node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.imports[local] = f"{base}.{alias.name}"

    def _resolve_from(self, dotted: str, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        # Relative import: walk up from the *package* containing dotted.
        parts = dotted.split(".")
        is_package = dotted in self.modules or not parts[-1:] or \
            (self.root / Path(*parts[1:]) / "__init__.py").exists() or \
            dotted == self.package
        anchor = parts if is_package else parts[:-1]
        anchor = anchor[:len(anchor) - (node.level - 1)]
        base = ".".join(anchor)
        return f"{base}.{node.module}" if node.module else base

    def _collect_definitions(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                cls = ClassInfo(name=node.name,
                                qualname=node.name,
                                module=module.dotted,
                                path=module.path,
                                node=node)
                for base in node.bases:
                    ref = dotted_name(base)
                    if ref:
                        cls.base_refs.append(ref)
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                        fn = self._function_info(child, module, cls)
                        cls.methods[child.name] = fn
                        self.functions[fn.key] = fn
                        self.method_definers.setdefault(
                            child.name, []).append(cls)
                module.classes[node.name] = cls
                self.classes[cls.key] = cls
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._function_info(node, module, None)
                module.functions[node.name] = fn
                self.functions[fn.key] = fn

    def _function_info(self, node: ast.AST, module: ModuleInfo,
                       cls: Optional[ClassInfo]) -> FunctionInfo:
        qualname = node.name if cls is None else f"{cls.name}.{node.name}"
        fn = FunctionInfo(name=node.name, qualname=qualname,
                          module=module.dotted, path=module.path,
                          node=node, cls=cls)
        for decorator in node.decorator_list:
            name = decorator_terminal_name(decorator)
            if name in _PURE_NAMES:
                fn.spec = ()
                fn.spec_line = decorator.lineno
            elif name in _MUTATES_NAMES and isinstance(decorator, ast.Call):
                attrs = tuple(arg.value for arg in decorator.args
                              if isinstance(arg, ast.Constant)
                              and isinstance(arg.value, str))
                fn.spec = attrs
                fn.spec_line = decorator.lineno
            elif name in _CHANNEL_NAMES:
                fn.channel = True
            elif name in _ABSTRACT_NAMES:
                fn.is_abstract = True
            elif name == "classmethod":
                fn.is_classmethod = True
            elif name == "staticmethod":
                fn.is_staticmethod = True
            elif name == "property":
                fn.is_property = True
        return fn

    def _scan_class_attrs(self, cls: ClassInfo, module: ModuleInfo) -> None:
        for fn in cls.methods.values():
            receiver = fn.receiver_name()
            if receiver is None:
                continue
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    # AugAssign mutates the existing value; its RHS says
                    # nothing about the attribute's type.
                    targets = [node.target]
                    value = node.value if isinstance(node,
                                                     ast.AnnAssign) else None
                else:
                    continue
                for target in targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == receiver):
                        continue
                    cls.own_attrs.add(target.attr)
                    if value is not None:
                        self._classify_attr_value(cls, module, target.attr,
                                                  value, node.lineno)

    def _classify_attr_value(self, cls: ClassInfo, module: ModuleInfo,
                             attr: str, value: ast.expr, line: int) -> None:
        if isinstance(value, ast.GeneratorExp):
            cls.unsafe_attrs.append((attr, value.lineno, "live generator"))
            return
        if not isinstance(value, ast.Call):
            return
        if isinstance(value.func, ast.Name) and value.func.id == "open":
            cls.open_handles[attr] = (_open_mode(value), line)
        terminal = decorator_terminal_name(value.func)
        if terminal == "default_rng":
            cls.rng_attrs.add(attr)
            return
        if terminal == "iter":
            cls.unsafe_attrs.append(
                (attr, value.lineno, "live iterator (iter(...))"))
            return
        if terminal in FORK_UNSAFE_FACTORIES:
            cls.unsafe_attrs.append(
                (attr, value.lineno, f"{terminal}(...) handle"))
            return
        ref = dotted_name(value.func)
        if ref:
            resolved = self.resolve_class(module.dotted, ref)
            if resolved is not None:
                cls.attr_types.setdefault(attr, set()).add(resolved.key)

    def _scan_exception_tuples(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Tuple)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            names: List[str] = []
            for element in node.value.elts:
                ref = dotted_name(element)
                if ref is None:
                    names = []
                    break
                tail = ref.rsplit(".", 1)[-1]
                if tail in BUILTIN_EXCEPTION_BASES or \
                        self.resolve_class(module.dotted, ref):
                    names.append(tail)
                else:
                    names = []
                    break
            if names:
                key = f"{module.dotted}.{node.targets[0].id}"
                self.exception_tuples[key] = tuple(names)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def relpath(self, path: str) -> str:
        """Render ``path`` relative to the analyzed tree's parent."""
        try:
            return str(Path(path).relative_to(self.root.parent))
        except ValueError:
            return path

    def class_named(self, name: str) -> Optional[ClassInfo]:
        """The indexed class called ``name``, if exactly one is."""
        matches = [c for c in self.classes.values() if c.name == name]
        return matches[0] if len(matches) == 1 else None

    def resolve(self, module_dotted: str, ref: str) -> Optional[str]:
        """Resolve a (possibly dotted) local name to a package-level key."""
        module = self.modules.get(module_dotted)
        if module is None:
            return None
        head, _, rest = ref.partition(".")
        if head in module.classes or head in module.functions:
            target = f"{module_dotted}.{head}"
        elif head in module.imports:
            target = module.imports[head]
        else:
            return None
        return f"{target}.{rest}" if rest else target

    def resolve_class(self, module_dotted: str,
                      ref: str) -> Optional[ClassInfo]:
        """Resolve a local class reference to its :class:`ClassInfo`."""
        target = self.resolve(module_dotted, ref)
        if target is None:
            return None
        cls = self.classes.get(target)
        if cls is not None:
            return cls
        # ``from .base import Ranker`` resolves through re-exporting
        # __init__ modules: fall back to matching by trailing class name.
        tail = target.rsplit(".", 1)[-1]
        candidates = [c for c in self.classes.values() if c.name == tail]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_function(self, module_dotted: str,
                         ref: str) -> Optional[FunctionInfo]:
        """Resolve a local function reference to its :class:`FunctionInfo`."""
        target = self.resolve(module_dotted, ref)
        if target is None:
            return None
        fn = self.functions.get(target)
        if fn is not None:
            return fn
        tail = target.rsplit(".", 1)[-1]
        candidates = [f for f in self.functions.values()
                      if f.cls is None and f.name == tail]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """Linearized ancestry (the class first), cycle-safe."""
        cached = self._mro_cache.get(cls.key)
        if cached is not None:
            return cached
        order: List[ClassInfo] = []
        seen: Set[str] = set()

        def visit(current: ClassInfo) -> None:
            if current.key in seen:
                return
            seen.add(current.key)
            order.append(current)
            for ref in current.base_refs:
                base = self.resolve_class(current.module, ref)
                if base is not None:
                    visit(base)

        visit(cls)
        self._mro_cache[cls.key] = order
        return order

    def find_method(self, cls: ClassInfo,
                    name: str) -> Optional[FunctionInfo]:
        """Nearest definition of ``name`` along the MRO."""
        for ancestor in self.mro(cls):
            fn = ancestor.methods.get(name)
            if fn is not None:
                return fn
        return None

    def find_spec(self, cls: ClassInfo,
                  name: str) -> Optional[Tuple[str, ...]]:
        """Nearest effect contract for method ``name`` along the MRO.

        Contracts inherit: an undecorated override is checked against the
        closest ancestor's declaration.
        """
        for ancestor in self.mro(cls):
            fn = ancestor.methods.get(name)
            if fn is not None and fn.spec is not None:
                return fn.spec
        return None

    def subclasses(self, cls: ClassInfo) -> List[ClassInfo]:
        """Every indexed class with ``cls`` in its ancestry (cls excluded)."""
        return [c for c in self.classes.values()
                if c.key != cls.key
                and any(a.key == cls.key for a in self.mro(c))]

    def defining_classes(self, method: str) -> List[ClassInfo]:
        """All classes defining ``method`` (class-hierarchy analysis)."""
        return self.method_definers.get(method, [])

    def merged_rng_attrs(self, cls: ClassInfo) -> Set[str]:
        """RNG-generator attributes across the MRO."""
        attrs: Set[str] = set()
        for ancestor in self.mro(cls):
            attrs |= ancestor.rng_attrs
        return attrs

    def merged_attr_types(self, cls: ClassInfo) -> Dict[str, Set[str]]:
        """Attribute type hints across the MRO."""
        merged: Dict[str, Set[str]] = {}
        for ancestor in self.mro(cls):
            for attr, types in ancestor.attr_types.items():
                merged.setdefault(attr, set()).update(types)
        return merged

    def merged_own_attrs(self, cls: ClassInfo) -> Set[str]:
        """Self attributes assigned anywhere in the MRO."""
        attrs: Set[str] = set()
        for ancestor in self.mro(cls):
            attrs |= ancestor.own_attrs
        return attrs

    def iter_functions(self) -> Iterator[FunctionInfo]:
        """All indexed functions and methods."""
        return iter(self.functions.values())

    # ------------------------------------------------------------------
    # Exception types
    # ------------------------------------------------------------------
    # Types are keyed by the package class key (``repro.runtime.errors
    # .CorruptRewardError``) or the bare builtin name (``ValueError``).
    # Ancestry is a *name* set — package class names merged with the
    # builtin chain reached through unresolved base refs — so handler
    # matching degrades gracefully (by trailing name) when a reference
    # cannot be resolved precisely.
    def resolve_exception(self, module: str, ref: str) -> Optional[str]:
        """Type key for ``raise <ref>(...)``, or ``None`` if dynamic."""
        cls = self.resolve_class(module, ref)
        if cls is not None:
            return cls.key
        tail = ref.rsplit(".", 1)[-1]
        if tail in BUILTIN_EXCEPTION_BASES:
            return tail
        return None

    def exception_names(self, module: str, ref: str) -> Tuple[str, ...]:
        """Names one ``except <ref>`` entry covers (tuples expanded)."""
        resolved = self.resolve(module, ref)
        for key in (resolved, f"{module}.{ref}"):
            if key in self.exception_tuples:
                return self.exception_tuples[key]
        cls = self.resolve_class(module, ref)
        if cls is not None:
            return (cls.name,)
        return (ref.rsplit(".", 1)[-1],)

    def exception_ancestry(self, type_key: str) -> FrozenSet[str]:
        """All class names an instance of ``type_key`` is."""
        cached = self._ancestry_cache.get(type_key)
        if cached is not None:
            return cached
        names: Set[str] = set()
        cls = self.classes.get(type_key)
        if cls is None:
            _add_builtin_chain(names, type_key.rsplit(".", 1)[-1])
        else:
            for ancestor in self.mro(cls):
                names.add(ancestor.name)
                for base_ref in ancestor.base_refs:
                    if self.resolve_class(ancestor.module,
                                          base_ref) is None:
                        _add_builtin_chain(names,
                                           base_ref.rsplit(".", 1)[-1])
        result = frozenset(names)
        self._ancestry_cache[type_key] = result
        return result


def _add_builtin_chain(names: Set[str], name: str) -> None:
    while name in BUILTIN_EXCEPTION_BASES:
        names.add(name)
        parent = BUILTIN_EXCEPTION_BASES[name]
        if parent is None:
            break
        name = parent


def _open_mode(call: ast.Call) -> str:
    if len(call.args) > 1 and isinstance(call.args[1], ast.Constant) \
            and isinstance(call.args[1].value, str):
        return call.args[1].value
    for keyword in call.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value,
                                                ast.Constant) \
                and isinstance(keyword.value.value, str):
            return keyword.value.value
    return "r"
