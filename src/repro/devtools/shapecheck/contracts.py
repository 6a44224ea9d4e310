"""Verification of ``@shape_spec`` contracts against real values.

The contract grammar is defined in :mod:`repro.nn.spec` (which only
attaches the string); this module parses it and unifies it with the
``.shape`` of the actual arguments and result.  Dim names bind on first
use and must match on every later use; a name that resolves to an
``int`` attribute on the bound instance (``in_dim``, ``cell.hidden_dim``,
``action_space.max_decisions``) is treated as that constant instead.
"""

from __future__ import annotations

import re
from types import ModuleType
from typing import Dict, List, Optional, Tuple, Union

from ...nn.spec import get_shape_spec

_TOKEN_RE = re.compile(r"->|[()\[\],]|[A-Za-z_][A-Za-z0-9_.]*|\d+")

WILD = ("wild",)

Term = Union[Tuple[str], Tuple[str, tuple], Tuple[str, "Term"],
             Tuple[str, List["Term"]]]


class ContractError(Exception):
    """A value violated the shape contract attached to a callable."""


def _tokenize(spec: str) -> List[str]:
    tokens = _TOKEN_RE.findall(spec)
    if "".join(tokens).replace(" ", "") != re.sub(r"\s+", "", spec):
        raise ContractError(f"unparseable shape spec: {spec!r}")
    return tokens


class _Parser:
    """Recursive-descent parser over the spec token stream."""

    def __init__(self, tokens: List[str], spec: str) -> None:
        self.tokens = tokens
        self.pos = 0
        self.spec = spec

    def peek(self) -> Optional[str]:
        """The next token without consuming it (``None`` at the end)."""
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: Optional[str] = None) -> str:
        """Consume and return the next token, optionally asserting it."""
        token = self.peek()
        if token is None or (expected is not None and token != expected):
            raise ContractError(
                f"bad shape spec {self.spec!r}: expected "
                f"{expected or 'a token'}, got {token!r}")
        self.pos += 1
        return token

    def parse_terms(self) -> List[Term]:
        """A comma-separated term list (one side of the ``->``)."""
        terms = [self.parse_term()]
        while self.peek() == ",":
            self.take(",")
            terms.append(self.parse_term())
        return terms

    def parse_term(self) -> Term:
        """One term: wildcard, shape, tuple of terms, or list of tensors."""
        token = self.peek()
        if token == "_":
            self.take()
            return WILD
        if token == "[":
            self.take("[")
            inner = self.parse_term()
            self.take("]")
            return ("list", inner)
        if token == "(":
            self.take("(")
            if self.peek() in ("(", "["):
                items = [self.parse_term()]
                while self.peek() == ",":
                    self.take(",")
                    items.append(self.parse_term())
                self.take(")")
                return ("tuple", items)
            dims: list = []
            while self.peek() != ")":
                dims.append(self.parse_dim())
                if self.peek() == ",":
                    self.take(",")
            self.take(")")
            return ("shape", tuple(dims))
        raise ContractError(
            f"bad shape spec {self.spec!r}: unexpected token {token!r}")

    def parse_dim(self):
        """One dim token: int literal, (dotted) name, or ``_``."""
        token = self.take()
        if token.isdigit():
            return int(token)
        if token in ("(", ")", "[", "]", ",", "->"):
            raise ContractError(
                f"bad shape spec {self.spec!r}: unexpected {token!r}")
        return token


_PARSE_CACHE: Dict[str, Tuple[List[Term], List[Term]]] = {}


def parse_spec(spec: str) -> Tuple[List[Term], List[Term]]:
    """Parse ``"args -> result"`` into (argument terms, result terms)."""
    cached = _PARSE_CACHE.get(spec)
    if cached is not None:
        return cached
    tokens = _tokenize(spec)
    if tokens.count("->") != 1:
        raise ContractError(f"shape spec needs exactly one '->': {spec!r}")
    arrow = tokens.index("->")
    left = _Parser(tokens[:arrow], spec)
    args = left.parse_terms() if tokens[:arrow] else []
    if left.peek() is not None:
        raise ContractError(f"trailing tokens in spec {spec!r}")
    right = _Parser(tokens[arrow + 1:], spec)
    results = right.parse_terms()
    if right.peek() is not None:
        raise ContractError(f"trailing tokens in spec {spec!r}")
    _PARSE_CACHE[spec] = (args, results)
    return args, results


_MISSING = object()


def _resolve_constant(instance, name: str) -> Optional[int]:
    target = instance
    for part in name.split("."):
        target = getattr(target, part, _MISSING)
        if target is _MISSING:
            return None
    if isinstance(target, bool) or not isinstance(target, int):
        return None
    return target


def _match_shape(dims: tuple, value, env: Dict[str, int], instance,
                 where: str, spec: str) -> None:
    shape = getattr(value, "shape", None)
    if shape is None:
        raise ContractError(
            f"{where}: expected a tensor for {fmt_spec_dims(dims)} in "
            f"{spec!r}, got {type(value).__name__}")
    if len(shape) != len(dims):
        raise ContractError(
            f"{where}: rank mismatch — spec {fmt_spec_dims(dims)} vs "
            f"actual {shape} (spec {spec!r})")
    for token, actual in zip(dims, shape):
        if token == "_":
            continue
        if isinstance(token, int):
            expected = token
        else:
            resolved = _resolve_constant(instance, token)
            if resolved is not None:
                expected = resolved
            elif token in env:
                expected = env[token]
            else:
                env[token] = actual
                continue
        if expected != actual:
            raise ContractError(
                f"{where}: dim '{token}' expected {expected}, got {actual} "
                f"— spec {fmt_spec_dims(dims)} vs actual "
                f"{shape} (spec {spec!r})")


def fmt_spec_dims(dims: tuple) -> str:
    """Render a parsed shape term back to ``(B, T)`` text."""
    return "(" + ", ".join(str(d) for d in dims) + ")"


def _match_term(term: Term, value, env: Dict[str, int], instance,
                where: str, spec: str) -> None:
    kind = term[0]
    if kind == "wild":
        return
    if kind == "shape":
        _match_shape(term[1], value, env, instance, where, spec)
        return
    if kind == "tuple":
        items = term[1]
        if not isinstance(value, (tuple, list)) or len(value) != len(items):
            raise ContractError(
                f"{where}: expected a {len(items)}-tuple, got "
                f"{type(value).__name__} (spec {spec!r})")
        for index, (sub, element) in enumerate(zip(items, value)):
            _match_term(sub, element, env, instance,
                        f"{where}[{index}]", spec)
        return
    if kind == "list":
        if not isinstance(value, (tuple, list)):
            raise ContractError(
                f"{where}: expected a list of tensors, got "
                f"{type(value).__name__} (spec {spec!r})")
        for index, element in enumerate(value):
            _match_term(term[1], element, env, instance,
                        f"{where}[{index}]", spec)
        return
    raise ContractError(f"unknown spec term {term!r} in {spec!r}")


def _nearest_spec(obj, method_name: str) -> Optional[str]:
    """The ``@shape_spec`` binding ``obj.method_name``.

    A module function's own spec, or the first one along
    ``type(obj).__mro__``.
    """
    if isinstance(obj, ModuleType):
        return get_shape_spec(getattr(obj, method_name))
    for klass in type(obj).__mro__:
        fn = vars(klass).get(method_name)
        spec = None if fn is None else get_shape_spec(fn)
        if spec is not None:
            return spec
    return None


def checked_call(obj, method_name: str, *args):
    """Call ``obj.method_name(*args)`` and verify its shape contract.

    The spec is the nearest one along ``type(obj).__mro__``, so a contract
    declared on a base class also binds an override that declares none.
    ``obj`` may also be a module, to check one of its functions; no dim
    name then resolves to an attribute.
    Argument terms are verified *before* the call — a mis-shaped input is
    reported against the declared contract instead of wherever the
    forward pass first trips over it — and the result term after, sharing
    one symbol environment.  Trailing spec terms without a matching
    argument are allowed (optional parameters left at their defaults);
    extra arguments are not.  Returns the call's result; raises
    :class:`ContractError` on violation.
    """
    spec = _nearest_spec(obj, method_name)
    if spec is None:
        return getattr(obj, method_name)(*args)
    instance = None if isinstance(obj, ModuleType) else obj
    owner = obj.__name__ if instance is None else type(obj).__name__
    where = f"{owner}.{method_name}"
    arg_terms, result_terms = parse_spec(spec)
    if len(args) > len(arg_terms):
        raise ContractError(
            f"{where}: {len(args)} args but spec {spec!r} declares "
            f"{len(arg_terms)} terms")
    env: Dict[str, int] = {}
    for index, (term, value) in enumerate(zip(arg_terms, args)):
        _match_term(term, value, env, instance, f"{where}: arg {index}",
                    spec)
    result = getattr(obj, method_name)(*args)
    if len(result_terms) == 1:
        _match_term(result_terms[0], result, env, instance,
                    f"{where}: result", spec)
    else:
        _match_term(("tuple", result_terms), result, env, instance,
                    f"{where}: result", spec)
    return result
