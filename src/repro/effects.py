"""Effect contracts: declare what state a callable may mutate.

The parallel query engine's bit-exact equivalence guarantee
(:mod:`repro.perf.pool`) rests on a purity contract: the score path
mutates nothing, ``poison_update``/``poison_revert`` are exact inverses,
and every piece of state touched between snapshot and restore is
captured by :class:`~repro.recsys.snapshots.RankerSnapshot`.  This
module provides the *declaration* half of that contract, mirroring
:mod:`repro.nn.spec`'s ``@shape_spec``:

* ``@pure`` — the callable mutates nothing observable: no writes to
  ``self`` attributes, no in-place mutation of its arguments, no RNG
  stream draws.
* ``@mutates("attr", ...)`` — the callable (including everything it
  transitively calls) writes at most the listed ``self`` attributes.
  An entry ``"param.attr"`` admits writes to attribute ``attr`` of the
  parameter ``param`` (``InteractionLog.splice`` counts itself on the
  donor log it grafts in).  RNG draws count as mutation of the
  generator attribute, so a method consuming ``self.rng`` must list
  ``"rng"``.  The single wildcard ``@mutates("*")`` leaves the write
  set unconstrained (used where the set is inherently subclass-defined,
  e.g. ``Ranker.restore``).
* ``@sanctioned_channel`` — marks an approved mutation entry point
  (``Tensor.assign_``, snapshot restore, ``splice``/``unsplice``,
  ``poison_revert``).  The static analyzer's REP009 rule flags
  mutations of ranker/log state that do not flow through one of these.

Like ``shape_spec``, the decorators only *attach* metadata (zero
runtime cost, no imports).  Verification is entirely static and lives
in :mod:`repro.devtools.effectcheck`, which analyzes the real source
cross-procedurally and checks the declarations against the inferred
effect summaries.
"""

from __future__ import annotations

from typing import Callable, Tuple, TypeVar

#: Attribute carrying an effect declaration: ``None`` for ``@pure``,
#: a tuple of attribute names for ``@mutates``.
EFFECT_ATTRIBUTE = "__effect_spec__"

#: Attribute marking a sanctioned mutation channel.
CHANNEL_ATTRIBUTE = "__effect_channel__"

#: Runtime registry of sanctioned mutation channels, by qualified name.
#: Populated as decorated modules import; the static analyzer reads the
#: same decorators from the AST, so the registry and the checker can
#: never disagree about what is sanctioned.
SANCTIONED_CHANNELS: set = set()

_F = TypeVar("_F", bound=Callable)


def pure(fn: _F) -> _F:
    """Declare that ``fn`` performs no observable mutation.

    No ``self``-attribute writes, no in-place argument mutation, no RNG
    draws — transitively, through everything ``fn`` calls.  Checked
    statically by ``python -m repro.devtools.effectcheck``.
    """
    setattr(fn, EFFECT_ATTRIBUTE, ())
    return fn


def mutates(*attrs: str) -> Callable[[_F], _F]:
    """Declare the exact ``self`` attributes ``fn`` may write.

    A ``"param.attr"`` entry also admits writes to attribute ``attr``
    of the parameter ``param``.  The declared set is an upper bound on
    the *transitive* write set (callees' effects are inherited by
    callers).  ``mutates("*")`` declares an unconstrained write set.
    """
    if not attrs:
        raise ValueError("mutates() needs at least one attribute name "
                         "(use @pure for an empty write set)")

    def decorate(fn: _F) -> _F:
        setattr(fn, EFFECT_ATTRIBUTE, tuple(attrs))
        return fn

    return decorate


def sanctioned_channel(fn: _F) -> _F:
    """Register ``fn`` as an approved mutation entry point (REP009).

    Ranker/log state may only change through a sanctioned channel:
    ``Tensor.assign_``, snapshot ``restore``/``_set_state``,
    ``InteractionLog.splice``/``unsplice``, and ``poison_revert``.
    """
    setattr(fn, CHANNEL_ATTRIBUTE, True)
    SANCTIONED_CHANNELS.add(getattr(fn, "__qualname__", fn.__name__))
    return fn


def get_effect_spec(fn: Callable) -> Tuple[str, ...] | None:
    """The effect declaration on ``fn``: ``()`` for pure, attrs for mutates.

    Returns ``None`` when ``fn`` carries no declaration; follows
    ``__func__`` for bound methods, like ``get_shape_spec``.
    """
    spec = getattr(fn, EFFECT_ATTRIBUTE, None)
    if spec is None and hasattr(fn, "__func__"):
        spec = getattr(fn.__func__, EFFECT_ATTRIBUTE, None)
    return spec


def is_sanctioned_channel(fn: Callable) -> bool:
    """Whether ``fn`` was registered via :func:`sanctioned_channel`."""
    if getattr(fn, CHANNEL_ATTRIBUTE, False):
        return True
    return bool(getattr(getattr(fn, "__func__", None), CHANNEL_ATTRIBUTE,
                        False))
