"""Repo-native developer tooling: static analysis and numerical checking.

Five pillars keep the reproduction trustworthy as it scales:

* :mod:`repro.devtools.lint` — **graphlint**, a dependency-free AST linter
  enforcing the repo's correctness invariants (seeded randomness, no blind
  exception handlers, sanctioned tensor mutation, dtype discipline,
  backward-closure hygiene, docstring coverage, checkpoint determinism,
  retry-wrapped environment queries) as named ``REPxxx`` rules.
  Run it with ``python -m repro.devtools.lint src/ tests/ benchmarks/``.
* :mod:`repro.devtools.shapecheck` — **shapecheck**, which runs the
  real ``repro.nn`` forward passes on real arrays at two prime batch
  sizes and verifies the ``@shape_spec`` contracts declared across the
  stack.  Run it with ``python -m repro.devtools.shapecheck``.
* :mod:`repro.devtools.effectcheck` — **effectcheck**, a
  cross-procedural purity/effect analyzer that verifies the
  ``@pure``/``@mutates`` contracts from :mod:`repro.effects` and the
  snapshot/fork invariants behind the parallel query engine's bit-exact
  guarantee (rules REP009-REP012).  Run it with
  ``python -m repro.devtools.effectcheck``.
* :mod:`repro.devtools.faultcheck` — **faultcheck**, a cross-procedural
  exception-flow and fork-protocol analyzer proving the serve layer's
  fault-tolerance invariants: no taxonomy laundering of host errors,
  taxonomy exhaustiveness on the supervised query path, fork-safe
  worker closures, journal torn-tail discipline and restore-on-raise
  consistency (rules REP013-REP017).  Run it with
  ``python -m repro.devtools.faultcheck``.
* :mod:`repro.devtools.gradcheck` — the shared finite-difference gradient
  checker used by the ``repro.nn`` test-suite and by recommender-loss
  end-to-end checks.

The analyzer CLIs share suppression-comment parsing, JSON output and
the 0/1/2 exit-code convention through :mod:`repro.devtools.common`.
The autograd *runtime* sanitizer lives next to the engine it
instruments: :mod:`repro.nn.anomaly`.
"""

__all__ = ["Diagnostic", "RULES", "lint_paths", "lint_source",
           "gradcheck", "gradcheck_param", "numeric_gradient",
           "ContractError", "checked_call", "run_shapecheck",
           "analyze_package", "run_effectcheck",
           "analyze_faults", "run_faultcheck"]

_LINT_NAMES = ("Diagnostic", "RULES", "lint_paths", "lint_source")
_GRADCHECK_NAMES = ("gradcheck", "gradcheck_param", "numeric_gradient")
_EFFECTCHECK_NAMES = {"analyze_package": "analyze_package",
                      "run_effectcheck": "main"}
_FAULTCHECK_NAMES = {"analyze_faults": "analyze_package",
                     "run_faultcheck": "main"}
_SHAPECHECK_NAMES = {"ContractError": "ContractError",
                     "checked_call": "checked_call",
                     "run_shapecheck": "run_all"}


def __getattr__(name):
    """Lazily resolve the public surface from the submodules.

    Keeps ``python -m repro.devtools.lint`` free of double-import
    warnings and keeps the (stdlib-only) linter importable without the
    numeric stack the gradcheck/shapecheck helpers need.
    """
    if name in _LINT_NAMES:
        from . import lint
        return getattr(lint, name)
    if name in _GRADCHECK_NAMES:
        from . import gradcheck as _gradcheck
        return getattr(_gradcheck, name)
    if name in _SHAPECHECK_NAMES:
        from . import shapecheck as _shapecheck
        return getattr(_shapecheck, _SHAPECHECK_NAMES[name])
    if name in _EFFECTCHECK_NAMES:
        from . import effectcheck as _effectcheck
        return getattr(_effectcheck, _EFFECTCHECK_NAMES[name])
    if name in _FAULTCHECK_NAMES:
        from . import faultcheck as _faultcheck
        return getattr(_faultcheck, _FAULTCHECK_NAMES[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
