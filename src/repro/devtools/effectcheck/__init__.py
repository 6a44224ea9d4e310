"""effectcheck — cross-procedural purity/effect analysis for repro.

The static half of the effect-contract system declared in
:mod:`repro.effects`.  It indexes the package source (:mod:`.index`),
infers per-function summaries and propagates them bottom-up over the
call graph (:mod:`.summaries`), then enforces the bit-exactness rules
REP009-REP012 (:mod:`.rules`): sanctioned mutation channels, snapshot
coverage of every reward-query effect, fork safety of pool-shipped
objects, and ``@pure``/``@mutates`` contract conformance.  The same
index and summaries feed faultcheck's rules; :mod:`.cli` is the driver
both analyzers share.

Run it via ``python -m repro.devtools.effectcheck`` or as part of the
aggregate ``python -m repro check`` gate.
"""

from .cli import analyze_package, main
from .index import PackageIndex
from .rules import Diagnostic, check_all
from .summaries import Effect, FunctionSummary, build_summaries

__all__ = [
    "analyze_package", "main", "PackageIndex", "Diagnostic", "check_all",
    "Effect", "FunctionSummary", "build_summaries",
]
