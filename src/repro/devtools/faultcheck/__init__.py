"""faultcheck: cross-procedural exception-flow & fork-protocol analyzer.

Statically proves the serve layer's fault-tolerance invariants as a
rule table over the same analysis effectcheck runs — one
:class:`~repro.devtools.effectcheck.index.PackageIndex` and one set of
per-function summaries, whose walk also records raise sites, ``try``
blocks with summarized handlers, and concurrency operations, and whose
fixed point propagates escaping raise sets alongside effects:

* **REP013** — no taxonomy laundering: broad handlers re-raise
  ``HOST_ERRORS`` (MemoryError/SystemError/RecursionError);
* **REP014** — taxonomy exhaustiveness: every raise escaping the
  supervised query path is classifiable (Transient/Fatal/host/contract);
* **REP015** — fork-protocol safety: worker-reachable code installs no
  signal handlers, spawns nothing, touches no parent fds, and the
  worker entry resets inherited SIGTERM/SIGINT;
* **REP016** — journal torn-tail discipline: append-only handles,
  write→flush→fsync, no seek/truncate;
* **REP017** — restore-on-raise: try-scoped ranker mutations are
  restored in re-raising handlers.

Run ``python -m repro.devtools.faultcheck`` (or ``--self-test`` for the
planted-bug end-to-end check).  Stdlib-only: the analyzed package is
parsed, never imported.
"""

from .cli import analyze_package, main
from .rules import FaultContext, check_all, reachability

__all__ = [
    "FaultContext",
    "analyze_package",
    "check_all",
    "main",
    "reachability",
]
