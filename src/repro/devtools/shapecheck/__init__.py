"""Shapecheck: verify the ``@shape_spec`` contracts on real arrays.

Runs the real forward passes of the nn layers, the inner recommender
networks and the policy network at two prime batch sizes, and probes
every ranker, checking each call against its declared contract.  See
``docs/static_analysis.md`` for the design and
``python -m repro.devtools.shapecheck`` for the whole-repo check.
"""

from .contracts import ContractError, checked_call, parse_spec
from .drivers import CheckResult, build_checks, run_all, run_checks

__all__ = [
    "ContractError", "checked_call", "parse_spec",
    "CheckResult", "build_checks", "run_checks", "run_all",
]
