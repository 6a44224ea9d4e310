"""repro.serve — fault-tolerant campaign orchestration.

Runs a fleet of concurrent attack campaigns over one shared
:class:`~repro.perf.pool.QueryPool` worker fleet, with supervision
(per-campaign failure isolation, checkpointed restarts with exponential
backoff), tiered graceful degradation (pooled → reduced → serial,
decided by the pool), a crash-safe scheduler journal (``kill -9``
resumes bit-identically), and cooperative SIGTERM/SIGINT drains.  See
``docs/serving.md``.
"""

from .campaign import CampaignRecord, CampaignSpec, CampaignStatus
from .grid import DEFAULT_ACTION_SPACES, DEFAULT_RANKERS, grid_specs
from .journal import (JOURNAL_FORMAT, JOURNAL_VERSION, FleetLedger,
                      LedgerEntry, SchedulerJournal, read_events, replay)
from .router import CampaignQueryClient, CampaignRouter
from .scheduler import CampaignScheduler, FleetResult, default_builder
from .supervision import (FATAL_ERRORS, HOST_ERRORS, RESTARTABLE_ERRORS,
                          CampaignSupervisor, DrainController,
                          DrainRequested, RestartPolicy)
from .telemetry import FleetTelemetry

__all__ = [
    "CampaignRecord",
    "CampaignSpec",
    "CampaignStatus",
    "DEFAULT_ACTION_SPACES",
    "DEFAULT_RANKERS",
    "grid_specs",
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "FleetLedger",
    "LedgerEntry",
    "SchedulerJournal",
    "read_events",
    "replay",
    "CampaignQueryClient",
    "CampaignRouter",
    "CampaignScheduler",
    "FleetResult",
    "default_builder",
    "CampaignSupervisor",
    "DrainController",
    "DrainRequested",
    "RestartPolicy",
    "FATAL_ERRORS",
    "HOST_ERRORS",
    "RESTARTABLE_ERRORS",
    "FleetTelemetry",
]
