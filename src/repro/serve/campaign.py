"""Campaign specifications and their runtime records.

A :class:`CampaignSpec` is the immutable, JSON-serializable description
of one black-box attack campaign — target testbed, action space, budget,
priority, chaos settings.  It is what ``repro submit`` writes to the
scheduler journal and what the Table-2/3 grid expands into.

A :class:`CampaignRecord` is the scheduler's mutable view of one
submitted spec: lifecycle status, the constructed environment/agent,
restart bookkeeping, and checkpoint location.  Records are built lazily
(the environment fit is the expensive part) and rebuilt from their
checkpoint after a supervised restart.
"""

from __future__ import annotations

import dataclasses
import enum
import pathlib
from dataclasses import dataclass
from typing import Optional

from ..effects import pure
from ..runtime.checkpoint import as_npz_path
from ..runtime.retry import FailureBudget


class CampaignStatus(enum.Enum):
    """Lifecycle of one campaign inside the scheduler.

    ``PENDING`` → ``RUNNING`` ⇄ ``WAITING`` (between slices) with
    ``RESTARTING`` on supervised recovery; terminal states are
    ``COMPLETED`` (all steps done) and ``FAILED`` (quarantined by the
    supervision layer — siblings keep running).
    """

    PENDING = "pending"
    RUNNING = "running"
    WAITING = "waiting"
    RESTARTING = "restarting"
    COMPLETED = "completed"
    FAILED = "failed"

    @property
    @pure
    def terminal(self) -> bool:
        """Whether the campaign is done (successfully or not)."""
        return self in (CampaignStatus.COMPLETED, CampaignStatus.FAILED)


@dataclass(frozen=True)
class CampaignSpec:
    """Immutable description of one attack campaign.

    ``steps=None`` defers to the scale's default RL budget.
    ``chaos_rate`` wraps the environment in a
    :class:`~repro.runtime.faults.FaultyEnvironment` with the
    *retryable* fault mix (see
    :meth:`~repro.runtime.faults.FaultPlan.retryable`), so a chaos
    campaign's observed rewards stay bit-identical to a fault-free run.
    ``priority`` weights fair-share scheduling: a priority-2 campaign
    receives twice the step slices of a priority-1 sibling.
    """

    name: str
    dataset: str = "steam"
    ranker: str = "itempop"
    action_space: str = "bcbt-popular"
    scale: str = "ci"
    seed: int = 0
    steps: Optional[int] = None
    priority: float = 1.0
    chaos_rate: float = 0.0
    max_retries: int = 3
    max_restarts: int = 2
    failure_budget: int = 64

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if any(sep in self.name for sep in "/\\\0"):
            raise ValueError(
                f"campaign name {self.name!r} must not contain path "
                "separators (it names the checkpoint file)")
        if self.priority <= 0.0:
            raise ValueError("priority must be positive")
        if not 0.0 <= self.chaos_rate <= 1.0:
            raise ValueError("chaos_rate must be in [0, 1]")
        if self.steps is not None and self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.max_retries < 0 or self.max_restarts < 0:
            raise ValueError("max_retries/max_restarts must be non-negative")
        if self.failure_budget < 0:
            raise ValueError("failure_budget must be non-negative")

    @pure
    def to_json(self) -> dict:
        """Plain-dict form for the scheduler journal."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "CampaignSpec":
        """Inverse of :meth:`to_json`; unknown keys are rejected."""
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(
                f"campaign spec has unknown field(s) {sorted(unknown)}")
        return cls(**data)


class CampaignRecord:
    """One submitted campaign as the scheduler sees it.

    Holds the spec plus everything mutable: lifecycle status, the built
    environment/agent pair, restart and quarantine bookkeeping, and the
    scheduling bookkeeping (``submit_order`` breaks fair-share ties,
    ``backoff_until`` defers a restarting campaign).
    """

    def __init__(self, spec: CampaignSpec, directory: pathlib.Path,
                 submit_order: int) -> None:
        self.spec = spec
        self.directory = pathlib.Path(directory)
        self.submit_order = submit_order
        self.status = CampaignStatus.PENDING
        self.restarts = 0
        self.last_error: Optional[str] = None
        #: Total steps this campaign must complete (resolved at build
        #: time when the spec defers to the scale default).
        self.total_steps: Optional[int] = spec.steps
        #: Built lazily by the scheduler (environment fit is expensive).
        self.env = None
        self.agent = None
        self.config = None
        #: Per-campaign failure budget, spanning slices and restarts.
        self.budget = FailureBudget(spec.failure_budget)
        #: Quarantined samples already charged against :attr:`budget`.
        self.charged_quarantines = 0
        #: Monotonic time before which a restarting campaign must wait.
        self.backoff_until = 0.0
        #: Whether the journal already has this campaign's ``running``
        #: transition (journaled once, not per slice).
        self.journaled_running = False

    @property
    def checkpoint_path(self) -> pathlib.Path:
        """Where this campaign's crash-safe checkpoint lives."""
        return as_npz_path(self.directory / self.spec.name)

    @property
    def steps_done(self) -> int:
        """Completed training steps (0 until the agent is built)."""
        return self.agent.step if self.agent is not None else 0

    @property
    def remaining(self) -> int:
        """Steps still owed (0 until the budget is resolved)."""
        if self.total_steps is None:
            return 0
        return max(self.total_steps - self.steps_done, 0)

    @property
    @pure
    def fair_share_key(self):
        """Fair-share ordering: least weighted progress first.

        Progress is ``steps_done / priority``, so higher-priority
        campaigns tolerate more completed steps before yielding their
        turn; submit order breaks exact ties deterministically.
        """
        return (self.steps_done / self.spec.priority, self.submit_order)

    def __repr__(self) -> str:
        return (f"CampaignRecord({self.spec.name!r}, "
                f"status={self.status.value}, "
                f"steps={self.steps_done}/{self.total_steps}, "
                f"restarts={self.restarts})")
