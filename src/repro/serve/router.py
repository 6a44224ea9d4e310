"""Routing a shared worker fleet across many campaign environments.

One :class:`~repro.perf.pool.QueryPool` can only replicate a single
``system`` object into its forked workers.  To serve a whole fleet of
campaigns over one pool, that object is a :class:`CampaignRouter`: it
holds every campaign's environment, and its ``attack`` accepts
*tagged* tasks ``(campaign_name, trajectories)``, unwrapping them to
the right environment.  Workers fork the router (and therefore every
environment) copy-on-write, so adding campaigns costs no pickling and
no duplicate ranker fits.

:class:`CampaignQueryClient` is the per-campaign facade handed to each
:class:`~repro.core.agent.PoisonRec` as its ``query_pool``: it tags the
agent's untagged trajectory batches with the campaign name before
dispatching them, and counts the campaign's dispatched queries for
telemetry.  Because :func:`~repro.runtime.faults.query_digest` hashes
the tag along with the trajectories, per-query fault schedules remain
deterministic per campaign even when two campaigns submit identical
trajectory content.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..perf.pool import QueryOutcome


class CampaignRouter:
    """The single pool-replicated object holding every campaign's env."""

    def __init__(self) -> None:
        self._envs: Dict[str, object] = {}

    def register(self, name: str, env) -> None:
        """Add one campaign's environment under its (unique) name."""
        if name in self._envs:
            raise ValueError(f"campaign {name!r} is already registered")
        self._envs[name] = env

    @property
    def campaigns(self) -> List[str]:
        """Registered campaign names, in registration order."""
        return list(self._envs)

    def environment(self, name: str):
        """The environment registered under ``name``."""
        return self._envs[name]

    def attack(self, task) -> float:
        """Serve one tagged query ``(campaign_name, trajectories)``."""
        name, trajectories = task
        return float(self._envs[name].attack(trajectories))

    def __repr__(self) -> str:
        return f"CampaignRouter(campaigns={list(self._envs)})"


class CampaignQueryClient:
    """Per-campaign ``query_pool`` facade over the shared fleet pool.

    Implements exactly the surface :class:`~repro.core.agent.PoisonRec`
    uses (``attack_many``), tagging each trajectory set with the
    campaign name so the pool's router can unwrap it — in a worker, or
    in the parent on the serial-fallback path.
    """

    def __init__(self, pool, name: str) -> None:
        self.pool = pool
        self.name = name
        #: Queries this campaign has dispatched through the fleet
        #: (telemetry; worker-side query counts never reach the parent).
        self.queries = 0

    def attack_many(self, trajectory_sets: Sequence, retry=None, rng=None,
                    sleep=None) -> List[QueryOutcome]:
        """Dispatch one tagged batch; outcomes in submission order."""
        tagged = [(self.name, trajectories)
                  for trajectories in trajectory_sets]
        self.queries += len(tagged)
        return self.pool.attack_many(tagged, retry=retry, rng=rng,
                                     sleep=sleep)

    def __repr__(self) -> str:
        return (f"CampaignQueryClient({self.name!r}, "
                f"queries={self.queries})")
