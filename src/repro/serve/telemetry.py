"""Live fleet telemetry: per-campaign StepStats and phase totals.

:class:`FleetTelemetry` is the scheduler's observer: every completed
training step streams its :class:`~repro.core.agent.StepStats` here
(tagged with the campaign name), and fleet events (restarts, tier
changes, drains) become narrator lines.  Its counters live only in a
labeled :class:`~repro.obs.metrics.MetricsRegistry` — ``fleet.steps``,
``fleet.retries``, ``fleet.quarantined`` and ``fleet.restarts``
counters and the ``fleet.best_reward`` gauge, one series per campaign —
and :meth:`FleetTelemetry.render_table` reads them back.

Output is written to an injectable stream (``None`` silences it, which
is what the tests use); the scheduler never formats anything itself.
Attaching a :class:`~repro.obs.run.RunTelemetry` shares its registry
and writes every fleet event into its crash-safe run log, so
``repro metrics`` can render the dashboard of a live or dead fleet; the
same registry then holds the ``agent.phase_seconds`` histograms the
campaigns' agents fill from their query spans at every tier, which
:meth:`FleetTelemetry.phase_totals` sums.  A fleet resumed from a
scheduler journal is *hydrated* (:meth:`FleetTelemetry.hydrate`) with
the counters the prior process journaled, so the summary table never
zeroes out history it did not stream itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TextIO

from ..effects import pure
from ..experiments.tables import format_table
from ..obs.metrics import MetricsRegistry

#: The per-campaign ``fleet.<name>`` counters, in table order.
COUNTERS = ("steps", "retries", "quarantined", "restarts")


class FleetTelemetry:
    """Streams fleet progress into per-campaign registry counters.

    Parameters
    ----------
    stream:
        Text stream for narrator lines (``None`` silences them).
    obs:
        Optional :class:`~repro.obs.run.RunTelemetry`: its metrics
        registry holds the counters, and fleet events go to its run log.
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 obs=None) -> None:
        self.stream = stream
        self.obs = obs
        #: The labeled metrics registry holding the counters — shared
        #: with ``obs`` when one is attached, private otherwise.
        self.metrics: MetricsRegistry = (obs.metrics if obs is not None
                                         else MetricsRegistry())
        self.events: List[str] = []

    def _emit(self, line: str) -> None:
        if self.stream is not None:
            print(line, file=self.stream)

    def _raise_best(self, name: str, reward: float) -> None:
        """Move the campaign's best-reward gauge up (NaN never counts)."""
        gauge = self.metrics.gauge("fleet.best_reward", campaign=name)
        if reward > (float("-inf") if gauge.value is None else gauge.value):
            gauge.set(reward)

    def observe(self, name: str, stats) -> None:
        """Stream one completed training step of one campaign."""
        self.metrics.counter("fleet.steps", campaign=name).inc()
        self.metrics.counter("fleet.retries",
                             campaign=name).inc(stats.retries)
        self.metrics.counter("fleet.quarantined",
                             campaign=name).inc(stats.quarantined)
        self._raise_best(name, stats.max_reward)
        self._emit(f"[{name}] step {stats.step:3d}: "
                   f"mean={stats.mean_reward:8.1f} "
                   f"max={stats.max_reward:6.0f} "
                   f"retries={stats.retries} "
                   f"quarantined={stats.quarantined}")

    def event(self, message: str) -> None:
        """Record one fleet-level event (restart, tier change, drain)."""
        self.events.append(message)
        if self.obs is not None:
            self.obs.event(message)
        self._emit(f"== {message}")

    def note_restart(self, name: str) -> None:
        """Count one supervised restart of ``name``."""
        self.metrics.counter("fleet.restarts", campaign=name).inc()

    def hydrate(self, name: str, steps: int = 0,
                best: Optional[float] = None, retries: int = 0,
                quarantined: int = 0, restarts: int = 0) -> None:
        """Seed a campaign's counters from a journal replay.

        A resumed fleet streamed none of its prior process's steps
        through this instance; hydration raises the counters to the
        journaled cumulative values so :meth:`render_table` shows real
        history instead of ``best=-`` and zeroes.  Values only ever grow
        — live observations layered on top keep the totals cumulative.
        """
        for key, value in zip(COUNTERS, (steps, retries, quarantined,
                                         restarts)):
            counter = self.metrics.counter(f"fleet.{key}", campaign=name)
            counter.inc(max(value - counter.value, 0))
        if best is not None:
            self._raise_best(name, best)

    def counts(self, name: str) -> Dict[str, Optional[float]]:
        """One campaign's counters (and ``best``), read from the registry."""
        row: Dict[str, Optional[float]] = {
            key: self.metrics.counter(f"fleet.{key}", campaign=name).value
            for key in COUNTERS}
        row["best"] = self.metrics.gauge("fleet.best_reward",
                                         campaign=name).value
        return row

    @pure
    def phase_totals(self) -> Dict[str, float]:
        """Fleet-wide per-phase query seconds across all campaigns."""
        totals: Dict[str, float] = {}
        for record in self.metrics.snapshot():
            if record["name"] == "agent.phase_seconds":
                phase = record["labels"]["phase"]
                totals[phase] = totals.get(phase, 0.0) + record["total"]
        return totals

    def render_table(self, records=None) -> str:
        """The fleet summary table (optionally with lifecycle status).

        With ``records``, every submitted campaign gets a row — including
        ones that finished in a *previous* process (a resumed fleet) and
        therefore streamed no steps through this telemetry instance.
        Without, every campaign the registry has counters for does.
        """
        if records is not None:
            names = list(records)
        else:
            names = sorted({record["labels"]["campaign"]
                            for record in self.metrics.snapshot()
                            if record["name"].startswith("fleet.")
                            and "campaign" in record["labels"]})
        rows = []
        for name in names:
            counts = self.counts(name)
            record = records[name] if records is not None else None
            steps = int(counts["steps"])
            if record is not None:
                # A checkpoint may be ahead of the journaled watermark.
                steps = max(steps, record.steps_done)
            best = counts["best"]
            rows.append([
                name,
                record.status.value if record is not None else "?",
                steps,
                "-" if best is None else f"{best:.0f}",
                int(counts["retries"]),
                int(counts["quarantined"]),
                int(counts["restarts"]),
            ])
        return format_table(
            ["campaign", "status", "steps", "best", "retries",
             "quarantined", "restarts"], rows)
