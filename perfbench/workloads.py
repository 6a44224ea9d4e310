"""The benchmark's four workloads.

Each workload builds its inputs from the seed (:meth:`setup`, repeated
to time set-up, with :meth:`release` dropping the last build before the
next one) and then runs operations (:meth:`op`).  An operation is
one ``PoisonRec.train_step`` (paper-step, retrain-10k), one
``CampaignScheduler.run`` over a four-campaign fleet (fleet) or one pass
of the three AST analyzers (check).  ``op`` returns how many units of
work it completed: steps, black-box queries (fleet) or passes.

Every workload counts what it attempted and what failed in
:attr:`tally`, checks its outputs in :meth:`check` and hashes them into
a digest, so a changed random stream shows between commits.
:meth:`instrument` lists the public functions a traced window wraps in
spans; an untraced window runs the same code with nothing wrapped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import shutil
import tarfile
import tempfile
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core import PoisonRec, PoisonRecConfig, PolicyNetwork, PPOTrainer
from repro.core import agent as core_agent
from repro.data import Dataset, InteractionLog, generate_sparse_log, load_dataset
from repro.devtools import lint
from repro.devtools.effectcheck import cli as effectcheck
from repro.devtools.effectcheck.index import PackageIndex
from repro.devtools.faultcheck import cli as faultcheck
from repro.experiments import SCALES
from repro.nn import Adam, Tensor
from repro.obs import RunTelemetry
from repro.perf import QueryPool
from repro.recsys import RANKER_CLASSES, BlackBoxEnvironment, RecommenderSystem
from repro.runtime.errors import CampaignError
from repro.serve import CampaignScheduler, CampaignSpec, CampaignStatus
from repro.serve import scheduler as serve_scheduler
from repro.serve.journal import SchedulerJournal

from spans import Instrumentation, SpanRecorder

#: ``src/repro`` as of the commit that added the benchmark, so code later
#: commits add to ``src/`` does not change the check workload's input.
CORPUS = Path(__file__).resolve().parent / "corpus" / "repro-src.tar.gz"
#: What each analyzer must report over the corpus.
CORPUS_COUNTS = {
    "devtools.graphlint": {"files_checked": 103},
    "devtools.effectcheck": {"modules_checked": 103,
                             "functions_summarized": 968},
    "devtools.faultcheck": {"modules_checked": 103,
                            "functions_analyzed": 968},
}


class Tally:
    """Operations attempted and failed: queries, campaigns, checks, analyzer runs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str, count: int = 1) -> None:
        """Count ``count`` operations; print ``what`` if they failed."""
        self.attempted += count
        if not ok and count:
            self.failed += count
            print(f"FAILED: {what}")


def _digest(values) -> str:
    text = json.dumps(values, sort_keys=True, default=float)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _probe_trajectories(seed: int, num_items: int, attackers: int,
                        length: int) -> List[List[int]]:
    rng = np.random.default_rng(seed + 1)
    return [[int(item) for item in rng.integers(0, num_items, size=length)]
            for _ in range(attackers)]


def _recnum_ok(value, limit: int) -> bool:
    return float(value).is_integer() and 0 <= value <= limit


def _wrap_core(inst: Instrumentation) -> None:
    """The attack agent's own layers: sampling, PPO and the autograd engine."""
    inst.wrap(PolicyNetwork, "sample_rollout", "core.sample")
    inst.wrap(PPOTrainer, "update", "core.ppo_update")
    inst.wrap(PolicyNetwork, "rollout_log_probs", "nn.forward")
    inst.wrap(Tensor, "backward", "nn.backward")
    inst.wrap(Adam, "clip_grad_norm", "nn.optim")
    inst.wrap(Adam, "step", "nn.optim")


class Workload:
    """What the harness drives; see the module docstring."""

    #: Name of the span around one operation in a traced window.
    root = "op"
    #: What one unit of ``op``'s return value counts.
    unit = "op"
    #: Errors that make an operation a failed one.  Queries and campaigns
    #: fail inside the package's error taxonomy; anything else is a bug
    #: in the benchmark or the package and stops the run.
    failures = (CampaignError,)

    def __init__(self) -> None:
        self.tally = Tally()
        #: The traced window's recorder while one is open, else None.
        self.recorder: Optional[SpanRecorder] = None

    def span(self, name: str):
        """A span on the open recorder, or a no-op outside traced windows."""
        return (self.recorder.span(name) if self.recorder is not None
                else nullcontext())

    def setup(self) -> None:
        """Build the inputs from the seed; timed as ``setup_s``."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop the last set-up's build, so two builds are never resident."""
        raise NotImplementedError

    def instrument(self, inst: Instrumentation) -> None:
        """Wrap the layers this workload runs in spans."""
        raise NotImplementedError

    def probe(self) -> None:
        """A fixed query run before and after the timed windows."""

    def op(self) -> int:
        """Run one operation; return the units of work it completed."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed operation, so caches fill and lazy set-up is done."""
        self.op()

    def check(self) -> str:
        """Record the output checks in :attr:`tally`; return the digest."""
        raise NotImplementedError

    def layer_metrics(self, spans) -> Dict[str, float]:
        """Per-layer metrics that are not span self times."""
        return {}


class RecordingEnvironment(BlackBoxEnvironment):
    """The black-box facade, keeping every RecNum it returns for the checks."""

    def __init__(self, system: RecommenderSystem) -> None:
        super().__init__(system)
        self.rewards: List[float] = []

    def attack(self, trajectories) -> int:
        reward = super().attack(trajectories)
        self.rewards.append(reward)
        return reward


def sparse_dataset(num_users: int) -> Callable[[int], Dataset]:
    """``generate_sparse_log`` plus the log build a ``RecommenderSystem`` takes."""
    def make(seed: int) -> Dataset:
        view = generate_sparse_log("steam", seed=seed, num_users=num_users)
        train = InteractionLog(view.num_items)
        for user, sequence in view.iter_sequences():
            train.add_sequence(user, sequence)
        return Dataset(name="steam", train=train, validation={}, test={})
    return make


class CampaignWorkload(Workload):
    """One PoisonRec campaign against one ranker; an operation is a training step."""

    root = "step"
    unit = "step"

    def __init__(self, seed: int, ranker: str,
                 make_dataset: Callable[[int], Dataset],
                 config: PoisonRecConfig, eval_users: int,
                 ranker_kwargs: Optional[dict] = None) -> None:
        super().__init__()
        self.seed = seed
        self.ranker = ranker
        self.make_dataset = make_dataset
        self.config = config
        self.eval_users = eval_users
        self.ranker_kwargs = ranker_kwargs
        self.informative: List[bool] = []
        self.probes: List[int] = []
        self.release()

    def release(self) -> None:
        self.system = self.env = self.agent = None

    def setup(self) -> None:
        with self.span("data.generate"):
            dataset = self.make_dataset(self.seed)
        with self.span("recsys.init"):
            system = RecommenderSystem(
                dataset, self.ranker, seed=self.seed,
                num_attackers=self.config.num_attackers,
                eval_user_sample=self.eval_users,
                ranker_kwargs=self.ranker_kwargs)
        with self.span("core.init"):
            env = RecordingEnvironment(system)
            agent = PoisonRec(env, self.config)
        self.system, self.env, self.agent = system, env, agent

    def instrument(self, inst: Instrumentation) -> None:
        ranker = RANKER_CLASSES[self.ranker]
        inst.wrap(ranker, "fit", "recsys.fit")
        inst.wrap(ranker, "poison_update", "recsys.retrain")
        inst.wrap(ranker, "score_batch", "recsys.score_batch")
        inst.wrap(RecommenderSystem, "attack", "recsys.query", new_query=True)
        inst.wrap(RecommenderSystem, "reset", "recsys.restore")
        inst.wrap(RecommenderSystem, "inject", "data.merge")
        inst.wrap(RecommenderSystem, "recnum", "recsys.score")
        _wrap_core(inst)

    def probe(self) -> None:
        # Queries are pure functions of their trajectories, so this
        # RecNum must not change however many queries ran in between.
        trajectories = _probe_trajectories(
            self.seed, self.system.num_items, self.config.num_attackers,
            self.config.trajectory_length)
        self.probes.append(self.system.attack(trajectories))

    def op(self) -> int:
        before = len(self.env.rewards)
        self.agent.train_step()
        rewards = self.env.rewards[before:]
        self.informative.append(min(rewards) != max(rewards))
        return 1

    def check(self) -> str:
        limit = len(self.system.eval_users) * self.system.top_k
        for reward in self.env.rewards + self.probes:
            self.tally.record(_recnum_ok(reward, limit),
                              f"RecNum {reward} is not an integer in "
                              f"[0, {limit}]")
        self.tally.record(len(set(self.probes)) == 1,
                          f"probe RecNum changed across the run: "
                          f"{self.probes}")
        return _digest([self.env.rewards, self.probes])

    def layer_metrics(self, spans) -> Dict[str, float]:
        return {"core.informative_steps_frac":
                sum(self.informative) / max(len(self.informative), 1)}


class FleetWorkload(Workload):
    """Four ci-scale campaigns over a two-worker pool, as ``repro serve`` runs them.

    An operation is one ``CampaignScheduler.run`` with the journal,
    per-slice checkpoints and a ``RunTelemetry`` run log; it completes
    ``4 × steps × M`` black-box queries, the unit it reports.
    """

    root = "serve.run"
    unit = "query"
    rankers = ("itempop", "covisitation", "pmf", "neumf")

    def __init__(self, seed: int, steps: int, workdir: Path,
                 workers: int = 2, slice_steps: int = 2) -> None:
        super().__init__()
        self.seed = seed
        self.steps = steps
        self.workdir = workdir
        self.workers = workers
        self.slice_steps = slice_steps
        self.systems: Dict[str, RecommenderSystem] = {}
        self.histories: List[list] = []
        self.obs_records: List[int] = []
        self.obs_bytes: List[int] = []
        self.busy: List[float] = []

    def specs(self) -> List[CampaignSpec]:
        return [CampaignSpec(name=f"{i}-{ranker}", ranker=ranker, scale="ci",
                             seed=self.seed + i, steps=self.steps)
                for i, ranker in enumerate(self.rankers)]

    def builder(self, spec: CampaignSpec):
        """The scheduler's default builder, keeping the system for the checks."""
        with self.span("serve.build"):
            built = serve_scheduler.default_builder(spec)
        self.systems[spec.name] = built[0]._system
        return built

    def release(self) -> None:
        self.systems = {}

    def setup(self) -> None:
        for spec in self.specs():
            self.builder(spec)

    def instrument(self, inst: Instrumentation) -> None:
        inst.wrap(PoisonRec, "train", "core.train")
        inst.wrap(QueryPool, "attack_many", "perf.dispatch",
                  observe=lambda outcomes: self.busy.append(
                      sum(o.seconds or 0.0 for o in outcomes)))
        inst.wrap(core_agent, "save_campaign", "runtime.checkpoint")
        inst.wrap(serve_scheduler, "save_campaign", "runtime.checkpoint")
        inst.wrap(SchedulerJournal, "append", "serve.journal")
        _wrap_core(inst)

    def warm_up(self) -> None:
        # A one-step fleet forks the pool and writes the journal,
        # checkpoints and run log at a quarter of an operation's cost.
        steps, self.steps = self.steps, 1
        try:
            self.op()
        finally:
            self.steps = steps

    def op(self) -> int:
        # The run builds its own testbeds; the last run's must not stay
        # resident beside them.
        self.release()
        directory = Path(tempfile.mkdtemp(prefix="fleet-", dir=self.workdir))
        log = directory / "obs.jsonl"
        try:
            obs = RunTelemetry(log)
            try:
                scheduler = CampaignScheduler(
                    directory, workers=self.workers,
                    slice_steps=self.slice_steps, builder=self.builder,
                    obs=obs)
                for spec in self.specs():
                    scheduler.submit(spec)
                result = scheduler.run()
            finally:
                obs.close()
            self.obs_bytes.append(log.stat().st_size)
            with log.open("rb") as handle:
                self.obs_records.append(sum(1 for _ in handle))
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        queries = 0
        history = []
        for name, record in result.records.items():
            stats = record.agent.result.history if record.agent else []
            quarantined = sum(s.quarantined for s in stats)
            completed = len(stats) * record.config.samples_per_step \
                - quarantined
            self.tally.record(True, "query", count=completed)
            self.tally.record(False, f"campaign {name} quarantined "
                              f"{quarantined} queries", count=quarantined)
            queries += completed
            self.tally.record(
                record.status is CampaignStatus.COMPLETED
                and len(stats) == self.steps and record.restarts == 0,
                f"campaign {name}: {record.status.value}, {len(stats)} "
                f"steps, {record.restarts} restarts")
            system = self.systems[name]
            limit = len(system.eval_users) * system.top_k
            for s in stats:
                self.tally.record(
                    0 <= s.mean_reward <= s.max_reward
                    and _recnum_ok(s.max_reward, limit),
                    f"campaign {name} step {s.step}: RecNum mean "
                    f"{s.mean_reward}, max {s.max_reward}, limit {limit}")
            history.append([name, [[s.mean_reward, s.max_reward]
                                   for s in stats]])
        self.histories.append(history)
        return queries

    def check(self) -> str:
        # The pool's contract: pooled answers equal in-process ones.  The
        # PMF campaign's retrain draws random numbers, so equality also
        # shows that every replica restores the clean RNG stream.
        system = self.systems[self.specs()[2].name]
        config = SCALES["ci"].config()
        batch = [_probe_trajectories(self.seed + k, system.num_items,
                                     config.num_attackers,
                                     config.trajectory_length)
                 for k in range(4)]
        with QueryPool(system, workers=self.workers) as pool:
            pooled = [outcome.reward for outcome in pool.attack_many(batch)]
        serial = [float(system.attack(trajectories)) for trajectories in batch]
        self.tally.record(pooled == serial,
                          f"pooled probe {pooled} != in-process {serial}")
        return _digest([self.histories, pooled, serial])

    def layer_metrics(self, spans) -> Dict[str, float]:
        dispatch = sum(s.seconds for s in spans if s.name == "perf.dispatch")
        runs = max(sum(1 for s in spans if s.name == self.root), 1)
        busy = sum(self.busy)
        return {
            "perf.worker_busy_s": busy / runs,
            "perf.worker_idle_frac":
                1.0 - busy / (self.workers * dispatch) if dispatch else 0.0,
            "perf.worker_peak_rss_mb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "obs.records": float(np.median(self.obs_records)),
            "obs.log_bytes": float(np.median(self.obs_bytes)),
        }


class CheckWorkload(Workload):
    """graphlint, effectcheck and faultcheck over the frozen corpus.

    Set-up unpacks the corpus and indexes it with ``PackageIndex``, the
    parse-and-collect stage effectcheck and faultcheck both begin with.
    """

    root = "pass"
    unit = "pass"
    analyzers = (
        ("devtools.graphlint", lint, lambda root: [str(root), "--format=json"]),
        ("devtools.effectcheck", effectcheck,
         lambda root: ["--root", str(root), "--format=json"]),
        ("devtools.faultcheck", faultcheck,
         lambda root: ["--root", str(root), "--format=json"]),
    )

    def __init__(self, workdir: Path) -> None:
        super().__init__()
        self.workdir = workdir
        self.extracted: Optional[Path] = None
        #: What the set-up's ``PackageIndex`` found; the index itself is
        #: dropped, so it does not add to the windows' peak RSS.
        self.indexed: Dict[str, object] = {}
        self.reports: List[tuple] = []

    @property
    def corpus(self) -> Path:
        return self.extracted / "src" / "repro"

    def release(self) -> None:
        if self.extracted is not None:
            shutil.rmtree(self.extracted, ignore_errors=True)
        self.extracted = None
        self.indexed = {}

    def setup(self) -> None:
        target = Path(tempfile.mkdtemp(prefix="corpus-", dir=self.workdir))
        with tarfile.open(CORPUS) as archive:
            archive.extractall(target, filter="data")
        self.extracted = target
        with self.span("devtools.index"):
            index = PackageIndex(self.corpus)
        self.indexed = {"modules_checked": len(index.modules),
                        "functions_summarized": len(index.functions),
                        "errors": index.errors}

    def instrument(self, inst: Instrumentation) -> None:
        for name, module, _ in self.analyzers:
            inst.wrap(module, "main", name)

    def op(self) -> int:
        for name, module, argv in self.analyzers:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = module.main(argv(self.corpus))
            try:
                payload = json.loads(out.getvalue())
            except ValueError:
                payload = {}
            self.tally.record(code == 0, f"{name} exited {code}: "
                              f"{err.getvalue().strip()}")
            expected = CORPUS_COUNTS[name]
            seen = {key: payload.get(key) for key in expected}
            self.tally.record(seen == expected,
                              f"{name} reported {seen}, expected {expected}")
            self.reports.append((name, payload))
        return 1

    def check(self) -> str:
        expected = dict(CORPUS_COUNTS["devtools.effectcheck"], errors=[])
        self.tally.record(self.indexed == expected,
                          f"PackageIndex found {self.indexed}, expected "
                          f"{expected}")
        return _digest([[name, payload.get("diagnostics")]
                        for name, payload in self.reports])

    def layer_metrics(self, spans) -> Dict[str, float]:
        last = dict(self.reports)
        return {
            "devtools.modules": float(last["devtools.graphlint"].get(
                "files_checked", 0)),
            "devtools.functions": float(last["devtools.effectcheck"].get(
                "functions_summarized", 0)),
            "devtools.findings": float(sum(len(p.get("diagnostics", []))
                                           for p in last.values())),
        }


WORKLOADS = ("paper-step", "retrain-10k", "fleet", "check")


def make_workload(name: str, seed: int, workdir: Path,
                  tiny: bool = False) -> Workload:
    """The named workload at its benchmark size, or a tiny one for tests."""
    if name == "paper-step":
        # Paper defaults (embedding 64, N=T=20, K=3, BCBT-Popular) at the
        # paper's ~3,000-item catalog.  M=B=8 instead of 32 keeps a step
        # near 1.5 s, so one run holds enough steps for a steady median.
        config = PoisonRecConfig(samples_per_step=8, batch_size=8, seed=seed)
        scale = 0.6
        if tiny:
            config = PoisonRecConfig.ci(samples_per_step=2, batch_size=2,
                                        seed=seed)
            scale = 0.05
        return CampaignWorkload(
            seed, "itempop",
            lambda s: load_dataset("steam", scale=scale, seed=s),
            config, eval_users=1000)
    if name == "retrain-10k":
        # The ci-scale policy with M=B=4, so a step stays near two
        # seconds although every query retrains over the 10^4-user log.
        # One PMF fit epoch instead of eight keeps set-up near three
        # seconds; poison_update does not depend on the fit epochs.
        samples = 2 if tiny else 4
        config = dataclasses.replace(SCALES["ci"].config(seed=seed),
                                     samples_per_step=samples,
                                     batch_size=samples)
        return CampaignWorkload(seed, "pmf",
                                sparse_dataset(400 if tiny else 10_000),
                                config, eval_users=1000,
                                ranker_kwargs={"epochs": 1})
    if name == "fleet":
        return FleetWorkload(seed, steps=2, workdir=workdir)
    if name == "check":
        return CheckWorkload(workdir)
    raise ValueError(f"unknown workload {name!r}")
