"""PoisonRec reproduction: adaptive data poisoning attacks on black-box
recommender systems (Song et al., ICDE 2020).

Quickstart
----------
>>> from repro import load_dataset, RecommenderSystem, BlackBoxEnvironment
>>> from repro import PoisonRec, PoisonRecConfig
>>> dataset = load_dataset("steam", scale="ci", seed=0)
>>> system = RecommenderSystem(dataset, "bpr", seed=0)
>>> env = BlackBoxEnvironment(system)
>>> agent = PoisonRec(env, PoisonRecConfig.ci(), action_space="bcbt-popular")
>>> result = agent.train(steps=5)
"""

from .core import (PoisonRec, PoisonRecConfig, TrainResult, build_bcbt,
                   make_action_space)
from .data import Dataset, InteractionLog, load_dataset
from .obs import (MetricsRegistry, RunTelemetry, Tracer, load_run,
                  phase_rollup, write_chrome_trace)
from .perf import QueryPool
from .recsys import (RANKER_NAMES, BlackBoxEnvironment, RecommenderSystem,
                     make_ranker)
from .runtime import (FaultPlan, FaultyEnvironment, ResilienceConfig,
                      load_campaign, save_campaign)

__version__ = "1.0.0"

__all__ = [
    "PoisonRec", "PoisonRecConfig", "TrainResult", "build_bcbt",
    "make_action_space",
    "Dataset", "InteractionLog", "load_dataset",
    "RANKER_NAMES", "BlackBoxEnvironment", "RecommenderSystem", "make_ranker",
    "FaultPlan", "FaultyEnvironment", "ResilienceConfig",
    "load_campaign", "save_campaign",
    "QueryPool",
    "MetricsRegistry", "RunTelemetry", "Tracer", "load_run",
    "phase_rollup", "write_chrome_trace",
    "__version__",
]
