"""Multi-period audit-operations simulator with online learning.

The paper solves a one-shot Optimal Auditing Problem; this package
closes the production loop its Section II-A implies.  Each period:

1. an **event source** produces the benign alert stream (the game's own
   count model, a drifting synthetic generator, or a TDMT-labeled EMR
   access-log replay);
2. a **distribution estimator** refits ``F_t`` from the observed counts
   (or keeps the paper's fixed one-shot fit);
3. the defender **re-solves** on a fresh
   :class:`~repro.engine.AuditEngine`, or replays the memoized solve of
   a (count-model content, budget) pair it solved before — replayed
   results are guaranteed equal to fresh ones;
4. a pure ordering is sampled from the mixed policy and deployed, a
   pluggable **adversary** (adaptive best response, static, quantal)
   moves against it, and realized detections, utilities, deterrence and
   budget carry-over are recorded.

Quickstart::

    from repro.datasets import syn_a
    from repro.sim import simulate

    trajectory = simulate(
        syn_a(budget=10),
        n_periods=8,
        estimator="rolling-empirical",
        solver_options={"step_size": 0.5},
    )
    print(trajectory.to_text())

Sources, estimators and adversaries live in plugin registries mirroring
the solver registry; register your own with, e.g.,
``@EVENT_SOURCES.register("name")`` and it becomes reachable from the
CLI (``python -m repro.run_experiments --sim --sim-config
source=name``).
"""

from .adversaries import (
    BestResponseAdversary,
    QuantalAdversary,
    StaticAdversary,
)
from .estimators import (
    FixedEstimator,
    RollingEmpiricalEstimator,
    RollingGaussianEstimator,
)
from .registry import (
    ADVERSARIES,
    ESTIMATORS,
    EVENT_SOURCES,
    PluginRegistry,
    PluginSpec,
)
from .simulator import (
    AdversaryModel,
    AuditSimulator,
    DistributionEstimator,
    EventSource,
    SimConfig,
    simulate,
)
from .sources import DriftingSource, ModelSource, TDMTEMRSource
from .trajectory import AttackOutcome, PeriodRecord, Trajectory

__all__ = [
    "ADVERSARIES",
    "ESTIMATORS",
    "EVENT_SOURCES",
    "AdversaryModel",
    "AttackOutcome",
    "AuditSimulator",
    "BestResponseAdversary",
    "DistributionEstimator",
    "DriftingSource",
    "EventSource",
    "FixedEstimator",
    "ModelSource",
    "PeriodRecord",
    "PluginRegistry",
    "PluginSpec",
    "QuantalAdversary",
    "RollingEmpiricalEstimator",
    "RollingGaussianEstimator",
    "SimConfig",
    "StaticAdversary",
    "TDMTEMRSource",
    "Trajectory",
    "simulate",
]
