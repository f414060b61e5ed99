"""repro — game-theoretic prioritization of database auditing.

A full reproduction of Yan, Li, Vorobeychik, Laszka, Fabbri and Malin,
"Get Your Workload in Order: Game Theoretic Prioritization of Database
Auditing" (ICDE 2018): the Stackelberg alert-prioritization game, the CGGS
column-generation solver, the ISHM threshold heuristic, the brute-force
optimum, the paper's three baselines, synthetic substitutes for its two
real datasets, and a benchmark harness regenerating every table and
figure of the evaluation.

Quickstart::

    from repro.datasets import syn_a
    from repro.engine import AuditEngine

    engine = AuditEngine(syn_a(budget=10))
    result = engine.solve("ishm", step_size=0.1)
    print(result.objective)
    print(result.policy.describe(engine.game.alert_types.names))

Every solver and baseline lives in the :mod:`repro.engine` registry and
returns the same :class:`~repro.engine.SolveResult`.
"""

from . import (
    analysis,
    baselines,
    core,
    datasets,
    distributions,
    engine,
    extensions,
    obs,
    serve,
    sim,
    solvers,
    tdmt,
)
from .core import AuditGame, AuditPolicy, Ordering
from .engine import AuditEngine, SolveResult

__version__ = "1.7.0"

__all__ = [
    "AuditEngine",
    "AuditGame",
    "AuditPolicy",
    "Ordering",
    "SolveResult",
    "__version__",
    "analysis",
    "baselines",
    "core",
    "datasets",
    "distributions",
    "engine",
    "extensions",
    "obs",
    "serve",
    "sim",
    "solvers",
    "tdmt",
]
