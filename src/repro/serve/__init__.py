"""repro.serve — the async audit-policy service.

PRs 3–5 built a simulator and made re-solving fast; this package makes
policies *servable*: a long-running defender that publishes solved
policies, scores incoming alert streams against them, learns the alert
distributions online, and re-solves in the background when they drift
(the deployment shape the online-signaling audit-games line of work
assumes — see PAPERS.md).

Layers:

* :class:`~repro.serve.store.PolicyStore` — versioned policies keyed by
  (count-model fingerprint, budget), atomic swap on republish, stale
  version reads;
* :class:`~repro.serve.scoring.PolicyScorer` — request-time detection
  scoring of realized alert-count vectors against the mixed ordering
  policy (no solver state touched);
* :class:`~repro.serve.service.AuditService` — the async core: alert
  ingestion into :mod:`repro.sim` estimators, drift detection, and a
  background re-solve worker that solves each new key on a fresh
  :class:`~repro.engine.AuditEngine` and replays published ones;
* :mod:`repro.serve.http` — one route contract, served by a stdlib
  asyncio app.

Quickstart::

    import asyncio
    from repro.datasets import syn_a
    from repro.serve import AuditService, StdlibApp

    async def main():
        async with AuditService(syn_a(budget=10)) as service:
            app = StdlibApp(service)
            status, scores = await app.handle(
                "POST", "/score", {"alerts": [[3, 1, 4, 1]]}
            )
            print(status, scores["detection"])

    asyncio.run(main())
"""

from .http import ROUTES, Route, StdlibApp, dispatch
from .scoring import PolicyScorer, ScoreBatch
from .service import AuditService, ServeConfig
from .store import (
    PolicyKey,
    PolicyStore,
    PublishedPolicy,
    model_fingerprint,
)

__all__ = [
    "ROUTES",
    "AuditService",
    "PolicyKey",
    "PolicyScorer",
    "PolicyStore",
    "PublishedPolicy",
    "Route",
    "ScoreBatch",
    "ServeConfig",
    "StdlibApp",
    "dispatch",
    "model_fingerprint",
]
