"""AuditService behavior: lifecycle, drift-triggered re-solves, config."""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.engine import AuditEngine
from repro.serve import AuditService, ServeConfig, model_fingerprint


class TestLifecycle:
    def test_start_publishes_initial_policy(self, serve_game, make_service):
        async def main():
            async with make_service() as service:
                active = service.active()
                assert active.version == 1
                assert active.fingerprint == model_fingerprint(
                    serve_game.counts
                )
                assert active.meta["reason"] == "initial"
                assert service.worker_running

        asyncio.run(main())

    def test_score_before_start_raises(self, make_service):
        service = make_service()
        with pytest.raises(RuntimeError, match="no policy published"):
            service.score([[1, 1, 1, 1]])
        with pytest.raises(RuntimeError, match="no policy published"):
            service.ingest([[1, 1, 1, 1]])

    def test_stop_halts_worker(self, make_service):
        async def main():
            service = make_service()
            await service.start()
            assert service.worker_running
            await service.stop()
            assert not service.worker_running

        asyncio.run(main())

    def test_bad_plugin_names_fail_fast(self, serve_game):
        with pytest.raises(KeyError):
            AuditService(serve_game, solver="no-such-solver")
        with pytest.raises(KeyError):
            AuditService(serve_game, estimator="no-such-estimator")
        with pytest.raises(ValueError, match="no option"):
            AuditService(
                serve_game,
                solver="ishm",
                solver_options={"no_such_option": 1},
            )


class TestScoring:
    def test_score_names_the_served_version(self, serve_game, make_service):
        async def main():
            async with make_service() as service:
                payload = service.score([[3, 1, 4, 1], [2, 2, 2, 2]])
                assert payload["policy_version"] == 1
                assert payload["rows"] == 2
                assert len(payload["detection"]) == 2
                assert len(payload["detection"][0]) == serve_game.n_types
                assert service.rows_scored == 2

        asyncio.run(main())

    def test_score_enforces_max_batch(self, make_service):
        async def main():
            async with make_service(max_batch=2) as service:
                with pytest.raises(ValueError, match="max_batch"):
                    service.score([[1, 1, 1, 1]] * 3)
                with pytest.raises(ValueError, match="max_batch"):
                    service.ingest([[1, 1, 1, 1]] * 3)

        asyncio.run(main())


class TestDrift:
    def test_stationary_ingest_schedules_nothing(
        self, serve_game, make_service
    ):
        async def main():
            async with make_service(drift_threshold=10.0) as service:
                means = [m.mean() for m in serve_game.counts.marginals]
                rows = [[int(round(m)) for m in means]] * 4
                payload = service.ingest(rows)
                assert payload["resolve_scheduled"] is False
                assert service.resolves_scheduled == 0

        asyncio.run(main())

    def test_auto_resolve_off_never_schedules(self, make_service):
        async def main():
            async with make_service(
                drift_threshold=0.01, auto_resolve=False
            ) as service:
                payload = service.ingest([[50, 50, 50, 50]] * 4)
                assert payload["drift"] > 0.01
                assert payload["resolve_scheduled"] is False

        asyncio.run(main())

    def test_ingest_validates_rows(self, make_service):
        async def main():
            async with make_service() as service:
                with pytest.raises(ValueError, match="shape"):
                    service.ingest([[1, 2]])
                with pytest.raises(
                    ValueError, match="finite and non-negative"
                ):
                    service.ingest([[-1, 1, 1, 1]])

        asyncio.run(main())

    def test_drift_resolve_publishes_while_old_version_serves(
        self, make_service
    ):
        """The ISSUE's acceptance scenario.

        Ingesting a drifted stream schedules a background re-solve; while
        that solve is (artificially) held in flight, ``/score`` keeps
        answering from the old published policy, and only after the
        publish does scoring report the new fingerprint.
        """

        async def main():
            async with make_service(drift_threshold=0.2) as service:
                old = service.active()
                release = threading.Event()
                solving = threading.Event()
                original = service._solve_blocking

                def gated(*args, **kwargs):
                    solving.set()
                    assert release.wait(timeout=30)
                    return original(*args, **kwargs)

                service._solve_blocking = gated

                payload = service.ingest([[40, 12, 48, 12]] * 4)
                assert payload["drift"] >= 0.2
                assert payload["resolve_scheduled"] is True

                # The worker picked the request up and is now solving.
                await asyncio.to_thread(solving.wait, 30)
                assert service.status()["resolve_pending"] is True

                # Mid-flight: scoring still answers from the old policy.
                mid = service.score([[3, 1, 4, 1]])
                assert mid["policy_version"] == old.version
                assert mid["fingerprint"] == old.fingerprint
                assert service.resolves_completed == 1  # initial only

                release.set()
                while service.resolves_completed < 2:
                    await asyncio.sleep(0.01)

                new = service.active()
                assert new.fingerprint != old.fingerprint
                assert new.meta["reason"] == "drift"
                assert new.meta["resolve_lag_seconds"] > 0
                after = service.score([[3, 1, 4, 1]])
                assert after["fingerprint"] == new.fingerprint
                # The old version stays readable from the store.
                stale = service.store.get(old.key, old.version)
                assert stale.fingerprint == old.fingerprint

        asyncio.run(main())

    def test_resolve_now_bumps_version_on_same_key(self, make_service):
        async def main():
            async with make_service() as service:
                old = service.active()
                published = await service.resolve_now()
                # No alerts ingested: the estimator still reports the
                # prior model, so the republish lands on the same key
                # with a bumped version — and replaying the stored
                # result makes it bitwise-identical.
                assert published.fingerprint == old.fingerprint
                assert published.version == old.version + 1
                assert published.result is old.result
                assert service.active() is published

        asyncio.run(main())

    def test_latest_pending_request_wins(self, make_service):
        async def main():
            async with make_service(drift_threshold=0.1) as service:
                release = threading.Event()
                original = service._solve_blocking

                def gated(*args, **kwargs):
                    assert release.wait(timeout=30)
                    return original(*args, **kwargs)

                service._solve_blocking = gated
                # Two drifting batches while no worker slot is free: the
                # second request supersedes the first.
                service.ingest([[30, 10, 30, 10]] * 2)
                service.ingest([[60, 20, 60, 20]] * 2)
                assert service.resolves_scheduled == 2
                final_model = service._estimator.model()
                release.set()
                while service.status()["resolve_pending"]:
                    await asyncio.sleep(0.01)
                assert service.active().fingerprint == model_fingerprint(
                    final_model
                )

        asyncio.run(main())


@pytest.fixture()
def built_engines(monkeypatch):
    """Every :class:`AuditEngine` constructed while the test runs."""
    built = []
    real_init = AuditEngine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(AuditEngine, "__init__", counting_init)
    return built


class TestWarmEngines:
    def test_same_model_reuses_memoized_result(self, make_service):
        async def main():
            async with make_service() as service:
                first = await service.resolve_now()
                second = await service.resolve_now()
                assert second.result is first.result

        asyncio.run(main())

    def test_old_key_republishes_without_an_engine(
        self, make_service, built_engines
    ):
        # The store keeps every published key, so a model that drifts
        # back to content published more than four models ago replays
        # its stored result instead of solving again.

        async def main():
            async with make_service(auto_resolve=False) as service:
                published = {}
                for scale in (10, 20, 30, 40, 50, 60):
                    # A full window of equal rows: the refit is the same
                    # point-mass content whenever a scale repeats.
                    service.ingest([[scale] * 4] * 8)
                    published[scale] = await service.resolve_now()
                assert len(built_engines) == 7  # initial + six new keys
                service.ingest([[10] * 4] * 8)
                again = await service.resolve_now()
                assert len(built_engines) == 7
                assert again.key == published[10].key
                assert again.version == published[10].version + 1
                assert again.result is published[10].result

        asyncio.run(main())

    def test_engines_close_before_the_solve_returns(
        self, make_service, built_engines, monkeypatch
    ):
        closed = set()
        real_close = AuditEngine.close

        def recording_close(self):
            real_close(self)
            closed.add(id(self))

        monkeypatch.setattr(AuditEngine, "close", recording_close)
        open_at_return = []
        real_solve = AuditService._solve_blocking

        def checked_solve(self, *args):
            result = real_solve(self, *args)
            open_at_return.append(
                [e for e in built_engines if id(e) not in closed]
            )
            return result

        monkeypatch.setattr(AuditService, "_solve_blocking", checked_solve)

        async def main():
            async with make_service(auto_resolve=False) as service:
                service.ingest([[30, 10, 30, 10]] * 8)
                await service.resolve_now()

        asyncio.run(main())
        assert len(built_engines) == 2  # initial policy + the drifted model
        assert open_at_return == [[], []]


class TestServeConfig:
    def test_from_pairs_coerces_and_routes(self):
        config = ServeConfig.from_pairs(
            {
                "drift_threshold": "0.25",
                "max_batch": "128",
                "auto_resolve": "false",
                "estimator.window": "14",
                "solver.step_size": "0.5",
            }
        )
        assert config.drift_threshold == 0.25
        assert config.max_batch == 128
        assert config.auto_resolve is False
        assert config.estimator_options == {"window": "14"}
        assert config.solver_options == {"step_size": "0.5"}

    def test_from_pairs_rejects_unknowns(self):
        with pytest.raises(ValueError, match="no option"):
            ServeConfig.from_pairs({"nope": "1"})
        with pytest.raises(ValueError, match="plugin scope"):
            ServeConfig.from_pairs({"adversary.rationality": "2"})
        with pytest.raises(ValueError, match="dotted options"):
            ServeConfig.from_pairs({"solver_options": "x"})
        with pytest.raises(ValueError, match="empty option"):
            ServeConfig.from_pairs({"estimator.": "1"})

    def test_validation(self):
        with pytest.raises(ValueError, match="drift_threshold"):
            ServeConfig(drift_threshold=-0.1)
        with pytest.raises(ValueError, match="max_batch"):
            ServeConfig(max_batch=0)

    def test_workers_accepts_only_one(self):
        assert ServeConfig(workers=1).workers == 1
        with pytest.raises(ValueError, match="workers"):
            ServeConfig(workers=2)

    def test_replace(self):
        config = ServeConfig().replace(drift_threshold=0.5)
        assert config.drift_threshold == 0.5
        assert config.solver == "ishm"

    def test_overrides_compose_with_config(self, serve_game):
        base = ServeConfig(drift_threshold=0.4)
        service = AuditService(serve_game, base, max_batch=16)
        assert service.config.drift_threshold == 0.4
        assert service.config.max_batch == 16


def test_status_payload_is_jsonable(make_service):
    async def main():
        async with make_service() as service:
            service.score([[1, 1, 1, 1]])
            service.ingest([[1, 1, 1, 1]])
            payload = service.status()
            round_tripped = json.loads(json.dumps(payload))
            assert round_tripped["score_requests"] == 1
            assert round_tripped["events_ingested"] == 1
            assert round_tripped["policy"]["version"] == 1
            assert round_tripped["worker_running"] is True

    asyncio.run(main())


def test_float_rows_are_accepted_as_counts(make_service):
    # Float rows coerce onto the estimators' int64 observation periods.
    async def main():
        async with make_service() as service:
            payload = service.ingest(np.array([[1.0, 2.0, 3.0, 4.0]]))
            assert payload["observed"] == 1

    asyncio.run(main())
