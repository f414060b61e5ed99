"""FaultPlan mechanics: determinism, rule matching, spec parsing."""

from __future__ import annotations

import importlib
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import faults
from repro.faults import (
    KNOWN_POINTS,
    FaultInjected,
    FaultPlan,
    FaultRule,
)


def _drive(plan: FaultPlan, names: list[str]) -> list[str | None]:
    """Check every name under the plan, recording what was injected."""
    outcomes: list[str | None] = []
    for name in names:
        try:
            plan.check(name)
            outcomes.append(None)
        except BaseException as exc:  # noqa: B036 - records injected types
            outcomes.append(type(exc).__name__)
    return outcomes


class TestDeterminism:
    def test_same_seed_same_history(self, chaos_seed):
        plan = FaultPlan(
            [
                FaultRule("a", probability=0.3),
                FaultRule("b", probability=0.7, raises=ValueError),
            ],
            seed=chaos_seed,
        )
        workload = ["a", "b", "a", "b", "b", "a"] * 20
        first = _drive(plan, workload)
        first_history = plan.history
        plan.reset()
        second = _drive(plan, workload)
        assert first == second
        assert plan.history == first_history
        assert any(first)  # something actually fired at these rates

    def test_different_seeds_diverge(self):
        workload = ["x"] * 200
        runs = []
        for seed in (1, 2):
            plan = FaultPlan([FaultRule("x", probability=0.5)], seed=seed)
            runs.append(_drive(plan, workload))
        assert runs[0] != runs[1]

    def test_always_on_rules_consume_no_draws(self, chaos_seed):
        # A probability-1.0 rule must not shift the RNG stream of the
        # probabilistic rules around it.
        prob_only = FaultPlan(
            [FaultRule("p", probability=0.5)], seed=chaos_seed
        )
        mixed = FaultPlan(
            [
                FaultRule("always", raises=None, latency=0.0),
                FaultRule("p", probability=0.5),
            ],
            seed=chaos_seed,
        )
        workload = ["p"] * 50
        baseline = _drive(prob_only, workload)
        interleaved = []
        for name in workload:
            mixed.check("always")
            interleaved.extend(_drive(mixed, [name]))
        assert interleaved == baseline


class TestRules:
    def test_nth_fires_exactly_once(self):
        plan = FaultPlan([FaultRule("x", nth=3)])
        outcomes = _drive(plan, ["x"] * 5)
        assert outcomes == [None, None, "FaultInjected", None, None]
        assert plan.calls("x") == 5
        assert plan.history == (("x", 3, "raise=FaultInjected"),)

    def test_pattern_matching(self):
        plan = FaultPlan([FaultRule("solvers.*", raises=ValueError)])
        with pytest.raises(ValueError):
            plan.check("solvers.lp.scipy")
        plan.check("engine.solve")  # no match, no raise

    def test_latency_only_rule(self):
        plan = FaultPlan([FaultRule("slow", raises=None, latency=0.02)])
        started = time.perf_counter()
        plan.check("slow")
        assert time.perf_counter() - started >= 0.02
        assert plan.history == (("slow", 1, "latency=0.02"),)

    def test_custom_exception_type(self):
        plan = FaultPlan([FaultRule("pool", raises=BrokenProcessPool)])
        with pytest.raises(BrokenProcessPool):
            plan.check("pool")

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultRule("x", probability=1.5)
        with pytest.raises(ValueError):
            FaultRule("x", nth=0)
        with pytest.raises(ValueError):
            FaultRule("x", latency=-1.0)
        with pytest.raises(ValueError):
            FaultRule("")


class TestSpecParsing:
    def test_full_spec(self):
        plan = FaultPlan.parse(
            "seed=7; engine.solve: exc=RuntimeError, nth=1;"
            " solvers.lp.scipy: p=0.25; serve.resolve: latency=0.5,"
            " exc=none"
        )
        assert plan.seed == 7
        assert len(plan.rules) == 3
        solve, scipy, serve = plan.rules
        assert solve.raises is RuntimeError and solve.nth == 1
        assert scipy.probability == 0.25
        assert serve.raises is None and serve.latency == 0.5

    def test_bare_point_name(self):
        plan = FaultPlan.parse("engine.solve")
        assert plan.rules[0].point == "engine.solve"
        assert plan.rules[0].raises is FaultInjected

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown exception"):
            FaultPlan.parse("x: exc=KeyboardInterrupt")
        with pytest.raises(ValueError, match="unknown fault option"):
            FaultPlan.parse("x: frequency=2")
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.parse("x: nonsense")

    def test_describe_round_trip(self):
        plan = FaultPlan.parse("seed=3; a: p=0.5; b: nth=2, exc=OSError")
        text = plan.describe()
        assert "seed=3" in text and "p=0.5" in text and "nth=2" in text


class TestGlobalToggle:
    def test_disabled_is_noop(self):
        faults.disable()
        # Would raise on every call if armed.
        faults.point("engine.solve")
        assert not faults.enabled()

    def test_active_plan_restores(self):
        faults.disable()
        plan = FaultPlan([FaultRule("x")])
        with faults.active_plan(plan):
            assert faults.enabled()
            with pytest.raises(FaultInjected):
                faults.point("x")
        assert not faults.enabled()

    def test_enable_without_plan_installs_empty(self):
        faults.disable()
        injection = importlib.import_module("repro.faults.injection")
        injection._plan = None
        plan = faults.enable()
        assert plan.rules == ()
        faults.point("anything")  # empty plan: counted, never fires
        assert plan.calls("anything") == 1

    def test_env_spec_parsing(self):
        injection = importlib.import_module("repro.faults.injection")
        cases = {
            "": (False, None),
            "0": (False, None),
            "off": (False, None),
            "1": (True, ()),
        }
        for raw, (enabled, rules) in cases.items():
            env_backup = dict(injection.os.environ)
            injection.os.environ["REPRO_FAULTS"] = raw
            try:
                got_enabled, got_plan = injection._env_plan()
                assert got_enabled is enabled, raw
                if rules is not None:
                    assert got_plan.rules == rules
            finally:
                injection.os.environ.clear()
                injection.os.environ.update(env_backup)


class TestKnownPoints:
    def test_every_point_is_registered_in_its_module(self):
        for name, module_name, _desc in KNOWN_POINTS:
            module = importlib.import_module(module_name)
            source = open(module.__file__, encoding="utf-8").read()
            assert f'faults.point("{name}")' in source, (
                f"{module_name} lost its {name!r} injection point"
            )

    def test_point_names_are_unique(self):
        names = [name for name, _, _ in KNOWN_POINTS]
        assert len(names) == len(set(names))
