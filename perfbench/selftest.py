"""Self-tests of the benchmark harness, at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload runs and prints the metrics ``BENCHMARK.json``
names, that the correctness gate rejects a perturbed objective, that
child self-times add up to their parent span, and that the command
fails without the source tree.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
import unittest

import common

common.use_source_tree()

import serve_workload  # noqa: E402
import solve_workloads  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def run_cli(workload: str, trace: int, cwd=common.ROOT, seconds: int = 2):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class WorkloadsRun(unittest.TestCase):
    def check(self, workload: str, trace: int) -> None:
        proc = run_cli(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(
            set(result), {"correct", "attempted", "failed", "metrics"}
        )
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        key = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertNotEqual(metric["value"], 0, name)

    def test_every_workload_untraced(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check(workload["name"], 0)

    def test_every_workload_traced(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check(workload["name"], 1)


class Gate(unittest.TestCase):
    def test_rejects_perturbed_objective(self):
        from repro.engine import AuditEngine

        (item,) = solve_workloads.instances("ishm-syn-a", "tiny")
        engine = AuditEngine(item.build())
        result = engine.solve("ishm", **item.options)
        self.assertTrue(common.check_solve(engine, result, item.reference))
        perturbed = dataclasses.replace(
            result, objective=result.objective + 1e-6
        )
        self.assertFalse(
            common.check_solve(engine, perturbed, item.reference)
        )
        self.assertFalse(
            common.check_solve(engine, result, item.reference + 1e-6)
        )

    def test_one_wrong_publish_moves_correct_ratio_past_its_bound(self):
        bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        kinds = {"score": [6000, 6000], "alerts": [170, 170],
                 "objective": [22, 21]}
        ratio = serve_workload.correct_ratio(kinds)
        self.assertLess(ratio, 1 - bound["correct_ratio"])

    def test_rejects_out_of_range_score(self):
        payload = {"rows": 1, "detection": [[0.5, 1.1, 0.0, 0.2]]}
        self.assertFalse(common.score_ok(payload, 1, 4))
        payload["detection"][0][1] = 1.0
        self.assertTrue(common.score_ok(payload, 1, 4))


class HostSpeed(unittest.TestCase):
    def test_scales_each_round_by_its_reference(self):
        rep = solve_workloads.Repetition(
            solves={0: 1.1}, rounds={0: [0.2, 0.8]},
            references={0: [0.001, 0.002]},
        )
        # Rounds 0.2 + 0.8 / 2 at the 1 ms reference; the 0.1 s outside
        # them scaled by the solve's mean scale, 0.6 / 1.0.
        self.assertAlmostEqual(
            solve_workloads.adjusted_solve(rep, 0, 0.001), 0.66
        )

    def test_uniform_slowdown_is_undone(self):
        fast = solve_workloads.Repetition(
            solves={0: 1.0}, rounds={0: [0.4, 0.6]},
            references={0: [0.001, 0.001]},
        )
        slow = solve_workloads.Repetition(
            solves={0: 1.7}, rounds={0: [0.68, 1.02]},
            references={0: [0.0017, 0.0017]},
        )
        self.assertAlmostEqual(
            solve_workloads.adjusted_solve(slow, 0, 0.001),
            solve_workloads.adjusted_solve(fast, 0, 0.001),
        )

    def test_clock_is_removed_after_a_run(self):
        from repro.engine import cache

        original = cache.FixedSolveCache.batch_solver
        out = solve_workloads.run("ishm-syn-a", seed=1, seconds=0,
                                  trace=False, size="tiny")
        self.assertIs(cache.FixedSolveCache.batch_solver, original)
        self.assertGreater(out["meta"]["reference_fastest_s"], 0)


class SelfTimes(unittest.TestCase):
    def assert_subtrees_add_up(self, recorder: spans.SpanRecorder) -> None:
        selfs = recorder.self_times()
        children: dict[int, list[int]] = {}
        for span in recorder.spans:
            children.setdefault(span.parent, []).append(span.id)

        def subtree_self(span_id: int) -> float:
            return selfs[span_id] + sum(
                subtree_self(c) for c in children.get(span_id, ())
            )

        for span in recorder.spans:
            total = subtree_self(span.id)
            self.assertAlmostEqual(total, span.duration, delta=1e-6 +
                                   1e-9 * span.duration)

    def test_synthetic_nesting(self):
        recorder = spans.SpanRecorder()
        with recorder.span("root"):
            time.sleep(0.01)
            for _ in range(3):
                with recorder.span("child"):
                    time.sleep(0.005)
                    with recorder.span("grandchild"):
                        time.sleep(0.002)
        self.assert_subtrees_add_up(recorder)
        stats = recorder.by_name()
        self.assertEqual(stats["child"]["calls"], 3)
        self.assertGreater(stats["root"]["self_s"], 0.009)

    def test_traced_solve(self):
        out = solve_workloads.run("ishm-emr", seed=1, seconds=0,
                                  trace=True, size="tiny")
        recorder = out["recorder"]
        self.assertTrue(recorder.spans)
        self.assert_subtrees_add_up(recorder)
        # Wrappers are gone after the traced repetition.
        from repro.engine import AuditEngine

        self.assertFalse(hasattr(AuditEngine.solve, "__wrapped__"))


class Bare(unittest.TestCase):
    def test_fails_without_source_tree(self):
        bare = common.OUT_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(common.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            shutil.copy(common.ROOT / "BENCHMARK.json", bare)
            proc = run_cli("ishm-syn-a", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
