"""The command-line experiment runner."""

import pytest

from repro.analysis.cli import DATASETS, EXPERIMENTS, main


class TestRegistry:
    def test_covers_every_table_and_figure(self):
        assert set(EXPERIMENTS) == {
            "table3", "table4", "table5", "table6", "table7",
            "fig1", "fig2",
        }

    def test_covers_every_dataset(self):
        assert set(DATASETS) == {"syn_a", "rea_a", "rea_b"}


class TestSolverMode:
    def test_list_solvers(self, capsys):
        assert main(["--list-solvers"]) == 0
        out = capsys.readouterr().out
        assert "ishm" in out
        assert "bruteforce" in out

    def test_solver_dispatch_writes_artifact(self, tmp_path):
        code = main(
            [
                "--solver", "ishm",
                "--dataset", "syn_a",
                "--budget", "2",
                "--config", "step_size=0.5",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        text = (tmp_path / "solve_ishm.txt").read_text()
        assert "solver=ishm" in text
        assert "step_size=0.5" in text
        assert "lp_calls" in text

    def test_baseline_dispatch(self, tmp_path):
        code = main(
            [
                "--solver", "benefit-greedy",
                "--budget", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "solve_benefit-greedy.txt").exists()

    def test_malformed_config_pair(self, tmp_path):
        with pytest.raises(SystemExit, match="key=value"):
            main(
                [
                    "--solver", "ishm",
                    "--config", "step_size",
                    "--out", str(tmp_path),
                ]
            )

    def test_empty_config_key_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="key=value"):
            main(
                [
                    "--solver", "ishm",
                    "--config", "=0.5",
                    "--out", str(tmp_path),
                ]
            )

    def test_duplicate_config_key_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="more than once"):
            main(
                [
                    "--solver", "ishm",
                    "--config", "step_size=0.5", "step_size=0.4",
                    "--out", str(tmp_path),
                ]
            )

    def test_config_value_may_contain_equals(self):
        # Split on the first '=' only; the rest stays in the value.
        from repro.analysis.cli import _parse_config_pairs

        parsed = _parse_config_pairs(["tie_break=a=b", "seed=3"])
        assert parsed == {"tie_break": "a=b", "seed": "3"}

    def test_unknown_config_option_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="--config error"):
            main(
                [
                    "--solver", "ishm",
                    "--config", "stepsize=0.5",
                    "--out", str(tmp_path),
                ]
            )

    def test_removed_compress_option_is_clean_error(self, tmp_path):
        # Enumeration always merges duplicate scenario rows; the knob
        # that turned it off is gone.
        with pytest.raises(SystemExit, match="valid options"):
            main(
                [
                    "--solver", "enumeration",
                    "--dataset", "syn_a",
                    "--budget", "2",
                    "--config", "compress=false",
                    "--out", str(tmp_path),
                ]
            )

    def test_unknown_solver_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--solver", "gradient", "--out", str(tmp_path)])

    def test_solver_conflicts_with_experiment_flags(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "--solver", "ishm",
                    "--only", "table3",
                    "--out", str(tmp_path),
                ]
            )


class TestSimMode:
    def test_list_sim_plugins(self, capsys):
        assert main(["--list-sim-plugins"]) == 0
        out = capsys.readouterr().out
        assert "event sources" in out
        assert "rolling-empirical" in out
        assert "best-response" in out

    def test_sim_writes_artifact(self, tmp_path):
        code = main(
            [
                "--sim",
                "--dataset", "syn_a",
                "--budget", "2",
                "--periods", "2",
                "--config", "step_size=0.5",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        text = (tmp_path / "sim_syn_a.txt").read_text()
        assert "dataset=syn_a" in text
        assert "simulated 2 periods" in text
        assert "E[loss]" in text

    def test_sim_config_options_threaded(self, tmp_path):
        code = main(
            [
                "--sim",
                "--dataset", "syn_a",
                "--budget", "2",
                "--periods", "3",
                "--config", "step_size=0.5",
                "--sim-config",
                "estimator=rolling-empirical",
                "estimator.min_periods=2",
                "warm_start=false",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        text = (tmp_path / "sim_syn_a.txt").read_text()
        assert "estimator='rolling-empirical'" in text
        assert "warm_start=False" in text

    def test_sim_config_merges_with_dotted_solver_options(self, tmp_path):
        # solver.* pairs survive an explicit --config; per-key --config
        # wins.
        code = main(
            [
                "--sim",
                "--dataset", "syn_a",
                "--budget", "2",
                "--periods", "2",
                "--sim-config", "solver.step_size=0.5",
                "--config", "inner=enumeration",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        text = (tmp_path / "sim_syn_a.txt").read_text()
        assert "'step_size': '0.5'" in text
        assert "'inner': 'enumeration'" in text

    def test_sim_seed_reaches_trajectory_and_solver(self, tmp_path):
        code = main(
            [
                "--sim",
                "--dataset", "syn_a",
                "--budget", "2",
                "--periods", "2",
                "--seed", "11",
                "--config", "step_size=0.5",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        text = (tmp_path / "sim_syn_a.txt").read_text()
        assert "seed=11" in text
        assert "solver_seed=11" in text

    def test_sim_config_errors_name_their_flag(self, tmp_path):
        with pytest.raises(SystemExit, match="--sim-config expects"):
            main(
                [
                    "--sim",
                    "--sim-config", "warm_start",
                    "--out", str(tmp_path),
                ]
            )

    def test_sim_bad_plugin_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="--sim-config error"):
            main(
                [
                    "--sim",
                    "--sim-config", "estimator=psychic",
                    "--out", str(tmp_path),
                ]
            )

    def test_sim_bad_option_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="--sim-config error"):
            main(
                [
                    "--sim",
                    "--sim-config", "n_periods=0",
                    "--out", str(tmp_path),
                ]
            )

    def test_bad_solver_option_blames_the_supplying_flag(self, tmp_path):
        # The broken value comes from --sim-config even though --config
        # is also present.
        with pytest.raises(SystemExit, match="--sim-config error"):
            main(
                [
                    "--sim",
                    "--sim-config", "solver.step_size=abc",
                    "--config", "inner=cggs",
                    "--out", str(tmp_path),
                ]
            )
        with pytest.raises(SystemExit, match="--config error"):
            main(
                [
                    "--sim",
                    "--config", "bogus=1",
                    "--out", str(tmp_path),
                ]
            )

    def test_sim_flags_require_sim_mode(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--periods", "5", "--out", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(
                [
                    "--sim-config", "estimator=psychic",
                    "--out", str(tmp_path),
                ]
            )

    def test_config_requires_a_solver_mode(self, tmp_path):
        # In experiment mode --config would be silently dropped;
        # error instead.
        with pytest.raises(SystemExit):
            main(
                [
                    "--config", "step_size=0.2",
                    "--only", "table3",
                    "--out", str(tmp_path),
                ]
            )

    def test_sim_conflicts_with_experiment_flags(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "--sim",
                    "--only", "table3",
                    "--out", str(tmp_path),
                ]
            )


class TestServeMode:
    def test_serve_conflicts_with_other_modes(self):
        with pytest.raises(SystemExit):
            main(["--serve", "--sim"])
        with pytest.raises(SystemExit):
            main(["--serve", "--only", "table3"])
        with pytest.raises(SystemExit):
            main(["--serve", "--full"])

    def test_serve_config_requires_serve_mode(self):
        with pytest.raises(SystemExit):
            main(["--serve-config", "drift_threshold=0.2"])

    def test_bad_serve_config_is_clean_error(self):
        with pytest.raises(SystemExit, match="--serve-config error"):
            main(["--serve", "--serve-config", "no_such_option=1"])
        with pytest.raises(SystemExit, match="--serve-config error"):
            main(["--serve", "--serve-config", "estimator=psychic"])

    def test_malformed_serve_config_pair(self):
        with pytest.raises(SystemExit, match="key=value"):
            main(["--serve", "--serve-config", "drift_threshold"])


class TestMain:
    def test_writes_selected_artifact(self, tmp_path, monkeypatch):
        # Patch in a stub experiment so the CLI test stays fast.
        monkeypatch.setitem(
            EXPERIMENTS, "table3", lambda full, seed: "stub-table"
        )
        code = main(["--out", str(tmp_path), "--only", "table3"])
        assert code == 0
        artifact = tmp_path / "table3.txt"
        assert artifact.read_text() == "stub-table\n"

    def test_full_flag_forwarded(self, tmp_path, monkeypatch):
        seen = {}

        def probe(full, seed):
            seen["full"] = full
            return "x"

        monkeypatch.setitem(EXPERIMENTS, "fig1", probe)
        main(["--out", str(tmp_path), "--only", "fig1", "--full"])
        assert seen["full"] is True

    def test_seed_flag_forwarded(self, tmp_path, monkeypatch):
        seen = {}

        def probe(full, seed):
            seen["seed"] = seed
            return "x"

        monkeypatch.setitem(EXPERIMENTS, "fig1", probe)
        main(["--out", str(tmp_path), "--only", "fig1", "--seed", "17"])
        assert seen["seed"] == 17

    def test_rejects_unknown_experiment(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--out", str(tmp_path), "--only", "table99"])

    def test_runs_real_small_experiment(self, tmp_path, monkeypatch):
        # Shrink table3 to one budget to keep this an actual end-to-end
        # check without the full fast grid.
        from repro.analysis import run_table3

        monkeypatch.setitem(
            EXPERIMENTS,
            "table3",
            lambda full, seed: run_table3(
                budgets=(2,), seed=seed
            ).to_text(),
        )
        main(["--out", str(tmp_path), "--only", "table3"])
        text = (tmp_path / "table3.txt").read_text()
        assert "Optimal Threshold" in text
        assert "[1, 1, 1, 1]" in text
