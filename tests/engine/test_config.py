"""SolverConfig construction and CLI-style string coercion."""

import pytest

from repro.engine import (
    BruteForceConfig,
    CGGSConfig,
    ISHMConfig,
    RandomOrderConfig,
    SolverConfig,
    get_solver,
)
from repro.engine.config import coerce_value
from repro.engine.registry import make_config


class TestFromDict:
    def test_float_and_int_coercion(self):
        config = ISHMConfig.from_dict(
            {"step_size": "0.25", "max_probes": "50", "seed": "3"}
        )
        assert config.step_size == 0.25
        assert config.max_probes == 50
        assert config.seed == 3

    def test_optional_none_words(self):
        config = ISHMConfig.from_dict({"max_probes": "none"})
        assert config.max_probes is None

    def test_bool_coercion(self):
        for word, expected in (
            ("true", True), ("1", True), ("Yes", True),
            ("false", False), ("0", False), ("off", False),
        ):
            config = BruteForceConfig.from_dict(
                {"enforce_budget_floor": word}
            )
            assert config.enforce_budget_floor is expected

    def test_bad_bool_raises(self):
        with pytest.raises(ValueError, match="boolean"):
            BruteForceConfig.from_dict({"enforce_budget_floor": "maybe"})

    def test_tuple_of_floats(self):
        config = CGGSConfig.from_dict({"thresholds": "1,2.5,3"})
        assert config.thresholds == (1.0, 2.5, 3.0)

    def test_string_passthrough(self):
        config = ISHMConfig.from_dict({"inner": "cggs"})
        assert config.inner == "cggs"

    def test_non_string_values_kept(self):
        config = RandomOrderConfig.from_dict({"n_orderings": 7})
        assert config.n_orderings == 7

    def test_unknown_key_lists_options(self):
        with pytest.raises(ValueError, match="step_size"):
            ISHMConfig.from_dict({"stepsize": "0.1"})

    @pytest.mark.parametrize(
        "config_name, option",
        [("CGGSConfig", "warm_start"), ("EnumerationConfig", "prune")],
    )
    def test_warm_start_and_prune_are_unknown(self, config_name, option):
        import repro.engine

        cls = getattr(repro.engine, config_name)
        with pytest.raises(ValueError, match=f"no option '{option}'"):
            cls.from_dict({option: "yes"})

    @pytest.mark.parametrize(
        "config_name, option",
        [
            ("ISHMConfig", "workers"),
            ("BruteForceConfig", "workers"),
            ("BruteForceConfig", "chunk_size"),
            ("RandomThresholdConfig", "workers"),
        ],
    )
    def test_process_pool_options_are_unknown(self, config_name, option):
        # Pricing is serial; the pool's knobs are rejected, not ignored.
        import repro.engine

        cls = getattr(repro.engine, config_name)
        with pytest.raises(ValueError, match=f"no option '{option}'"):
            cls.from_dict({option: "1"})


class TestMakeConfig:
    def test_defaults(self):
        spec = get_solver("ishm")
        config = make_config(spec)
        assert isinstance(config, ISHMConfig)
        assert config.step_size == ISHMConfig().step_size

    def test_overrides_on_instance(self):
        spec = get_solver("ishm")
        config = make_config(spec, ISHMConfig(step_size=0.5), seed=9)
        assert config.step_size == 0.5
        assert config.seed == 9

    def test_mapping_is_coerced(self):
        spec = get_solver("ishm")
        config = make_config(spec, {"step_size": "0.4"})
        assert config.step_size == 0.4

    def test_wrong_config_type_raises(self):
        spec = get_solver("ishm")
        with pytest.raises(TypeError, match="ISHMConfig"):
            make_config(spec, BruteForceConfig())

    def test_base_config_rejected_for_specialized_solver(self):
        spec = get_solver("ishm")
        with pytest.raises(TypeError):
            make_config(spec, SolverConfig())

    def test_describe_mentions_fields(self):
        assert "step_size" in ISHMConfig().describe()


class TestLpBackendAlias:
    def test_alias_maps_to_backend(self):
        config = ISHMConfig.from_dict({"lp_backend": "simplex"})
        assert config.backend == "simplex"

    def test_alias_conflicts_with_backend(self):
        with pytest.raises(ValueError, match="lp_backend"):
            CGGSConfig.from_dict(
                {"backend": "scipy", "lp_backend": "simplex"}
            )

    def test_unknown_backend_names_choices(self):
        with pytest.raises(ValueError, match=r"scipy.*simplex"):
            ISHMConfig.from_dict({"lp_backend": "gurobi"})
        with pytest.raises(ValueError, match=r"scipy.*simplex"):
            CGGSConfig.from_dict({"backend": "cplex"})

    def test_alias_on_every_lp_solver_config(self):
        from repro.engine import EnumerationConfig

        for cls in (ISHMConfig, EnumerationConfig, CGGSConfig):
            assert cls.from_dict(
                {"lp_backend": "simplex"}
            ).backend == "simplex"


class TestUnionCoercion:
    def test_bool_str_union_words(self):
        # Union members are tried in declaration order: "true" parses
        # as the bool, "lazy" falls through to the string.
        annotation = bool | str | None
        assert coerce_value("lazy", annotation) == "lazy"
        assert coerce_value("true", annotation) is True
        assert coerce_value("false", annotation) is False
        assert coerce_value("none", annotation) is None
