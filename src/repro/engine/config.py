"""Typed per-solver configuration dataclasses.

Each registry solver declares a frozen ``SolverConfig`` subclass; the
fields are the solver's complete tuning surface.  Configs are
constructible from string-valued dictionaries (:meth:`SolverConfig.from_dict`)
so CLI and JSON-driven runs — ``--solver ishm --config step_size=0.2`` —
dispatch without bespoke argument parsing per solver.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from dataclasses import dataclass

__all__ = [
    "coerce_value",
    "config_from_pairs",
    "SolverConfig",
    "ISHMConfig",
    "BruteForceConfig",
    "EnumerationConfig",
    "CGGSConfig",
    "RandomOrderConfig",
    "RandomThresholdConfig",
    "GreedyBenefitConfig",
]

_NONE_WORDS = frozenset({"none", "null", ""})
_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


def _coerce(text: str, annotation: object) -> object:
    """Parse one ``k=v`` string value according to a field annotation."""
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):
        args = [
            a for a in typing.get_args(annotation) if a is not type(None)
        ]
        if text.strip().lower() in _NONE_WORDS:
            return None
        # Try each union member in declaration order; the first parse
        # wins (e.g. ``bool | str`` accepts "true" as a bool and "lazy"
        # as a string).
        for candidate in args[:-1]:
            try:
                return _coerce(text, candidate)
            except ValueError:
                continue
        return _coerce(text, args[-1])
    if annotation is bool:
        word = text.strip().lower()
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
        raise ValueError(f"cannot parse {text!r} as a boolean")
    if annotation is int:
        return int(text)
    if annotation is float:
        return float(text)
    if origin is tuple:
        element = typing.get_args(annotation)[0]
        parts = [p for p in text.split(",") if p.strip()]
        return tuple(_coerce(p, element) for p in parts)
    return text


def coerce_value(text: str, annotation: object) -> object:
    """Public alias for the CLI string-to-type coercion rules.

    Used by consumers outside this module (e.g. the simulator's plugin
    option parsing) so every ``k=v`` surface coerces identically.
    """
    return _coerce(text, annotation)


def config_from_pairs(
    cls: type, pairs: typing.Mapping[str, str], scopes: tuple[str, ...]
) -> typing.Any:
    """Build a config dataclass from flat CLI-style ``k=v`` pairs.

    Plain keys are coerced onto ``cls``'s fields; dotted keys route to
    plugin options — ``estimator.window=14`` becomes
    ``estimator_options={"window": "14"}`` (plugins receive strings and
    the registries coerce them against constructor annotations).
    ``scopes`` names the plugin prefixes ``cls`` accepts.
    """
    hints = typing.get_type_hints(cls)
    fields = {f.name for f in dataclasses.fields(cls)}
    plain: dict[str, object] = {}
    nested: dict[str, dict[str, str]] = {}
    for key, value in pairs.items():
        scope, dot, option = key.partition(".")
        if dot:
            if scope not in scopes:
                raise ValueError(
                    f"unknown plugin scope {scope!r} in option "
                    f"{key!r}; use {'/'.join(s + '.' for s in scopes)}"
                )
            if not option:
                raise ValueError(f"empty option name in {key!r}")
            nested.setdefault(scope, {})[option] = value
        elif key.endswith("_options") and key in fields:
            # A flat string cannot populate an options mapping; insist
            # on the dotted form so the mistake is caught here, not as a
            # crash deep inside plugin construction.
            scope = key[: -len("_options")]
            raise ValueError(
                f"{key} cannot be set directly; use dotted options "
                f"like {scope}.<option>=<value>"
            )
        elif key in fields:
            plain[key] = (
                _coerce(value, hints[key])
                if isinstance(value, str)
                else value
            )
        else:
            raise ValueError(
                f"{cls.__name__} has no option {key!r}; valid options: "
                f"{', '.join(sorted(fields))}"
            )
    for scope, options in nested.items():
        plain[f"{scope}_options"] = options
    return cls(**plain)


@dataclass(frozen=True)
class SolverConfig:
    """Options shared by every registry solver.

    Attributes
    ----------
    backend:
        LP backend name (``"scipy"`` or ``"simplex"``).
    seed:
        Seed for every random draw the solver makes.  Two runs with equal
        seeds (and equal remaining config) produce identical
        :class:`~repro.engine.result.SolveResult` policies/objectives.
    """

    backend: str = "scipy"
    seed: int = 0

    @classmethod
    def from_dict(
        cls, data: typing.Mapping[str, object]
    ) -> "SolverConfig":
        """Build a config from (possibly all-string) key/value pairs.

        String values are coerced to the annotated field types, so the
        CLI's ``--config step_size=0.2 max_probes=none`` round-trips into
        proper ``float`` / ``None`` values.  Unknown keys raise with the
        list of valid options.

        ``lp_backend`` is accepted as an alias for ``backend`` (the LP
        layer's own vocabulary — see
        :func:`repro.solvers.lp.available_backends`); the resolved name
        is validated here so a typo'd backend fails at configuration
        time with the available choices rather than at the first LP
        solve.
        """
        hints = typing.get_type_hints(cls)
        valid = {f.name for f in dataclasses.fields(cls)}
        data = dict(data)
        if "lp_backend" in data:
            if "backend" in data:
                raise ValueError(
                    "give either backend or its alias lp_backend, "
                    "not both"
                )
            data["backend"] = data.pop("lp_backend")
        kwargs: dict[str, object] = {}
        for key, value in data.items():
            if key not in valid:
                raise ValueError(
                    f"{cls.__name__} has no option {key!r}; valid options: "
                    f"{', '.join(sorted(valid))} (and the lp_backend "
                    "alias for backend)"
                )
            kwargs[key] = (
                _coerce(value, hints[key])
                if isinstance(value, str)
                else value
            )
        if "backend" in kwargs:
            from ..solvers.lp import available_backends

            if kwargs["backend"] not in available_backends():
                raise ValueError(
                    f"unknown LP backend {kwargs['backend']!r}; "
                    f"choose from {available_backends()}"
                )
        return cls(**kwargs)

    def replace(self, **changes: object) -> "SolverConfig":
        """Functional update (alias for :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """``k=v`` one-liner used by the CLI and result echoes."""
        pairs = (
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)
        )
        return f"{type(self).__name__}({', '.join(pairs)})"


@dataclass(frozen=True)
class ISHMConfig(SolverConfig):
    """Algorithm 2 (Iterative Shrink Heuristic Method) options."""

    step_size: float = 0.1
    inner: str = "auto"  # fixed-threshold master: enumeration/cggs/auto
    quantize: str = "round"
    quantum: float = 1.0
    improvement_tol: float = 1e-9
    max_probes: int | None = None
    initial_thresholds: tuple[float, ...] | None = None


@dataclass(frozen=True)
class BruteForceConfig(SolverConfig):
    """Exact OAP search over the integer threshold grid (Table III)."""

    max_vectors: int = 500_000
    enforce_budget_floor: bool = True
    tie_break: str = "smallest"


@dataclass(frozen=True)
class _FixedThresholdConfig(SolverConfig):
    """Shared options for solvers that take the threshold vector as input.

    ``thresholds=None`` means the full-coverage upper bounds
    ``J_t * C_t`` (the ISHM starting point).
    """

    thresholds: tuple[float, ...] | None = None


@dataclass(frozen=True)
class EnumerationConfig(_FixedThresholdConfig):
    """Exact master LP over all ``|T|!`` ordering columns."""

    max_orderings: int = 5040


@dataclass(frozen=True)
class CGGSConfig(_FixedThresholdConfig):
    """Algorithm 1 (Column Generation Greedy Search) options.

    ``warm_start_pool`` bounds the columns carried from one solve to the
    next as starting columns; every master LP is solved cold.
    """

    max_columns: int = 200
    reduced_cost_tol: float = 1e-7
    warm_start_pool: int = 48


@dataclass(frozen=True)
class RandomOrderConfig(_FixedThresholdConfig):
    """Baseline: uniform mixture over random orderings (Section V-B)."""

    n_orderings: int = 2000


@dataclass(frozen=True)
class RandomThresholdConfig(SolverConfig):
    """Baseline: random thresholds, LP-optimal orderings per draw."""

    n_draws: int = 100
    inner: str = "auto"


@dataclass(frozen=True)
class GreedyBenefitConfig(SolverConfig):
    """Baseline: deterministic benefit-ranked exhaustive auditing."""
