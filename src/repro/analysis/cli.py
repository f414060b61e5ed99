"""Command-line experiment runner.

Three modes share one entry point (``python -m repro.run_experiments``):

**Experiment mode** regenerates the paper's tables and figures as text
artifacts (``--seed`` makes every run reproducible)::

    python -m repro.run_experiments --out results/          # fast grids
    python -m repro.run_experiments --out results/ --full   # paper grids
    python -m repro.run_experiments --only table3 fig2 --seed 7

**Solver mode** dispatches one registry solver against a dataset via the
:mod:`repro.engine` facade — any solver name from
``--list-solvers``, configured with ``k=v`` pairs coerced onto the
solver's typed config::

    python -m repro.run_experiments --solver ishm --dataset syn_a \
        --budget 10 --config step_size=0.2 inner=cggs
    python -m repro.run_experiments --list-solvers

**Simulation mode** (``--sim``) runs the multi-period audit-operations
loop of :mod:`repro.sim`: per-period alert streams, online distribution
re-estimation, memoized re-solving and a pluggable adversary.
``--config`` configures the per-period solver; ``--sim-config`` sets
:class:`~repro.sim.SimConfig` fields and (dotted) plugin options::

    python -m repro.run_experiments --sim --dataset syn_a --budget 10 \
        --periods 12 --config step_size=0.5 \
        --sim-config estimator=rolling-empirical estimator.window=14 \
            adversary=quantal adversary.rationality=2.0
    python -m repro.run_experiments --list-sim-plugins

**Serve mode** (``--serve``) starts the long-running
:mod:`repro.serve` audit-policy service: it solves and publishes the
initial policy, then answers ``/score`` and ``/alerts`` over HTTP while
a background worker re-solves on distribution drift, on the stdlib
asyncio server::

    python -m repro.run_experiments --serve --dataset syn_a --budget 10 \
        --port 8331 --serve-config drift_threshold=0.2 \
            estimator.window=32 solver.step_size=0.25

Each artifact is written to ``<out>/<name>.txt`` and echoed to stdout.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Callable

from .. import obs
from ..datasets import SYN_A_BUDGETS, rea_a, rea_b, syn_a
from ..engine import (
    AuditEngine,
    all_names,
    get_solver,
    solver_table,
)
from ..engine.registry import make_config
from ..sim import (
    ADVERSARIES,
    ESTIMATORS,
    EVENT_SOURCES,
    AuditSimulator,
    SimConfig,
)
from .experiments import (
    FULL_STEP_SIZES,
    run_ishm_grid,
    run_loss_figure,
    run_table3,
    run_table6,
)

__all__ = ["main", "EXPERIMENTS", "DATASETS"]

FAST_BUDGETS = (2, 6, 10)
FAST_STEPS = (0.1, 0.3, 0.5)

#: Dataset builders reachable from ``--dataset`` (each accepts budget=).
DATASETS: dict[str, Callable[..., object]] = {
    "syn_a": syn_a,
    "rea_a": rea_a,
    "rea_b": rea_b,
}


def _table3(full: bool, seed: int) -> str:
    budgets = SYN_A_BUDGETS if full else FAST_BUDGETS
    return run_table3(budgets=budgets, seed=seed).to_text()


def _table4(full: bool, seed: int) -> str:
    budgets = SYN_A_BUDGETS if full else FAST_BUDGETS
    steps = FULL_STEP_SIZES if full else FAST_STEPS
    return run_ishm_grid(
        budgets=budgets, step_sizes=steps, method="enumeration",
        seed=seed,
    ).to_text()


def _table5(full: bool, seed: int) -> str:
    budgets = SYN_A_BUDGETS if full else FAST_BUDGETS
    steps = FULL_STEP_SIZES if full else FAST_STEPS
    return run_ishm_grid(
        budgets=budgets, step_sizes=steps, method="cggs", seed=seed
    ).to_text()


def _table6(full: bool, seed: int) -> str:
    budgets = SYN_A_BUDGETS if full else FAST_BUDGETS
    steps = FULL_STEP_SIZES if full else FAST_STEPS
    optimal = run_table3(budgets=budgets, seed=seed)
    ishm = run_ishm_grid(budgets=budgets, step_sizes=steps,
                         method="enumeration", seed=seed)
    cggs = run_ishm_grid(budgets=budgets, step_sizes=steps,
                         method="cggs", seed=seed)
    return run_table6(optimal, ishm, cggs_grid=cggs).to_text()


def _table7(full: bool, seed: int) -> str:
    budgets = SYN_A_BUDGETS if full else FAST_BUDGETS
    grid = run_ishm_grid(
        budgets=budgets,
        step_sizes=(0.1, 0.2, 0.3, 0.4, 0.5),
        method="enumeration",
        seed=seed,
    )
    return grid.exploration_text()


def _fig1(full: bool, seed: int) -> str:
    budgets = tuple(range(10, 101, 10)) if full else (10, 40, 70, 100)
    return run_loss_figure(
        game_factory=lambda budget: rea_a(budget=budget),
        dataset="Rea A (EMR)",
        budgets=budgets,
        step_sizes=(0.1, 0.2, 0.3) if full else (0.3,),
        n_scenarios=1000 if full else 400,
        n_random_orderings=2000 if full else 300,
        n_threshold_draws=40 if full else 8,
        seed=seed,
    ).to_text()


def _fig2(full: bool, seed: int) -> str:
    budgets = tuple(range(10, 251, 20)) if full else (10, 90, 170, 250)
    return run_loss_figure(
        game_factory=lambda budget: rea_b(budget=budget),
        dataset="Rea B (credit)",
        budgets=budgets,
        step_sizes=(0.1, 0.2, 0.3) if full else (0.3,),
        n_scenarios=1000 if full else 400,
        n_random_orderings=2000 if full else 300,
        n_threshold_draws=40 if full else 8,
        seed=seed,
    ).to_text()


EXPERIMENTS: dict[str, Callable[[bool, int], str]] = {
    "table3": _table3,
    "table4": _table4,
    "table5": _table5,
    "table6": _table6,
    "table7": _table7,
    "fig1": _fig1,
    "fig2": _fig2,
}


def _parse_config_pairs(
    pairs: list[str], flag: str = "--config"
) -> dict[str, str]:
    """``["k=v", ...]`` -> dict, with a clear error on malformed items.

    Splits on the *first* ``=`` only, so values may themselves contain
    ``=`` (e.g. ``initial_thresholds=1,2,3`` stays intact whatever the
    value holds).  A bare key (``--config quantize``), an empty key
    (``--config =0.5``) and a repeated key each exit with a message
    naming the offending ``flag`` instead of a traceback.
    """
    config: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"{flag} expects key=value pairs, got {pair!r} "
                f"(e.g. {flag} step_size=0.2 inner=cggs)"
            )
        if key in config:
            raise SystemExit(
                f"{flag} option {key!r} given more than once "
                f"({key}={config[key]!r} and {pair!r})"
            )
        config[key] = value
    return config


def _run_solver(args: argparse.Namespace) -> int:
    """Solver mode: registry dispatch through an :class:`AuditEngine`."""
    spec = get_solver(args.solver)  # KeyError -> argparse already checked
    game = DATASETS[args.dataset](budget=args.budget)
    config = _parse_config_pairs(args.config)
    started = time.perf_counter()
    with AuditEngine(game, seed=args.seed) as engine:
        try:
            result = engine.solve(spec.name, config)
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"--config error: {exc}") from exc
    elapsed = time.perf_counter() - started
    text = "\n".join(
        [
            f"dataset={args.dataset} budget={args.budget:g} "
            f"solver={spec.name}",
            f"config: {result.config.describe()}",
            result.summary(game.alert_types.names),
        ]
    )
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"solve_{spec.name}.txt"
    path.write_text(text + "\n")
    writer = obs.maybe_writer()
    if writer is not None:
        run_id = writer.new_run_id(f"solve-{spec.name}")
        writer.append(
            run_id=run_id,
            kind="solve",
            name=args.dataset,
            solver=spec.name,
            backend=str(getattr(result.config, "backend", "")),
            config_hash=obs.config_hash(
                {"describe": result.config.describe()}
            ),
            repetition=0,
            seed=args.seed,
            objective=float(result.objective),
            lp_calls=int(result.diagnostics.get("lp_calls", 0)),
            solve_seconds=elapsed,
        )
        writer.write_raw(
            run_id,
            "result.json",
            {
                "summary": text,
                "diagnostics": dict(result.diagnostics),
                "thresholds": [float(b) for b in result.thresholds],
            },
        )
        print(f"== run_table: {run_id} -> {writer.csv_path}")
    print(f"== solve:{spec.name} ({elapsed:.1f}s) -> {path}")
    print(text)
    return 0


def _run_sim(args: argparse.Namespace) -> int:
    """Simulation mode: the :mod:`repro.sim` multi-period loop."""
    game = DATASETS[args.dataset](budget=args.budget)
    pairs = _parse_config_pairs(args.sim_config, flag="--sim-config")
    try:
        config = SimConfig.from_pairs(pairs)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"--sim-config error: {exc}") from exc
    # Precedence: --periods/--solver default to None, so they are only
    # applied (and win) when passed explicitly.  --seed always carries a
    # value (default 0), so it cannot signal explicit use and instead
    # yields to a seed/solver_seed set via --sim-config.  Each flag
    # reports failures under its own name.
    if "seed" not in pairs:
        config = config.replace(seed=args.seed)
    if "solver_seed" not in pairs:
        config = config.replace(solver_seed=args.seed)
    if args.periods is not None:
        try:
            config = config.replace(n_periods=args.periods)
        except ValueError as exc:
            raise SystemExit(f"--periods error: {exc}") from exc
    if args.solver is not None:
        config = config.replace(solver=args.solver)

    def probe_solver_config(flag: str) -> None:
        # Materialize the per-period solver config so mistakes are
        # blamed on the flag whose pairs broke it.
        try:
            make_config(
                get_solver(config.solver), dict(config.solver_options)
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit(f"{flag} error: {exc}") from exc

    # First probe covers --sim-config's solver.* pairs (and the solver
    # name itself)...
    probe_solver_config("--sim-config")
    if args.config:
        # ...then --config pairs merge on top (per-key, the dedicated
        # flag wins) and get their own probe, so a failure here can
        # only come from --config.
        config = config.replace(
            solver_options={
                **dict(config.solver_options),
                **_parse_config_pairs(args.config),
            }
        )
        probe_solver_config("--config")
    try:
        # Constructing the simulator resolves and validates every
        # plugin, so configuration mistakes are caught here...
        simulator = AuditSimulator(game, config)
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"--sim-config error: {exc}") from exc
    # ...while genuine runtime failures inside the period loop keep
    # their honest tracebacks.
    started = time.perf_counter()
    trajectory = simulator.run()
    elapsed = time.perf_counter() - started
    text = "\n".join(
        [
            f"dataset={args.dataset} budget={args.budget:g} sim",
            f"config: {config.describe()}",
            trajectory.to_text(game.alert_types.names),
        ]
    )
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"sim_{args.dataset}.txt"
    path.write_text(text + "\n")
    writer = obs.maybe_writer()
    if writer is not None:
        run_id = writer.new_run_id(f"sim-{args.dataset}")
        writer.append(
            run_id=run_id,
            kind="sim",
            name=args.dataset,
            solver=config.solver,
            config_hash=obs.config_hash(
                {"describe": config.describe()}
            ),
            repetition=0,
            seed=config.seed,
            objective=trajectory.mean_objective,
            lp_calls=trajectory.total_lp_calls,
            solve_seconds=trajectory.total_solve_seconds,
            detection_rate=trajectory.detection_rate,
            deterrence_rate=trajectory.deterrence_rate,
            n_periods=trajectory.n_periods,
            n_refits=trajectory.n_refits,
            n_memoized=trajectory.n_memoized,
            mean_realized_loss=trajectory.mean_realized_loss,
            wall_seconds=elapsed,
        )
        writer.write_raw(
            run_id,
            "trajectory.json",
            {
                "summary": text,
                "objectives": list(trajectory.objectives()),
                "realized_losses": list(trajectory.realized_losses()),
            },
        )
        print(f"== run_table: {run_id} -> {writer.csv_path}")
    print(f"== sim:{args.dataset} ({elapsed:.1f}s) -> {path}")
    print(text)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Serve mode: the long-running :mod:`repro.serve` policy service."""
    import asyncio

    from ..serve import AuditService, ServeConfig, StdlibApp

    game = DATASETS[args.dataset](budget=args.budget)
    pairs = _parse_config_pairs(args.serve_config, flag="--serve-config")
    try:
        config = ServeConfig.from_pairs(pairs)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"--serve-config error: {exc}") from exc
    if "solver_seed" not in pairs:
        config = config.replace(solver_seed=args.seed)
    if args.config:
        config = config.replace(
            solver_options={
                **dict(config.solver_options),
                **_parse_config_pairs(args.config),
            }
        )
    try:
        service = AuditService(game, config)
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"--serve-config error: {exc}") from exc

    async def serve_forever() -> None:
        async with service:
            active = service.active()
            print(
                f"published v{active.version} "
                f"(objective={active.result.objective:.4f}, "
                f"fingerprint={active.fingerprint})"
            )
            print(f"serving on http://{args.host}:{args.port}")
            await StdlibApp(service).run(args.host, args.port)

    print(
        f"dataset={args.dataset} budget={args.budget:g} "
        f"solver={config.solver} estimator={config.estimator} "
        f"drift_threshold={config.drift_threshold:g}"
    )
    try:
        asyncio.run(serve_forever())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _sim_plugin_tables() -> str:
    """Overview of every registered simulator plugin, by kind."""
    sections = []
    for title, registry in (
        ("event sources", EVENT_SOURCES),
        ("estimators", ESTIMATORS),
        ("adversaries", ADVERSARIES),
    ):
        sections.append(f"{title}:\n{registry.table()}")
    return "\n\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.run_experiments",
        description=(
            "Regenerate the paper's tables and figures, dispatch one "
            "registry solver (--solver), or run the multi-period "
            "audit-operations simulator (--sim)."
        ),
    )
    parser.add_argument(
        "--out", type=Path, default=Path("results"),
        help="output directory for the text artifacts",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="use the paper's full grids (slow)",
    )
    parser.add_argument(
        "--only", nargs="+", choices=sorted(EXPERIMENTS),
        help="run a subset of experiments",
    )
    parser.add_argument(
        "--solver",
        choices=all_names(),
        metavar="NAME",
        help=(
            "dispatch one registry solver instead of the experiment "
            "suite (see --list-solvers)"
        ),
    )
    parser.add_argument(
        "--config", nargs="*", default=[], metavar="K=V",
        help="solver config overrides, coerced onto the typed config",
    )
    parser.add_argument(
        "--dataset", choices=sorted(DATASETS), default="syn_a",
        help="dataset for --solver and --sim modes",
    )
    parser.add_argument(
        "--budget", type=float, default=10.0,
        help="audit budget for --solver and --sim modes",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help=(
            "seed threaded through every mode: experiment runners, the "
            "solver engine, and the simulator trajectory"
        ),
    )
    parser.add_argument(
        "--sim", action="store_true",
        help=(
            "run the multi-period audit-operations simulator instead "
            "of a one-shot solve (see --list-sim-plugins)"
        ),
    )
    parser.add_argument(
        "--periods", type=int, default=None,
        help="number of audit periods for --sim mode (default 12)",
    )
    parser.add_argument(
        "--sim-config", nargs="*", default=[], metavar="K=V",
        help=(
            "SimConfig fields (warm_start=false) and dotted plugin "
            "options (estimator.window=14) for --sim mode"
        ),
    )
    parser.add_argument(
        "--serve", action="store_true",
        help=(
            "run the long-running audit-policy service (stdlib asyncio "
            "HTTP server) instead of a one-shot solve"
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for --serve mode",
    )
    parser.add_argument(
        "--port", type=int, default=8331,
        help="bind port for --serve mode",
    )
    parser.add_argument(
        "--serve-config", nargs="*", default=[], metavar="K=V",
        help=(
            "ServeConfig fields (drift_threshold=0.2) and dotted "
            "plugin options (estimator.window=32, solver.step_size=0.5) "
            "for --serve mode"
        ),
    )
    parser.add_argument(
        "--list-solvers", action="store_true",
        help="print the solver registry table and exit",
    )
    parser.add_argument(
        "--list-sim-plugins", action="store_true",
        help="print the simulator plugin registries and exit",
    )
    args = parser.parse_args(argv)

    if args.list_solvers:
        print(solver_table())
        return 0
    if args.list_sim_plugins:
        print(_sim_plugin_tables())
        return 0
    if args.serve:
        if args.sim or args.only or args.full:
            parser.error(
                "--serve runs the policy service; it cannot be "
                "combined with --sim or the experiment-mode flags "
                "--only/--full"
            )
        return _run_serve(args)
    if args.serve_config:
        parser.error(
            "--serve-config configures the policy service; add --serve"
        )
    if args.sim:
        if args.only or args.full:
            parser.error(
                "--sim runs the simulator; it cannot be combined with "
                "the experiment-mode flags --only/--full"
            )
        return _run_sim(args)
    if args.periods is not None or args.sim_config:
        parser.error(
            "--periods/--sim-config configure the simulator; add --sim"
        )
    if args.solver is not None:
        if args.only or args.full:
            parser.error(
                "--solver runs a single registry solver; it cannot be "
                "combined with the experiment-mode flags --only/--full"
            )
        return _run_solver(args)
    if args.config:
        parser.error(
            "--config configures a solver; add --solver or --sim"
        )

    names = args.only if args.only else list(EXPERIMENTS)
    args.out.mkdir(parents=True, exist_ok=True)
    writer = obs.maybe_writer()
    for name in names:
        started = time.perf_counter()
        text = EXPERIMENTS[name](args.full, args.seed)
        elapsed = time.perf_counter() - started
        path = args.out / f"{name}.txt"
        path.write_text(text + "\n")
        if writer is not None:
            run_id = writer.new_run_id(f"experiment-{name}")
            writer.append(
                run_id=run_id,
                kind="experiment",
                name=name,
                config_hash=obs.config_hash(
                    {"name": name, "full": args.full, "seed": args.seed}
                ),
                repetition=0,
                seed=args.seed,
                solve_seconds=elapsed,
                full=args.full,
            )
            writer.write_raw(run_id, "artifact.json", {"text": text})
            print(f"== run_table: {run_id} -> {writer.csv_path}")
        print(f"== {name} ({elapsed:.1f}s) -> {path}")
        print(text)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
