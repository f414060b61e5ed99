"""The shipped lint rules: the repo's invariants as visitor fragments.

Each rule machine-checks one contract the codebase's correctness rests
on but no off-the-shelf linter knows about:

========  ======================  =========================================
code(s)   name                    invariant
========  ======================  =========================================
RPL101    lock-order              acquisitions follow the declared
RPL102                            hierarchy in
                                  :mod:`repro.devtools.lock_hierarchy`
RPL201    blocking-in-async       solves/sleeps/IO never run on the event
                                  loop — ``asyncio.to_thread`` or executor
RPL301    rng-discipline          no module-level numpy RNG state, no
RPL302                            unseeded ``default_rng()``, no stdlib
RPL303                            ``random`` in library code
RPL401    deterministic-reduction no numeric accumulation over set/dict
                                  iteration order in kernel modules
RPL501    frozen-contract         ``SolveResult``/``PublishedPolicy`` are
                                  immutable outside their defining modules
RPL601    registry-contract       registered solvers/plugins expose the
                                  expected signatures and typed configs
RPL701    telemetry-in-hot-loop   no :mod:`repro.obs` calls inside loops
                                  of the PalTable DP / simplex kernels —
                                  count with plain ints, emit at the
                                  solve()/build() boundary
RPL801    swallowed-exception     broad ``except Exception`` handlers in
                                  the engine/serve/solvers packages must
                                  re-raise or count the failure on an
                                  obs/metrics counter — degradation is
                                  fine, *silent* degradation is not
========  ======================  =========================================

Every rule reports through :meth:`LintContext.report`, so inline
``# replint: disable=CODE`` suppressions and domain scoping apply
uniformly.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatchcase

from . import lock_hierarchy
from .engine import LintContext, Rule, register_rule

__all__ = [
    "BlockingInAsyncRule",
    "FrozenContractRule",
    "LockOrderRule",
    "NondeterministicReductionRule",
    "RegistryContractRule",
    "RngDisciplineRule",
    "SwallowedExceptionRule",
    "TelemetryInHotLoopRule",
    "BLOCKING_CALL_PATTERNS",
    "TELEMETRY_CALL_PATTERNS",
]


def dotted_name(expr: ast.AST) -> str | None:
    """Best-effort dotted rendering of a call target or receiver.

    Subscripts and chained calls collapse onto their base
    (``self._engines[key].solve`` -> ``self._engines.solve``) — good
    enough for pattern matching, and never *invents* attribute names.
    """
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = dotted_name(expr.value)
        return None if base is None else f"{base}.{expr.attr}"
    if isinstance(expr, (ast.Call, ast.Subscript)):
        return dotted_name(
            expr.func if isinstance(expr, ast.Call) else expr.value
        )
    return None


def normalized(dotted: str) -> str:
    """Drop a leading ``self.``/``cls.`` for receiver-agnostic matching."""
    for prefix in ("self.", "cls."):
        if dotted.startswith(prefix):
            return dotted[len(prefix) :]
    return dotted


# ----------------------------------------------------------------------
# RPL101/RPL102 — lock ordering
# ----------------------------------------------------------------------


_LOCK_ATTRS = frozenset(spec.attr for spec in lock_hierarchy.LOCKS)


def _looks_like_lock(name: str) -> bool:
    return "lock" in name.lower()


@register_rule
class LockOrderRule(Rule):
    """Check every lock acquisition against the declared hierarchy."""

    code = "RPL101"
    codes = ("RPL101", "RPL102")
    name = "lock-order"
    summary = "lock acquisitions must follow the declared hierarchy"
    invariant = (
        "a thread only acquires locks ranked strictly deeper than "
        "everything it holds (repro/devtools/lock_hierarchy.py)"
    )
    domains = frozenset({"src"})

    def begin_file(self, ctx: LintContext) -> None:
        # Stack of held locks as (spec-or-None, display); parallel stack
        # of per-`with` push counts; barrier stack for nested defs
        # (lexical nesting inside a `with` body is not runtime holding).
        self._held: list[tuple[object, str]] = []
        self._with_pushes: list[int] = []
        self._barriers: list[list[tuple[object, str]]] = []

    # -- acquisition bookkeeping ---------------------------------------

    def _lock_event(self, expr: ast.AST, ctx: LintContext):
        """``(spec_or_None, display)`` when ``expr`` acquires a lock."""
        if isinstance(expr, ast.Call):
            # `with lock.acquire():` style — resolve the receiver.
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr == "acquire":
                return self._lock_event(func.value, ctx)
            return None
        if isinstance(expr, ast.Attribute):
            attr = expr.attr
            if attr not in _LOCK_ATTRS and not _looks_like_lock(attr):
                return None
            owner = ""
            if isinstance(expr.value, ast.Name) and expr.value.id in (
                "self",
                "cls",
            ):
                owner = ctx.current_class or ""
            spec = lock_hierarchy.lock_for(owner, attr)
            display = dotted_name(expr) or attr
            return (spec, display)
        if isinstance(expr, ast.Name) and _looks_like_lock(expr.id):
            return (None, expr.id)
        return None

    def _check_acquire(
        self, spec, display: str, node: ast.AST, ctx: LintContext
    ) -> None:
        ranked = [s for s, _ in self._held if s is not None]
        if not ranked:
            return
        top = max(ranked, key=lambda s: s.rank)
        if spec is None:
            ctx.report(
                "RPL102",
                node,
                f"acquires unranked lock '{display}' while holding "
                f"'{top.name}' (rank {top.rank}); add it to "
                "repro/devtools/lock_hierarchy.py before nesting it",
            )
            return
        if any(s.name == spec.name for s in ranked):
            return  # reentrant re-acquisition of a held (R)Lock
        if spec.rank <= top.rank:
            ctx.report(
                "RPL101",
                node,
                f"acquires '{spec.name}' (rank {spec.rank}) while "
                f"holding '{top.name}' (rank {top.rank}); the declared "
                "order is "
                + " -> ".join(
                    s.name
                    for s in sorted(
                        lock_hierarchy.LOCKS, key=lambda s: s.rank
                    )
                ),
            )

    # -- with/async-with -----------------------------------------------

    def _enter_with(self, node, ctx: LintContext) -> None:
        pushed = 0
        for item in node.items:
            event = self._lock_event(item.context_expr, ctx)
            if event is None:
                continue
            spec, display = event
            self._check_acquire(spec, display, item.context_expr, ctx)
            self._held.append((spec, display))
            pushed += 1
        self._with_pushes.append(pushed)

    def _leave_with(self, node, ctx: LintContext) -> None:
        for _ in range(self._with_pushes.pop()):
            self._held.pop()

    visit_With = _enter_with
    visit_AsyncWith = _enter_with
    leave_With = _leave_with
    leave_AsyncWith = _leave_with

    # -- nested defs are a barrier, not a continuation ------------------

    def _enter_def(self, node, ctx: LintContext) -> None:
        self._barriers.append(self._held)
        self._held = []

    def _leave_def(self, node, ctx: LintContext) -> None:
        self._held = self._barriers.pop()

    visit_FunctionDef = _enter_def
    visit_AsyncFunctionDef = _enter_def
    visit_Lambda = _enter_def
    leave_FunctionDef = _leave_def
    leave_AsyncFunctionDef = _leave_def
    leave_Lambda = _leave_def

    # -- calls: bare .acquire() and lock-acquiring methods --------------

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "acquire":
            event = self._lock_event(func.value, ctx)
            if event is not None:
                # Checked but not tracked: releases are flow-dependent.
                self._check_acquire(*event, node, ctx)
            return
        target = lock_hierarchy.ACQUIRING_METHODS.get(func.attr)
        if target is None or not self._held:
            return
        spec = lock_hierarchy.lock_named(target)
        ranked = [s for s, _ in self._held if s is not None]
        if not ranked:
            return
        top = max(ranked, key=lambda s: s.rank)
        if spec.rank <= top.rank and all(
            s.name != spec.name for s in ranked
        ):
            display = dotted_name(func) or func.attr
            ctx.report(
                "RPL101",
                node,
                f"calls '{display}' (acquires '{spec.name}', rank "
                f"{spec.rank}) while holding '{top.name}' (rank "
                f"{top.rank}); move the call outside the lock",
            )


# ----------------------------------------------------------------------
# RPL201 — blocking calls in async functions
# ----------------------------------------------------------------------


#: Call patterns (fnmatch over the normalized dotted target) that block
#: the calling thread.  Inside ``async def`` these stall the event loop
#: — route them through ``asyncio.to_thread``/``run_in_executor``.
BLOCKING_CALL_PATTERNS: tuple[str, ...] = (
    "time.sleep",
    "open",
    "socket.*",
    "subprocess.*",
    "os.system",
    "os.popen",
    "requests.*",
    "urllib.request.*",
    "*.solve",
    "*.price_batch",
    "*.resolve_blocking",
    "*executor*.shutdown",
)


@register_rule
class BlockingInAsyncRule(Rule):
    """Flag known-blocking calls made directly on the event loop."""

    code = "RPL201"
    name = "blocking-in-async"
    summary = "no blocking solve/sleep/IO calls inside async def bodies"
    invariant = (
        "the serve layer answers /score and /alerts while solves run; "
        "blocking work goes through asyncio.to_thread"
    )
    domains = frozenset(
        {"src", "tests", "benchmarks", "examples", "other"}
    )

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        if not ctx.in_async_function():
            return
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        target = normalized(dotted)
        for pattern in BLOCKING_CALL_PATTERNS:
            if fnmatchcase(target, pattern):
                ctx.report(
                    self.code,
                    node,
                    f"blocking call '{target}' inside an async "
                    "function blocks the event loop; wrap it in "
                    "asyncio.to_thread(...) or an executor",
                )
                return


# ----------------------------------------------------------------------
# RPL301/302/303 — RNG discipline
# ----------------------------------------------------------------------


_GENERATOR_API_OK = frozenset(
    {
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "Philox",
        "MT19937",
    }
)


@register_rule
class RngDisciplineRule(Rule):
    """Randomness must flow through explicitly seeded Generators."""

    code = "RPL301"
    codes = ("RPL301", "RPL302", "RPL303")
    name = "rng-discipline"
    summary = (
        "no np.random module state, unseeded default_rng(), or stdlib "
        "random in library code"
    )
    invariant = (
        "determinism guarantees (warm == cold, seeded fault replay) "
        "require rng threaded as a seeded np.random.Generator parameter"
    )
    domains = frozenset({"src"})

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        if dotted.startswith(("np.random.", "numpy.random.")):
            fn = dotted.rsplit(".", 1)[1]
            if fn == "default_rng":
                if not node.args and not node.keywords:
                    ctx.report(
                        "RPL302",
                        node,
                        "default_rng() without a seed draws OS entropy; "
                        "pass an explicit seed (or accept an rng "
                        "parameter, as sim/ishm/cggs do)",
                    )
            elif fn not in _GENERATOR_API_OK:
                ctx.report(
                    "RPL301",
                    node,
                    f"'{dotted}' uses numpy's global RNG state, which "
                    "is shared across threads and solver calls; thread "
                    "a seeded np.random.Generator instead",
                )
        elif dotted == "default_rng" and not node.args and not node.keywords:
            ctx.report(
                "RPL302",
                node,
                "default_rng() without a seed draws OS entropy; pass "
                "an explicit seed (or accept an rng parameter)",
            )

    def visit_Import(self, node: ast.Import, ctx: LintContext) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                ctx.report(
                    "RPL303",
                    node,
                    "stdlib 'random' is forbidden in library code; use "
                    "a seeded np.random.Generator parameter",
                )

    def visit_ImportFrom(
        self, node: ast.ImportFrom, ctx: LintContext
    ) -> None:
        if node.module == "random" and node.level == 0:
            ctx.report(
                "RPL303",
                node,
                "stdlib 'random' is forbidden in library code; use a "
                "seeded np.random.Generator parameter",
            )


# ----------------------------------------------------------------------
# RPL401 — nondeterministic reductions in kernel modules
# ----------------------------------------------------------------------


def _is_unordered_iterable(expr: ast.AST) -> str | None:
    """'set'/'dict' when iterating ``expr`` has no guaranteed order.

    Dict views are insertion-ordered in python 3.7+, but kernel code
    reached through differently-ordered call paths (warm vs cold, batch
    vs serial) inserts in different orders — accumulating over them
    still breaks the bitwise-equality guarantees, so they count.
    """
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(expr, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return "set"
        if isinstance(func, ast.Name) and func.id == "dict":
            return "dict"
        if isinstance(func, ast.Attribute) and func.attr in (
            "keys",
            "values",
            "items",
        ):
            return "dict"
    return None


@register_rule
class NondeterministicReductionRule(Rule):
    """No numeric accumulation over unordered iteration in kernels."""

    code = "RPL401"
    name = "deterministic-reduction"
    summary = (
        "no sum()/+= accumulation over set/dict iteration order in "
        "kernel modules"
    )
    invariant = (
        "batched == serial and warm == cold require "
        "order-independent reductions (the PR-4 pairwise standard)"
    )
    domains = frozenset({"src"})

    #: Module prefixes counted as kernel code.
    KERNEL_PREFIXES = ("repro.core", "repro.solvers")

    def begin_file(self, ctx: LintContext) -> None:
        self._kernel = ctx.module.startswith(self.KERNEL_PREFIXES)

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        if not self._kernel:
            return
        dotted = dotted_name(node.func)
        if dotted not in ("sum", "np.sum", "numpy.sum", "math.fsum"):
            return
        if not node.args:
            return
        arg = node.args[0]
        kind = _is_unordered_iterable(arg)
        if kind is None and isinstance(
            arg, (ast.GeneratorExp, ast.ListComp)
        ):
            kind = _is_unordered_iterable(arg.generators[0].iter)
        if kind is not None:
            ctx.report(
                self.code,
                node,
                f"'{dotted}' accumulates over {kind} iteration order, "
                "which is not reproducible across call paths; sort the "
                "elements (or use the pairwise reduction standard)",
            )

    def visit_For(self, node: ast.For, ctx: LintContext) -> None:
        if not self._kernel:
            return
        kind = _is_unordered_iterable(node.iter)
        if kind is None:
            return
        for sub in node.body:
            for inner in ast.walk(sub):
                if isinstance(inner, ast.AugAssign) and isinstance(
                    inner.op, (ast.Add, ast.Sub, ast.Mult)
                ):
                    ctx.report(
                        self.code,
                        inner,
                        f"accumulation (+=) inside a loop over {kind} "
                        "iteration order is not reproducible across "
                        "call paths; sort the elements first",
                    )
                    return


# ----------------------------------------------------------------------
# RPL501 — frozen contract mutation
# ----------------------------------------------------------------------


#: Frozen result contracts and their defining modules (the only places
#: allowed to __setattr__ them, e.g. in __post_init__).
FROZEN_CONTRACTS: dict[str, str] = {
    "SolveResult": "repro.engine.result",
    "PublishedPolicy": "repro.serve.store",
}


@register_rule
class FrozenContractRule(Rule):
    """Published result records are immutable outside their modules."""

    code = "RPL501"
    name = "frozen-contract"
    summary = (
        "no attribute writes or object.__setattr__ on SolveResult/"
        "PublishedPolicy outside their defining modules"
    )
    invariant = (
        "cached and served results are shared across threads and "
        "versions; mutation anywhere would corrupt every reader"
    )
    domains = frozenset({"src", "benchmarks", "examples", "other"})

    def begin_file(self, ctx: LintContext) -> None:
        self._exempt = ctx.module in FROZEN_CONTRACTS.values()
        self._scopes: list[dict[str, str]] = [{}]

    # -- local type tracking -------------------------------------------

    def _enter_def(self, node, ctx: LintContext) -> None:
        scope: dict[str, str] = {}
        args = getattr(node, "args", None)
        if args is not None:
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                cls = self._annotation_contract(arg.annotation)
                if cls is not None:
                    scope[arg.arg] = cls
        self._scopes.append(scope)

    def _leave_def(self, node, ctx: LintContext) -> None:
        self._scopes.pop()

    visit_FunctionDef = _enter_def
    visit_AsyncFunctionDef = _enter_def
    visit_Lambda = _enter_def
    leave_FunctionDef = _leave_def
    leave_AsyncFunctionDef = _leave_def
    leave_Lambda = _leave_def

    @staticmethod
    def _annotation_contract(annotation: ast.AST | None) -> str | None:
        if isinstance(annotation, ast.Name):
            return (
                annotation.id if annotation.id in FROZEN_CONTRACTS else None
            )
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            name = annotation.value.strip()
            return name if name in FROZEN_CONTRACTS else None
        return None

    def _contract_of(self, expr: ast.AST) -> str | None:
        """Contract class name when ``expr`` is known to be an instance."""
        if isinstance(expr, ast.Name):
            for scope in reversed(self._scopes):
                if expr.id in scope:
                    return scope[expr.id]
            return None
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id in FROZEN_CONTRACTS:
                return expr.func.id
        return None

    def visit_Assign(self, node: ast.Assign, ctx: LintContext) -> None:
        # Track `r = SolveResult(...)` / record attribute writes.
        if self._exempt:
            return
        value_cls = self._contract_of(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name) and value_cls is not None:
                self._scopes[-1][target.id] = value_cls
            elif isinstance(target, ast.Attribute):
                cls = self._contract_of(target.value)
                if cls is not None:
                    ctx.report(
                        self.code,
                        node,
                        f"assigns attribute '{target.attr}' on a frozen "
                        f"{cls}; build a new record with "
                        "dataclasses.replace instead",
                    )

    def visit_AnnAssign(
        self, node: ast.AnnAssign, ctx: LintContext
    ) -> None:
        if isinstance(node.target, ast.Name):
            cls = self._annotation_contract(node.annotation)
            if cls is not None:
                self._scopes[-1][node.target.id] = cls

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        if self._exempt:
            return
        if dotted_name(node.func) != "object.__setattr__" or not node.args:
            return
        target = node.args[0]
        cls = self._contract_of(target)
        if cls is None and (
            isinstance(target, ast.Name)
            and target.id == "self"
            and ctx.current_class in FROZEN_CONTRACTS
        ):
            cls = ctx.current_class
        if cls is not None:
            ctx.report(
                self.code,
                node,
                f"object.__setattr__ on a frozen {cls} outside "
                f"{FROZEN_CONTRACTS[cls]}; the record is shared and "
                "must stay immutable",
            )


# ----------------------------------------------------------------------
# RPL601 — registry contract
# ----------------------------------------------------------------------


#: Sim plugin registries and the protocol methods their classes must
#: expose (see the Protocols in repro/sim/simulator.py).
SIM_REGISTRY_METHODS: dict[str, tuple[str, ...]] = {
    "EVENT_SOURCES": ("counts",),
    "ESTIMATORS": ("observe", "model"),
    "ADVERSARIES": ("choose",),
}


@register_rule
class RegistryContractRule(Rule):
    """Registered solvers and sim plugins honor their protocols."""

    code = "RPL601"
    name = "registry-contract"
    summary = (
        "@register_solver funcs take (game, scenarios, config, *, "
        "cache); sim plugin classes expose their protocol methods"
    )
    invariant = (
        "the engine and simulator dispatch by name; a registrant with "
        "the wrong shape fails at solve time, not import time"
    )
    domains = frozenset({"src"})

    def begin_file(self, ctx: LintContext) -> None:
        # class name -> (base names, method names); registered classes
        # and decorator-named config classes are validated in
        # finish_file, once every in-file base has been collected.
        self._classes: dict[str, tuple[set[str], set[str]]] = {}
        self._pending_configs: list[tuple[str, ast.AST]] = []
        self._pending_classes: list[tuple[ast.ClassDef, str]] = []

    # -- collection ----------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef, ctx: LintContext) -> None:
        bases = {
            base.id if isinstance(base, ast.Name) else base.attr
            for base in node.bases
            if isinstance(base, (ast.Name, ast.Attribute))
        }
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self._classes[node.name] = (bases, methods)
        for decorator in node.decorator_list:
            kind = self._decorator_kind(decorator)
            if kind == "solver":
                self._note_config(decorator)
            if kind is not None:
                self._pending_classes.append((node, kind))

    def visit_FunctionDef(
        self, node: ast.FunctionDef, ctx: LintContext
    ) -> None:
        for decorator in node.decorator_list:
            if self._decorator_kind(decorator) == "solver":
                self._check_solver_func(node, decorator, ctx)

    def _resolved_methods(
        self, name: str, _seen: frozenset[str] = frozenset()
    ) -> set[str] | None:
        """All methods of an in-file class, following in-file bases.

        ``None`` means the MRO leaves the file (an imported base could
        supply anything), so absence of a method cannot be proven.
        """
        if name in _seen:
            return set()  # cyclic bases: syntactically possible, inert
        entry = self._classes.get(name)
        if entry is None:
            return None
        bases, methods = entry
        resolved = set(methods)
        for base in bases:
            if base in ("object", "Protocol", "ABC", "Generic"):
                continue
            inherited = self._resolved_methods(
                base, _seen | frozenset({name})
            )
            if inherited is None:
                return None
            resolved |= inherited
        return resolved

    def finish_file(self, ctx: LintContext) -> None:
        for node, kind in self._pending_classes:
            if kind == "solver":
                self._check_solver_class(node, ctx)
            else:
                self._check_plugin_class(node, kind, ctx)
        for config_name, node in self._pending_configs:
            entry = self._classes.get(config_name)
            if entry is None:
                continue  # imported config; checked where it is defined
            bases, methods = entry
            inherits_config = any(b.endswith("Config") for b in bases)
            if not inherits_config and "from_dict" not in methods:
                ctx.report(
                    self.code,
                    node,
                    f"config class '{config_name}' neither subclasses "
                    "SolverConfig nor defines from_dict; CLI k=v "
                    "dispatch cannot construct it",
                )

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _decorator_kind(decorator: ast.AST) -> str | None:
        """'solver', a sim registry name, or None."""
        if not isinstance(decorator, ast.Call):
            return None
        func = decorator.func
        if isinstance(func, ast.Name) and func.id == "register_solver":
            return "solver"
        if isinstance(func, ast.Attribute):
            if func.attr == "register_solver":
                return "solver"
            if func.attr == "register" and isinstance(
                func.value, ast.Name
            ):
                if func.value.id in SIM_REGISTRY_METHODS:
                    return func.value.id
        return None

    def _note_config(self, decorator: ast.Call) -> None:
        for keyword in decorator.keywords:
            if keyword.arg == "config" and isinstance(
                keyword.value, ast.Name
            ):
                self._pending_configs.append(
                    (keyword.value.id, decorator)
                )

    def _check_solver_func(
        self,
        node: ast.FunctionDef,
        decorator: ast.Call,
        ctx: LintContext,
    ) -> None:
        self._note_config(decorator)
        positional = list(node.args.posonlyargs) + list(node.args.args)
        if len(positional) < 3:
            ctx.report(
                self.code,
                node,
                f"solver '{node.name}' must accept (game, scenarios, "
                f"config) positionally; it takes {len(positional)}",
            )
        kwonly = {arg.arg for arg in node.args.kwonlyargs}
        if "cache" not in kwonly and node.args.kwarg is None:
            ctx.report(
                self.code,
                node,
                f"solver '{node.name}' must accept the keyword-only "
                "'cache' argument (or **kwargs); the engine always "
                "passes its FixedSolveCache",
            )

    def _check_solver_class(
        self, node: ast.ClassDef, ctx: LintContext
    ) -> None:
        methods = self._resolved_methods(node.name)
        if methods is None:
            return  # imported base may provide __call__
        if "__call__" not in methods and "solve" not in methods:
            ctx.report(
                self.code,
                node,
                f"registered solver class '{node.name}' defines "
                "neither __call__ nor solve; the registry dispatches "
                "it as a callable",
            )

    def _check_plugin_class(
        self, node: ast.ClassDef, registry: str, ctx: LintContext
    ) -> None:
        methods = self._resolved_methods(node.name)
        if methods is None:
            return  # imported base may provide the protocol methods
        missing = [
            m for m in SIM_REGISTRY_METHODS[registry] if m not in methods
        ]
        if missing:
            ctx.report(
                self.code,
                node,
                f"{registry} plugin '{node.name}' is missing protocol "
                f"method(s) {', '.join(missing)}; the simulator calls "
                "them every period",
            )


# ----------------------------------------------------------------------
# RPL701 — telemetry in kernel hot loops
# ----------------------------------------------------------------------


#: Call patterns (fnmatch over the normalized dotted target) that record
#: telemetry.  Free when disabled, but even the ``if not _enabled``
#: check costs a call frame — inside the kernels' innermost loops that
#: is measurable, so those modules count with plain ints and emit at
#: the boundary (see ``SimplexSolver.solve`` / ``PalTable._build``).
TELEMETRY_CALL_PATTERNS: tuple[str, ...] = (
    "obs.*",
    "*.obs.*",
    "metrics.*",
    "*.metrics.*",
    "span",
    "counter",
    "gauge",
    "observe",
    "get_registry",
)


@register_rule
class TelemetryInHotLoopRule(Rule):
    """Keep :mod:`repro.obs` calls out of the kernel inner loops."""

    code = "RPL701"
    name = "telemetry-in-hot-loop"
    summary = (
        "no obs.counter/gauge/observe/span calls inside loops of the "
        "PalTable DP and simplex kernels"
    )
    invariant = (
        "the <2% disabled-telemetry overhead bound "
        "(benchmarks/bench_obs_overhead.py) holds because hot loops "
        "count with plain ints and emit once at the solve()/build() "
        "boundary"
    )
    domains = frozenset({"src"})

    #: Modules whose loops are the measured hot paths.
    HOT_MODULES = (
        "repro.core.kernels",
        "repro.core.pal_table",
        "repro.solvers.lp.simplex",
    )

    def begin_file(self, ctx: LintContext) -> None:
        self._hot = ctx.module in self.HOT_MODULES
        self._loop_depth = 0
        self._barriers: list[int] = []

    # -- loop depth, with function defs as barriers ----------------------

    def _enter_loop(self, node, ctx: LintContext) -> None:
        self._loop_depth += 1

    def _leave_loop(self, node, ctx: LintContext) -> None:
        self._loop_depth -= 1

    visit_For = _enter_loop
    visit_AsyncFor = _enter_loop
    visit_While = _enter_loop
    leave_For = _leave_loop
    leave_AsyncFor = _leave_loop
    leave_While = _leave_loop

    def _enter_def(self, node, ctx: LintContext) -> None:
        # A def inside a loop body runs when *called*, not per
        # iteration; its own body starts at depth 0.
        self._barriers.append(self._loop_depth)
        self._loop_depth = 0

    def _leave_def(self, node, ctx: LintContext) -> None:
        self._loop_depth = self._barriers.pop()

    visit_FunctionDef = _enter_def
    visit_AsyncFunctionDef = _enter_def
    visit_Lambda = _enter_def
    leave_FunctionDef = _leave_def
    leave_AsyncFunctionDef = _leave_def
    leave_Lambda = _leave_def

    # -- the check -------------------------------------------------------

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        if not self._hot or self._loop_depth == 0:
            return
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        target = normalized(dotted)
        for pattern in TELEMETRY_CALL_PATTERNS:
            if fnmatchcase(target, pattern):
                ctx.report(
                    self.code,
                    node,
                    f"telemetry call '{target}' inside a loop of a "
                    "measured kernel; count with a plain attribute and "
                    "emit at the solve()/build() boundary instead",
                )
                return


# ----------------------------------------------------------------------
# RPL801 — swallowed exceptions in the fault-tolerant packages
# ----------------------------------------------------------------------


@register_rule
class SwallowedExceptionRule(Rule):
    """Broad handlers in engine/serve/solvers must re-raise or count.

    The fault-tolerance layer (``repro.faults``) makes degradation a
    deliberate, observable act: every fallback path increments an obs
    counter so chaos runs and production dashboards can see it happen.
    A broad ``except Exception`` that neither re-raises nor records
    telemetry hides failures instead — under fault injection it would
    make a dying subsystem look healthy.
    """

    code = "RPL801"
    name = "swallowed-exception"
    summary = (
        "broad except handlers in repro.{engine,serve,solvers} must "
        "re-raise or increment an obs/metrics counter"
    )
    invariant = (
        "every degradation path is observable: chaos tests and the "
        "serve dashboards can count injected failures because no broad "
        "handler in the fault-tolerant packages swallows silently"
    )
    domains = frozenset({"src"})

    #: Packages where broad handlers are policed — exactly the layers
    #: the fault-injection points (repro.faults.KNOWN_POINTS) fire in.
    POLICED_PREFIXES = ("repro.engine", "repro.serve", "repro.solvers")

    #: Names accepted as "broad" in an ``except <type>`` clause.
    BROAD_NAMES = frozenset({"Exception", "BaseException"})

    def begin_file(self, ctx: LintContext) -> None:
        self._policed = ctx.module is not None and ctx.module.startswith(
            self.POLICED_PREFIXES
        )

    def _is_broad(self, type_expr: ast.AST | None) -> bool:
        if type_expr is None:  # bare except:
            return True
        if isinstance(type_expr, ast.Tuple):
            return any(self._is_broad(el) for el in type_expr.elts)
        dotted = dotted_name(type_expr)
        if dotted is None:
            return False
        return dotted.rsplit(".", 1)[-1] in self.BROAD_NAMES

    def _is_telemetry_call(self, node: ast.Call) -> bool:
        dotted = dotted_name(node.func)
        if dotted is None:
            return False
        target = normalized(dotted)
        return any(
            fnmatchcase(target, pattern)
            for pattern in TELEMETRY_CALL_PATTERNS
        )

    def visit_ExceptHandler(
        self, node: ast.ExceptHandler, ctx: LintContext
    ) -> None:
        if not self._policed or not self._is_broad(node.type):
            return
        for stmt in node.body:
            for child in ast.walk(stmt):
                if isinstance(child, ast.Raise):
                    return
                if isinstance(child, ast.Call) and self._is_telemetry_call(
                    child
                ):
                    return
        ctx.report(
            self.code,
            node,
            "broad except handler swallows the failure; re-raise or "
            "record it on an obs/metrics counter so degradation stays "
            "observable",
        )
