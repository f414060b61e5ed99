"""The declared lock hierarchy stays consistent — with itself and with
the real classes it describes."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.devtools import lock_hierarchy

REPO = Path(__file__).resolve().parents[2]


class TestDeclaration:
    def test_ranks_and_names_are_unique(self):
        ranks = [spec.rank for spec in lock_hierarchy.LOCKS]
        names = [spec.name for spec in lock_hierarchy.LOCKS]
        assert len(set(ranks)) == len(ranks)
        assert len(set(names)) == len(names)

    def test_owner_attr_pairs_are_unique(self):
        pairs = [
            (spec.owner, spec.attr) for spec in lock_hierarchy.LOCKS
        ]
        assert len(set(pairs)) == len(pairs)

    def test_acquiring_methods_target_declared_locks(self):
        names = {spec.name for spec in lock_hierarchy.LOCKS}
        for method, target in lock_hierarchy.ACQUIRING_METHODS.items():
            assert target in names, f"{method} -> unknown lock {target}"

    def test_lock_for_resolution(self):
        assert lock_hierarchy.lock_for("AuditEngine", "_lock").rank == 20
        assert (
            lock_hierarchy.lock_for("FixedSolveCache", "_lock").rank == 30
        )
        # `_resolve_lock` is unique across the hierarchy: resolvable
        # even when the receiver's class is unknown.
        assert lock_hierarchy.lock_for("", "_resolve_lock").rank == 5
        # `_lock` is not: unknown receiver stays unresolved.
        assert lock_hierarchy.lock_for("", "_lock") is None
        assert lock_hierarchy.lock_for("Whatever", "_nope") is None

    def test_render_lists_every_lock(self):
        rendered = lock_hierarchy.render_hierarchy()
        for spec in lock_hierarchy.LOCKS:
            assert spec.name in rendered
            assert spec.attr in rendered


class TestRealityCheck:
    """Every declared lock exists: owner class assigns self.<attr>."""

    def _lock_assignments(self):
        found = set()
        for path in (REPO / "src" / "repro").rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for node in ast.walk(cls):
                    if not isinstance(node, ast.Assign):
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            found.add((cls.name, target.attr))
        return found

    def test_every_declared_lock_is_assigned_by_its_owner(self):
        assignments = self._lock_assignments()
        for spec in lock_hierarchy.LOCKS:
            assert (spec.owner, spec.attr) in assignments, (
                f"{spec.name}: {spec.owner}.{spec.attr} is declared in "
                "the hierarchy but never assigned in src/repro"
            )
