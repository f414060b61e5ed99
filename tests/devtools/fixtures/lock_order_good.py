"""Good fixture: acquisitions that descend the hierarchy (or don't nest)."""

import threading


class AuditEngine:
    """Name mirrors the real engine class, so ``self._lock`` is rank 20."""

    def __init__(self):
        self._lock = threading.RLock()

    def publish_under_engine(self, store, fingerprint, budget, result):
        with self._lock:  # rank 20 -> publish acquires rank 40: descends
            return store.publish(fingerprint, budget, result)

    def reentrant_is_fine(self):
        with self._lock:
            with self._lock:  # re-acquiring a held RLock
                return None

    def nested_def_is_a_barrier(self):
        with self._lock:
            def later(other):
                with other._resolve_lock:  # runs later, holds nothing
                    return None

            return later


class AuditService:
    def __init__(self):
        self._resolve_lock = threading.RLock()

    def solve_under_resolve_lock(self, engine):
        with self._resolve_lock:  # rank 5 -> solve acquires 20: descends
            return engine.solve("ishm")
