"""Bad fixture: every way to break the declared lock hierarchy."""

import threading


class FixedSolveCache:
    """Name mirrors the real cache class, so ``self._lock`` is rank 30."""

    def __init__(self):
        self._lock = threading.RLock()
        self._resolve_lock = threading.RLock()
        self._stats_lock = threading.Lock()

    def inverted_with(self):
        with self._lock:
            with self._resolve_lock:  # rank 5 under rank 30
                return None

    def unranked_under_ranked(self):
        with self._lock:
            with self._stats_lock:  # not in the hierarchy
                return None

    def solve_under_cache_lock(self, engine):
        with self._lock:
            return engine.solve("ishm")  # acquires rank 20 under 30
