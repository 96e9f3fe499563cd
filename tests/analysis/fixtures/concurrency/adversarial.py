"""Adversarial cases: the analyzer must degrade gracefully, not guess.

Everything in this file is required to scan CLEAN for the concurrency
rules: a dynamically-fetched lock attribute is neither guarded nor
unguarded evidence, and a lock received as a parameter still exempts the
accesses under it (without entering the global lock-order graph).
"""

import threading


class DynamicLock:
    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def read(self):
        with self._lock:
            return self._value

    def reset(self):
        with self._lock:
            self._value = 0

    def dynamic_read(self):
        with getattr(self, "_lock"):  # dynamic attribute: no evidence
            return self._value


def guarded_update(lock, store, key):
    with lock:  # lock passed as argument: exempts, never ordered
        store[key] = key
    return store
