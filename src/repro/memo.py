"""Bounded, thread-safe memo tables for per-process caches.

The netlist layer keeps levelizations, cones, driver tables, gate
programs, native row plans and loaded kernels per process, and a fleet
worker keeps the evaluators and analyzers of the jobs it serves.  Each of
those tables is a :class:`Memo`: a least-recently-used table of at most
``capacity`` entries whose every operation holds one lock.  The service
evaluates on several threads that share these tables, so a lookup whose
key another thread evicts is a plain miss, never an error.

Callers build a missing value outside the lock and :meth:`Memo.put` it;
two threads that miss together may both build, and either value serves.
Values are shared by every caller and must not be mutated.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, NamedTuple, Optional


class MemoInfo(NamedTuple):
    """Snapshot of one memo table."""

    entries: int
    capacity: int
    hits: int
    misses: int
    evictions: int


class Memo:
    """A least-recently-used table of at most ``capacity`` entries.

    Lifetime hit, miss and eviction counts are kept for :meth:`info`;
    :meth:`clear` drops the entries and resets them.  ``None`` is never a
    stored value: :meth:`get` returns it for a miss.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = self._misses = self._evictions = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The value under ``key`` (now most recently used), or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value``, evicting least-recently-used entries past
        capacity."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the counts."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = 0

    def info(self) -> MemoInfo:
        """Entries, capacity and lifetime hit/miss/eviction counts."""
        with self._lock:
            return MemoInfo(
                entries=len(self._entries),
                capacity=self.capacity,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
            )
