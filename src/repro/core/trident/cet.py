"""Choke Error Table (CET): Trident's EID store.

A RAM-organised table of Error IDs with parallel lookup and pseudo-LRU
replacement (§4.3.5).  The hardware probes through a Bloom filter; the
dict probe here is its exact software equivalent.  The lookup key is the instruction
context (initialising opcode, sensitising opcode, operand size classes,
pipestage); the payload is the error class, which tells the CDC how many
stall cycles the avoidance mechanism must insert.
"""

from __future__ import annotations

from repro.core.plru import PseudoLRUTree
from repro.core.tags import ErrorId


class ChokeErrorTable:
    """Capacity-bounded EID table with pseudo-LRU replacement."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1 or capacity & (capacity - 1):
            raise ValueError(f"capacity must be a power of two, got {capacity}")
        self.capacity = capacity
        self._slots: list[tuple | None] = [None] * capacity
        self._index: dict[tuple, int] = {}  # key -> slot
        self._classes: dict[tuple, int] = {}  # key -> stored error class
        self._plru = PseudoLRUTree(capacity)
        self.unique_insertions = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._index)

    def lookup(self, key: tuple) -> int | None:
        """Probe for an EID; returns its stored error class, or ``None``.

        A hit marks the entry recently used (it is about to save a
        recovery, the most valuable kind of entry).
        """
        slot = self._index.get(key)
        if slot is None:
            return None
        self._plru.touch(slot)
        return self._classes[key]

    def insert(self, eid: ErrorId) -> None:
        """Record a detected error; updates the class of an existing key.

        If a context re-errs with a different (e.g. escalated) class, the
        stored class is replaced so future stalls match the new severity.
        """
        key = eid.key
        if key in self._index:
            self._classes[key] = eid.err_class
            self._plru.touch(self._index[key])
            return
        self.unique_insertions += 1
        if len(self._index) < self.capacity:
            slot = next(i for i, entry in enumerate(self._slots) if entry is None)
        else:
            slot = self._plru.victim()
            victim = self._slots[slot]
            if victim is not None:
                del self._index[victim]
                del self._classes[victim]
                self.evictions += 1
        self._slots[slot] = key
        self._index[key] = slot
        self._classes[key] = eid.err_class
        self._plru.touch(slot)

    def keys(self) -> list[tuple]:
        return list(self._index)
