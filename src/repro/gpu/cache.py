"""Set-associative cache with LRU replacement.

Used for both the per-SM L1s and the LLC slices.  The implementation
exploits CPython dict ordering for O(1) LRU: a set is a dict whose keys are
resident line addresses in recency order (oldest first); a hit deletes and
re-inserts the key, a miss evicts the first key when the set is full.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.exceptions import ConfigurationError


class SetAssocCache:
    """A set-associative LRU cache operating on line addresses.

    The cache is indexed by *line number* (byte address divided by line
    size); callers are responsible for that division.  ``num_sets`` may be
    any positive integer — the paper's slice geometry (34 MB over 32
    slices) yields non-power-of-two set counts, so indexing is modulo.
    """

    def __init__(self, num_sets: int, assoc: int, name: str = "cache") -> None:
        if num_sets < 1:
            raise ConfigurationError(f"{name}: num_sets must be >= 1, got {num_sets}")
        if assoc < 1:
            raise ConfigurationError(f"{name}: assoc must be >= 1, got {assoc}")
        self.num_sets = num_sets
        self.assoc = assoc
        self.name = name
        self._sets: List[Dict[int, None]] = [dict() for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.assoc

    def access(self, line: int) -> bool:
        """Look up ``line``; allocate it on a miss.  Returns True on hit."""
        cache_set = self._sets[line % self.num_sets]
        if line in cache_set:
            del cache_set[line]
            cache_set[line] = None
            self.hits += 1
            return True
        self.misses += 1
        if len(cache_set) >= self.assoc:
            del cache_set[next(iter(cache_set))]
        cache_set[line] = None
        return False

    def probe(self, line: int) -> bool:
        """Check residency without updating LRU state or counters."""
        return line in self._sets[line % self.num_sets]

    def fill(self, line: int) -> Optional[int]:
        """Insert ``line`` without counting an access.

        Returns the evicted line, if any.  Used by prefetch-style fills.
        """
        cache_set = self._sets[line % self.num_sets]
        if line in cache_set:
            del cache_set[line]
            cache_set[line] = None
            return None
        victim = None
        if len(cache_set) >= self.assoc:
            victim = next(iter(cache_set))
            del cache_set[victim]
        cache_set[line] = None
        return victim

    def resident_lines(self) -> int:
        """Number of lines currently resident (for occupancy assertions)."""
        return sum(len(s) for s in self._sets)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()
        self.reset_stats()

    # --- boundary state --------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able snapshot: per-set resident lines in LRU order."""
        return {
            "sets": [list(cache_set) for cache_set in self._sets],
            "hits": self.hits,
            "misses": self.misses,
        }

    def __repr__(self) -> str:
        return (
            f"SetAssocCache(name={self.name!r}, sets={self.num_sets}, "
            f"assoc={self.assoc}, hits={self.hits}, misses={self.misses})"
        )
