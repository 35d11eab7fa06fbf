"""Exact stack-distance (reuse-distance) profiling.

Implements the classic stack algorithm (Conte et al. [20], Mattson): the
stack distance of a reference — the distinct lines touched since the
previous reference to its line — yields the miss count of *every*
fully-associative LRU capacity, the property that makes miss-rate-curve
collection two orders of magnitude cheaper than timing simulation.

:func:`previous_occurrences` and :func:`stack_distances` count offline on
a whole stream held as arrays (what the collector runs).
:class:`StackDistanceProfiler` takes one reference at a time, keeping a
Fenwick (binary indexed) tree over stream positions with a 1 at the last
occurrence of each line: the streaming API, and the oracle the array pass
is tested against.  :func:`lru_misses` simulates an LRU cache per
capacity instead, sharing none of that code: the collector's independent
exact reference.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.exceptions import PredictionError

#: Histogram bucket index used for cold (first-reference) accesses.
COLD = -1


def previous_occurrences(keys: np.ndarray) -> np.ndarray:
    """Position of the previous reference to the same key, ``COLD`` if none:
    one sort of the distinct ``(key - min) << b | position`` (keys too far
    apart for an int64 are ranked first), equal keys in stream order."""
    previous = np.full(len(keys), COLD, dtype=np.int32)
    if len(keys) < 2:
        return previous
    shift = (len(keys) - 1).bit_length()
    low = int(keys.min())
    if (int(keys.max()) - low).bit_length() + shift > 63:
        keys, low = np.unique(keys, return_inverse=True)[1], 0
    packed = np.subtract(keys, low, dtype=np.int64)
    packed <<= shift
    packed |= np.arange(len(keys))
    packed.sort()
    position = packed & ((1 << shift) - 1)
    packed >>= shift
    same = packed[1:] == packed[:-1]
    previous[position[1:][same]] = position[:-1][same]
    return previous


def stack_distances(previous: np.ndarray) -> np.ndarray:
    """Stack distance of every reference of a stream (``COLD`` for first
    references), given its :func:`previous_occurrences`.

    Of the references between ``i`` and the previous one ``p`` to its
    line, those repeating a line already touched in between add nothing,
    and ``j`` is such a repeat exactly when ``previous[j]`` lies in
    between too (which already implies ``j > p``):

        distance(i) = (i - p - 1) - #{j < i : previous[j] > p}
    """
    warm = np.flatnonzero(previous >= 0)
    last = previous[warm]
    # Non-cold references have distinct ``previous``: rank them 0..m-1.
    is_last = np.zeros(len(previous), dtype=bool)
    is_last[last] = True
    rank = np.cumsum(is_last, dtype=np.int32)[last] - 1
    distances = np.full(len(previous), COLD, dtype=np.int32)
    distances[warm] = warm - last - 1 - _earlier_greater(rank)
    return distances


def _earlier_greater(values: np.ndarray) -> np.ndarray:
    """``#{j < i : values[j] > values[i]}`` for a permutation of ``0..m-1``,
    in O(m log m) array operations.

    An MSB-first radix sort that counts as it goes: each level splits
    every bucket (values sharing the bits above) on the next bit, keeping
    stream order, and a value with a 0 there is smaller than exactly the
    earlier values of its bucket with a 1.  The values being a
    permutation, a bucket is an aligned block of slots with as many zeros
    as ones (the last may lack ones only), so ranks within a bucket follow
    from ranks within the whole arrangement by arithmetic.
    """
    # 32-bit state: half the memory traffic (streams are far below 2**29).
    slots = np.arange(len(values), dtype=np.int32)
    counts = np.zeros(len(values), dtype=np.int32)
    arranged = values
    for bit in range((len(values) - 1).bit_length() - 1, -1, -1):
        one = (arranged >> bit) & 1
        ones_before = np.cumsum(one, dtype=np.int32) - one
        # Ones, and zeros, in the buckets before this slot's bucket.
        target = (slots >> (bit + 1)) << bit
        counts += (one ^ 1) * (ones_before - target)
        # Zeros move to the front of their bucket, ones behind the zeros.
        target += slots - ones_before
        target += one * ((1 << bit) + 2 * ones_before - slots)
        target = target.astype(np.intp)
        moved, moved_counts = np.empty_like(arranged), np.empty_like(counts)
        moved[target] = arranged
        moved_counts[target] = counts
        arranged, counts = moved, moved_counts
    return counts[values]  # the arrangement ends sorted: slot v holds value v


class FenwickTree:
    """A Fenwick tree over positions 1..n supporting point add and prefix
    sum, doubling as positions beyond ``n`` are touched.

    Nodes are plain Python ints in a list (NumPy scalars cost several
    times more per scalar operation), and ``n`` is kept a power of two:
    doubling then only has to append zeros and set the new root, because
    every other new node covers new (empty) positions only.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self._size = 2
        while self._size < capacity:
            self._size *= 2
        self._tree = [0] * (self._size + 1)

    def _grow(self, needed: int) -> None:
        tree = self._tree
        while self._size < needed:
            total = tree[self._size]  # the root covers 1..size
            tree.extend([0] * self._size)
            self._size *= 2
            tree[self._size] = total

    def add(self, index: int, delta: int) -> None:
        if index < 1:
            raise PredictionError(f"Fenwick index must be >= 1, got {index}")
        if index > self._size:
            self._grow(index)
        tree = self._tree
        size = self._size
        while index <= size:
            tree[index] += delta
            index += index & -index

    def prefix_sum(self, index: int) -> int:
        """Sum of values at positions 1..index."""
        if index < 0:
            raise PredictionError(f"Fenwick index must be >= 0, got {index}")
        index = min(index, self._size)
        total = 0
        tree = self._tree
        while index > 0:
            total += tree[index]
            index -= index & -index
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of values at positions lo..hi inclusive."""
        if lo > hi:
            return 0
        return self.prefix_sum(hi) - self.prefix_sum(lo - 1)


class StackDistanceProfiler:
    """Streaming exact stack-distance histogram.

    Feed line addresses with :meth:`access` (or :meth:`consume`); read
    misses for any capacity with :meth:`misses_at` once done.
    """

    def __init__(self, expected_length: int = 1 << 16) -> None:
        self._fenwick = FenwickTree(expected_length)
        self._last_pos: Dict[int, int] = {}
        self._pos = 0
        self._histogram: Dict[int, int] = {}
        self.cold_misses = 0
        self.accesses = 0

    def access(self, line: int) -> int:
        """Record one access; returns its stack distance (or ``COLD``)."""
        self._pos += 1
        pos = self._pos
        self.accesses += 1
        last = self._last_pos.get(line)
        if last is None:
            distance = COLD
            self.cold_misses += 1
        else:
            # Distinct lines touched strictly between the two accesses:
            # count of "last occurrence" markers in (last, pos).  Every
            # marker sits before pos, one per distinct line seen so far.
            distance = len(self._last_pos) - self._fenwick.prefix_sum(last)
            self._histogram[distance] = self._histogram.get(distance, 0) + 1
            self._fenwick.add(last, -1)
        self._fenwick.add(pos, 1)
        self._last_pos[line] = pos
        return distance

    def consume(self, lines: Iterable[int]) -> None:
        for line in lines:
            self.access(line)

    @property
    def distinct_lines(self) -> int:
        return len(self._last_pos)

    def histogram(self) -> Dict[int, int]:
        """Stack-distance histogram (cold misses excluded)."""
        return dict(self._histogram)

    def misses_at(self, capacity_lines: int) -> int:
        """Misses of a fully-associative LRU cache of ``capacity_lines``.

        An access with stack distance d hits iff d < capacity; cold
        accesses always miss.
        """
        if capacity_lines < 0:
            raise PredictionError(
                f"capacity must be non-negative, got {capacity_lines}"
            )
        conflict = sum(
            count
            for distance, count in self._histogram.items()
            if distance >= capacity_lines
        )
        return conflict + self.cold_misses

    def miss_curve(self, capacities_lines: Sequence[int]) -> List[int]:
        """Miss counts at several capacities — still from the single pass."""
        return [self.misses_at(c) for c in capacities_lines]

    def miss_ratio_at(self, capacity_lines: int) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses_at(capacity_lines) / self.accesses


def lru_misses(lines: Sequence[int], capacities_lines: Sequence[int]) -> List[int]:
    """Exact fully-associative LRU miss counts of ``lines`` at each capacity.

    The collector's ``"lru"`` method, the reference for ``"stack"``: it
    shares no code with :class:`StackDistanceProfiler` or
    :func:`stack_distances`.  One pass per capacity over one
    ``OrderedDict``, so only one cache is alive at a time and both a hit
    (``move_to_end``) and an eviction (``popitem(last=False)``) cost O(1).
    A plain ``dict`` would not: ``del d[next(iter(d))]`` leaves a dummy
    slot at the front of the entries array until the next resize, and
    every later ``next(iter(d))`` walks past all of them, O(capacity) per
    eviction.  The stream is read in 4,096-line ``tolist()`` chunks,
    which bounds the Python ints alive.
    """
    if not capacities_lines:
        raise PredictionError("need at least one capacity")
    if any(c < 1 for c in capacities_lines):
        raise PredictionError(f"capacities must be >= 1: {capacities_lines}")
    stream = np.asarray(lines, dtype=np.int64)
    misses = []
    for capacity in capacities_lines:
        cache: OrderedDict[int, None] = OrderedDict()
        hit, evict = cache.move_to_end, cache.popitem
        count = 0
        for first in range(0, len(stream), 4096):
            for line in stream[first : first + 4096].tolist():
                if line in cache:
                    hit(line)
                else:
                    count += 1
                    if len(cache) >= capacity:
                        evict(last=False)
                    cache[line] = None
        misses.append(count)
    return misses
