"""Immutable sorted string tables.

An SSTable is a sorted, immutable run of entries (values or tombstones)
with a smallest/largest key, a Bloom filter over its keys, and byte-size
accounting.  Lookups bisect the in-memory entry list, standing in for
the index-block + data-block path of a real table while preserving the
costs the analyses care about.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.kvstore.lsm.memtable import TOMBSTONE, Entry

_table_ids = itertools.count(1)


class BloomFilter:
    """Small double-hashed Bloom filter over byte keys: probe ``i`` of a
    key is bit ``(h1 + i * h2) % size``, stepped incrementally below."""

    def __init__(self, expected: int, bits_per_key: int = 10) -> None:
        self._size = max(64, expected * bits_per_key)
        self._num_hashes = max(1, int(bits_per_key * 0.69))
        self._bits = bytearray((self._size + 7) // 8)

    def add_all(self, keys: Iterable[bytes]) -> None:
        bits, size, probes = self._bits, self._size, range(self._num_hashes)
        for key in keys:
            pos = hash(key) % size
            step = hash(key[::-1] + b"\x00") % size
            for _ in probes:
                bits[pos >> 3] |= 1 << (pos & 7)
                pos += step
                if pos >= size:
                    pos -= size

    def may_contain(self, key: bytes) -> bool:
        bits, size = self._bits, self._size
        pos = hash(key) % size
        step = hash(key[::-1] + b"\x00") % size
        for _ in range(self._num_hashes):
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            pos += step
            if pos >= size:
                pos -= size
        return True


class SSTable:
    """Immutable sorted run with Bloom filter and size accounting."""

    def __init__(self, entries: Iterable[tuple[bytes, Entry]]) -> None:
        """``entries``: any iterable sorted by key with no duplicates, read once."""
        self.table_id = next(_table_ids)
        self._keys = keys = []
        self._entries = values = []
        data_bytes = 0
        tombstones = 0
        for key, entry in entries:
            keys.append(key)
            values.append(entry)
            data_bytes += len(key)
            if entry is TOMBSTONE:
                tombstones += 1
            else:
                data_bytes += len(entry)  # type: ignore[arg-type]
        self.data_bytes = data_bytes
        self.num_tombstones = tombstones
        self._bloom = BloomFilter(len(keys) or 1)
        self._bloom.add_all(keys)

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def smallest(self) -> Optional[bytes]:
        return self._keys[0] if self._keys else None

    @property
    def largest(self) -> Optional[bytes]:
        return self._keys[-1] if self._keys else None

    def key_in_range(self, key: bytes) -> bool:
        if not self._keys:
            return False
        return self._keys[0] <= key <= self._keys[-1]

    def may_contain(self, key: bytes) -> bool:
        """Bloom + range pre-check; False means definitely absent."""
        return self.key_in_range(key) and self._bloom.may_contain(key)

    def get(self, key: bytes) -> Optional[Entry]:
        """Value bytes, TOMBSTONE, or None when absent from this table."""
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return self._entries[index]
        return None

    def entries(self) -> Iterator[tuple[bytes, Entry]]:
        return zip(self._keys, self._entries)

    def iter_range(
        self, start: bytes, end: Optional[bytes]
    ) -> Iterator[tuple[bytes, Entry]]:
        index = bisect.bisect_left(self._keys, start)
        while index < len(self._keys):
            key = self._keys[index]
            if end is not None and key >= end:
                return
            yield key, self._entries[index]
            index += 1

    def overlaps(self, smallest: bytes, largest: bytes) -> bool:
        """Whether this table's key range intersects [smallest, largest]."""
        if not self._keys:
            return False
        return not (self._keys[-1] < smallest or self._keys[0] > largest)

    def spans(self, start: bytes, end: Optional[bytes]) -> bool:
        """Whether this table's key range intersects the scan range [start, end)."""
        keys = self._keys
        return bool(keys) and keys[-1] >= start and (end is None or keys[0] < end)


@dataclass
class MergeDrops:
    """What a merge left out; filled in once the merge is exhausted."""

    tombstones: int = 0
    stale: int = 0


def merge_runs(
    runs: Iterable[Iterable[tuple[bytes, Entry]]],
    drop_tombstones: bool,
    drops: Optional[MergeDrops] = None,
) -> Iterator[tuple[bytes, Entry]]:
    """Lazy k-way merge of sorted runs, newest run first.

    Yields ``(key, entry)`` in key order, reading the runs only as far
    as the consumer reads the merge.  For duplicate keys the entry from
    the earliest run in ``runs`` wins (callers order runs newest-first);
    tombstones are left out only when ``drop_tombstones`` (bottom-level
    compaction, user scans).
    """
    iters = [iter(run) for run in runs]
    heap: list[tuple[bytes, int, Entry]] = []
    for run_index, it in enumerate(iters):
        first = next(it, None)
        if first is not None:
            heap.append((first[0], run_index, first[1]))
    heapq.heapify(heap)
    heappop, heapreplace = heapq.heappop, heapq.heapreplace

    tombstones_dropped = stale_dropped = 0
    current_key: Optional[bytes] = None
    while heap:
        key, run_index, entry = heap[0]
        nxt = next(iters[run_index], None)
        if nxt is None:
            heappop(heap)
        else:
            heapreplace(heap, (nxt[0], run_index, nxt[1]))
        if key == current_key:
            stale_dropped += 1
            continue
        current_key = key
        if entry is TOMBSTONE and drop_tombstones:
            tombstones_dropped += 1
        else:
            yield key, entry
    if drops is not None:
        drops.tombstones, drops.stale = tombstones_dropped, stale_dropped
