"""The LSM merge and Bloom filter as they were before the lazy rewrite.

Test-only: ``repro.kvstore.lsm.sstable`` as of the parent of the
lazy-merge change, word for word — the eager ``merge_runs`` that merges
to the end of every run into a list, and the ``BloomFilter`` that walks
a per-key ``_positions`` generator.  They are the oracle that
``test_lsm_differential.py`` holds the one-pass versions to (same
pairs, same drop counters, same filter bytes, same probe answers).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.kvstore.lsm.memtable import TOMBSTONE, Entry


class BloomFilter:
    """Small double-hashed Bloom filter over byte keys."""

    def __init__(self, expected: int, bits_per_key: int = 10) -> None:
        self._size = max(64, expected * bits_per_key)
        self._num_hashes = max(1, int(bits_per_key * 0.69))
        self._bits = bytearray((self._size + 7) // 8)

    def _positions(self, key: bytes) -> Iterator[int]:
        h1 = hash(key)
        h2 = hash(key[::-1] + b"\x00")
        for i in range(self._num_hashes):
            yield (h1 + i * h2) % self._size

    def add(self, key: bytes) -> None:
        for pos in self._positions(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)

    def may_contain(self, key: bytes) -> bool:
        return all(self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(key))


def merge_runs(
    runs: list[Iterator[tuple[bytes, Entry]]],
    drop_tombstones: bool,
) -> tuple[list[tuple[bytes, Entry]], int, int]:
    """K-way merge of sorted runs, newest run first.

    For duplicate keys the entry from the earliest run in ``runs`` wins
    (callers order runs newest-first).  Returns ``(entries,
    tombstones_dropped, stale_dropped)``; tombstones are removed from
    the output only when ``drop_tombstones`` (bottom-level compaction).
    """
    import heapq

    heap: list[tuple[bytes, int, Entry]] = []
    iters = [iter(run) for run in runs]
    for run_index, it in enumerate(iters):
        first = next(it, None)
        if first is not None:
            heapq.heappush(heap, (first[0], run_index, first[1]))

    merged: list[tuple[bytes, Entry]] = []
    tombstones_dropped = 0
    stale_dropped = 0
    current_key: Optional[bytes] = None
    while heap:
        key, run_index, entry = heapq.heappop(heap)
        nxt = next(iters[run_index], None)
        if nxt is not None:
            heapq.heappush(heap, (nxt[0], run_index, nxt[1]))
        if key == current_key:
            stale_dropped += 1
            continue
        current_key = key
        if entry is TOMBSTONE and drop_tombstones:
            tombstones_dropped += 1
            continue
        merged.append((key, entry))
    return merged, tombstones_dropped, stale_dropped
