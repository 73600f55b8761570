"""The leveled LSM store.

Write path: every put/delete is appended to the WAL accounting and the
memtable; when the memtable exceeds ``memtable_bytes`` it flushes to a
new L0 table.  When L0 accumulates ``l0_compaction_trigger`` tables, or
a deeper level exceeds its byte budget, compaction merges runs into the
next level.  Tombstones survive until they reach the bottom-most
populated level — exactly the behaviour behind the paper's argument
that delete-heavy classes (TxLookup, BlockHeader) are a poor fit for
LSM storage.

Read path: memtable, then L0 tables newest-first, then one candidate
table per deeper level; Bloom filters short-circuit most probes.  An
LRU block cache fronts table lookups.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import KeyNotFoundError
from repro.kvstore.api import KVStore
from repro.kvstore.lsm.memtable import ENTRY_OVERHEAD, TOMBSTONE, Entry, MemTable
from repro.kvstore.lsm.sstable import MergeDrops, SSTable, merge_runs
from repro.kvstore.metrics import LevelStats, StoreMetrics, bind_store_metrics


@dataclass(frozen=True)
class LSMConfig:
    """Tuning knobs for the LSM simulator (defaults are Pebble-like ratios)."""

    memtable_bytes: int = 256 * 1024
    l0_compaction_trigger: int = 4
    level_base_bytes: int = 1024 * 1024
    level_size_multiplier: int = 10
    max_levels: int = 7
    block_cache_entries: int = 4096


class _BlockCache:
    """LRU cache over (table_id, key) -> entry lookups."""

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._entries: OrderedDict[tuple[int, bytes], Entry] = OrderedDict()

    def get(self, table_id: int, key: bytes) -> Optional[Entry]:
        cache_key = (table_id, key)
        entry = self._entries.get(cache_key)
        if entry is not None:
            self._entries.move_to_end(cache_key)
        return entry

    def put(self, table_id: int, key: bytes, entry: Entry) -> None:
        if self._capacity <= 0:
            return
        cache_key = (table_id, key)
        self._entries[cache_key] = entry
        self._entries.move_to_end(cache_key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def drop_tables(self, table_ids: set[int]) -> None:
        stale = [ck for ck in self._entries if ck[0] in table_ids]
        for ck in stale:
            del self._entries[ck]


class LSMStore(KVStore):
    """Leveled LSM-tree KV store with full I/O accounting."""

    def __init__(self, config: Optional[LSMConfig] = None) -> None:
        self.config = config if config is not None else LSMConfig()
        self.metrics = StoreMetrics()
        bind_store_metrics(self.metrics, "lsm")
        self._memtable = MemTable()
        # levels[0] is L0 (newest table last, may overlap); deeper levels
        # hold non-overlapping tables sorted by smallest key.
        self._levels: list[list[SSTable]] = [[] for _ in range(self.config.max_levels)]
        self._cache = _BlockCache(self.config.block_cache_entries)
        self._live: set[bytes] = set()

    # -- write path ---------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self.metrics.user_puts += 1
        self.metrics.user_bytes_written += len(key) + len(value)
        self.metrics.wal_bytes_written += len(key) + len(value) + ENTRY_OVERHEAD
        self._live.add(key)
        self._memtable.put(key, value)
        self._maybe_flush()

    def delete(self, key: bytes) -> None:
        self.metrics.user_deletes += 1
        self.metrics.wal_bytes_written += len(key) + ENTRY_OVERHEAD
        self.metrics.tombstones_written += 1
        self._live.discard(key)
        self._memtable.delete(key)
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if self._memtable.approx_bytes >= self.config.memtable_bytes:
            self.flush_memtable()

    def flush_memtable(self) -> None:
        """Flush the memtable into a new L0 table (no-op when empty)."""
        if self._memtable.is_empty():
            return
        table = SSTable(self._memtable.sorted_entries())
        self.metrics.flush_bytes_written += table.data_bytes
        self._levels[0].append(table)
        self._memtable = MemTable()
        self._maybe_compact()

    # -- compaction ---------------------------------------------------------

    def _level_budget(self, level: int) -> int:
        return self.config.level_base_bytes * (
            self.config.level_size_multiplier ** max(0, level - 1)
        )

    def _level_bytes(self, level: int) -> int:
        return sum(table.data_bytes for table in self._levels[level])

    def _bottom_populated_level(self) -> int:
        for level in range(self.config.max_levels - 1, 0, -1):
            if self._levels[level]:
                return level
        return 0

    def _maybe_compact(self) -> None:
        # Loop until no level violates its trigger; each pass does one
        # compaction so the accounting matches one background job at a time.
        while True:
            if len(self._levels[0]) >= self.config.l0_compaction_trigger:
                self._compact(0)
                continue
            for level in range(1, self.config.max_levels - 1):
                if self._level_bytes(level) > self._level_budget(level):
                    self._compact(level)
                    break
            else:
                return

    def _compact(self, level: int) -> None:
        """Merge all of ``level``'s tables with overlapping next-level tables."""
        source_tables = self._levels[level]
        if not source_tables:
            return
        target_level = level + 1
        smallest = min(t.smallest for t in source_tables if t.smallest is not None)
        largest = max(t.largest for t in source_tables if t.largest is not None)
        overlapping = [
            t for t in self._levels[target_level] if t.overlaps(smallest, largest)
        ]
        keep = [t for t in self._levels[target_level] if not t.overlaps(smallest, largest)]

        # Newest-first: L0 tables newest-last on append, so reverse; the
        # source level is always newer than the target level.
        runs = [t.entries() for t in reversed(source_tables)]
        runs.extend(t.entries() for t in overlapping)

        drop_tombstones = target_level >= self._bottom_populated_level()
        drops = MergeDrops()
        new_table = SSTable(merge_runs(runs, drop_tombstones, drops))  # drains the merge

        merged_tables = source_tables + overlapping
        self.metrics.compaction_bytes_read += sum(t.data_bytes for t in merged_tables)
        self.metrics.tombstones_dropped += drops.tombstones
        self.metrics.stale_entries_dropped += drops.stale
        self.metrics.compactions += 1
        self.metrics.compaction_bytes_written += new_table.data_bytes
        self._cache.drop_tables({t.table_id for t in merged_tables})

        self._levels[level] = []
        self._levels[target_level] = sorted(
            keep + ([new_table] if len(new_table) else []),
            key=lambda t: t.smallest or b"",
        )

    # -- read path ----------------------------------------------------------

    def _lookup(self, key: bytes) -> Optional[Entry]:
        entry = self._memtable.get(key)
        if entry is not None:
            return entry
        for table in reversed(self._levels[0]):
            found = self._probe_table(table, key)
            if found is not None:
                return found
        for level in range(1, self.config.max_levels):
            for table in self._levels[level]:
                if table.smallest is None or not table.key_in_range(key):
                    continue
                found = self._probe_table(table, key)
                if found is not None:
                    return found
                break  # non-overlapping: at most one candidate per level
        return None

    def _probe_table(self, table: SSTable, key: bytes) -> Optional[Entry]:
        if not table.may_contain(key):
            self.metrics.bloom_filter_negatives += 1
            return None
        cached = self._cache.get(table.table_id, key)
        if cached is not None:
            self.metrics.block_cache_hits += 1
            return cached
        self.metrics.block_cache_misses += 1
        self.metrics.sstable_lookups += 1
        entry = table.get(key)
        if entry is not None:
            self._cache.put(table.table_id, key, entry)
        return entry

    def get(self, key: bytes) -> bytes:
        self.metrics.user_gets += 1
        entry = self._lookup(key)
        if entry is None or entry is TOMBSTONE:
            raise KeyNotFoundError(key)
        value: bytes = entry  # type: ignore[assignment]
        self.metrics.user_bytes_read += len(value)
        return value

    def has(self, key: bytes) -> bool:
        entry = self._lookup(key)
        return entry is not None and entry is not TOMBSTONE

    def scan(
        self, start: bytes, end: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Live pairs of ``[start, end)`` as of the first ``next()``: the
        memtable is copied and tables are immutable, so writes, flushes
        and compactions under an open scan do not show in it.  Work is
        proportional to the pairs taken, not to the store."""
        self.metrics.user_scans += 1
        runs = [self._memtable.iter_range(start, end)]
        # Newest first: memtable, L0 newest-last on append, then deeper levels.
        tables = self._levels[0][::-1] + [t for level in self._levels[1:] for t in level]
        runs.extend(t.iter_range(start, end) for t in tables if t.spans(start, end))
        yield from merge_runs(runs, drop_tombstones=True)  # type: ignore[misc]

    def __len__(self) -> int:
        return len(self._live)

    # -- introspection ------------------------------------------------------

    def level_stats(self) -> list[LevelStats]:
        """Occupancy of each populated level."""
        stats = []
        for level, tables in enumerate(self._levels):
            if not tables and level > 0:
                continue
            stats.append(
                LevelStats(
                    level=level,
                    num_tables=len(tables),
                    data_bytes=sum(t.data_bytes for t in tables),
                    num_entries=sum(len(t) for t in tables),
                    num_tombstones=sum(t.num_tombstones for t in tables),
                )
            )
        return stats

    def live_tombstones(self) -> int:
        """Tombstones currently resident across all tables + memtable."""
        count = sum(t.num_tombstones for level in self._levels for t in level)
        return count + self._memtable.num_tombstones
