"""LSM store tests: correctness vs a dict model, compaction accounting."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import KeyNotFoundError
from repro.kvstore.lsm import LSMConfig, LSMStore, MemTable, SSTable, TOMBSTONE
from repro.kvstore.lsm.sstable import MergeDrops, merge_runs

SMALL = LSMConfig(memtable_bytes=2048, l0_compaction_trigger=2, level_base_bytes=8192)


class TestMemTable:
    def test_put_get(self):
        table = MemTable()
        table.put(b"k", b"v")
        assert table.get(b"k") == b"v"

    def test_tombstone(self):
        table = MemTable()
        table.delete(b"k")
        assert table.get(b"k") is TOMBSTONE

    def test_unknown_key_is_none(self):
        assert MemTable().get(b"nope") is None

    def test_size_accounting_grows_and_adjusts(self):
        table = MemTable()
        table.put(b"k", b"v" * 10)
        size1 = table.approx_bytes
        table.put(b"k", b"v" * 4)
        assert table.approx_bytes == size1 - 6

    def test_sorted_entries(self):
        table = MemTable()
        table.put(b"b", b"2")
        table.put(b"a", b"1")
        assert [k for k, _ in table.sorted_entries()] == [b"a", b"b"]

    def test_iter_range(self):
        table = MemTable()
        for byte in range(6):
            table.put(bytes([byte]), b"v")
        got = [k[0] for k, _ in table.iter_range(bytes([2]), bytes([5]))]
        assert got == [2, 3, 4]


class TestSSTable:
    def _table(self, items):
        return SSTable(sorted(items))

    def test_get_and_ranges(self):
        table = self._table([(b"a", b"1"), (b"c", b"3"), (b"e", TOMBSTONE)])
        assert table.get(b"a") == b"1"
        assert table.get(b"e") is TOMBSTONE
        assert table.get(b"b") is None
        assert table.smallest == b"a" and table.largest == b"e"
        assert table.num_tombstones == 1

    def test_may_contain_never_false_negative(self):
        items = [(bytes([i]), b"v") for i in range(0, 100, 3)]
        table = self._table(items)
        for key, _ in items:
            assert table.may_contain(key)

    def test_overlaps(self):
        table = self._table([(b"c", b"1"), (b"f", b"2")])
        assert table.overlaps(b"a", b"d")
        assert table.overlaps(b"d", b"e")
        assert not table.overlaps(b"g", b"z")
        assert not table.overlaps(b"a", b"b")

    def test_merge_runs_newest_wins(self):
        new = [(b"a", b"new"), (b"b", b"keep")]
        old = [(b"a", b"old"), (b"c", b"3")]
        drops = MergeDrops()
        merged = merge_runs([iter(new), iter(old)], drop_tombstones=False, drops=drops)
        assert dict(merged) == {b"a": b"new", b"b": b"keep", b"c": b"3"}
        assert drops.stale == 1 and drops.tombstones == 0

    def test_merge_drops_tombstones_at_bottom(self):
        run = [(b"a", TOMBSTONE), (b"b", b"2")]
        drops = MergeDrops()
        merged = merge_runs([iter(run)], drop_tombstones=True, drops=drops)
        assert dict(merged) == {b"b": b"2"}
        assert drops.tombstones == 1


class TestLSMStore:
    def test_basic_roundtrip(self):
        store = LSMStore(SMALL)
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        assert store.has(b"k")

    def test_missing_raises(self):
        with pytest.raises(KeyNotFoundError):
            LSMStore(SMALL).get(b"nope")

    def test_delete_shadows_older_levels(self):
        store = LSMStore(SMALL)
        for i in range(300):
            store.put(b"key%03d" % i, b"x" * 20)
        store.delete(b"key000")
        assert not store.has(b"key000")
        with pytest.raises(KeyNotFoundError):
            store.get(b"key000")

    def test_flush_and_compaction_metrics(self):
        store = LSMStore(SMALL)
        for i in range(500):
            store.put(b"key%04d" % i, b"v" * 30)
        metrics = store.metrics
        assert metrics.flush_bytes_written > 0
        assert metrics.compactions > 0
        assert metrics.compaction_bytes_written > 0
        assert metrics.write_amplification > 1.0

    def test_tombstone_counters(self):
        store = LSMStore(SMALL)
        for i in range(200):
            store.put(b"key%04d" % i, b"v" * 30)
        for i in range(100):
            store.delete(b"key%04d" % i)
        assert store.metrics.tombstones_written == 100
        # Force everything through compaction to the bottom level.
        for i in range(200, 700):
            store.put(b"key%04d" % i, b"v" * 30)
        store.flush_memtable()
        assert store.metrics.tombstones_dropped > 0

    def test_scan_merges_levels(self):
        store = LSMStore(SMALL)
        expected = {}
        for i in range(400):
            key = b"key%04d" % (i % 150)
            value = b"v%d" % i
            store.put(key, value)
            expected[key] = value
        got = dict(store.scan(b""))
        assert got == expected

    def test_scan_range(self):
        store = LSMStore(SMALL)
        for i in range(100):
            store.put(b"k%02d" % i, b"v")
        got = [k for k, _ in store.scan(b"k10", b"k20")]
        assert got == [b"k%02d" % i for i in range(10, 20)]

    def test_len_tracks_live_keys(self):
        store = LSMStore(SMALL)
        for i in range(50):
            store.put(b"key%02d" % i, b"v")
        for i in range(10):
            store.delete(b"key%02d" % i)
        store.put(b"key00", b"back")
        assert len(store) == 41

    def test_deletes_of_unwritten_keys_leave_no_liveness_state(self):
        store = LSMStore(SMALL)
        for i in range(10_000):
            store.delete(b"never%05d" % i)
        assert len(store) == 0
        assert not store._live

    def test_live_tombstones_counts_memtable_and_tables(self):
        store = LSMStore(LSMConfig(l0_compaction_trigger=100))
        for i in range(10):
            store.put(b"key%02d" % i, b"v")
        for i in range(4):
            store.delete(b"key%02d" % i)
        assert store.live_tombstones() == 4
        store.flush_memtable()
        store.delete(b"key09")
        assert store.live_tombstones() == 5

    def test_open_scan_keeps_its_snapshot_across_writes_and_compactions(self):
        rng = random.Random(5)
        store = LSMStore(SMALL)
        model = {}
        for i in range(600):
            key = b"key%04d" % rng.randrange(400)
            model[key] = value = b"v%d" % i
            store.put(key, value)
        snapshot = sorted(model.items())
        scan = store.scan(b"key0100", b"key0350")
        expected = [pair for pair in snapshot if b"key0100" <= pair[0] < b"key0350"]
        assert next(scan) == expected[0]

        compactions = store.metrics.compactions
        for i in range(2000):
            key = b"key%04d" % rng.randrange(400)
            if rng.random() < 0.5:
                store.put(key, b"w%d" % i)
                model[key] = b"w%d" % i
            else:
                store.delete(key)
                model.pop(key, None)
        assert store.metrics.compactions > compactions + 2

        assert list(scan) == expected[1:]
        assert list(store.scan(b"")) == sorted(model.items())

    def test_compaction_drops_cached_entries_of_every_merged_table(self):
        store = LSMStore(SMALL)
        for i in range(40):
            store.put(b"key%04d" % i, b"v" * 30)
        store.flush_memtable()
        for i in range(40):
            store.get(b"key%04d" % i)
        merged_ids = {t.table_id for level in store._levels for t in level}
        assert {table_id for table_id, _ in store._cache._entries} == merged_ids
        compactions = store.metrics.compactions
        for i in range(40, 400):
            store.put(b"key%04d" % i, b"v" * 30)
        assert store.metrics.compactions > compactions
        live_ids = {t.table_id for level in store._levels for t in level}
        assert not merged_ids & live_ids
        assert all(table_id in live_ids for table_id, _ in store._cache._entries)

    def test_level_stats(self):
        store = LSMStore(SMALL)
        for i in range(600):
            store.put(b"key%04d" % i, b"v" * 40)
        stats = store.level_stats()
        assert stats[0].level == 0
        assert sum(s.num_entries for s in stats) >= 1
        assert any(s.level > 0 and s.num_tables > 0 for s in stats)

    def test_block_cache_hits(self):
        store = LSMStore(SMALL)
        for i in range(300):
            store.put(b"key%04d" % i, b"v" * 30)
        store.flush_memtable()
        store.get(b"key0000")
        store.get(b"key0000")
        assert store.metrics.block_cache_hits >= 1

    def test_dict_equivalence_randomized(self):
        rng = random.Random(99)
        store = LSMStore(SMALL)
        model = {}
        for step in range(3000):
            key = b"key%03d" % rng.randrange(250)
            action = rng.random()
            if action < 0.55:
                value = b"val%d" % step
                store.put(key, value)
                model[key] = value
            elif action < 0.8:
                store.delete(key)
                model.pop(key, None)
            else:
                assert store.get_or_none(key) == model.get(key)
        assert dict(store.scan(b"")) == model
        assert len(store) == len(model)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.integers(min_value=0, max_value=40),
            st.binary(min_size=1, max_size=16),
        ),
        max_size=150,
    )
)
def test_lsm_matches_dict_property(ops):
    store = LSMStore(LSMConfig(memtable_bytes=512, l0_compaction_trigger=2, level_base_bytes=2048))
    model = {}
    for action, key_index, value in ops:
        key = b"key%02d" % key_index
        if action == "put":
            store.put(key, value)
            model[key] = value
        else:
            store.delete(key)
            model.pop(key, None)
    assert dict(store.scan(b"")) == model
