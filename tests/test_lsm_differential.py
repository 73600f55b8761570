"""The lazy LSM merge and one-pass Bloom build against their predecessors.

``repro.kvstore.lsm.sstable`` merges runs lazily and builds a table's
Bloom filter in one loop; ``tests/lsm_reference.py`` keeps the eager
merge and the per-key-generator filter they replaced.  Everything here
is seeded: a failure names its seed or case.  The last test is the
laziness guard: a 64-pair scan of a large store must cost 64 pairs, not
the store.
"""

from __future__ import annotations

import random
from itertools import islice

import pytest

from repro.kvstore.lsm import LSMConfig, LSMStore, MemTable, SSTable, TOMBSTONE
from repro.kvstore.lsm.sstable import BloomFilter, MergeDrops, merge_runs
from tests import lsm_reference as ref


def random_runs(rng: random.Random) -> list[list]:
    """1-6 sorted runs over a small keyspace, so keys repeat across runs
    (never within one) and about a quarter of the entries are tombstones."""
    keyspace = [b"k%03d" % i for i in range(rng.randrange(1, 120))]
    runs = []
    for _ in range(rng.randrange(1, 7)):
        keys = sorted(rng.sample(keyspace, rng.randrange(len(keyspace) + 1)))
        runs.append(
            [(key, TOMBSTONE if rng.random() < 0.25 else rng.randbytes(4)) for key in keys]
        )
    return runs


@pytest.mark.parametrize("drop_tombstones", [False, True])
def test_lazy_merge_equals_eager_reference(drop_tombstones):
    for seed in range(200):
        runs = random_runs(random.Random(seed))
        expected, tombstones, stale = ref.merge_runs(
            [iter(run) for run in runs], drop_tombstones
        )
        drops = MergeDrops()
        merged = merge_runs([iter(run) for run in runs], drop_tombstones, drops)
        assert list(merged) == expected, seed
        assert (drops.tombstones, drops.stale) == (tombstones, stale), seed

        half = len(expected) // 2
        partial = merge_runs([iter(run) for run in runs], drop_tombstones)
        assert list(islice(partial, half)) == expected[:half], seed


def test_lazy_merge_reads_no_further_than_it_yields():
    runs = [iter([(b"k%05d" % i, b"v") for i in range(offset, 10_000, 3)]) for offset in range(3)]
    pulled = [0]

    def counted(run):
        for item in run:
            pulled[0] += 1
            yield item

    merged = merge_runs([counted(run) for run in runs], drop_tombstones=True)
    assert [key for key, _ in islice(merged, 64)] == [b"k%05d" % i for i in range(64)]
    assert pulled[0] <= 64 + len(runs)


@pytest.mark.parametrize("expected", [1, 10, 1_000, 20_000])
def test_bloom_bits_and_probes_equal_reference(expected):
    rng = random.Random(expected)
    keys = [rng.randbytes(rng.randrange(1, 40)) for _ in range(2_000)]
    present = set(keys)
    absent = [key for key in (rng.randbytes(rng.randrange(1, 40)) for _ in range(2_200))
              if key not in present][:2_000]
    assert len(absent) == 2_000

    old = ref.BloomFilter(expected)
    for key in keys:
        old.add(key)
    new = BloomFilter(expected)
    new.add_all(keys)

    assert bytes(new._bits) == bytes(old._bits)
    assert all(new.may_contain(key) for key in keys)
    assert [new.may_contain(key) for key in absent] == [old.may_contain(key) for key in absent]


def test_sstable_built_from_a_lazy_merge_equals_one_built_from_a_list():
    runs = random_runs(random.Random(7))
    expected, _, _ = ref.merge_runs([iter(run) for run in runs], False)
    from_list = SSTable(expected)
    from_merge = SSTable(merge_runs([iter(run) for run in runs], False))
    assert list(from_merge.entries()) == list(from_list.entries()) == expected
    assert from_merge.data_bytes == from_list.data_bytes
    assert from_merge.num_tombstones == from_list.num_tombstones
    assert bytes(from_merge._bloom._bits) == bytes(from_list._bloom._bits)


def test_scan_of_a_large_store_costs_what_it_returns(monkeypatch):
    # Ascending inserts leave tables of disjoint spans side by side in a
    # level >= 1 (nothing overlaps, so compaction keeps the old ones); the
    # few random rewrites then put newer versions and tombstones over the
    # whole keyspace in the memtable.
    rng = random.Random(22)
    store = LSMStore(
        LSMConfig(memtable_bytes=32 * 1024, level_base_bytes=128 * 1024, level_size_multiplier=4)
    )
    model = {}
    for i in range(50_000):
        key = b"key%06d" % i
        model[key] = value = b"v%d" % i
        store.put(key, value)
    for _ in range(300):
        key = b"key%06d" % rng.randrange(50_000)
        if rng.random() < 0.5:
            model[key] = value = rng.randbytes(8)
            store.put(key, value)
        else:
            model.pop(key, None)
            store.delete(key)
    levels = store._levels
    assert sum(1 for tables in levels if tables) >= 3
    assert any(len(tables) > 1 for tables in levels[1:])
    deep_tables = {id(t) for tables in levels[1:] for t in tables}

    opened, pulled = [], [0]

    def counting(iter_range):
        def wrapper(self, start, end):
            opened.append(self)
            return counted(iter_range(self, start, end))
        return wrapper

    def counted(entries):
        for item in entries:
            pulled[0] += 1
            yield item

    monkeypatch.setattr(SSTable, "iter_range", counting(SSTable.iter_range))
    monkeypatch.setattr(MemTable, "iter_range", counting(MemTable.iter_range))

    ordered = sorted(model.items())
    runs_opened = []
    for start, end in [(b"key045000", None), (b"key010000", b"key010500"), (b"", None)]:
        del opened[:]
        pulled[0] = 0
        in_range = [
            pair for pair in ordered if pair[0] >= start and (end is None or pair[0] < end)
        ]
        assert list(islice(store.scan(start, end), 64)) == in_range[:64]
        assert pulled[0] < 1_000
        assert any(isinstance(run, MemTable) for run in opened)
        for table in opened:
            if id(table) in deep_tables:
                assert table.largest >= start
                assert end is None or table.smallest < end
        runs_opened.append(len(opened))
    # the scan from b"" opens everything; the two inside the keyspace skip tables
    assert runs_opened[2] == 1 + sum(len(tables) for tables in levels)
    assert runs_opened[0] < runs_opened[2] and runs_opened[1] < runs_opened[2]
