"""KV store interface, memdb, and batch tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import KeyNotFoundError, StoreClosedError
from repro.kvstore.api import Batch, prefix_upper_bound
from repro.kvstore.memdb import MemoryKVStore


class TestMemoryKVStore:
    def test_put_get(self):
        store = MemoryKVStore()
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"

    def test_get_missing_raises(self):
        store = MemoryKVStore()
        with pytest.raises(KeyNotFoundError):
            store.get(b"missing")

    def test_get_or_none(self):
        store = MemoryKVStore()
        assert store.get_or_none(b"x") is None
        store.put(b"x", b"1")
        assert store.get_or_none(b"x") == b"1"

    def test_overwrite(self):
        store = MemoryKVStore()
        store.put(b"k", b"v1")
        store.put(b"k", b"v2")
        assert store.get(b"k") == b"v2"
        assert len(store) == 1

    def test_delete(self):
        store = MemoryKVStore()
        store.put(b"k", b"v")
        store.delete(b"k")
        assert not store.has(b"k")
        assert len(store) == 0

    def test_delete_missing_is_noop(self):
        store = MemoryKVStore()
        store.delete(b"never")  # no exception

    def test_scan_ordering(self):
        store = MemoryKVStore()
        for byte in (5, 1, 9, 3):
            store.put(bytes([byte]), b"v")
        keys = [k for k, _ in store.scan(b"")]
        assert keys == sorted(keys)

    def test_scan_range_bounds(self):
        store = MemoryKVStore()
        for byte in range(10):
            store.put(bytes([byte]), bytes([byte]))
        got = [k[0] for k, _ in store.scan(bytes([3]), bytes([7]))]
        assert got == [3, 4, 5, 6]

    def test_scan_prefix(self):
        store = MemoryKVStore()
        store.put(b"aa1", b"1")
        store.put(b"aa2", b"2")
        store.put(b"ab1", b"3")
        got = [k for k, _ in store.scan_prefix(b"aa")]
        assert got == [b"aa1", b"aa2"]

    def test_scan_sees_interleaved_deletes(self):
        store = MemoryKVStore()
        for byte in range(5):
            store.put(bytes([byte]), b"v")
        result = []
        for key, _ in store.scan(b""):
            result.append(key)
            store.delete(bytes([3]))
        assert bytes([3]) not in result or result.index(bytes([3])) < 3

    def test_closed_store_raises(self):
        store = MemoryKVStore()
        store.close()
        with pytest.raises(StoreClosedError):
            store.put(b"k", b"v")

    def test_keys_iteration(self):
        store = MemoryKVStore()
        store.put(b"b", b"2")
        store.put(b"a", b"1")
        assert list(store.keys()) == [b"a", b"b"]


class _CountingKey(bytes):
    """A key that counts the ``<`` comparisons sorting and bisecting make."""

    comparisons = 0

    def __lt__(self, other):
        _CountingKey.comparisons += 1
        return bytes.__lt__(self, other)


def _key(number: int) -> bytes:
    return number.to_bytes(2, "big")


class TestOrderedIndex:
    """The sorted key list is maintained from deltas, never re-sorted."""

    def test_reput_of_deleted_key_yields_it_once(self):
        store = MemoryKVStore()
        for byte in range(8):
            store.put(bytes([byte]), b"v")
        assert len(list(store.scan(b""))) == 8
        store.delete(bytes([3]))
        store.put(bytes([3]), b"again")  # deleted since the last scan
        store.put(bytes([9]), b"new")
        store.delete(bytes([9]))  # added since the last scan
        store.put(bytes([9]), b"new2")
        store.put(bytes([10]), b"short-lived")
        store.delete(bytes([10]))
        got = list(store.scan(b""))
        assert [k[0] for k, _ in got] == [0, 1, 2, 3, 4, 5, 6, 7, 9]
        assert dict(got)[bytes([3])] == b"again"
        # White box: a key that came and went between scans was never listed.
        assert len(store._sorted_keys) == 9

    def test_crossing_the_stale_threshold(self):
        store = MemoryKVStore()
        model = {_key(i): b"v" for i in range(400)}
        for key, value in model.items():
            store.put(key, value)
        assert list(store.scan(b"")) == sorted(model.items())
        for i in range(0, 400, 3):  # a third of the keys: over the threshold
            store.delete(_key(i))
            del model[_key(i)]
        assert list(store.scan(b"")) == sorted(model.items())
        # White box: that scan rebuilt the list without the stale entries.
        assert len(store._sorted_keys) == len(model)
        for i in range(0, 600, 7):  # re-puts of rebuilt-away keys, new keys
            store.put(_key(i), b"w")
            model[_key(i)] = b"w"
        for i in range(1, 400, 50):  # a few deletes: under the threshold
            store.delete(_key(i))
            model.pop(_key(i), None)
        assert list(store.scan(b"")) == sorted(model.items())
        low, high = _key(100), _key(300)
        assert list(store.scan(low, high)) == sorted(
            (k, v) for k, v in model.items() if low <= k < high
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_random_interleavings_match_sorted_dict(self, seed):
        rng = random.Random(seed)
        store = MemoryKVStore()
        model: dict[bytes, bytes] = {}
        dead: list[bytes] = []  # deleted keys, for delete-then-re-put

        def new_key() -> bytes:
            return _key(rng.randrange(3000))

        for step in range(4000):
            roll = rng.random()
            if roll < 0.40:
                key, value = new_key(), bytes([step % 256])
                store.put(key, value)
                model[key] = value
            elif roll < 0.50 and model:  # overwrite
                key = rng.choice(list(model))
                store.put(key, b"overwritten")
                model[key] = b"overwritten"
            elif roll < 0.80 and model:
                # Bursts push the stale share over the threshold.
                for key in rng.sample(list(model), min(len(model), rng.choice((1, 1, 200)))):
                    store.delete(key)
                    del model[key]
                    dead.append(key)
            elif roll < 0.88 and dead:
                key = dead.pop(rng.randrange(len(dead)))
                store.put(key, b"back")
                model[key] = b"back"
            elif roll < 0.94:
                assert list(store.scan(b"")) == sorted(model.items())
            else:
                low, high = sorted((new_key(), new_key()))
                assert list(store.scan(low, high)) == sorted(
                    (k, v) for k, v in model.items() if low <= k < high
                )
        assert list(store.scan(b"")) == sorted(model.items())
        assert len(store) == len(model)

    @pytest.mark.parametrize("seed", range(4))
    def test_open_iterator_across_puts_and_deletes(self, seed):
        rng = random.Random(seed)
        store = MemoryKVStore()
        model = {_key(i): b"v" for i in range(0, 600, 2)}
        for key, value in model.items():
            store.put(key, value)
        yielded: list[bytes] = []
        for key, value in store.scan(b""):
            assert model[key] == value  # live at the moment it is yielded
            yielded.append(key)
            victim = _key(rng.randrange(600))
            store.delete(victim)
            model.pop(victim, None)
            fresh = _key(rng.randrange(600))
            store.put(fresh, b"w")
            model[fresh] = b"w"
            if len(yielded) % 40 == 0:
                # A second scan folds the deltas in (and, once enough
                # entries are stale, rebuilds the list) under the open one.
                assert list(store.scan(b"")) == sorted(model.items())
        assert yielded == sorted(set(yielded))
        assert len(yielded) > 100

    def test_scan_after_small_delta_does_not_resort_the_store(self):
        store = MemoryKVStore()
        order = list(range(20_000))
        random.Random(13).shuffle(order)  # dict order must not be key order
        for i in order:
            store.put(_CountingKey(i.to_bytes(4, "big") + b"\x00"), b"v")
        assert sum(1 for _ in store.scan(b"")) == 20_000
        for i in range(20):
            store.put(_CountingKey((i * 997).to_bytes(4, "big") + b"\x01"), b"w")
        start = _CountingKey((5000).to_bytes(4, "big"))
        end = _CountingKey((5010).to_bytes(4, "big"))
        _CountingKey.comparisons = 0
        assert len(list(store.scan(start, end))) == 10
        # 20 keys into 20 000: a sort of the delta and a binary search per
        # key.  A re-sort of the store makes > 200 000 comparisons, and
        # even a merge that walks the list makes 20 000.
        assert 0 < _CountingKey.comparisons < 5_000


class TestPrefixUpperBound:
    def test_simple(self):
        assert prefix_upper_bound(b"abc") == b"abd"

    def test_trailing_ff_carries(self):
        assert prefix_upper_bound(b"a\xff") == b"b"

    def test_all_ff_unbounded(self):
        assert prefix_upper_bound(b"\xff\xff") is None

    def test_empty_prefix_unbounded(self):
        assert prefix_upper_bound(b"") is None

    @given(st.binary(min_size=1, max_size=8), st.binary(max_size=8))
    def test_bound_property(self, prefix, suffix):
        upper = prefix_upper_bound(prefix)
        key = prefix + suffix
        if upper is not None:
            assert prefix <= key < upper


class TestBatch:
    def test_commit_applies_all(self):
        store = MemoryKVStore()
        batch = Batch(store)
        batch.put(b"a", b"1")
        batch.put(b"b", b"2")
        batch.delete(b"c")
        store.put(b"c", b"3")
        batch.commit()
        assert store.get(b"a") == b"1"
        assert store.get(b"b") == b"2"
        assert not store.has(b"c")

    def test_nothing_applied_before_commit(self):
        store = MemoryKVStore()
        batch = Batch(store)
        batch.put(b"a", b"1")
        assert not store.has(b"a")

    def test_last_write_wins_within_batch(self):
        store = MemoryKVStore()
        batch = Batch(store)
        batch.put(b"k", b"old")
        batch.delete(b"k")
        batch.commit()
        assert not store.has(b"k")
        assert len(batch) == 0  # commit resets

    def test_put_after_delete_within_batch(self):
        store = MemoryKVStore()
        batch = Batch(store)
        batch.delete(b"k")
        batch.put(b"k", b"new")
        batch.commit()
        assert store.get(b"k") == b"new"

    def test_reset_discards(self):
        store = MemoryKVStore()
        batch = Batch(store)
        batch.put(b"a", b"1")
        batch.reset()
        batch.commit()
        assert not store.has(b"a")

    def test_size_bytes(self):
        batch = Batch(MemoryKVStore())
        batch.put(b"ab", b"cdef")
        batch.delete(b"gh")
        assert batch.size_bytes == 2 + 4 + 2

    def test_write_batch_factory(self):
        store = MemoryKVStore()
        batch = store.write_batch()
        batch.put(b"z", b"9")
        batch.commit()
        assert store.get(b"z") == b"9"


class TestDictEquivalence:
    """MemoryKVStore behaves like a plain dict under random ops."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "delete", "get"]),
                st.binary(min_size=1, max_size=4),
                st.binary(max_size=8),
            ),
            max_size=200,
        )
    )
    def test_random_ops(self, ops):
        store = MemoryKVStore()
        model: dict[bytes, bytes] = {}
        for action, key, value in ops:
            if action == "put":
                store.put(key, value)
                model[key] = value
            elif action == "delete":
                store.delete(key)
                model.pop(key, None)
            else:
                assert store.get_or_none(key) == model.get(key)
        assert dict(store.scan(b"")) == model
        assert len(store) == len(model)
