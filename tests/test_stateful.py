"""Hypothesis stateful tests: LSM store, hybrid store, and path trie.

Each machine drives the structure with random interleaved operations
while maintaining a plain-dict model, checking full observable
equivalence at every step and structural invariants at teardown.
"""

from __future__ import annotations

import hashlib

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.kvstore.hashlog import HashLogStore
from repro.kvstore.lsm import LSMConfig, LSMStore
from repro.trie.nibbles import bytes_to_nibbles
from repro.trie.trie import EMPTY_ROOT, NodeBackend, PathTrie

KEYS = st.integers(min_value=0, max_value=30).map(lambda i: b"key%02d" % i)
VALUES = st.binary(min_size=1, max_size=24)


class LSMMachine(RuleBasedStateMachine):
    """LSM store vs dict under random put/delete/get/scan, with one scan
    held open across the other rules."""

    def __init__(self):
        super().__init__()
        self.store = LSMStore(
            LSMConfig(memtable_bytes=384, l0_compaction_trigger=2, level_base_bytes=1536)
        )
        self.model: dict[bytes, bytes] = {}
        #: (iterator, pairs it still owes) of a scan left open across rules
        self.open_scan = None

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.store.put(key, value)
        self.model[key] = value

    @rule(key=KEYS)
    def delete(self, key):
        self.store.delete(key)
        self.model.pop(key, None)

    @rule(key=KEYS)
    def get(self, key):
        assert self.store.get_or_none(key) == self.model.get(key)

    @rule()
    def flush(self):
        self.store.flush_memtable()

    @invariant()
    def length_matches(self):
        assert len(self.store) == len(self.model)

    @rule()
    def scan_matches(self):
        assert dict(self.store.scan(b"")) == self.model

    @rule(bounds=st.tuples(KEYS, KEYS))
    def bounded_scan_matches(self, bounds):
        start, end = min(bounds), max(bounds)
        expected = sorted(pair for pair in self.model.items() if start <= pair[0] < end)
        assert list(self.store.scan(start, end)) == expected

    @precondition(lambda self: self.open_scan is None)
    @rule(start=st.one_of(st.just(b""), KEYS))
    def open_scan_and_take_one(self, start):
        # The first next() is the snapshot point: whatever put, delete,
        # flush (and the compactions it triggers) runs before the drain
        # must not show in the rest of the scan.
        expected = sorted(pair for pair in self.model.items() if pair[0] >= start)
        scan = self.store.scan(start)
        assert next(scan, None) == (expected[0] if expected else None)
        self.open_scan = (scan, expected[1:])

    @precondition(lambda self: self.open_scan is not None)
    @rule()
    def drain_open_scan(self):
        scan, expected = self.open_scan
        self.open_scan = None
        assert list(scan) == expected


class HashLogMachine(RuleBasedStateMachine):
    """Hash-log store vs dict, exercising GC via small segments."""

    def __init__(self):
        super().__init__()
        self.store = HashLogStore(segment_bytes=256, gc_dead_ratio=0.3)
        self.model: dict[bytes, bytes] = {}

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.store.put(key, value)
        self.model[key] = value

    @rule(key=KEYS)
    def delete(self, key):
        self.store.delete(key)
        self.model.pop(key, None)

    @rule(key=KEYS)
    def get(self, key):
        assert self.store.get_or_none(key) == self.model.get(key)

    @invariant()
    def no_tombstones_ever(self):
        assert self.store.metrics.tombstones_written == 0

    @invariant()
    def length_matches(self):
        assert len(self.store) == len(self.model)


class _DictBackend(NodeBackend):
    def __init__(self):
        self.data = {}

    def get(self, path):
        return self.data.get(path)

    def peek(self, path):
        return self.data.get(path)

    def put(self, path, blob):
        self.data[path] = blob

    def delete(self, path):
        self.data.pop(path, None)


def _trie_key(index: int):
    return bytes_to_nibbles(hashlib.sha3_256(b"sk%d" % index).digest())


class TrieMachine(RuleBasedStateMachine):
    """Path trie vs dict with interleaved commits.

    Teardown cross-checks the strongest invariant: rebuilding from the
    final model in one shot yields the identical root hash and node set.
    """

    def __init__(self):
        super().__init__()
        self.backend = _DictBackend()
        self.trie = PathTrie(self.backend)
        self.model: dict = {}

    @rule(index=st.integers(min_value=0, max_value=25), value=VALUES)
    def update(self, index, value):
        self.trie.update(_trie_key(index), value)
        self.model[_trie_key(index)] = value

    @rule(index=st.integers(min_value=0, max_value=25))
    def delete(self, index):
        existed = self.trie.delete(_trie_key(index))
        assert existed == (_trie_key(index) in self.model)
        self.model.pop(_trie_key(index), None)

    @rule(index=st.integers(min_value=0, max_value=25))
    def get(self, index):
        assert self.trie.get(_trie_key(index)) == self.model.get(_trie_key(index))

    @rule()
    def commit(self):
        self.trie.commit()

    @invariant()
    def items_match_model(self):
        assert dict(self.trie.items()) == self.model

    def teardown(self):
        root = self.trie.commit()
        if not self.model:
            assert root == EMPTY_ROOT
            assert self.backend.data == {}
            return
        rebuilt_backend = _DictBackend()
        rebuilt = PathTrie(rebuilt_backend)
        for key, value in self.model.items():
            rebuilt.update(key, value)
        assert rebuilt.commit() == root
        assert rebuilt_backend.data == self.backend.data


TestLSMMachine = LSMMachine.TestCase
TestLSMMachine.settings = settings(max_examples=40, stateful_step_count=50, deadline=None)

TestHashLogMachine = HashLogMachine.TestCase
TestHashLogMachine.settings = settings(
    max_examples=20, stateful_step_count=40, deadline=None
)

TestTrieMachine = TrieMachine.TestCase
TestTrieMachine.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
