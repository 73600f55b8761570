"""Merkle Patricia Trie tests: node codecs, structure, and invariants."""

from __future__ import annotations

import copy
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.trie import (
    BranchNode,
    ExtensionNode,
    LeafNode,
    NodeBackend,
    PathTrie,
    bytes_to_nibbles,
    decode_node,
    encode_node,
)
import repro.trie.trie as trie_module
from repro.trie.trie import EMPTY_ROOT


class MemBackend(NodeBackend):
    """Dict-backed node store with read counters for cache assertions."""

    def __init__(self):
        self.data = {}
        self.get_calls = 0

    def get(self, path):
        self.get_calls += 1
        return self.data.get(path)

    def peek(self, path):
        return self.data.get(path)

    def put(self, path, blob):
        self.data[path] = blob

    def delete(self, path):
        self.data.pop(path, None)


def key_of(index: int):
    return bytes_to_nibbles(hashlib.sha3_256(b"key%d" % index).digest())


def make_trie():
    backend = MemBackend()
    return PathTrie(backend), backend


class TestNodeCodec:
    def test_leaf_roundtrip(self):
        node = LeafNode(suffix=(1, 2, 3), value=b"payload")
        decoded = decode_node(encode_node(node))
        assert isinstance(decoded, LeafNode)
        assert decoded.suffix == (1, 2, 3) and decoded.value == b"payload"

    def test_extension_roundtrip(self):
        node = ExtensionNode(suffix=(0xA, 0xB), child_hash=b"\x11" * 32)
        decoded = decode_node(encode_node(node))
        assert isinstance(decoded, ExtensionNode)
        assert decoded.suffix == (0xA, 0xB) and decoded.child_hash == b"\x11" * 32

    def test_branch_roundtrip(self):
        node = BranchNode()
        node.children[3] = True
        node.child_hashes[3] = b"\x22" * 32
        node.value = b"terminal"
        decoded = decode_node(encode_node(node))
        assert isinstance(decoded, BranchNode)
        assert decoded.children[3] and not decoded.children[4]
        assert decoded.child_hashes[3] == b"\x22" * 32
        assert decoded.value == b"terminal"

    def test_branch_without_value(self):
        node = BranchNode()
        node.children[0] = True
        node.child_hashes[0] = b"\x01" * 32
        decoded = decode_node(encode_node(node))
        assert decoded.value is None


class TestBasicOperations:
    def test_empty_trie(self):
        trie, _ = make_trie()
        assert trie.get((1, 2)) is None
        assert trie.commit() == EMPTY_ROOT

    def test_single_insert(self):
        trie, backend = make_trie()
        trie.update(key_of(1), b"v1")
        assert trie.get(key_of(1)) == b"v1"
        root = trie.commit()
        assert root != EMPTY_ROOT
        assert len(backend.data) == 1  # a single leaf at the root path

    def test_overwrite(self):
        trie, _ = make_trie()
        trie.update(key_of(1), b"old")
        trie.update(key_of(1), b"new")
        assert trie.get(key_of(1)) == b"new"

    def test_many_inserts_and_gets(self):
        trie, _ = make_trie()
        for i in range(200):
            trie.update(key_of(i), b"value%d" % i)
        trie.commit()
        for i in range(200):
            assert trie.get(key_of(i)) == b"value%d" % i

    def test_get_absent_after_commit(self):
        trie, _ = make_trie()
        trie.update(key_of(1), b"v")
        trie.commit()
        assert trie.get(key_of(999)) is None

    def test_empty_value_rejected(self):
        trie, _ = make_trie()
        with pytest.raises(Exception):
            trie.update(key_of(1), b"")

    def test_contains(self):
        trie, _ = make_trie()
        trie.update(key_of(5), b"v")
        assert key_of(5) in trie
        assert key_of(6) not in trie


class TestDeletion:
    def test_delete_only_key(self):
        trie, backend = make_trie()
        trie.update(key_of(1), b"v")
        trie.commit()
        assert trie.delete(key_of(1))
        assert trie.commit() == EMPTY_ROOT
        assert backend.data == {}

    def test_delete_missing_returns_false(self):
        trie, _ = make_trie()
        trie.update(key_of(1), b"v")
        assert not trie.delete(key_of(2))

    def test_delete_restores_prior_root(self):
        trie, _ = make_trie()
        for i in range(50):
            trie.update(key_of(i), b"v%d" % i)
        root_before = trie.commit()
        trie.update(key_of(999), b"extra")
        trie.commit()
        trie.delete(key_of(999))
        assert trie.commit() == root_before

    def test_delete_all_in_random_order(self):
        trie, backend = make_trie()
        indices = list(range(80))
        for i in indices:
            trie.update(key_of(i), b"v%d" % i)
        trie.commit()
        random.Random(4).shuffle(indices)
        for i in indices:
            assert trie.delete(key_of(i))
        assert trie.commit() == EMPTY_ROOT
        assert backend.data == {}


class TestRootHashInvariants:
    def test_insertion_order_independence(self):
        items = [(key_of(i), b"v%d" % i) for i in range(60)]
        roots = set()
        node_sets = []
        for seed in range(3):
            trie, backend = make_trie()
            shuffled = items[:]
            random.Random(seed).shuffle(shuffled)
            for key, value in shuffled:
                trie.update(key, value)
            roots.add(trie.commit())
            node_sets.append(backend.data)
        assert len(roots) == 1
        assert node_sets[0] == node_sets[1] == node_sets[2]

    def test_incremental_equals_batch(self):
        items = [(key_of(i), b"v%d" % i) for i in range(40)]
        trie_a, _ = make_trie()
        for key, value in items:
            trie_a.update(key, value)
            trie_a.commit()  # commit after every update
        trie_b, _ = make_trie()
        for key, value in items:
            trie_b.update(key, value)
        assert trie_a.commit() == trie_b.commit()

    def test_value_change_changes_root(self):
        trie, _ = make_trie()
        trie.update(key_of(1), b"a")
        root1 = trie.commit()
        trie.update(key_of(1), b"b")
        assert trie.commit() != root1

    def test_deep_update_propagates_to_root(self):
        trie, _ = make_trie()
        for i in range(100):
            trie.update(key_of(i), b"v")
        root1 = trie.commit()
        trie.update(key_of(50), b"changed")
        assert trie.commit() != root1


class TestIteration:
    def test_items_in_key_order(self):
        trie, _ = make_trie()
        expected = {}
        for i in range(30):
            trie.update(key_of(i), b"v%d" % i)
            expected[key_of(i)] = b"v%d" % i
        trie.commit()
        items = list(trie.items())
        assert dict(items) == expected
        keys = [k for k, _ in items]
        assert keys == sorted(keys)

    def test_items_sees_uncommitted(self):
        trie, _ = make_trie()
        trie.update(key_of(1), b"dirty")
        assert dict(trie.items()) == {key_of(1): b"dirty"}


class TestCleanNodeCache:
    def test_repeat_resolution_hits_memory(self):
        trie, backend = make_trie()
        for i in range(50):
            trie.update(key_of(i), b"v")
        trie.commit()
        backend.get_calls = 0
        trie.get(key_of(3))
        first = backend.get_calls
        trie.get(key_of(3))
        assert backend.get_calls == first  # second lookup fully cached

    def test_cache_cleared_at_commit(self):
        trie, backend = make_trie()
        for i in range(50):
            trie.update(key_of(i), b"v")
        trie.commit()
        trie.get(key_of(3))
        trie.update(key_of(7), b"w")
        trie.commit()
        backend.get_calls = 0
        trie.get(key_of(3))
        assert backend.get_calls > 0  # re-read after commit


class TestFuzzAgainstDict:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "delete", "commit"]),
                st.integers(min_value=0, max_value=60),
                st.binary(min_size=1, max_size=16),
            ),
            max_size=200,
        )
    )
    def test_random_ops(self, ops):
        trie, backend = make_trie()
        model = {}
        for action, index, value in ops:
            key = key_of(index)
            if action == "put":
                trie.update(key, value)
                model[key] = value
            elif action == "delete":
                assert trie.delete(key) == (key in model)
                model.pop(key, None)
            else:
                trie.commit()
        trie.commit()
        assert dict(trie.items()) == model
        # Rebuild from scratch: same root, same node set.
        trie2, backend2 = make_trie()
        for key, value in model.items():
            trie2.update(key, value)
        assert trie2.commit() == trie.root_hash()
        assert backend2.data == backend.data


def short_key(rng: random.Random):
    """A 1-5 nibble key over three nibbles: dense in splits, extensions,
    branch values and collapses, unlike 64-nibble hashed keys."""
    return tuple(rng.randrange(3) for _ in range(rng.randint(1, 5)))


def fresh_build(model):
    trie, backend = make_trie()
    for key, value in model.items():
        trie.update(key, value)
    return trie.commit(), backend


class TestInPlaceBranchRestaging:
    """A branch that already is the dirty entry for its path is updated
    in place; the result must not depend on how the updates were grouped
    into commits, and backend-resolved nodes must stay untouched."""

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_interleavings_match_fresh_build(self, seed, sparse):
        rng = random.Random(seed)
        make_key = short_key if seed % 2 else (lambda r: key_of(r.randrange(80)))
        backend = MemBackend()
        trie = PathTrie(backend, sparse=sparse)
        model = {}
        for step in range(400):
            action = rng.random()
            key = make_key(rng)
            if action < 0.55:
                value = rng.randbytes(rng.randint(1, 40))
                trie.update(key, value)
                model[key] = value
            elif action < 0.85:
                assert trie.delete(key) == (key in model), (seed, step)
                model.pop(key, None)
            elif action < 0.95:
                trie.commit()
            assert trie.get(key) == model.get(key), (seed, step)
        root = trie.commit()
        assert dict(trie.items()) == model
        expected_root, expected_backend = fresh_build(model)
        assert root == expected_root
        assert backend.data == expected_backend.data  # node for node

    def test_split_directly_below_a_branch_mutated_in_place(self):
        trie, backend = make_trie()
        model = {(1, 2, 3, 4): b"a", (2, 2, 2, 2): b"b"}
        for key, value in model.items():
            trie.update(key, value)
        trie.commit()
        # One block: the first update copies the clean root branch, the
        # others find it dirty and write to it in place — adding a child,
        # splitting the clean leaf below it, splitting a dirty leaf below
        # it, giving it no new child at all, and removing one again.
        block = [
            ((3, 3, 3, 3), b"c"),
            ((1, 2, 9, 9), b"d"),
            ((3, 3, 7, 7), b"e"),
            ((2, 2, 2, 2), b"f"),
            ((0, 0), b"g"),
        ]
        for key, value in block:
            trie.update(key, value)
            model[key] = value
            assert all(trie.get(k) == v for k, v in model.items())
        assert trie.delete((0, 0))
        del model[(0, 0)]
        root = trie.commit()
        expected_root, expected_backend = fresh_build(model)
        assert root == expected_root
        assert backend.data == expected_backend.data

    def test_sparse_trie_with_absent_subtrees_commits_the_full_root(self):
        full, full_backend = make_trie()
        model = {key_of(i): b"v%d" % i for i in range(300)}
        for key, value in model.items():
            full.update(key, value)
        full.commit()
        touched = [key_of(i) for i in (3, 50, 299)] + [key_of(1000), key_of(1001)]
        # A beam-synced node store: only the nodes on the touched keys'
        # paths and their siblings are local.
        on_path = {key[:n] for key in touched for n in range(len(key) + 1)}
        sparse_backend = MemBackend()
        sparse_backend.data = {
            path: blob
            for path, blob in full_backend.data.items()
            if path[:-1] in on_path
        }
        assert len(sparse_backend.data) < len(full_backend.data) // 2
        sparse = PathTrie(sparse_backend, sparse=True)
        for trie in (full, sparse):
            trie.update(touched[0], b"rewritten")
            trie.update(touched[3], b"new")
            assert trie.delete(touched[1])
            trie.update(touched[4], b"new too")
            assert trie.delete(touched[2])
        assert sparse.commit() == full.commit()
        for path, blob in sparse_backend.data.items():
            assert full_backend.data[path] == blob

    def test_backend_resolved_nodes_are_never_mutated(self, monkeypatch):
        resolved = []

        def recording_decode(blob):
            node = decode_node(blob)
            resolved.append((node, copy.deepcopy(node)))
            return node

        monkeypatch.setattr(trie_module, "decode_node", recording_decode)
        rng = random.Random(11)
        trie, _ = make_trie()
        keys = [short_key(rng) for _ in range(40)] + [key_of(i) for i in range(40)]
        for key in keys:
            trie.update(key, b"first")
        trie.commit()
        for round_ in range(6):
            for key in rng.sample(keys, 25):
                trie.get(key)  # resolve clean nodes, then write through them
                if rng.random() < 0.6:
                    trie.update(key, b"round%d" % round_)
                else:
                    trie.delete(key)
                for node, snapshot in resolved:
                    assert node == snapshot
            trie.commit()
        assert len(resolved) > 100
