"""The path-addressed Merkle Patricia Trie.

Nodes are addressed by their *absolute nibble path from the root*, the
defining property of Geth's path-based storage model: one live node per
path, no duplicate hash-keyed entries, and structural updates delete or
overwrite the small set of paths they touch.

A key fact that makes path addressing work: when an insert splits a
leaf/extension, or a delete collapses a branch, the absolute paths of
*descendant* nodes never change — only nodes on the touched path are
created, rewritten, or deleted.  The implementation below leans on this
invariant throughout.

Backing storage is abstracted behind :class:`NodeBackend`.  Reads during
key lookup/update go through ``get`` (traced — these are the paper's
TrieNode reads); commit-time hashing of *clean* children uses ``peek``
(untraced — in Geth these hits come from the in-memory node set, not
the database).
"""

from __future__ import annotations

import abc
import hashlib
from typing import Iterator, Optional

from repro.errors import TrieError
from repro.trie.nibbles import Nibbles, common_prefix_length
from repro.trie.nodes import (
    BranchNode,
    ExtensionNode,
    LeafNode,
    Node,
    decode_node,
    encode_node,
)


def node_hash(encoded: bytes) -> bytes:
    """32-byte digest of an encoded node (sha3-256 standing in for Keccak)."""
    return hashlib.sha3_256(encoded).digest()


#: Root hash of the empty trie.
EMPTY_ROOT = node_hash(b"\x80")  # rlp.encode(b"")


class NodeBackend(abc.ABC):
    """Storage seam between a trie and the KV layer."""

    @abc.abstractmethod
    def get(self, path: Nibbles) -> Optional[bytes]:
        """Read a node blob by path (traced: a TrieNode* read)."""

    @abc.abstractmethod
    def peek(self, path: Nibbles) -> Optional[bytes]:
        """Read a node blob without tracing (commit-time hashing only)."""

    @abc.abstractmethod
    def put(self, path: Nibbles, blob: bytes) -> None:
        """Stage a node write (flushed with the enclosing block batch)."""

    @abc.abstractmethod
    def delete(self, path: Nibbles) -> None:
        """Stage a node deletion."""


class _Deleted:
    """Sentinel marking a dirty-deleted path."""


_DELETED = _Deleted()


class PathTrie:
    """MPT with path-based node storage.

    Mutations accumulate in a dirty overlay; :meth:`commit` encodes and
    flushes dirty nodes to the backend, recomputes hashes bottom-up,
    and returns the new root hash.  Between commits, lookups see the
    overlay first, so intra-block reads of freshly written nodes do not
    touch the database — matching Geth's behaviour of flushing trie
    changes once per block.
    """

    def __init__(self, backend: NodeBackend, sparse: bool = False) -> None:
        self._backend = backend
        # A sparse trie is partially populated (beam sync): locally
        # absent children are untouched remote subtrees, so commit-time
        # hashing may fall back to the hash stored in the parent node
        # instead of peeking the child blob.
        self._sparse = sparse
        # path -> Node (dirty) or _DELETED
        self._dirty: dict[Nibbles, object] = {}
        # path -> node hash, maintained across commits (structural cache)
        self._hash_cache: dict[Nibbles, bytes] = {}
        # Nodes resolved from the backend since the last commit.  Geth
        # keeps resolved nodes in the trie object for the lifetime of a
        # block, so a node is read from the database at most once per
        # block; re-resolutions are memory hits.  Cleared at commit.
        self._clean: dict[Nibbles, Node] = {}
        #: nodes resolved by the most recent get() (lookup cost)
        self.last_lookup_depth = 0

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def _resolve(self, path: Nibbles) -> Optional[Node]:
        entry = self._dirty.get(path)
        if entry is _DELETED:
            return None
        if entry is not None:
            return entry  # type: ignore[return-value]
        cached = self._clean.get(path)
        if cached is not None:
            return cached
        blob = self._backend.get(path)
        if blob is None:
            return None
        node = decode_node(blob)
        self._clean[path] = node
        return node

    def _resolve_untraced(self, path: Nibbles) -> Optional[Node]:
        entry = self._dirty.get(path)
        if entry is _DELETED:
            return None
        if entry is not None:
            return entry  # type: ignore[return-value]
        blob = self._backend.peek(path)
        if blob is None:
            return None
        return decode_node(blob)

    def _stage(self, path: Nibbles, node: Node) -> None:
        self._dirty[path] = node

    def _stage_delete(self, path: Nibbles) -> None:
        self._dirty[path] = _DELETED

    def _stage_branch(self, path: Nibbles, branch: BranchNode) -> BranchNode:
        """Return the dirty branch at ``path``, free to mutate in place.

        ``branch`` itself when it already is the dirty entry (the root
        branch is, from a block's second update on); otherwise a staged
        copy, so an object resolved from the backend is never written to.
        """
        if self._dirty.get(path) is not branch:
            branch = BranchNode(
                children=list(branch.children),
                value=branch.value,
                child_hashes=list(branch.child_hashes),
            )
            self._dirty[path] = branch
        return branch

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def get(self, key: Nibbles) -> Optional[bytes]:
        """Return the value stored under ``key`` or None.

        Sets :attr:`last_lookup_depth` to the number of nodes resolved —
        the per-lookup request count the paper's snapshot-acceleration
        discussion is about ("up to 64 requests per lookup").
        """
        path: Nibbles = ()
        remaining = key
        depth = 0
        try:
            while True:
                depth += 1
                node = self._resolve(path)
                if node is None:
                    return None
                if isinstance(node, LeafNode):
                    return node.value if node.suffix == remaining else None
                if isinstance(node, ExtensionNode):
                    n = len(node.suffix)
                    if remaining[:n] != node.suffix:
                        return None
                    path = path + node.suffix
                    remaining = remaining[n:]
                    continue
                # branch
                if not remaining:
                    return node.value
                nibble = remaining[0]
                if not node.children[nibble]:
                    return None
                path = path + (nibble,)
                remaining = remaining[1:]
        finally:
            self.last_lookup_depth = depth

    def __contains__(self, key: Nibbles) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------------
    # insert / update
    # ------------------------------------------------------------------

    def update(self, key: Nibbles, value: bytes) -> None:
        """Insert or overwrite ``key`` with ``value`` (must be non-empty)."""
        if not value:
            raise TrieError("empty values are not storable; use delete()")
        self._insert((), key, value)

    def _insert(self, path: Nibbles, remaining: Nibbles, value: bytes) -> None:
        node = self._resolve(path)
        if node is None:
            self._stage(path, LeafNode(suffix=remaining, value=value))
            return
        if isinstance(node, LeafNode):
            if node.suffix == remaining:
                self._stage(path, LeafNode(suffix=remaining, value=value))
                return
            self._split(path, node, remaining, value)
            return
        if isinstance(node, ExtensionNode):
            n = len(node.suffix)
            if remaining[:n] == node.suffix:
                # Restage so commit re-encodes us with the child's new hash.
                self._stage(path, ExtensionNode(suffix=node.suffix))
                self._insert(path + node.suffix, remaining[n:], value)
                return
            self._split(path, node, remaining, value)
            return
        # branch: restaged even when only a child changes, so commit
        # re-encodes it with the child's new hash
        branch = self._stage_branch(path, node)
        if not remaining:
            branch.value = value
            return
        nibble = remaining[0]
        branch.children[nibble] = True
        self._insert(path + (nibble,), remaining[1:], value)

    def _split(
        self, path: Nibbles, old: Node, remaining: Nibbles, value: bytes
    ) -> None:
        """Split a leaf/extension whose suffix diverges from ``remaining``."""
        assert isinstance(old, (LeafNode, ExtensionNode))
        common = common_prefix_length(old.suffix, remaining)
        branch_path = path + remaining[:common]
        branch = BranchNode()

        # Re-root the old node under the branch.  Its descendants keep
        # their absolute paths; only the node at `path` is rewritten.
        old_rest = old.suffix[common:]
        if isinstance(old, LeafNode):
            if not old_rest:
                branch.value = old.value
            else:
                nib = old_rest[0]
                branch.children[nib] = True
                self._stage(
                    branch_path + (nib,),
                    LeafNode(suffix=old_rest[1:], value=old.value),
                )
        else:  # extension
            if not old_rest:
                # common == suffix would have been handled as descend;
                # an extension's suffix is never empty.
                raise TrieError("extension suffix fully matched in split")
            nib = old_rest[0]
            branch.children[nib] = True
            if len(old_rest) == 1:
                # The extension collapses away: its child (a branch) sits
                # exactly at branch_path + (nib,) already.  Keep its known
                # hash so a sparse commit need not resolve the child.
                branch.child_hashes[nib] = old.child_hash
            else:
                self._stage(
                    branch_path + (nib,),
                    ExtensionNode(suffix=old_rest[1:], child_hash=old.child_hash),
                )

        # Place the new value.
        new_rest = remaining[common:]
        if not new_rest:
            branch.value = value
        else:
            nib = new_rest[0]
            branch.children[nib] = True
            self._stage(branch_path + (nib,), LeafNode(suffix=new_rest[1:], value=value))

        self._stage(branch_path, branch)
        if common > 0:
            self._stage(path, ExtensionNode(suffix=remaining[:common]))
        elif branch_path != path:
            raise TrieError("zero common prefix must place branch at the node path")

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------

    def delete(self, key: Nibbles) -> bool:
        """Remove ``key``; returns True when the key existed."""
        result = self._delete((), key)
        return result is not None

    def _delete(self, path: Nibbles, remaining: Nibbles) -> Optional[bool]:
        """Delete under the node at ``path``.

        Returns None when the key was absent, otherwise True.  After the
        recursive step, the node at ``path`` has been restaged, deleted,
        or collapsed as required.
        """
        node = self._resolve(path)
        if node is None:
            return None
        if isinstance(node, LeafNode):
            if node.suffix != remaining:
                return None
            self._stage_delete(path)
            return True
        if isinstance(node, ExtensionNode):
            n = len(node.suffix)
            if remaining[:n] != node.suffix:
                return None
            child_path = path + node.suffix
            result = self._delete(child_path, remaining[n:])
            if result is None:
                return None
            self._absorb_extension_child(path, node, child_path)
            return True
        # branch
        branch = node
        if not remaining:
            if branch.value is None:
                return None
            branch = self._stage_branch(path, branch)
            branch.value = None
        else:
            nibble = remaining[0]
            if not branch.children[nibble]:
                return None
            child_path = path + (nibble,)
            result = self._delete(child_path, remaining[1:])
            if result is None:
                return None
            branch = self._stage_branch(path, branch)
            if self._resolve(child_path) is None:
                branch.children[nibble] = False
                branch.child_hashes[nibble] = b""
        self._collapse_branch(path, branch)
        return True

    def _absorb_extension_child(
        self, path: Nibbles, ext: ExtensionNode, child_path: Nibbles
    ) -> None:
        """After a delete below an extension, merge with a shrunken child.

        The child (previously a branch) may have collapsed into a leaf,
        an extension, or vanished; fold it into the extension so no
        extension ever points at a non-branch node.
        """
        child = self._resolve(child_path)
        if child is None:
            self._stage_delete(path)
            return
        if isinstance(child, BranchNode):
            self._stage(path, ExtensionNode(suffix=ext.suffix))
            return
        if isinstance(child, LeafNode):
            merged: Node = LeafNode(suffix=ext.suffix + child.suffix, value=child.value)
        else:
            merged = ExtensionNode(
                suffix=ext.suffix + child.suffix, child_hash=child.child_hash
            )
        self._stage(path, merged)
        self._stage_delete(child_path)

    def _collapse_branch(self, path: Nibbles, branch: BranchNode) -> None:
        """Collapse a branch left with <= 1 child after a delete."""
        count = branch.child_count()
        if count == 0:
            if branch.value is None:
                self._stage_delete(path)
            else:
                self._stage(path, LeafNode(suffix=(), value=branch.value))
            return
        if count > 1 or branch.value is not None:
            return
        nibble = branch.sole_child_nibble()
        child_path = path + (nibble,)
        child = self._resolve(child_path)
        if child is None:
            raise TrieError(f"branch child missing at {child_path}")
        if isinstance(child, LeafNode):
            merged: Node = LeafNode(suffix=(nibble,) + child.suffix, value=child.value)
            self._stage_delete(child_path)
        elif isinstance(child, ExtensionNode):
            merged = ExtensionNode(
                suffix=(nibble,) + child.suffix, child_hash=child.child_hash
            )
            self._stage_delete(child_path)
        else:
            merged = ExtensionNode(suffix=(nibble,))
        self._stage(path, merged)

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def commit(self) -> bytes:
        """Flush dirty nodes to the backend and return the new root hash.

        Hashing proceeds bottom-up (deepest dirty path first) so child
        hashes are final before their parents are encoded.  Clean-child
        hashes come from the structural hash cache or an untraced peek.
        """
        if not self._dirty:
            return self.root_hash()

        for path in sorted(self._dirty, key=len, reverse=True):
            entry = self._dirty[path]
            if entry is _DELETED:
                self._backend.delete(path)
                self._hash_cache.pop(path, None)
                continue
            node: Node = entry  # type: ignore[assignment]
            self._fill_child_hashes(path, node)
            encoded = encode_node(node)
            self._backend.put(path, encoded)
            self._hash_cache[path] = node_hash(encoded)
        self._dirty.clear()
        self._clean.clear()
        return self.root_hash()

    def _fill_child_hashes(self, path: Nibbles, node: Node) -> None:
        if isinstance(node, LeafNode):
            return
        if isinstance(node, ExtensionNode):
            node.child_hash = self._hash_of(path + node.suffix, node.child_hash)
            return
        for i in range(16):
            if node.children[i]:
                node.child_hashes[i] = self._hash_of(path + (i,), node.child_hashes[i])
            else:
                node.child_hashes[i] = b""

    def _hash_of(self, path: Nibbles, stored: bytes = b"") -> bytes:
        cached = self._hash_cache.get(path)
        if cached is not None:
            return cached
        entry = self._dirty.get(path)
        if entry is not None and entry is not _DELETED:
            # A dirty child deeper than us would already be hashed by the
            # bottom-up ordering; reaching here means ordering broke.
            raise TrieError(f"dirty child {path} not yet hashed")
        blob = self._backend.peek(path)
        if blob is None:
            if self._sparse and stored:
                # Locally absent child of a sparse trie: an untouched
                # remote subtree.  Its stored hash is still authoritative
                # because descendant paths never change, so any local
                # mutation below it would have made this child dirty.
                return stored
            raise TrieError(f"missing child node at path {path}")
        digest = node_hash(blob)
        self._hash_cache[path] = digest
        return digest

    def root_hash(self) -> bytes:
        """Hash of the root node (EMPTY_ROOT for an empty trie)."""
        if self._dirty:
            raise TrieError("commit() before reading the root hash")
        root = self._hash_cache.get(())
        if root is not None:
            return root
        blob = self._backend.peek(())
        if blob is None:
            return EMPTY_ROOT
        digest = node_hash(blob)
        self._hash_cache[()] = digest
        return digest

    # ------------------------------------------------------------------
    # iteration (test/diagnostic support)
    # ------------------------------------------------------------------

    def items(self) -> Iterator[tuple[Nibbles, bytes]]:
        """Iterate ``(key, value)`` pairs in key order (untraced reads)."""
        yield from self._iter_node((), ())

    def _iter_node(self, path: Nibbles, key_prefix: Nibbles) -> Iterator[tuple[Nibbles, bytes]]:
        node = self._resolve_untraced(path)
        if node is None:
            return
        if isinstance(node, LeafNode):
            yield key_prefix + node.suffix, node.value
            return
        if isinstance(node, ExtensionNode):
            yield from self._iter_node(path + node.suffix, key_prefix + node.suffix)
            return
        if node.value is not None:
            yield key_prefix, node.value
        for i in range(16):
            if node.children[i]:
                yield from self._iter_node(path + (i,), key_prefix + (i,))
