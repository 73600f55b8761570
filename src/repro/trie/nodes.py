"""Trie node types and their RLP codecs.

Three node kinds, per the Yellow Paper:

* **Leaf** — ``[hp(suffix, leaf=True), value]``: terminates a key.
* **Extension** — ``[hp(suffix, leaf=False), child_hash]``: a shared
  path segment leading to exactly one child (always a branch here).
* **Branch** — ``[c0..c15, value]``: a 16-way fan-out; each ``ci`` is
  the child's 32-byte hash or empty, and ``value`` terminates a key
  that ends exactly at this node.

In the path-based storage model, children are *resolved* by path, but
nodes still embed child hashes so that (a) stored node sizes match the
real format and (b) the root hash authenticates the whole trie.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro import rlp
from repro.errors import TrieError
from repro.trie.nibbles import Nibbles, compact_decode, compact_encode

EMPTY_HASH_SLOT = b""


@dataclass
class LeafNode:
    """Terminates a key; ``suffix`` is the remaining path below the node."""

    suffix: Nibbles
    value: bytes


@dataclass
class ExtensionNode:
    """A shared path segment; its single child lives at ``path + suffix``."""

    suffix: Nibbles
    child_hash: bytes = EMPTY_HASH_SLOT


@dataclass
class BranchNode:
    """16-way fan-out; ``children[i]`` truthy means a child exists at nibble i."""

    children: list[bool] = field(default_factory=lambda: [False] * 16)
    value: Optional[bytes] = None
    child_hashes: list[bytes] = field(default_factory=lambda: [EMPTY_HASH_SLOT] * 16)

    def child_count(self) -> int:
        return sum(self.children)

    def sole_child_nibble(self) -> int:
        """Index of the single remaining child (call only when count == 1)."""
        for i, present in enumerate(self.children):
            if present:
                return i
        raise TrieError("branch has no children")


Node = Union[LeafNode, ExtensionNode, BranchNode]


def encode_node(node: Node) -> bytes:
    """RLP-encode a node for storage."""
    if isinstance(node, LeafNode):
        return rlp.encode([compact_encode(node.suffix, True), node.value])
    if isinstance(node, ExtensionNode):
        return rlp.encode([compact_encode(node.suffix, False), node.child_hash])
    if isinstance(node, BranchNode):
        slots = [
            child_hash if present else EMPTY_HASH_SLOT
            for child_hash, present in zip(node.child_hashes, node.children)
        ]
        slots.append(node.value or b"")
        return rlp.encode(slots)
    raise TrieError(f"unknown node type: {type(node).__name__}")


def decode_node(blob: bytes) -> Node:
    """Decode a stored node blob back into a node object."""
    items = rlp.decode(blob)
    if not isinstance(items, list):
        raise TrieError("node blob is not an RLP list")
    if len(items) == 2:
        path_blob, payload = items
        if not isinstance(path_blob, bytes) or not isinstance(payload, bytes):
            raise TrieError("two-item node fields must be byte strings")
        suffix, is_leaf = compact_decode(path_blob)
        if is_leaf:
            return LeafNode(suffix=suffix, value=payload)
        return ExtensionNode(suffix=suffix, child_hash=payload)
    if len(items) == 17:
        if list in map(type, items):
            raise TrieError("branch slots must be byte strings")
        value = items.pop() or None
        # The 16 decoded slots are the child hashes; an empty slot is no child.
        return BranchNode(children=list(map(bool, items)), value=value, child_hashes=items)
    raise TrieError(f"node list has {len(items)} items; expected 2 or 17")
