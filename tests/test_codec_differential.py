"""The table-driven trie-node codec against its recursive predecessor.

``repro.rlp.codec`` and ``repro.trie.nibbles`` encode and decode in
loops over precomputed tables; ``tests/codec_reference.py`` keeps the
per-item recursive code they replaced.  Everything here is seeded: a
failure names its seed or case.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro import rlp
from repro.errors import InvalidNibblesError, ReproError, RLPError
from repro.trie.nibbles import (
    bytes_to_nibbles,
    compact_decode,
    compact_encode,
    nibbles_to_bytes,
)
from repro.trie.nodes import (
    BranchNode,
    ExtensionNode,
    LeafNode,
    decode_node,
    encode_node,
)
from tests import codec_reference as ref

#: Every length class of the format: empty, single byte, the short/long
#: boundary (55/56), and one-, two- and three-byte length fields.
BYTE_LENGTHS = (0, 1, 55, 56, 255, 256, 65_536)


def random_item(rng: random.Random, depth: int):
    """A seeded encodable item: lists nest at most ``depth`` deep."""
    kind = rng.randrange(8 if depth else 5)
    if kind == 0:
        return rng.randbytes(rng.choice(BYTE_LENGTHS))
    if kind == 1:
        return rng.randbytes(rng.randrange(40))
    if kind == 2:
        return rng.choice((0, 1, 127, 128, 255, 256, 1024, rng.getrandbits(200)))
    if kind == 3:
        return "".join(rng.choice("dog ü€𝄞") for _ in range(rng.randrange(30)))
    if kind == 4:
        return bytearray(rng.randbytes(rng.choice((0, 1, 2, 55, 56, 300))))
    items = [random_item(rng, depth - 1) for _ in range(rng.randrange(6))]
    return tuple(items) if kind == 5 else items


def full_branch(rng: random.Random) -> BranchNode:
    return BranchNode(
        children=[True] * 16,
        value=rng.randbytes(20),
        child_hashes=[rng.randbytes(32) for _ in range(16)],
    )


class TestRlpAgainstOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_nested_items_byte_identical_both_ways(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            item = random_item(rng, depth=6)
            blob = rlp.encode(item)
            assert blob == ref.encode(item), (seed, item)
            assert type(blob) is bytes
            assert rlp.decode(blob) == ref.decode(blob), (seed, item)
            assert rlp.encode(rlp.decode(blob)) == blob

    @pytest.mark.parametrize("length", BYTE_LENGTHS)
    def test_every_length_class_alone_and_as_a_list_item(self, length):
        for fill in (0x00, 0x7F, 0x80, 0xFF):
            payload = bytes([fill]) * length
            for item in (payload, [payload], [payload, [payload], b""], bytearray(payload)):
                blob = rlp.encode(item)
                assert blob == ref.encode(item)
                assert rlp.decode(blob) == ref.decode(blob)

    def test_yellow_paper_vectors(self):
        # Yellow Paper appendix B / Jezek, "Ethereum Data Structures" §RLP.
        vectors = [
            ("dog", b"\x83dog"),
            (["cat", "dog"], b"\xc8\x83cat\x83dog"),
            ([[], [[]], [[], [[]]]], b"\xc7\xc0\xc1\xc0\xc3\xc0\xc1\xc0"),
            (1024, b"\x82\x04\x00"),
            (b"", b"\x80"),
            ([], b"\xc0"),
            (0, b"\x80"),
            (15, b"\x0f"),
            (b"a" * 56, b"\xb8\x38" + b"a" * 56),
        ]
        for item, expected in vectors:
            assert rlp.encode(item) == expected == ref.encode(item)
            assert rlp.decode(expected) == ref.decode(expected)

    def test_rejections_survive(self):
        for bad in (True, False, -1, object(), [1, [True]], [b"x", -5], 1.5, None):
            with pytest.raises(RLPError):
                rlp.encode(bad)
            with pytest.raises(RLPError):
                ref.encode(bad)

    @pytest.mark.parametrize("seed", range(4))
    def test_mutated_blobs_decode_like_the_oracle(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(120):
            blob = rlp.encode(random_item(rng, depth=4))[:2000]
            for _ in range(25):
                mutated = mutate(rng, blob)
                try:
                    expected = ref.decode(mutated)
                except RLPError:
                    with pytest.raises(RLPError):
                        rlp.decode(mutated)
                else:
                    assert rlp.decode(mutated) == expected


class TestNibblesAgainstOracle:
    def test_compact_codec_every_length_both_flags(self):
        rng = random.Random(7)
        for length in range(65):
            for is_leaf in (False, True):
                paths = [(0,) * length, (15,) * length]
                paths += [
                    tuple(rng.randrange(16) for _ in range(length)) for _ in range(20)
                ]
                for path in paths:
                    packed = compact_encode(path, is_leaf)
                    assert packed == ref.compact_encode(path, is_leaf)
                    assert compact_decode(packed) == (path, is_leaf)
                    assert ref.compact_decode(packed) == (path, is_leaf)

    def test_nibble_expansion_and_packing(self):
        rng = random.Random(8)
        for length in range(70):
            data = rng.randbytes(length)
            nibbles = bytes_to_nibbles(data)
            assert nibbles == ref.bytes_to_nibbles(data)
            assert all(type(nibble) is int for nibble in nibbles)
            assert nibbles_to_bytes(nibbles) == data == ref.nibbles_to_bytes(nibbles)
            assert nibbles_to_bytes(list(nibbles)) == data

    @pytest.mark.parametrize("bad", [16, -1, 256, 300])
    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_out_of_range_nibble_rejected(self, bad, position):
        even, odd = [3] * 8, [3] * 7
        even[position] = odd[position] = bad
        for path in (tuple(even), tuple(odd)):
            for is_leaf in (False, True):
                with pytest.raises(InvalidNibblesError):
                    compact_encode(path, is_leaf)
                with pytest.raises(InvalidNibblesError):
                    ref.compact_encode(path, is_leaf)
        with pytest.raises(InvalidNibblesError):
            nibbles_to_bytes(tuple(even))

    def test_odd_count_and_bad_hex_prefix_rejected(self):
        with pytest.raises(InvalidNibblesError):
            nibbles_to_bytes((1, 2, 3))
        # empty; flag nibble 4 and 15; even-length flag with non-zero padding
        for data in (b"", b"\x40", b"\xf1\x23", b"\x0f\x12", b"\x21"):
            with pytest.raises(InvalidNibblesError):
                compact_decode(data)
            with pytest.raises(InvalidNibblesError):
                ref.compact_decode(data)


def mutate(rng: random.Random, blob: bytes) -> bytes:
    """One seeded flip, truncation or insertion."""
    kind = rng.randrange(3)
    if kind == 0 and blob:
        at = rng.randrange(len(blob))
        return blob[:at] + bytes([blob[at] ^ (1 << rng.randrange(8))]) + blob[at + 1 :]
    if kind == 1:
        return blob[: rng.randrange(len(blob) + 1)]
    at = rng.randrange(len(blob) + 1)
    return blob[:at] + rng.randbytes(rng.randint(1, 3)) + blob[at:]


class TestNodeDecoderFuzz:
    MUTATIONS_PER_BLOB = 20_000

    def blobs(self):
        rng = random.Random(2024)
        path = tuple(rng.randrange(16) for _ in range(61))
        return {
            "leaf": encode_node(LeafNode(suffix=path, value=rng.randbytes(70))),
            "extension": encode_node(
                ExtensionNode(suffix=path[:5], child_hash=rng.randbytes(32))
            ),
            "branch": encode_node(full_branch(rng)),
        }

    @pytest.mark.parametrize("kind", ["leaf", "extension", "branch"])
    def test_mutations_raise_only_typed_errors(self, kind):
        blob = self.blobs()[kind]
        rng = random.Random(kind)
        survived = 0
        for case in range(self.MUTATIONS_PER_BLOB):
            mutated = mutate(rng, blob)
            if case % 4 == 0:  # a second fault on top of the first
                mutated = mutate(rng, mutated)
            try:
                node = decode_node(mutated)
            except ReproError:
                continue
            except Exception as exc:  # noqa: BLE001 - the point of the test
                pytest.fail(f"{kind} case {case}: untyped {exc!r} on {mutated.hex()}")
            survived += 1
            # What still decodes is a well-formed node: it re-encodes to
            # exactly the bytes it came from.
            assert encode_node(node) == mutated, (kind, case)
        assert 0 < survived < self.MUTATIONS_PER_BLOB

    def test_malformed_shapes_are_trie_errors(self):
        for item in (b"string", [], [b"a"], [b"a"] * 3, [b"a"] * 16, [b"a"] * 18,
                     [[b"\x20"], b"v"], [b"\x20", [b"v"]], [b""] * 16 + [[b"v"]],
                     [[]] + [b""] * 16, [b"", b"v"], [b"\x40", b"v"]):
            with pytest.raises(ReproError):
                decode_node(rlp.encode(item))


def python_calls(fn, *args) -> int:
    """Python-level function calls made while running ``fn(*args)``."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


class TestCallCountGuard:
    """The codec's cost is per byte, not per item: a full branch used to
    take 73 Python-level calls to encode and 40 to decode."""

    LIMIT = 12

    def test_full_branch_encode(self):
        node = full_branch(random.Random(1))
        assert python_calls(encode_node, node) <= self.LIMIT
        assert python_calls(ref.encode, [b"\x11" * 32] * 16 + [b""]) > 3 * self.LIMIT

    def test_full_branch_decode(self):
        blob = encode_node(full_branch(random.Random(2)))
        assert python_calls(decode_node, blob) <= self.LIMIT
        assert python_calls(ref.decode, blob) > self.LIMIT

    def test_leaf_roundtrip(self):
        node = LeafNode(suffix=bytes_to_nibbles(b"\xab" * 31), value=b"v" * 70)
        assert python_calls(encode_node, node) <= self.LIMIT
        assert python_calls(decode_node, encode_node(node)) <= self.LIMIT
