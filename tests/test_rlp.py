"""RLP codec tests: Yellow-Paper vectors, errors, and property-based roundtrips."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro import rlp
from repro.errors import RLPDecodingError, RLPEncodingError
from repro.rlp.codec import MAX_NESTING_DEPTH


class TestEncodeVectors:
    """Canonical encodings from the Yellow Paper / Ethereum wiki."""

    def test_empty_string(self):
        assert rlp.encode(b"") == b"\x80"

    def test_single_low_byte_is_itself(self):
        assert rlp.encode(b"\x00") == b"\x00"
        assert rlp.encode(b"\x7f") == b"\x7f"

    def test_single_high_byte_is_prefixed(self):
        assert rlp.encode(b"\x80") == b"\x81\x80"

    def test_short_string(self):
        assert rlp.encode(b"dog") == b"\x83dog"

    def test_55_byte_string_uses_short_form(self):
        payload = b"a" * 55
        assert rlp.encode(payload) == bytes([0x80 + 55]) + payload

    def test_56_byte_string_uses_long_form(self):
        payload = b"a" * 56
        assert rlp.encode(payload) == b"\xb8\x38" + payload

    def test_empty_list(self):
        assert rlp.encode([]) == b"\xc0"

    def test_nested_list(self):
        # [ [], [[]], [ [], [[]] ] ] — the canonical set-theoretic vector
        assert rlp.encode([[], [[]], [[], [[]]]]) == bytes.fromhex("c7c0c1c0c3c0c1c0")

    def test_cat_dog_list(self):
        assert rlp.encode([b"cat", b"dog"]) == b"\xc8\x83cat\x83dog"

    def test_integer_zero_is_empty_string(self):
        assert rlp.encode(0) == b"\x80"

    def test_integer_encoding(self):
        assert rlp.encode(15) == b"\x0f"
        assert rlp.encode(1024) == b"\x82\x04\x00"

    def test_str_encodes_utf8(self):
        assert rlp.encode("dog") == b"\x83dog"


class TestEncodeErrors:
    def test_negative_integer_rejected(self):
        with pytest.raises(RLPEncodingError):
            rlp.encode(-1)

    def test_bool_rejected(self):
        with pytest.raises(RLPEncodingError):
            rlp.encode(True)

    def test_unencodable_type_rejected(self):
        with pytest.raises(RLPEncodingError):
            rlp.encode(object())


class TestDecodeErrors:
    def test_empty_input(self):
        with pytest.raises(RLPDecodingError):
            rlp.decode(b"")

    def test_trailing_bytes(self):
        with pytest.raises(RLPDecodingError):
            rlp.decode(b"\x83dogX")

    def test_truncated_payload(self):
        with pytest.raises(RLPDecodingError):
            rlp.decode(b"\x83do")

    def test_non_canonical_single_byte(self):
        # 0x81 0x05 must have been encoded as 0x05 directly.
        with pytest.raises(RLPDecodingError):
            rlp.decode(b"\x81\x05")

    def test_long_form_for_short_payload(self):
        # 0xb8 0x01 'x' should have used the short form.
        with pytest.raises(RLPDecodingError):
            rlp.decode(b"\xb8\x01x")

    def test_length_with_leading_zero(self):
        with pytest.raises(RLPDecodingError):
            rlp.decode(b"\xb9\x00\x38" + b"a" * 56)

    def test_non_bytes_input(self):
        with pytest.raises(RLPDecodingError):
            rlp.decode("dog")  # type: ignore[arg-type]


def nested_lists(depth):
    """The empty list wrapped in ``depth - 1`` more lists: item and RLP blob."""
    item, blob = [], b"\xc0"
    for _ in range(depth - 1):
        size = len(blob)
        if size <= 55:
            header = bytes([0xC0 + size])
        else:
            size_bytes = size.to_bytes((size.bit_length() + 7) // 8, "big")
            header = bytes([0xF7 + len(size_bytes)]) + size_bytes
        item, blob = [item], header + blob
    return item, blob


class TestNestingDepth:
    """Hostile nesting is a typed error, never a raw RecursionError."""

    def test_deepest_accepted_nesting_roundtrips(self):
        item, blob = nested_lists(MAX_NESTING_DEPTH)
        assert rlp.encode(item) == blob
        assert rlp.decode(blob) == item

    def test_decode_rejects_3000_nested_lists(self):
        _, blob = nested_lists(3000)
        assert len(blob) < 10_000
        with pytest.raises(RLPDecodingError, match="nesting"):
            rlp.decode(blob)

    def test_encode_rejects_2000_deep_list(self):
        item, _ = nested_lists(2000)
        with pytest.raises(RLPEncodingError, match="nesting"):
            rlp.encode(item)

    def test_one_past_the_bound_is_rejected_both_ways(self):
        item, blob = nested_lists(MAX_NESTING_DEPTH + 1)
        with pytest.raises(RLPEncodingError):
            rlp.encode(item)
        with pytest.raises(RLPDecodingError):
            rlp.decode(blob)

    def test_depth_counts_nesting_not_items(self):
        wide = [[b"x"] * 3] * 1000
        assert rlp.decode(rlp.encode(wide)) == wide


class TestUintHelpers:
    def test_zero_roundtrip(self):
        assert rlp.encode_uint(0) == b""
        assert rlp.decode_uint(b"") == 0

    def test_minimal_encoding(self):
        assert rlp.encode_uint(256) == b"\x01\x00"

    def test_leading_zero_rejected(self):
        with pytest.raises(RLPDecodingError):
            rlp.decode_uint(b"\x00\x01")

    def test_negative_rejected(self):
        with pytest.raises(RLPEncodingError):
            rlp.encode_uint(-5)


# Recursive strategy: byte strings and nested lists thereof.
rlp_items = st.recursive(
    st.binary(max_size=80),
    lambda children: st.lists(children, max_size=6),
    max_leaves=25,
)


class TestProperties:
    @given(rlp_items)
    def test_roundtrip(self, item):
        decoded = rlp.decode(rlp.encode(item))
        assert _normalize(item) == decoded

    @given(rlp_items)
    def test_length_of_matches_encode(self, item):
        assert rlp.length_of(item) == len(rlp.encode(item))

    @given(st.integers(min_value=0, max_value=2**256))
    def test_uint_roundtrip(self, value):
        assert rlp.decode_uint(rlp.encode_uint(value)) == value

    @given(st.binary(max_size=200))
    def test_encoded_size_bound(self, payload):
        # Prefix adds at most 1 + len(len) bytes.
        encoded = rlp.encode(payload)
        assert len(encoded) <= len(payload) + 9


def _normalize(item):
    """Encoding maps tuples to lists and bytearrays to bytes."""
    if isinstance(item, (list, tuple)):
        return [_normalize(sub) for sub in item]
    return bytes(item)
