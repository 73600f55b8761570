"""Test-only oracle: the per-item recursive RLP codec and the loop-based
nibble functions that ``repro.rlp.codec`` and ``repro.trie.nibbles`` used
before they became table-driven.

Kept word for word (one call per item, one loop step per nibble) so that
``test_codec_differential.py`` can require the fast codec to be
byte-identical to it.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Any

from repro.errors import InvalidNibblesError, RLPDecodingError, RLPEncodingError

Nibbles = tuple[int, ...]

_SHORT_STRING_OFFSET = 0x80
_LONG_STRING_OFFSET = 0xB7
_SHORT_LIST_OFFSET = 0xC0
_LONG_LIST_OFFSET = 0xF7
_MAX_SHORT_LENGTH = 55


def encode_uint(value: int) -> bytes:
    """Encode a non-negative integer as a minimal big-endian byte string.

    Zero encodes to the empty string, per the Yellow Paper.
    """
    if value < 0:
        raise RLPEncodingError(f"cannot RLP-encode negative integer {value}")
    if value == 0:
        return b""
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def _encode_length(length: int, short_offset: int) -> bytes:
    if length <= _MAX_SHORT_LENGTH:
        return bytes([short_offset + length])
    length_bytes = encode_uint(length)
    long_offset = short_offset + _MAX_SHORT_LENGTH
    return bytes([long_offset + len(length_bytes)]) + length_bytes


def _as_payload(item: Any) -> bytes:
    if isinstance(item, (bytes, bytearray)):
        return bytes(item)
    if isinstance(item, bool):
        # bool is an int subclass; reject explicitly to avoid surprises.
        raise RLPEncodingError("cannot RLP-encode bool; use int 0/1 explicitly")
    if isinstance(item, int):
        return encode_uint(item)
    if isinstance(item, str):
        return item.encode("utf-8")
    raise RLPEncodingError(f"cannot RLP-encode object of type {type(item).__name__}")


def encode(item: Any) -> bytes:
    """Encode an item (byte string, int, str, or nested sequence) to RLP."""
    if isinstance(item, (list, tuple)):
        payload = b"".join(encode(sub) for sub in item)
        return _encode_length(len(payload), _SHORT_LIST_OFFSET) + payload
    payload = _as_payload(item)
    if len(payload) == 1 and payload[0] < _SHORT_STRING_OFFSET:
        return payload
    return _encode_length(len(payload), _SHORT_STRING_OFFSET) + payload


def decode(blob: bytes) -> Any:
    """Decode an RLP blob into bytes or nested lists of bytes.

    Raises :class:`RLPDecodingError` if the blob is malformed or has
    trailing bytes.
    """
    if not isinstance(blob, (bytes, bytearray)):
        raise RLPDecodingError(f"expected bytes, got {type(blob).__name__}")
    item, consumed = _decode_at(bytes(blob), 0)
    if consumed != len(blob):
        raise RLPDecodingError(
            f"trailing bytes: consumed {consumed} of {len(blob)}"
        )
    return item


def _read_length(blob: bytes, offset: int, length_of_length: int) -> tuple[int, int]:
    end = offset + length_of_length
    if end > len(blob):
        raise RLPDecodingError("truncated length field")
    length_bytes = blob[offset:end]
    if length_bytes[0] == 0:
        raise RLPDecodingError("length field has leading zero")
    length = int.from_bytes(length_bytes, "big")
    if length <= _MAX_SHORT_LENGTH:
        raise RLPDecodingError("long form used for short payload")
    return length, end


def _decode_at(blob: bytes, offset: int) -> tuple[Any, int]:
    if offset >= len(blob):
        raise RLPDecodingError("unexpected end of input")
    prefix = blob[offset]
    if prefix < _SHORT_STRING_OFFSET:
        return blob[offset : offset + 1], offset + 1
    if prefix <= _LONG_STRING_OFFSET:
        length = prefix - _SHORT_STRING_OFFSET
        start = offset + 1
        payload = _take(blob, start, length)
        if length == 1 and payload[0] < _SHORT_STRING_OFFSET:
            raise RLPDecodingError("single byte below 0x80 must be encoded as itself")
        return payload, start + length
    if prefix < _SHORT_LIST_OFFSET:
        length, start = _read_length(blob, offset + 1, prefix - _LONG_STRING_OFFSET)
        payload = _take(blob, start, length)
        return payload, start + length
    if prefix <= _LONG_LIST_OFFSET:
        length = prefix - _SHORT_LIST_OFFSET
        start = offset + 1
    else:
        length, start = _read_length(blob, offset + 1, prefix - _LONG_LIST_OFFSET)
    _take(blob, start, length)  # bounds check before iterating
    items = []
    cursor = start
    end = start + length
    while cursor < end:
        item, cursor = _decode_at(blob, cursor)
        if cursor > end:
            raise RLPDecodingError("list item overruns list payload")
        items.append(item)
    return items, end


def _take(blob: bytes, start: int, length: int) -> bytes:
    end = start + length
    if end > len(blob):
        raise RLPDecodingError("truncated payload")
    return blob[start:end]


def bytes_to_nibbles(data: bytes) -> Nibbles:
    """Expand bytes into their nibble sequence (big-endian within a byte)."""
    nibbles = []
    for byte in data:
        nibbles.append(byte >> 4)
        nibbles.append(byte & 0x0F)
    return tuple(nibbles)


def nibbles_to_bytes(nibbles: Nibbles) -> bytes:
    """Pack an even-length nibble sequence back into bytes."""
    if len(nibbles) % 2 != 0:
        raise InvalidNibblesError(f"odd nibble count: {len(nibbles)}")
    _validate(nibbles)
    return bytes((nibbles[i] << 4) | nibbles[i + 1] for i in range(0, len(nibbles), 2))


def _validate(nibbles: Nibbles) -> None:
    for nibble in nibbles:
        if not 0 <= nibble <= 0x0F:
            raise InvalidNibblesError(f"nibble out of range: {nibble}")


def compact_encode(nibbles: Nibbles, is_leaf: bool) -> bytes:
    """Hex-prefix encode a nibble path.

    The first nibble of the output encodes ``2*is_leaf + odd_length``;
    odd-length paths pack their first nibble into the flag byte.
    """
    _validate(nibbles)
    flag = 2 if is_leaf else 0
    if len(nibbles) % 2 == 1:
        prefixed = (flag + 1, *nibbles)
    else:
        prefixed = (flag, 0, *nibbles)
    return nibbles_to_bytes(prefixed)


def compact_decode(data: bytes) -> tuple[Nibbles, bool]:
    """Inverse of :func:`compact_encode`; returns ``(nibbles, is_leaf)``."""
    if not data:
        raise InvalidNibblesError("empty compact encoding")
    nibbles = bytes_to_nibbles(data)
    flag = nibbles[0]
    if flag > 3:
        raise InvalidNibblesError(f"bad hex-prefix flag nibble: {flag}")
    is_leaf = flag >= 2
    if flag % 2 == 1:  # odd length: payload starts at nibble 1
        return nibbles[1:], is_leaf
    if nibbles[1] != 0:
        raise InvalidNibblesError("even-length padding nibble must be zero")
    return nibbles[2:], is_leaf
