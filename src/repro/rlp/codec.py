"""RLP encoder/decoder.

The format (Ethereum Yellow Paper, appendix B):

* A single byte in ``[0x00, 0x7f]`` is its own encoding.
* A byte string of length 0..55 is prefixed with ``0x80 + len``.
* A longer byte string is prefixed with ``0xb7 + len(len_bytes)`` followed
  by the big-endian length.
* A list whose total payload is 0..55 bytes is prefixed with ``0xc0 + len``.
* A longer list is prefixed with ``0xf7 + len(len_bytes)`` followed by the
  big-endian payload length.

Encodable Python types: ``bytes``/``bytearray``, ``int`` (non-negative,
encoded as a minimal big-endian string), ``str`` (UTF-8), and sequences
(``list``/``tuple``) of encodable items.  Decoding always produces
``bytes`` leaves; integer interpretation is up to the caller via
:func:`decode_uint`.
"""

from __future__ import annotations

from typing import Any

from repro.errors import RLPDecodingError, RLPEncodingError

_SHORT_STRING_OFFSET = 0x80
_LONG_STRING_OFFSET = 0xB7
_SHORT_LIST_OFFSET = 0xC0
_LONG_LIST_OFFSET = 0xF7
_MAX_SHORT_LENGTH = 55

#: One-byte prefixes of short (0..55 byte) payloads, indexed by length.
_SHORT_LENGTHS = range(_MAX_SHORT_LENGTH + 1)
_STRING_PREFIX = [bytes([_SHORT_STRING_OFFSET + n]) for n in _SHORT_LENGTHS]
_LIST_PREFIX = [bytes([_SHORT_LIST_OFFSET + n]) for n in _SHORT_LENGTHS]

#: Deepest list nesting :func:`encode` and :func:`decode` accept (a flat
#: list is depth 1).  Both recurse once per level; the bound keeps hostile
#: input a typed error, well under the interpreter's recursion limit.
MAX_NESTING_DEPTH = 128


def encode_uint(value: int) -> bytes:
    """Encode a non-negative integer as a minimal big-endian byte string.

    Zero encodes to the empty string, per the Yellow Paper.
    """
    if value < 0:
        raise RLPEncodingError(f"cannot RLP-encode negative integer {value}")
    if value == 0:
        return b""
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def decode_uint(payload: bytes) -> int:
    """Decode a big-endian byte string into a non-negative integer."""
    if payload and payload[0] == 0:
        raise RLPDecodingError("integer payload has leading zero byte")
    return int.from_bytes(payload, "big")


def _long_prefix(length: int, long_offset: int) -> bytes:
    """Prefix of a payload over 55 bytes: the length, after its own size."""
    length_bytes = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes((long_offset + len(length_bytes),)) + length_bytes


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
    if type(item) is bytes:
        payload = item
    elif isinstance(item, (list, tuple)):
        return _encode_list(item, 1)
    else:
        payload = _as_payload(item)
    size = len(payload)
    if size == 1 and payload[0] < _SHORT_STRING_OFFSET:
        return payload
    if size <= _MAX_SHORT_LENGTH:
        return _STRING_PREFIX[size] + payload
    return _long_prefix(size, _LONG_STRING_OFFSET) + payload


def _encode_list(items: Any, depth: int) -> bytes:
    """Encode a list; its string items inline, one loop, no call per item."""
    if depth > MAX_NESTING_DEPTH:
        raise RLPEncodingError(f"list nesting deeper than {MAX_NESTING_DEPTH}")
    parts: list[bytes] = []
    append = parts.append
    for item in items:
        if type(item) is not bytes:
            if isinstance(item, (list, tuple)):
                append(_encode_list(item, depth + 1))
                continue
            item = _as_payload(item)
        size = len(item)
        if size == 1 and item[0] < _SHORT_STRING_OFFSET:
            append(item)
        elif size <= _MAX_SHORT_LENGTH:
            append(_STRING_PREFIX[size])
            append(item)
        else:
            append(_long_prefix(size, _LONG_STRING_OFFSET))
            append(item)
    payload = b"".join(parts)
    size = len(payload)
    if size <= _MAX_SHORT_LENGTH:
        return _LIST_PREFIX[size] + payload
    return _long_prefix(size, _LONG_LIST_OFFSET) + payload


def length_of(item: Any) -> int:
    """Return ``len(encode(item))`` without concatenating intermediate buffers.

    Useful for size accounting in the workload model where only encoded
    sizes matter (e.g. sizing a synthetic receipt list).
    """
    if isinstance(item, (list, tuple)):
        payload_len = sum(length_of(sub) for sub in item)
        return _prefix_len(payload_len) + payload_len
    payload = _as_payload(item)
    if len(payload) == 1 and payload[0] < _SHORT_STRING_OFFSET:
        return 1
    return _prefix_len(len(payload)) + len(payload)


def _prefix_len(payload_len: int) -> int:
    if payload_len <= _MAX_SHORT_LENGTH:
        return 1
    return 1 + len(encode_uint(payload_len))


def decode(blob: bytes) -> Any:
    """Decode an RLP blob into bytes or nested lists of bytes.

    Raises :class:`RLPDecodingError` if the blob is malformed or has
    trailing bytes.
    """
    if not isinstance(blob, (bytes, bytearray)):
        raise RLPDecodingError(f"expected bytes, got {type(blob).__name__}")
    item, consumed = _decode_at(bytes(blob), 0, 1)
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


def _decode_at(blob: bytes, offset: int, depth: int) -> tuple[Any, int]:
    """Decode the item at ``offset``; ``depth`` is that of a list found there."""
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
    if depth > MAX_NESTING_DEPTH:
        raise RLPDecodingError(f"list nesting deeper than {MAX_NESTING_DEPTH}")
    _take(blob, start, length)  # bounds check before iterating
    items = []
    cursor = start
    end = start + length
    while cursor < end:
        # Single bytes and short strings are read in place; long strings
        # and nested lists take the call.
        prefix = blob[cursor]
        if prefix < _SHORT_STRING_OFFSET:
            items.append(blob[cursor : cursor + 1])
            cursor += 1
            continue
        if prefix <= _LONG_STRING_OFFSET:
            item_start = cursor + 1
            cursor = item_start + prefix - _SHORT_STRING_OFFSET
            item = blob[item_start:cursor]
        else:
            item, cursor = _decode_at(blob, cursor, depth + 1)
        if cursor > end:
            raise RLPDecodingError("list item overruns list payload")
        if prefix == _SHORT_STRING_OFFSET + 1 and item[0] < _SHORT_STRING_OFFSET:
            raise RLPDecodingError("single byte below 0x80 must be encoded as itself")
        items.append(item)
    return items, end


def _take(blob: bytes, start: int, length: int) -> bytes:
    end = start + length
    if end > len(blob):
        raise RLPDecodingError("truncated payload")
    return blob[start:end]
