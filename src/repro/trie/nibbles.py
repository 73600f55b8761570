"""Nibble paths and hex-prefix (compact) encoding.

Trie keys are sequences of nibbles (4-bit values).  The hex-prefix
encoding packs a nibble sequence into bytes with a flag nibble carrying
(a) the parity of the sequence length and (b) whether the path
terminates at a leaf — exactly the Yellow Paper's HP function, which is
also what Geth's path-based storage model uses to build node keys.
"""

from __future__ import annotations

from binascii import hexlify, unhexlify

from repro.errors import InvalidNibblesError

Nibbles = tuple[int, ...]

_HEX_DIGITS = b"0123456789abcdef"
#: A hex digit's byte -> its nibble value, and back (``bytes.translate``).
_DIGIT_TO_NIBBLE = bytes.maketrans(_HEX_DIGITS, bytes(range(16)))
_NIBBLE_TO_DIGIT = bytes.maketrans(bytes(range(16)), _HEX_DIGITS)
#: Hex digits of the hex-prefix flag (and padding) nibbles, indexed by
#: ``2 * is_leaf + odd_length``.
_HP_FLAG_DIGITS = (b"00", b"1", b"20", b"3")


def bytes_to_nibbles(data: bytes) -> Nibbles:
    """Expand bytes into their nibble sequence (big-endian within a byte)."""
    return tuple(hexlify(data).translate(_DIGIT_TO_NIBBLE))


def nibbles_to_bytes(nibbles: Nibbles) -> bytes:
    """Pack an even-length nibble sequence back into bytes."""
    if len(nibbles) % 2 != 0:
        raise InvalidNibblesError(f"odd nibble count: {len(nibbles)}")
    return unhexlify(_hex_digits(nibbles))


def _hex_digits(nibbles: Nibbles) -> bytes:
    """One hex digit per nibble; rejects values outside ``0..15``."""
    try:
        raw = bytes(nibbles)
    except ValueError as exc:  # a value outside 0..255
        raise InvalidNibblesError(f"nibble out of range: {exc}") from None
    if raw and max(raw) > 0x0F:
        raise InvalidNibblesError(f"nibble out of range: {max(raw)}")
    return raw.translate(_NIBBLE_TO_DIGIT)


def compact_encode(nibbles: Nibbles, is_leaf: bool) -> bytes:
    """Hex-prefix encode a nibble path.

    The first nibble of the output encodes ``2*is_leaf + odd_length``;
    odd-length paths pack their first nibble into the flag byte.
    """
    digits = _hex_digits(nibbles)
    flag = (2 if is_leaf else 0) + len(digits) % 2
    return unhexlify(_HP_FLAG_DIGITS[flag] + digits)


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


def common_prefix_length(a: Nibbles, b: Nibbles) -> int:
    """Length of the longest common prefix of two nibble sequences."""
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            return i
    return limit
