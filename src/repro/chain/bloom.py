"""2048-bit log bloom filters.

Each block header carries a 256-byte bloom over the addresses and
topics of all logs in the block; Geth's bloombits indexer later
transposes these per-section for fast log search (the BloomBits class).
"""

from __future__ import annotations

import hashlib
from typing import Iterable

BLOOM_BITS = 2048
BLOOM_BYTES = BLOOM_BITS // 8


class Bloom:
    """Ethereum-style log bloom: 3 bit positions per element."""

    def __init__(self, data: bytes = b"") -> None:
        if data and len(data) != BLOOM_BYTES:
            raise ValueError(f"bloom must be {BLOOM_BYTES} bytes, got {len(data)}")
        self._bits = bytearray(data) if data else bytearray(BLOOM_BYTES)

    @staticmethod
    def _positions(element: bytes) -> Iterable[int]:
        digest = hashlib.sha3_256(element).digest()
        # Three 11-bit positions from the first three 2-byte words.
        for i in (0, 2, 4):
            yield int.from_bytes(digest[i : i + 2], "big") % BLOOM_BITS

    def add(self, element: bytes) -> None:
        for pos in self._positions(element):
            self._bits[pos >> 3] |= 1 << (pos & 7)

    def may_contain(self, element: bytes) -> bool:
        return all(
            self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(element)
        )

    def _as_int(self) -> int:
        return int.from_bytes(self._bits, "big")

    def merge(self, other: "Bloom") -> None:
        merged = self._as_int() | other._as_int()  # one 2048-bit OR
        self._bits[:] = merged.to_bytes(BLOOM_BYTES, "big")

    def bit(self, index: int) -> bool:
        """Whether bloom bit ``index`` (0..2047) is set."""
        return bool(self._bits[index >> 3] & (1 << (index & 7)))

    def to_bytes(self) -> bytes:
        return bytes(self._bits)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bloom) and self._bits == other._bits

    def bit_count(self) -> int:
        return self._as_int().bit_count()
