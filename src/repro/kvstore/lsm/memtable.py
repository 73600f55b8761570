"""LSM memtable: the in-memory mutable run.

A dict plus deferred sorting stands in for the skiplist a production
LSM would use; entries store either value bytes or the TOMBSTONE
sentinel for deletes.  Size accounting (keys + values + per-entry
overhead) drives flush scheduling in the store.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional, Union

#: Sentinel marking a deleted key inside LSM structures.  A dedicated
#: object (not None) so that values of b"" remain representable.
TOMBSTONE = object()

Entry = Union[bytes, object]

#: Bytes charged per entry beyond key/value payload (index + metadata),
#: roughly matching Pebble's skiplist node overhead.
ENTRY_OVERHEAD = 24


class MemTable:
    """Mutable sorted run absorbing writes before flush."""

    def __init__(self) -> None:
        self._data: dict[bytes, Entry] = {}
        self._approx_bytes = 0

    def put(self, key: bytes, value: bytes) -> None:
        self._account_replace(key, len(value))
        self._data[key] = value

    def delete(self, key: bytes) -> None:
        """Insert a tombstone for ``key`` (even if never written here)."""
        self._account_replace(key, 0)
        self._data[key] = TOMBSTONE

    def _account_replace(self, key: bytes, new_value_len: int) -> None:
        old = self._data.get(key)
        if old is None:
            self._approx_bytes += ENTRY_OVERHEAD + len(key) + new_value_len
        else:
            old_len = 0 if old is TOMBSTONE else len(old)  # type: ignore[arg-type]
            self._approx_bytes += new_value_len - old_len

    def get(self, key: bytes) -> Optional[Entry]:
        """Return value bytes, TOMBSTONE, or None when the key is unknown here."""
        return self._data.get(key)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: bytes) -> bool:
        return key in self._data

    @property
    def approx_bytes(self) -> int:
        """Approximate memory footprint used for flush scheduling."""
        return self._approx_bytes

    def is_empty(self) -> bool:
        return not self._data

    @property
    def num_tombstones(self) -> int:
        return sum(1 for entry in self._data.values() if entry is TOMBSTONE)

    def sorted_entries(self) -> list[tuple[bytes, Entry]]:
        """All entries in key order (tombstones included)."""
        return sorted(self._data.items())

    def iter_range(
        self, start: bytes, end: Optional[bytes]
    ) -> Iterator[tuple[bytes, Entry]]:
        """Entries with ``start <= key < end`` in key order, as of this call."""
        entries = self.sorted_entries()
        # (key,) sorts just before (key, entry): no entry is ever compared.
        low = bisect_left(entries, (start,))
        high = len(entries) if end is None else bisect_left(entries, (end,))
        return iter(entries[low:high])
