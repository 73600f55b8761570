"""Sorted in-memory KV store.

The reference implementation behind the rest of the stack.  Keys are
kept in a dict for O(1) point access plus a sorted key list for range
scans.  Scans are rare *per operation* in Ethereum workloads (the
paper's Finding 4) but not per block: the freezer issues one range scan
per imported block, each after a few hundred keys have changed in a
store of ~100k.  So the upkeep of the sorted list must be proportional
to the keys changed since the last scan, never to the size of the store:
``put`` and ``delete`` only record the key in an *added* / *removed*
delta, and the next scan splices the added keys into the list (a binary
search per key, slice copies between them) and leaves removed keys
behind as stale entries until enough of them pile up to pay for a
rebuild.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Optional

from repro.errors import KeyNotFoundError, StoreClosedError
from repro.kvstore.api import KVStore
from repro.kvstore.metrics import StoreMetrics, bind_store_metrics


# Stale (deleted) entries the sorted key list may carry, as a share of its
# length, before a scan rebuilds it without them.
_MAX_STALE_SHARE = 0.25


class MemoryKVStore(KVStore):
    """Dict-backed store with ordered scans."""

    def __init__(self) -> None:
        self._data: dict[bytes, bytes] = {}
        # Sorted and duplicate-free; lags ``_data`` by exactly the two
        # deltas below, which the next scan folds in.
        self._sorted_keys: list[bytes] = []
        self._added: set[bytes] = set()  # live keys not yet listed
        self._removed: set[bytes] = set()  # deleted keys still listed
        self._closed = False
        self._approx_bytes = 0
        self.metrics = StoreMetrics()
        bind_store_metrics(self.metrics, "memdb")

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("store is closed")

    def get(self, key: bytes) -> bytes:
        self._check_open()
        metrics = self.metrics
        metrics.user_gets += 1
        try:
            value = self._data[key]
        except KeyError:
            raise KeyNotFoundError(key) from None
        metrics.user_bytes_read += len(value)
        return value

    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        old = self._data.get(key)
        if old is None:
            if key in self._removed:
                self._removed.remove(key)
            else:
                self._added.add(key)
            self._approx_bytes += len(key) + len(value)
        else:
            self._approx_bytes += len(value) - len(old)
        self._data[key] = value
        metrics = self.metrics
        metrics.user_puts += 1
        metrics.user_bytes_written += len(key) + len(value)

    def delete(self, key: bytes) -> None:
        self._check_open()
        self.metrics.user_deletes += 1
        old = self._data.pop(key, None)
        if old is not None:
            if key in self._added:
                self._added.remove(key)
            else:
                self._removed.add(key)
            self._approx_bytes -= len(key) + len(old)

    def has(self, key: bytes) -> bool:
        self._check_open()
        return key in self._data

    def _fold_deltas(self) -> list[bytes]:
        """Bring the sorted key list up to date and return it.

        Changes go into a new list, never into the current one: a scan
        in flight keeps iterating the list it started on.
        """
        keys = self._sorted_keys
        if self._added:
            merged: list[bytes] = []
            done = 0
            for key in sorted(self._added):
                at = bisect.bisect_left(keys, key, done)
                merged += keys[done:at]
                merged.append(key)
                done = at
            merged += keys[done:]
            keys = merged
            self._added.clear()
        removed = self._removed
        if len(removed) > _MAX_STALE_SHARE * len(keys):
            keys = [key for key in keys if key not in removed]
            removed.clear()
        self._sorted_keys = keys
        return keys

    def scan(
        self, start: bytes, end: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        self._check_open()
        self.metrics.user_scans += 1
        keys = self._fold_deltas()
        index = bisect.bisect_left(keys, start)
        while index < len(keys):
            key = keys[index]
            if end is not None and key >= end:
                return
            # Stale entry: deleted before this scan and not yet rebuilt
            # away, or deleted while this scan was in flight.
            value = self._data.get(key)
            if value is not None:
                yield key, value
            index += 1

    def __len__(self) -> int:
        return len(self._data)

    def close(self) -> None:
        self._closed = True

    @property
    def approx_bytes(self) -> int:
        """Total key+value bytes currently stored (growth accounting)."""
        return self._approx_bytes
