"""KV size analysis — Table I and Figure 2.

Given a snapshot of the KV store contents (key/value byte sizes per
pair), produce per-class statistics: pair counts, percentage of all
pairs, mean key/value sizes with 95% confidence intervals (under the
normal approximation, as the paper does), and full size histograms for
the Figure 2 scatter distributions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.core.classes import (
    CLASS_LIST,
    DOMINANT_CLASSES,
    TABLE_ORDER,
    KVClass,
    classify_key,
)

#: z-score for a 95% confidence interval under the normal approximation.
_Z95 = 1.959963984540054

#: Pairs per batch of a store snapshot: bounds the temporary arrays.
_SNAPSHOT_SLICE = 65536


@dataclass
class RunningStats:
    """Streaming mean/variance (Welford) plus min/max."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    minimum: Optional[int] = None
    maximum: Optional[int] = None

    def add(self, value: int) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def add_batch(self, values: "np.ndarray") -> None:
        """Fold a whole array of observations in (parallel-merge update).

        Uses the pairwise/Chan combination of (count, mean, M2), the
        batch counterpart of Welford's update.  Counts, minima and
        maxima match the sequential path exactly; mean/M2 agree to
        floating-point rounding.
        """
        n = int(values.size)
        if n == 0:
            return
        batch = RunningStats(
            count=n,
            mean=float(values.mean()),
            minimum=int(values.min()),
            maximum=int(values.max()),
        )
        batch._m2 = float(np.square(values - batch.mean).sum())
        self.merge(batch)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combine another partial's (count, mean, M2, min, max)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        if other.minimum is not None and (
            self.minimum is None or other.minimum < self.minimum
        ):
            self.minimum = other.minimum
        if other.maximum is not None and (
            self.maximum is None or other.maximum > self.maximum
        ):
            self.maximum = other.maximum
        return self

    @property
    def variance(self) -> float:
        """Sample variance; zero when fewer than two observations."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def ci95_half_width(self) -> float:
        """Half-width of the 95% CI of the mean (normal approximation)."""
        if self.count < 2:
            return 0.0
        return _Z95 * self.stddev / math.sqrt(self.count)

    def format_mean_ci(self, precision: int = 1) -> str:
        """Render as the paper does: ``mean±hw`` or bare mean if constant."""
        if self.count == 0:
            return "-"
        hw = self.ci95_half_width
        if hw == 0:
            if self.mean == int(self.mean):
                return str(int(self.mean))
            return f"{self.mean:.{precision}f}"
        return f"{self.mean:.{precision}f}±{hw:.4g}"


@dataclass
class ClassSizeStats:
    """Per-class KV pair population statistics (one row of Table I)."""

    kv_class: KVClass
    num_pairs: int = 0
    key_size: RunningStats = field(default_factory=RunningStats)
    value_size: RunningStats = field(default_factory=RunningStats)
    #: histogram of total KV size (key+value) -> pair count, for Figure 2.
    kv_size_histogram: Counter = field(default_factory=Counter)

    def add_pair(self, key_len: int, value_len: int) -> None:
        self.num_pairs += 1
        self.key_size.add(key_len)
        self.value_size.add(value_len)
        self.kv_size_histogram[key_len + value_len] += 1

    @property
    def mean_kv_size(self) -> float:
        """Mean total (key+value) size in bytes."""
        if self.num_pairs == 0:
            return 0.0
        return self.key_size.mean + self.value_size.mean


class SizeAnalyzer:
    """Accumulates a KV-store snapshot into per-class size statistics.

    Feed it ``(key, value_size)`` pairs — e.g. every pair left in the
    store after a sync run — then read per-class stats, Table I rows,
    and Figure 2 histograms.
    """

    def __init__(self) -> None:
        self._stats: dict[KVClass, ClassSizeStats] = {}

    def add_pair(self, key: bytes, value_size: int) -> None:
        kv_class = classify_key(key)
        stats = self._stats.get(kv_class)
        if stats is None:
            stats = ClassSizeStats(kv_class)
            self._stats[kv_class] = stats
        stats.add_pair(len(key), value_size)

    def add_store_snapshot(self, pairs: Iterable[tuple[bytes, bytes]]) -> None:
        """Consume ``(key, value)`` pairs from a store scan, a slice at a time."""
        pairs = iter(pairs)
        while batch := list(islice(pairs, _SNAPSHOT_SLICE)):
            self.add_pairs_batch([k for k, _ in batch], [len(v) for _, v in batch])

    def add_pairs_batch(
        self, keys: Sequence[bytes], value_sizes: Sequence[int]
    ) -> None:
        """Vectorized :meth:`add_pair` over whole arrays of pairs.

        Keys are classified with the columnar prefix classifier; each
        class's key/value size statistics and Figure 2 histogram are
        reduced with numpy group-bys instead of per-pair Python calls.
        """
        from repro.core.columnar import class_ids_for_keys

        n = len(keys)
        if n == 0:
            return
        class_ids = class_ids_for_keys(keys)
        key_lens = np.fromiter((len(key) for key in keys), dtype=np.int64, count=n)
        sizes = np.asarray(value_sizes, dtype=np.int64)
        if len(sizes) != n:
            raise ValueError("keys and value_sizes must have equal length")
        totals = key_lens + sizes
        for cid in np.unique(class_ids).tolist():
            kv_class = CLASS_LIST[cid]
            stats = self._stats.get(kv_class)
            if stats is None:
                stats = ClassSizeStats(kv_class)
                self._stats[kv_class] = stats
            mask = class_ids == cid
            stats.num_pairs += int(np.count_nonzero(mask))
            stats.key_size.add_batch(key_lens[mask])
            stats.value_size.add_batch(sizes[mask])
            unique_totals, counts = np.unique(totals[mask], return_counts=True)
            for total, count in zip(unique_totals.tolist(), counts.tolist()):
                stats.kv_size_histogram[total] += count

    def merge(self, other: "SizeAnalyzer") -> "SizeAnalyzer":
        """Fold another analyzer's partial per-class stats into this one."""
        for kv_class, theirs in other._stats.items():
            stats = self._stats.get(kv_class)
            if stats is None:
                stats = ClassSizeStats(kv_class)
                self._stats[kv_class] = stats
            stats.num_pairs += theirs.num_pairs
            stats.key_size.merge(theirs.key_size)
            stats.value_size.merge(theirs.value_size)
            stats.kv_size_histogram.update(theirs.kv_size_histogram)
        return self

    @property
    def total_pairs(self) -> int:
        return sum(stats.num_pairs for stats in self._stats.values())

    def stats_for(self, kv_class: KVClass) -> ClassSizeStats:
        """Stats for a class (an empty stats object if never seen)."""
        return self._stats.get(kv_class, ClassSizeStats(kv_class))

    def observed_classes(self) -> list[KVClass]:
        """Classes with at least one pair, in Table I order then extras."""
        ordered = [cls for cls in TABLE_ORDER if cls in self._stats]
        extras = [cls for cls in self._stats if cls not in TABLE_ORDER]
        return ordered + extras

    def percentage(self, kv_class: KVClass) -> float:
        """Percentage of all KV pairs belonging to ``kv_class``."""
        total = self.total_pairs
        if total == 0:
            return 0.0
        return 100.0 * self.stats_for(kv_class).num_pairs / total

    def dominant_share(self, classes: Iterable[KVClass] = DOMINANT_CLASSES) -> float:
        """Combined pair share (%) of the given classes (Finding 1)."""
        return sum(self.percentage(cls) for cls in classes)

    def singleton_classes(self) -> list[KVClass]:
        """Observed classes holding exactly one pair (Finding 1)."""
        return [cls for cls, stats in self._stats.items() if stats.num_pairs == 1]

    def mean_kv_size(self, classes: Iterable[KVClass]) -> float:
        """Pair-weighted mean total KV size across the given classes."""
        total_pairs = 0
        total_bytes = 0.0
        for cls in classes:
            stats = self.stats_for(cls)
            total_pairs += stats.num_pairs
            total_bytes += stats.mean_kv_size * stats.num_pairs
        if total_pairs == 0:
            return 0.0
        return total_bytes / total_pairs

    def size_distribution(self, kv_class: KVClass) -> list[tuple[int, int]]:
        """Sorted ``(kv_size, count)`` points for Figure 2 scatter plots."""
        histogram = self.stats_for(kv_class).kv_size_histogram
        return sorted(histogram.items())

    def size_distribution_modes(self, kv_class: KVClass, top: int = 3) -> list[int]:
        """The ``top`` most frequent KV sizes (the Figure 2 'peaks')."""
        histogram = self.stats_for(kv_class).kv_size_histogram
        return [size for size, _ in sorted(histogram.items(), key=lambda kv: -kv[1])[:top]]

    def as_mapping(self) -> Mapping[KVClass, ClassSizeStats]:
        return dict(self._stats)
