"""Size analyzer tests (Table I, Figure 2)."""

from __future__ import annotations

import math
import random

from hypothesis import given, strategies as st

from repro.core.classes import DOMINANT_CLASSES, KVClass
from repro.core.sizes import RunningStats, SizeAnalyzer


class TestRunningStats:
    def test_single_value(self):
        stats = RunningStats()
        stats.add(10)
        assert stats.mean == 10 and stats.count == 1
        assert stats.ci95_half_width == 0.0

    def test_mean_and_stddev(self):
        stats = RunningStats()
        for value in (2, 4, 4, 4, 5, 5, 7, 9):
            stats.add(value)
        assert stats.mean == 5.0
        assert math.isclose(stats.variance, 32 / 7, rel_tol=1e-9)

    def test_min_max(self):
        stats = RunningStats()
        for value in (5, 1, 9):
            stats.add(value)
        assert stats.minimum == 1 and stats.maximum == 9

    def test_format_constant(self):
        stats = RunningStats()
        stats.add(33)
        stats.add(33)
        assert stats.format_mean_ci() == "33"

    def test_format_with_ci(self):
        stats = RunningStats()
        stats.add(10)
        stats.add(20)
        rendered = stats.format_mean_ci()
        assert rendered.startswith("15.0±")

    def test_format_empty(self):
        assert RunningStats().format_mean_ci() == "-"

    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=60))
    def test_welford_matches_naive(self, values):
        stats = RunningStats()
        for value in values:
            stats.add(value)
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert math.isclose(stats.mean, mean, rel_tol=1e-9)
        assert math.isclose(stats.variance, variance, rel_tol=1e-6, abs_tol=1e-6)


class TestSizeAnalyzer:
    def test_classifies_and_counts(self):
        analyzer = SizeAnalyzer()
        analyzer.add_pair(b"l" + b"\x01" * 32, 4)
        analyzer.add_pair(b"l" + b"\x02" * 32, 4)
        analyzer.add_pair(b"LastHeader", 32)
        stats = analyzer.stats_for(KVClass.TX_LOOKUP)
        assert stats.num_pairs == 2
        assert stats.key_size.mean == 33
        assert stats.value_size.mean == 4
        assert analyzer.total_pairs == 3

    def test_percentage(self):
        analyzer = SizeAnalyzer()
        for i in range(9):
            analyzer.add_pair(b"l" + bytes([i]) * 32, 4)
        analyzer.add_pair(b"LastFast", 32)
        assert analyzer.percentage(KVClass.TX_LOOKUP) == 90.0

    def test_store_snapshot_ingestion(self):
        analyzer = SizeAnalyzer()
        analyzer.add_store_snapshot([(b"c" + b"\x01" * 32, b"code" * 100)])
        assert analyzer.stats_for(KVClass.CODE).value_size.mean == 400

    def test_store_snapshot_in_slices_equals_pair_by_pair(self, monkeypatch):
        monkeypatch.setattr("repro.core.sizes._SNAPSHOT_SLICE", 64)
        rng = random.Random(11)
        pairs = [
            (rng.choice([b"A", b"O", b"a", b"o", b"l", b"c"]) + rng.randbytes(rng.randrange(1, 40)),
             rng.randbytes(rng.randrange(200)))
            for _ in range(1_000)
        ] + [(b"LastFast", b"x" * 32)]
        by_pair = SizeAnalyzer()
        for key, value in pairs:
            by_pair.add_pair(key, len(value))
        sliced = SizeAnalyzer()
        sliced.add_store_snapshot(iter(pairs))  # a store scan is an iterator
        assert sliced.total_pairs == by_pair.total_pairs == 1_001
        assert sliced.observed_classes() == by_pair.observed_classes()
        for kv_class in by_pair.observed_classes():
            got, want = sliced.stats_for(kv_class), by_pair.stats_for(kv_class)
            assert got.num_pairs == want.num_pairs
            assert got.kv_size_histogram == want.kv_size_histogram
            for a, b in ((got.key_size, want.key_size), (got.value_size, want.value_size)):
                assert (a.count, a.minimum, a.maximum) == (b.count, b.minimum, b.maximum)
                assert math.isclose(a.mean, b.mean, rel_tol=1e-12)
                assert math.isclose(a.variance, b.variance, rel_tol=1e-9)
                assert a.format_mean_ci() == b.format_mean_ci()

    def test_dominant_share(self):
        analyzer = SizeAnalyzer()
        analyzer.add_pair(b"A\x01", 100)  # TrieNodeAccount (dominant)
        analyzer.add_pair(b"LastFast", 32)  # singleton
        assert analyzer.dominant_share() == 50.0

    def test_singleton_classes(self):
        analyzer = SizeAnalyzer()
        analyzer.add_pair(b"LastFast", 32)
        analyzer.add_pair(b"A\x01", 100)
        analyzer.add_pair(b"A\x02", 100)
        singles = analyzer.singleton_classes()
        assert KVClass.LAST_FAST in singles
        assert KVClass.TRIE_NODE_ACCOUNT not in singles

    def test_mean_kv_size_weighted(self):
        analyzer = SizeAnalyzer()
        analyzer.add_pair(b"A\x01", 98)  # total 100
        analyzer.add_pair(b"l" + b"\x01" * 32, 67)  # total 100
        analyzer.add_pair(b"l" + b"\x02" * 32, 67)
        mean = analyzer.mean_kv_size(DOMINANT_CLASSES)
        assert mean == 100.0

    def test_size_distribution_points(self):
        analyzer = SizeAnalyzer()
        analyzer.add_pair(b"A\x01", 98)  # 2 + 98 = 100
        analyzer.add_pair(b"A\x02", 98)
        analyzer.add_pair(b"A\x01\x02\x03", 96)  # 4 + 96 = 100
        analyzer.add_pair(b"A\x09", 198)  # 200
        points = analyzer.size_distribution(KVClass.TRIE_NODE_ACCOUNT)
        assert points == [(100, 3), (200, 1)]

    def test_size_modes(self):
        analyzer = SizeAnalyzer()
        for _ in range(5):
            analyzer.add_pair(b"A\x01", 98)
        analyzer.add_pair(b"A\x02", 198)
        modes = analyzer.size_distribution_modes(KVClass.TRIE_NODE_ACCOUNT, top=1)
        assert modes == [100]

    def test_observed_classes_ordering(self):
        analyzer = SizeAnalyzer()
        analyzer.add_pair(b"LastFast", 32)
        analyzer.add_pair(b"A\x01", 10)
        observed = analyzer.observed_classes()
        # Table I order puts TrieNodeAccount before LastFast.
        assert observed.index(KVClass.TRIE_NODE_ACCOUNT) < observed.index(
            KVClass.LAST_FAST
        )

    def test_empty_analyzer(self):
        analyzer = SizeAnalyzer()
        assert analyzer.total_pairs == 0
        assert analyzer.percentage(KVClass.CODE) == 0.0
        assert analyzer.mean_kv_size(DOMINANT_CLASSES) == 0.0
        assert analyzer.size_distribution(KVClass.CODE) == []
