"""Tests for the online migration engine (repro migrate)."""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    MIGRATION_POINTS,
    CrashPoint,
    ImageFormatError,
    MigrationError,
    SimulatedCrash,
)
from repro.faults.plan import FaultPlan
from repro.kvstore.memdb import MemoryKVStore
from repro.migrate import (
    AdmissionGate,
    DeltaLog,
    MigrateJob,
    MigrationConfig,
    MigrationEngine,
    MirroringStore,
    dump_store,
    image_info,
    load_image,
    read_image_pairs,
    run_migrate_crash_sweep,
    run_migrate_job,
    spill_path,
    verify_stores,
    write_image,
)
from repro.migrate.copier import plan_ranges
from repro.migrate.image import MAGIC, ImageWriter, TMP_SUFFIX
from repro.obs import MetricsRegistry
from repro.replay.backends import make_store
from repro.replay.partition import shard_of
from repro.replay.verify import store_fingerprint


def make_pairs(n, *, tag=b"k"):
    return [
        (tag + i.to_bytes(4, "big"), (tag + i.to_bytes(4, "big")) * (1 + i % 7))
        for i in range(n)
    ]


def filled_store(n, *, backend="memdb", tag=b"k"):
    store = make_store(backend)
    for key, value in make_pairs(n, tag=tag):
        store.put(key, value)
    return store


# ---------------------------------------------------------------------------
# image format
# ---------------------------------------------------------------------------


class TestImage:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "img.kvimg"
        pairs = make_pairs(257)
        assert write_image(path, pairs, block_pairs=100) == 257
        assert list(read_image_pairs(path)) == pairs
        info = image_info(path)
        assert info.pairs == 257 and info.complete

    def test_dump_and_load_store(self, tmp_path):
        path = tmp_path / "img.kvimg"
        store = filled_store(120)
        dump_store(path, store)
        other = MemoryKVStore()
        assert load_image(path, other) == 120
        assert store_fingerprint(other) == store_fingerprint(store)

    def test_empty_image(self, tmp_path):
        path = tmp_path / "img.kvimg"
        assert write_image(path, []) == 0
        assert list(read_image_pairs(path)) == []
        assert image_info(path).pairs == 0

    def test_publish_is_atomic(self, tmp_path):
        path = tmp_path / "img.kvimg"

        def exploding():
            yield from make_pairs(10)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            write_image(path, exploding(), block_pairs=4)
        assert not path.exists()
        assert not (tmp_path / ("img.kvimg" + TMP_SUFFIX)).exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "img.kvimg"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ImageFormatError, match="magic"):
            list(read_image_pairs(path))

    def test_corrupt_block_strict_vs_salvage(self, tmp_path):
        path = tmp_path / "img.kvimg"
        pairs = make_pairs(200)
        write_image(path, pairs, block_pairs=50)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # damage a later block or its CRC
        path.write_bytes(bytes(raw))
        with pytest.raises(ImageFormatError):
            list(read_image_pairs(path))
        salvaged = list(read_image_pairs(path, salvage=True))
        assert 0 < len(salvaged) < 200
        assert salvaged == pairs[: len(salvaged)]

    def test_truncated_spill_salvage(self, tmp_path):
        path = tmp_path / "dst.kvimg"
        spill = spill_path(path)
        writer = ImageWriter(spill)
        pairs = make_pairs(90)
        writer.append_block(pairs[:40])
        writer.append_block(pairs[40:])
        writer.close()  # no footer: this is a spill, not an image
        with pytest.raises(ImageFormatError, match="footer"):
            list(read_image_pairs(spill))
        assert list(read_image_pairs(spill, salvage=True)) == pairs
        # A torn tail block is dropped, whole prefix blocks survive.
        raw = spill.read_bytes()
        spill.write_bytes(raw[:-7])
        assert list(read_image_pairs(spill, salvage=True)) == pairs[:40]

    def test_over_long_payload_length_is_a_truncated_block(
        self, tmp_path, allocation_bound
    ):
        # the high byte of the second block's u64 payload_len: the length
        # is read before the block CRC can be checked, so it must be
        # refused before anything is allocated
        path = tmp_path / "img.kvimg"
        pairs = make_pairs(200)
        write_image(path, pairs, block_pairs=50)
        raw = bytearray(path.read_bytes())
        first = len(MAGIC)
        payload_len = int.from_bytes(raw[first + 5 : first + 13], "little")
        second = first + 13 + payload_len + 4
        raw[second + 12] ^= 0xFF
        path.write_bytes(bytes(raw))
        with allocation_bound(len(raw)):
            with pytest.raises(ImageFormatError, match="truncated block payload"):
                list(read_image_pairs(path))
            assert list(read_image_pairs(path, salvage=True)) == pairs[:50]

    def test_over_long_digest_length_is_a_truncated_footer(
        self, tmp_path, allocation_bound
    ):
        path = tmp_path / "img.kvimg"
        pairs = make_pairs(20)
        write_image(path, pairs)
        raw = bytearray(path.read_bytes())
        first = len(MAGIC)  # the only block, then the footer
        payload_len = int.from_bytes(raw[first + 5 : first + 13], "little")
        footer = first + 13 + payload_len + 4
        assert raw[footer : footer + 1] == b"F"
        raw[footer + 12] ^= 0xFF  # high byte of the u32 digest_len
        path.write_bytes(bytes(raw))
        with allocation_bound(len(raw)):
            with pytest.raises(ImageFormatError, match="truncated footer"):
                list(read_image_pairs(path))
            assert list(read_image_pairs(path, salvage=True)) == pairs

    def test_footer_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "img.kvimg"
        writer = ImageWriter(path)
        writer.append_block(make_pairs(10))
        writer.pairs_written = 99  # lie to the footer
        writer.finalize()
        with pytest.raises(ImageFormatError, match="pairs"):
            list(read_image_pairs(path))

    def test_writer_rejects_append_after_finalize(self, tmp_path):
        writer = ImageWriter(tmp_path / "img.kvimg")
        writer.append_block(make_pairs(3))
        writer.finalize()
        with pytest.raises(ImageFormatError):
            writer.append_block(make_pairs(2))


# ---------------------------------------------------------------------------
# mirror: gate + delta log + facade
# ---------------------------------------------------------------------------


class TestAdmissionGate:
    def test_admit_release_counts(self):
        gate = AdmissionGate()
        gate.admit()
        gate.admit()
        assert gate.in_flight == 2
        gate.release()
        gate.release()
        assert gate.in_flight == 0

    def test_pause_blocks_admission_until_resume(self):
        gate = AdmissionGate()
        assert gate.pause(timeout=1.0)
        assert gate.paused
        admitted = threading.Event()

        def late():
            gate.admit()
            admitted.set()
            gate.release()

        thread = threading.Thread(target=late)
        thread.start()
        assert not admitted.wait(0.05)
        gate.resume()
        assert admitted.wait(2.0)
        thread.join()

    def test_pause_waits_for_in_flight(self):
        gate = AdmissionGate()
        gate.admit()
        release_soon = threading.Timer(0.05, gate.release)
        release_soon.start()
        assert gate.pause(timeout=2.0)
        gate.resume()
        release_soon.join()

    def test_pause_timeout_reports_failure(self):
        gate = AdmissionGate()
        gate.admit()  # never released
        assert not gate.pause(timeout=0.05)
        gate.resume()

    def test_exclusive_window(self):
        gate = AdmissionGate()
        with gate.exclusive(timeout=1.0):
            assert gate.paused and gate.in_flight == 0
        assert not gate.paused


class TestDeltaLog:
    def test_same_key_same_shard(self):
        log = DeltaLog(num_shards=4)
        key = b"some-key"
        log.append(key, b"v1")
        log.append(b"other", b"x")
        log.append(key, None)
        shards = log.drain()
        shard = shards[shard_of(key, 4)]
        assert [entry for entry in shard if entry[0] == key] == [
            (key, b"v1"),
            (key, None),
        ]

    def test_drain_swaps_atomically(self):
        log = DeltaLog(num_shards=2)
        log.append(b"a", b"1")
        assert log.pending == 1
        first = log.drain()
        assert sum(len(s) for s in first) == 1
        assert log.pending == 0
        assert sum(len(s) for s in log.drain()) == 0
        assert log.total_appended == 1


class TestMirroringStore:
    def test_mutations_are_mirrored(self):
        mirror = MirroringStore(MemoryKVStore())
        mirror.put(b"a", b"1")
        mirror.delete(b"a")
        assert mirror.lag == 2
        assert not mirror.has(b"a")

    def test_flip_switches_active_and_stops_mirroring(self):
        source, dest = MemoryKVStore(), MemoryKVStore()
        mirror = MirroringStore(source)
        mirror.put(b"a", b"1")
        mirror.flip(dest)
        assert not mirror.mirroring
        mirror.put(b"b", b"2")
        assert dest.get(b"b") == b"2"
        assert not source.has(b"b")
        assert mirror.lag == 1  # post-flip writes are not mirrored

    def test_scan_holds_admission_slot(self):
        source = MemoryKVStore()
        source.put(b"a", b"1")
        source.put(b"b", b"2")
        mirror = MirroringStore(source)
        iterator = mirror.scan(b"")
        next(iterator)
        assert mirror.gate.in_flight == 1
        iterator.close()
        assert mirror.gate.in_flight == 0
        assert len(list(mirror.scan(b""))) == 2
        assert mirror.gate.in_flight == 0


# ---------------------------------------------------------------------------
# range planning + verification
# ---------------------------------------------------------------------------


class TestPlanRanges:
    def test_ranges_cover_keyspace(self):
        store = filled_store(500)
        ranges = plan_ranges(store, range_pairs=64)
        assert ranges[0].start == b""
        assert ranges[-1].end is None
        for left, right in zip(ranges, ranges[1:]):
            assert left.end == right.start
        covered = sum(
            len(list(store.scan(r.start, r.end))) for r in ranges
        )
        assert covered == 500

    def test_empty_store_single_range(self):
        ranges = plan_ranges(MemoryKVStore(), range_pairs=10)
        assert len(ranges) == 1
        assert ranges[0].start == b"" and ranges[0].end is None


class TestVerify:
    def test_fast_path_level2(self):
        a, b = filled_store(100), filled_store(100)
        report = verify_stores(a, b)
        assert report.match and report.level == 2
        assert report.source_fingerprint == report.destination_fingerprint

    def test_missing_in_destination(self):
        a, b = filled_store(50), filled_store(49)
        report = verify_stores(a, b)
        assert not report.match and report.level == 3
        assert report.diff_count == 1
        assert report.diffs[0].outcome == "missing-in-destination"

    def test_missing_in_source(self):
        a, b = filled_store(20), filled_store(20)
        b.put(b"zzz-extra", b"x")
        report = verify_stores(a, b)
        assert not report.match
        assert report.diffs[0].outcome == "missing-in-source"

    def test_value_mismatch(self):
        a, b = filled_store(20), filled_store(20)
        key = next(iter(a.keys()))
        b.put(key, b"corrupted")
        report = verify_stores(a, b)
        assert not report.match
        diff = report.diffs[0]
        assert diff.outcome == "value-mismatch" and diff.key == key

    def test_diff_cap_keeps_exact_count(self):
        a, b = filled_store(64), MemoryKVStore()
        report = verify_stores(a, b, max_diffs=5)
        assert report.diff_count == 64
        assert len(report.diffs) == 5
        assert "59 more" in report.render()


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


class TestMigrationEngine:
    def test_offline_migration(self):
        source = filled_store(300, backend="btree")
        dest = make_store("lsm")
        engine = MigrationEngine(
            source,
            dest,
            MigrationConfig(
                backend_from="btree", backend_to="lsm", range_pairs=64
            ),
            registry=MetricsRegistry(),
        )
        report = engine.run()
        assert report.completed
        assert report.pairs_copied == 300
        assert report.ranges >= 4
        assert report.verify is not None and report.verify.match
        assert store_fingerprint(dest) == store_fingerprint(source)
        assert engine.live.active is dest

    def test_live_writes_converge_through_deltas(self):
        source = filled_store(200)
        dest = MemoryKVStore()
        engine = MigrationEngine(
            source,
            dest,
            MigrationConfig(range_pairs=32, lag_threshold=0),
            registry=MetricsRegistry(),
            on_event=_write_traffic_hook(),
        )
        report = engine.run()
        assert report.completed
        assert report.delta_ops > 0
        assert report.verify.match
        assert store_fingerprint(dest) == store_fingerprint(source)

    def test_repair_pass_fixes_stale_destination(self):
        source = filled_store(100)
        dest = MemoryKVStore()
        # Simulate a resumed migration whose spill reload left the
        # destination stale: one wrong value, one stray key, one gap.
        for key, value in source.scan(b""):
            dest.put(key, value)
        some_key = next(iter(source.keys()))
        dest.put(some_key, b"stale-bytes")
        dest.put(b"zzzz-stray", b"x")
        dest.delete(sorted(source.keys())[-1])
        engine = MigrationEngine(
            source,
            dest,
            MigrationConfig(range_pairs=16, lag_threshold=0),
            registry=MetricsRegistry(),
            resumed=True,
        )
        assert engine.repair
        report = engine.run()
        assert report.completed
        assert report.repaired_keys == 3
        assert store_fingerprint(dest) == store_fingerprint(source)

    def test_verify_divergence_aborts_cutover(self):
        source = filled_store(50)
        dest = MemoryKVStore()

        class Sabotage(MemoryKVStore):
            pass

        engine = MigrationEngine(
            source,
            dest,
            MigrationConfig(range_pairs=1000, lag_threshold=0),
            registry=MetricsRegistry(),
        )

        def corrupt_once(event, eng):
            if event == "delta-round":
                dest.put(b"poison", b"x")  # behind the engine's back

        engine.on_event = corrupt_once
        report = engine.run()
        assert not report.completed
        assert report.verify is not None and not report.verify.match
        assert engine.live.active is source  # rollback: no flip
        assert not engine.mirror.gate.paused  # gate resumed after abort

    @pytest.mark.parametrize("point", MIGRATION_POINTS, ids=lambda p: p.value)
    def test_crash_points_fire(self, point):
        source = filled_store(150)
        plan = FaultPlan.kill_at(point)
        engine = MigrationEngine(
            source,
            MemoryKVStore(),
            MigrationConfig(range_pairs=32, lag_threshold=0, fault_plan=plan),
            registry=MetricsRegistry(),
        )
        with pytest.raises(SimulatedCrash):
            engine.run()
        assert not engine.mirror.gate.paused  # crash never wedges the gate

    def test_config_validation(self):
        with pytest.raises(MigrationError, match="backend-from"):
            MigrationConfig(backend_from="nope").validated()
        with pytest.raises(MigrationError, match="range_pairs"):
            MigrationConfig(range_pairs=0).validated()
        with pytest.raises(MigrationError, match="max_delta_rounds"):
            MigrationConfig(max_delta_rounds=0).validated()


def _write_traffic_hook():
    counter = [0]

    def hook(event, engine):
        if event == "post-cutover":
            return
        for _ in range(3):
            n = counter[0]
            counter[0] += 1
            engine.live.put(b"live" + n.to_bytes(4, "big"), b"v" * (n % 50 + 1))

    return hook


# ---------------------------------------------------------------------------
# runner (file-level jobs)
# ---------------------------------------------------------------------------


class TestRunner:
    def _source_image(self, tmp_path, n=200):
        src = tmp_path / "src.kvimg"
        dump_store(src, filled_store(n))
        return src

    def test_job_publishes_destination(self, tmp_path):
        src = self._source_image(tmp_path)
        dst = tmp_path / "dst.kvimg"
        job = MigrateJob(
            src=src,
            dst=dst,
            config=MigrationConfig(
                backend_from="memdb", backend_to="hashlog", range_pairs=64
            ),
        )
        report = run_migrate_job(job, registry=MetricsRegistry())
        assert report.completed
        assert report.loaded_pairs == 200
        assert report.published_pairs == 200
        assert image_info(dst).pairs == 200
        assert image_info(dst).fingerprint == image_info(src).fingerprint
        assert not spill_path(dst).exists()

    def test_missing_source_rejected(self, tmp_path):
        job = MigrateJob(src=tmp_path / "nope.kvimg", dst=tmp_path / "dst.kvimg")
        with pytest.raises(MigrationError, match="not found"):
            run_migrate_job(job, registry=MetricsRegistry())

    def test_same_path_rejected(self, tmp_path):
        src = self._source_image(tmp_path)
        job = MigrateJob(src=src, dst=src)
        with pytest.raises(MigrationError, match="different"):
            run_migrate_job(job, registry=MetricsRegistry())

    def test_traffic_requires_mirror(self, tmp_path):
        src = self._source_image(tmp_path)
        job = MigrateJob(
            src=src, dst=tmp_path / "dst.kvimg", traffic=src, mirror=False
        )
        with pytest.raises(MigrationError, match="--mirror"):
            run_migrate_job(job, registry=MetricsRegistry())

    def test_crash_leaves_spill_and_no_destination(self, tmp_path):
        src = self._source_image(tmp_path, 300)
        dst = tmp_path / "dst.kvimg"
        plan = FaultPlan.kill_at(CrashPoint.MIGRATE_BULK_COPY, min_block=1)
        job = MigrateJob(
            src=src,
            dst=dst,
            config=MigrationConfig(range_pairs=64, fault_plan=plan),
        )
        with pytest.raises(SimulatedCrash):
            run_migrate_job(job, registry=MetricsRegistry())
        assert not dst.exists()
        spill = spill_path(dst)
        assert spill.exists()
        salvaged = list(read_image_pairs(spill, salvage=True))
        assert len(salvaged) >= 64  # at least the ranges before the kill

        # Resume converges and retires the spill.
        resume = MigrateJob(
            src=src, dst=dst, config=MigrationConfig(range_pairs=64), resume=True
        )
        report = run_migrate_job(resume, registry=MetricsRegistry())
        assert report.completed and report.engine.resumed
        assert report.resumed_pairs == len(salvaged)
        assert image_info(dst).fingerprint == image_info(src).fingerprint
        assert not spill.exists()


# ---------------------------------------------------------------------------
# crash sweep harness
# ---------------------------------------------------------------------------


class TestCrashSweep:
    def test_sweep_covers_all_migration_points(self):
        report = run_migrate_crash_sweep(
            num_keys=180, range_pairs=48, registry=MetricsRegistry()
        )
        assert report.total == len(MIGRATION_POINTS)
        assert report.ok, report.render()
        rendered = report.render()
        for point in MIGRATION_POINTS:
            assert point.value in rendered

    def test_sync_sweep_excludes_migration_points(self):
        from repro.faults.harness import CrashTestConfig, sweep_points

        points = sweep_points(CrashTestConfig())
        assert not set(points) & set(MIGRATION_POINTS)
        assert points  # the sync points are still there

    def test_rejects_non_migration_points(self):
        with pytest.raises(ValueError):
            run_migrate_crash_sweep([CrashPoint.TRIE_FLUSH_BEFORE])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_migrate_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "src.kvimg"
        dump_store(src, filled_store(150))
        dst = tmp_path / "dst.kvimg"
        code = main(
            [
                "migrate",
                str(src),
                str(dst),
                "--backend-from",
                "memdb",
                "--backend-to",
                "btree",
                "--mirror",
                "--verify",
                "--range-pairs",
                "32",
                "--metrics-out",
                str(tmp_path / "m.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "COMPLETE" in out and "MATCH" in out
        assert image_info(dst).pairs == 150
        assert (tmp_path / "m.json").exists()

    def test_migrate_unknown_backend_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "src.kvimg"
        dump_store(src, filled_store(5))
        code = main(
            ["migrate", str(src), str(tmp_path / "d.kvimg"), "--backend-to", "bogus"]
        )
        assert code == 2
        assert "unknown --backend-to" in capsys.readouterr().err

    def test_migrate_missing_source_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["migrate", str(tmp_path / "no.kvimg"), str(tmp_path / "d.kvimg")]
        )
        assert code == 2

    def test_replay_dump_store(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.trace import OpType, TraceRecord, write_trace_v2

        trace = tmp_path / "t.bin"
        records = [
            TraceRecord(op=OpType.WRITE, key=b"K" + i.to_bytes(3, "big"), value_size=20)
            for i in range(300)
        ]
        write_trace_v2(trace, records)
        image = tmp_path / "out.kvimg"
        code = main(
            ["replay", str(trace), "--backend", "memdb", "--dump-store", str(image)]
        )
        assert code == 0
        assert image_info(image).pairs == 300

    def test_replay_dump_store_sharded_matches_serial(self, tmp_path):
        from repro.cli import main
        from repro.core.trace import OpType, TraceRecord, write_trace_v2

        trace = tmp_path / "t.bin"
        records = [
            TraceRecord(
                op=OpType.WRITE, key=b"S" + i.to_bytes(3, "big"), value_size=9
            )
            for i in range(200)
        ]
        write_trace_v2(trace, records)
        serial, sharded = tmp_path / "serial.kvimg", tmp_path / "sharded.kvimg"
        assert main(["replay", str(trace), "--dump-store", str(serial)]) == 0
        assert (
            main(
                [
                    "replay",
                    str(trace),
                    "--workers",
                    "3",
                    "--executor",
                    "thread",
                    "--dump-store",
                    str(sharded),
                ]
            )
            == 0
        )
        assert image_info(serial).fingerprint == image_info(sharded).fingerprint

    def test_replay_dump_store_rejects_process_executor(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.trace import OpType, TraceRecord, write_trace_v2

        trace = tmp_path / "t.bin"
        write_trace_v2(trace, [TraceRecord(op=OpType.WRITE, key=b"k", value_size=4)])
        code = main(
            [
                "replay",
                str(trace),
                "--workers",
                "2",
                "--executor",
                "process",
                "--dump-store",
                str(tmp_path / "x.kvimg"),
            ]
        )
        assert code == 2
        assert "process" in capsys.readouterr().err

    def test_crashtest_migration_points(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "crashtest",
                "--crash-points",
                "migrate-pre-cutover",
                "--migrate-pair",
                "memdb:btree",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "migration crash sweep (memdb->btree)" in out
        assert "1/1 points" in out
