"""Trace model and I/O tests."""

from __future__ import annotations

import builtins
import io

import pytest
from hypothesis import given, strategies as st

from repro.core.trace import (
    ColumnarTraceReader,
    ColumnarTraceWriter,
    OpType,
    TraceReader,
    TraceRecord,
    TraceWriter,
    read_chunk_at,
    read_text_trace,
    read_trace,
    read_trace_footer,
    records_from_bytes,
    records_to_bytes,
    write_text_trace,
    write_trace,
    write_trace_v2,
)
from repro.errors import TraceFormatError


def _sample_records():
    return [
        TraceRecord(OpType.WRITE, b"lABCDEF", 100, 1),
        TraceRecord(OpType.READ, b"A\x00\x12", 42, 2),
        TraceRecord(OpType.DELETE, b"h" + b"\x01" * 40, 0, 3),
        TraceRecord(OpType.SCAN, b"a", 12345, 4),
        TraceRecord(OpType.UPDATE, b"LastHeader", 32, 5),
    ]


class TestOpType:
    def test_short_names_roundtrip(self):
        for op in OpType:
            assert OpType.from_short_name(op.short_name) is op

    def test_unknown_short_name(self):
        with pytest.raises(TraceFormatError):
            OpType.from_short_name("X")


class TestTextFormat:
    def test_roundtrip(self):
        for record in _sample_records():
            assert TraceRecord.from_text(record.to_text()) == record

    def test_bad_field_count(self):
        with pytest.raises(TraceFormatError):
            TraceRecord.from_text("R deadbeef 100")

    def test_bad_hex(self):
        with pytest.raises(TraceFormatError):
            TraceRecord.from_text("R zz 100 1")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.txt"
        records = _sample_records()
        assert write_text_trace(path, records) == len(records)
        assert list(read_text_trace(path)) == records

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("\nR 6c41 5 1\n\n")
        records = list(read_text_trace(path))
        assert len(records) == 1
        assert records[0].key == b"lA"


class TestBinaryFormat:
    def test_roundtrip_via_file(self, tmp_path):
        path = tmp_path / "trace.bin"
        records = _sample_records()
        assert write_trace(path, records) == len(records)
        assert list(read_trace(path)) == records

    def test_roundtrip_via_bytes(self):
        records = _sample_records()
        assert list(records_from_bytes(records_to_bytes(records))) == records

    def test_empty_trace(self):
        assert list(records_from_bytes(records_to_bytes([]))) == []

    def test_bad_magic(self):
        with pytest.raises(TraceFormatError):
            TraceReader(io.BytesIO(b"XXXX\x01"))

    def test_bad_version(self):
        with pytest.raises(TraceFormatError):
            TraceReader(io.BytesIO(b"EKVT\x99"))

    def test_truncated_header(self):
        blob = records_to_bytes(_sample_records())
        with pytest.raises(TraceFormatError):
            list(records_from_bytes(blob[:-3]))

    def test_truncated_key(self):
        blob = records_to_bytes([TraceRecord(OpType.READ, b"abcdef", 1, 1)])
        with pytest.raises(TraceFormatError):
            list(records_from_bytes(blob[:-2]))

    def test_oversized_key_rejected(self):
        writer = TraceWriter(io.BytesIO())
        with pytest.raises(TraceFormatError):
            writer.append(TraceRecord(OpType.READ, b"x" * 70000, 0, 0))

    def test_writer_counts(self):
        buffer = io.BytesIO()
        writer = TraceWriter(buffer)
        writer.extend(_sample_records())
        assert writer.count == len(_sample_records())


def _v2_bytes(records, chunk_size=None):
    buffer = io.BytesIO()
    writer = ColumnarTraceWriter(buffer, chunk_size=chunk_size)
    writer.extend(records)
    writer.finish()
    # _pos is not advanced by the footer write, so it is the footer offset
    return buffer.getvalue(), writer._pos


class TestColumnarFormat:
    def test_roundtrip_via_file(self, tmp_path):
        path = tmp_path / "trace.v2"
        records = _sample_records()
        assert write_trace_v2(path, records) == len(records)
        assert list(read_trace(path)) == records

    def test_roundtrip_multiple_chunks(self, tmp_path):
        path = tmp_path / "trace.v2"
        records = _sample_records() * 7
        write_trace_v2(path, records, chunk_size=3)
        with ColumnarTraceReader.open(path) as reader:
            chunks = list(reader.chunks())
        assert [len(chunk) for chunk in chunks] == [3] * 11 + [2]
        assert [r for chunk in chunks for r in chunk.to_records()] == records

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.v2"
        assert write_trace_v2(path, []) == 0
        assert list(read_trace(path)) == []
        footer = read_trace_footer(path)
        assert footer.total_records == 0
        assert footer.num_chunks == 0

    def test_max_length_key(self, tmp_path):
        path = tmp_path / "maxkey.v2"
        records = [TraceRecord(OpType.READ, b"k" * 0xFFFF, 7, 9)]
        write_trace_v2(path, records)
        assert list(read_trace(path)) == records

    def test_oversized_key_rejected(self):
        writer = ColumnarTraceWriter(io.BytesIO())
        with pytest.raises(TraceFormatError):
            writer.append(TraceRecord(OpType.READ, b"x" * 70000, 0, 0))

    def test_v1_through_chunk_reader(self):
        records = _sample_records()
        blob = records_to_bytes(records)
        reader = ColumnarTraceReader(io.BytesIO(blob), chunk_size=2)
        assert reader.version == 1
        chunks = list(reader.chunks())
        assert [len(chunk) for chunk in chunks] == [2, 2, 1]
        assert [r for chunk in chunks for r in chunk.to_records()] == records

    def test_footer_random_access(self, tmp_path):
        path = tmp_path / "trace.v2"
        records = _sample_records() * 4
        write_trace_v2(path, records, chunk_size=5)
        footer = read_trace_footer(path)
        assert footer.total_records == len(records)
        assert sum(count for _, count in footer.chunks) == len(records)
        recovered = []
        for offset, count in footer.chunks:
            chunk = read_chunk_at(path, offset)
            assert len(chunk) == count
            recovered.extend(chunk.to_records())
        assert recovered == records

    def test_footer_on_v1_trace(self, tmp_path):
        path = tmp_path / "trace.bin"
        write_trace(path, _sample_records())
        with pytest.raises(TraceFormatError):
            read_trace_footer(path)

    def test_truncated_chunk(self, tmp_path):
        blob, _ = _v2_bytes(_sample_records())
        path = tmp_path / "short.v2"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TraceFormatError):
            list(read_trace(path))

    def test_truncated_footer(self, tmp_path):
        blob, footer_offset = _v2_bytes(_sample_records())
        path = tmp_path / "nofooter.v2"
        path.write_bytes(blob[: footer_offset + 3])
        with pytest.raises(TraceFormatError):
            read_trace_footer(path)
        # the streaming path stops at the footer tag and never reads the
        # (truncated) footer body, so it still yields every record
        assert list(read_trace(path)) == _sample_records()

    def test_bad_trailer_magic(self, tmp_path):
        blob, _ = _v2_bytes(_sample_records())
        path = tmp_path / "badtrailer.v2"
        path.write_bytes(blob[:-4] + b"XXXX")
        with pytest.raises(TraceFormatError):
            read_trace_footer(path)

    def test_bad_section_tag(self):
        blob, _ = _v2_bytes([])
        # corrupt the first section tag (the footer tag, at offset 5)
        corrupted = blob[:5] + b"\x7f" + blob[6:]
        with pytest.raises(TraceFormatError):
            list(ColumnarTraceReader(io.BytesIO(corrupted)).chunks())


class _OpenSpy:
    """Wraps builtins.open, recording every binary stream it hands out."""

    def __init__(self):
        self.streams = []
        self._real_open = builtins.open

    def __call__(self, *args, **kwargs):
        stream = self._real_open(*args, **kwargs)
        self.streams.append(stream)
        return stream

    @property
    def all_closed(self):
        return all(stream.closed for stream in self.streams)


@pytest.fixture()
def open_spy(monkeypatch):
    spy = _OpenSpy()
    monkeypatch.setattr(builtins, "open", spy)
    return spy


class TestHandleLeaks:
    """Constructors that raise must not leak the stream they opened."""

    def test_reader_open_bad_magic(self, tmp_path, open_spy):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"XXXX\x01rest")
        for opener in (TraceReader.open, ColumnarTraceReader.open):
            with pytest.raises(TraceFormatError):
                opener(path)
        assert open_spy.streams and open_spy.all_closed

    def test_reader_open_bad_version(self, tmp_path, open_spy):
        path = tmp_path / "future.bin"
        path.write_bytes(b"EKVT\x63")
        for opener in (TraceReader.open, ColumnarTraceReader.open):
            with pytest.raises(TraceFormatError):
                opener(path)
        assert open_spy.streams and open_spy.all_closed

    def test_writer_open_write_failure(self, tmp_path, monkeypatch):
        # the header write inside the constructor blows up
        class BrokenStream:
            def __init__(self):
                self.closed = False

            def write(self, data):
                raise OSError("disk full")

            def close(self):
                self.closed = True

        streams = []

        def fake_open(*args, **kwargs):
            stream = BrokenStream()
            streams.append(stream)
            return stream

        monkeypatch.setattr(builtins, "open", fake_open)
        for opener in (TraceWriter.open, ColumnarTraceWriter.open):
            with pytest.raises(OSError):
                opener(tmp_path / "out.bin")
        assert len(streams) == 2
        assert all(stream.closed for stream in streams)

    def test_writer_open_bad_chunk_size(self, tmp_path, open_spy):
        with pytest.raises(ValueError):
            ColumnarTraceWriter.open(tmp_path / "out.v2", chunk_size=-1)
        assert open_spy.streams and open_spy.all_closed


record_strategy = st.builds(
    TraceRecord,
    op=st.sampled_from(list(OpType)),
    key=st.binary(min_size=1, max_size=64),
    value_size=st.integers(min_value=0, max_value=2**32 - 1),
    block=st.integers(min_value=0, max_value=2**32 - 1),
)


class TestProperties:
    @given(st.lists(record_strategy, max_size=50))
    def test_binary_roundtrip(self, records):
        assert list(records_from_bytes(records_to_bytes(records))) == records

    @given(record_strategy)
    def test_text_roundtrip(self, record):
        assert TraceRecord.from_text(record.to_text()) == record

    @given(
        st.lists(record_strategy, max_size=60),
        st.integers(min_value=1, max_value=17),
    )
    def test_v2_roundtrip(self, records, chunk_size):
        blob, _ = _v2_bytes(records, chunk_size=chunk_size)
        reader = ColumnarTraceReader(io.BytesIO(blob))
        assert reader.version == 2
        assert list(reader) == records

    @given(st.lists(record_strategy, max_size=40))
    def test_v1_v2_cross_format_equivalence(self, records):
        """Both binary formats decode to the identical record sequence."""
        v1 = list(records_from_bytes(records_to_bytes(records)))
        blob, _ = _v2_bytes(records, chunk_size=7)
        v2 = list(ColumnarTraceReader(io.BytesIO(blob)))
        assert v1 == v2 == records


class TestChunkCorruption:
    """Per-chunk CRC32: flipped bytes in a v2 chunk section must never
    go unnoticed in strict mode, and must cost only the damaged chunk in
    lenient mode."""

    def _trace_file(self, tmp_path, chunk_size=5, copies=6):
        records = _sample_records() * copies
        path = tmp_path / "trace.v2"
        write_trace_v2(path, records, chunk_size=chunk_size)
        return path, records

    def test_every_flipped_byte_in_a_chunk_is_detected(self, tmp_path):
        from repro.core.trace import open_trace_chunks

        path, _ = self._trace_file(tmp_path)
        footer = read_trace_footer(path)
        start = footer.chunks[1][0]
        end = footer.chunks[2][0]
        original = path.read_bytes()
        for position in range(start, end):
            damaged = bytearray(original)
            damaged[position] ^= 0x01
            path.write_bytes(bytes(damaged))
            with pytest.raises(TraceFormatError):
                list(open_trace_chunks(path))

    def test_error_names_the_damaged_chunk(self, tmp_path):
        from repro.core.trace import open_trace_chunks

        path, _ = self._trace_file(tmp_path)
        footer = read_trace_footer(path)
        offset = footer.chunks[3][0]
        damaged = bytearray(path.read_bytes())
        damaged[offset + 12] ^= 0xFF  # inside the payload
        path.write_bytes(bytes(damaged))
        with pytest.raises(TraceFormatError, match=f"chunk at offset {offset}"):
            list(open_trace_chunks(path))

    def test_lenient_loses_only_the_damaged_chunk(self, tmp_path, caplog):
        import logging

        from repro.core.trace import open_trace_chunks

        path, records = self._trace_file(tmp_path)
        footer = read_trace_footer(path)
        offset, chunk_count = footer.chunks[2]
        damaged = bytearray(path.read_bytes())
        damaged[offset + 9] ^= 0x10
        path.write_bytes(bytes(damaged))
        with caplog.at_level(logging.WARNING, logger="repro.trace"):
            survived = [
                record
                for chunk in open_trace_chunks(path, lenient=True)
                for record in chunk.to_records()
            ]
        assert len(survived) == len(records) - chunk_count
        assert any("skipping corrupt" in message for message in caplog.messages)
        # the surviving records are byte-identical to the originals
        expected = records[: 2 * 5] + records[3 * 5 :]
        assert survived == expected

    def test_tag_byte_overwritten_with_footer_tag(self, tmp_path):
        # a purely streaming reader would mistake this for end-of-chunks;
        # the footer-driven strict path must still flag it
        from repro.core.trace import open_trace_chunks

        path, records = self._trace_file(tmp_path)
        footer = read_trace_footer(path)
        offset, chunk_count = footer.chunks[1]
        damaged = bytearray(path.read_bytes())
        damaged[offset] = 0x02
        path.write_bytes(bytes(damaged))
        with pytest.raises(TraceFormatError, match="bad section tag"):
            list(open_trace_chunks(path))
        survived = sum(len(chunk) for chunk in open_trace_chunks(path, lenient=True))
        assert survived == len(records) - chunk_count

    def test_streaming_lenient_skips_crc_mismatch(self, tmp_path):
        # no footer available (raw stream): the streaming reader can
        # still skip a fully-consumed corrupt section and carry on
        path, records = self._trace_file(tmp_path)
        footer = read_trace_footer(path)
        offset, chunk_count = footer.chunks[0]
        damaged = bytearray(path.read_bytes())
        damaged[offset + 20] ^= 0x01
        reader = ColumnarTraceReader(io.BytesIO(bytes(damaged)), lenient=True)
        survived = list(reader)
        assert len(survived) == len(records) - chunk_count

    def test_crc_survives_roundtrip_unchanged(self, tmp_path):
        # sanity: an undamaged file still reads back exactly
        path, records = self._trace_file(tmp_path)
        assert list(read_trace(path)) == records

    def test_over_long_count_fails_within_the_file_size(
        self, tmp_path, allocation_bound
    ):
        # offset + 12 is the high byte of num_keys: the columns length it
        # implies is ~8.5 GB, and the count is read before its CRC can be
        # checked, so the read must be refused before anything is allocated
        from repro.core.trace import open_trace_chunks

        path, _ = self._trace_file(tmp_path)
        offset = read_trace_footer(path).chunks[3][0]
        damaged = bytearray(path.read_bytes())
        damaged[offset + 12] ^= 0xFF
        path.write_bytes(bytes(damaged))
        with allocation_bound(len(damaged)):
            with pytest.raises(
                TraceFormatError, match=f"truncated chunk at offset {offset}"
            ):
                list(open_trace_chunks(path))

    def test_lenient_skips_a_chunk_with_an_over_long_count(self, tmp_path, caplog):
        import logging

        from repro.core.trace import open_trace_chunks

        path, records = self._trace_file(tmp_path)
        offset, chunk_count = read_trace_footer(path).chunks[2]
        damaged = bytearray(path.read_bytes())
        damaged[offset + 12] ^= 0xFF
        path.write_bytes(bytes(damaged))
        with caplog.at_level(logging.WARNING, logger="repro.trace"):
            survived = [
                record
                for chunk in open_trace_chunks(path, lenient=True)
                for record in chunk.to_records()
            ]
        assert len(survived) == len(records) - chunk_count
        assert any("skipping corrupt" in message for message in caplog.messages)
        assert survived == records[: 2 * 5] + records[3 * 5 :]

    def test_unseekable_stream_reads_an_over_long_count_in_pieces(
        self, tmp_path, allocation_bound
    ):
        # a pipe has no known end: the over-long section is read in bounded
        # pieces and fails as truncated once the bytes run out
        path, records = self._trace_file(tmp_path)
        offset = read_trace_footer(path).chunks[1][0]
        original = path.read_bytes()
        assert list(ColumnarTraceReader(_unseekable(original))) == records
        damaged = bytearray(original)
        damaged[offset + 12] ^= 0xFF
        with allocation_bound(len(damaged)):
            with pytest.raises(TraceFormatError, match="truncated chunk 1 columns"):
                list(ColumnarTraceReader(_unseekable(bytes(damaged))))
        lenient = ColumnarTraceReader(_unseekable(bytes(damaged)), lenient=True)
        assert list(lenient) == records[:5]


class _UnseekableRaw(io.RawIOBase):
    """A pipe stand-in: readable, but cannot seek or tell."""

    def __init__(self, data: bytes) -> None:
        self._data = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        return self._data.readinto(buffer)


def _unseekable(data: bytes) -> io.BufferedReader:
    return io.BufferedReader(_UnseekableRaw(data))
