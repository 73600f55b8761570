"""KV operation trace model and streaming I/O.

A trace is an ordered sequence of :class:`TraceRecord` objects, one per
KV operation observed at the KV-store interface — the same capture point
the paper instruments in Geth.  Each record carries the operation type,
the key, the value size (values themselves are not retained; the
analyses only need sizes), and the block height at which the operation
was issued.

Three persistent formats are provided:

* **binary v1**: a compact length-prefixed record stream;
* **binary v2**: a chunked *columnar* format — each chunk stores the
  operation/value-size/block/key-id columns as contiguous little-endian
  arrays plus an interned key table, and a footer records per-chunk file
  offsets and record counts so shards can be read independently (the
  parallel scheduler's random-access path);
* **text**: one human-readable line per record, mirroring the format of
  the paper's released ``geth-trace`` logs.

All formats support streaming: readers yield records (or columnar
chunks) lazily so analyses can run over traces larger than memory.
:class:`ColumnarTraceReader` reads both binary versions transparently.
"""

from __future__ import annotations

import enum
import io
import logging
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Optional, Union

from repro.errors import TraceFormatError

_LOG = logging.getLogger("repro.trace")

if TYPE_CHECKING:  # avoid an import cycle; columnar imports this module
    from repro.core.columnar import TraceChunk


class OpType(enum.IntEnum):
    """KV operation types distinguished by the paper.

    Geth itself does not distinguish writes from updates; following the
    paper (§III-B) the tracing layer classifies a put as UPDATE when the
    key already exists in the store and WRITE otherwise.  SCAN records
    one range query (the paper counts a scan as a single operation).
    """

    WRITE = 0
    UPDATE = 1
    READ = 2
    DELETE = 3
    SCAN = 4

    @property
    def short_name(self) -> str:
        return _SHORT_NAMES[self]

    @classmethod
    def from_short_name(cls, name: str) -> "OpType":
        try:
            return _FROM_SHORT[name]
        except KeyError:
            raise TraceFormatError(f"unknown operation short name: {name!r}") from None


_SHORT_NAMES = {
    OpType.WRITE: "W",
    OpType.UPDATE: "U",
    OpType.READ: "R",
    OpType.DELETE: "D",
    OpType.SCAN: "S",
}
_FROM_SHORT = {v: k for k, v in _SHORT_NAMES.items()}

MUTATING_OPS = frozenset({OpType.WRITE, OpType.UPDATE, OpType.DELETE})
PUT_OPS = frozenset({OpType.WRITE, OpType.UPDATE})


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """A single KV operation as observed at the store interface.

    Attributes:
        op: the operation type.
        key: the full KV key, including its class prefix.
        value_size: size in bytes of the value written/read; 0 for
            deletes and for reads that missed.  For scans, the total
            bytes returned by the range query.
        block: block height being processed when the op was issued
            (0 for operations outside block processing, e.g. startup).
    """

    op: OpType
    key: bytes
    value_size: int = 0
    block: int = 0

    def to_text(self) -> str:
        """Render as one trace-log line: ``<op> <hexkey> <vsize> <block>``."""
        return f"{self.op.short_name} {self.key.hex()} {self.value_size} {self.block}"

    @classmethod
    def from_text(cls, line: str) -> "TraceRecord":
        parts = line.split()
        if len(parts) != 4:
            raise TraceFormatError(f"expected 4 fields, got {len(parts)}: {line!r}")
        op = OpType.from_short_name(parts[0])
        try:
            key = bytes.fromhex(parts[1])
            value_size = int(parts[2])
            block = int(parts[3])
        except ValueError as exc:
            raise TraceFormatError(f"bad trace line {line!r}: {exc}") from exc
        return cls(op=op, key=key, value_size=value_size, block=block)


_BINARY_MAGIC = b"EKVT"
_BINARY_VERSION = 1
_BINARY_VERSION_V2 = 2
# Per-record header: op(u8), key_len(u16), value_size(u32), block(u32)
_RECORD_HEADER = struct.Struct("<BHII")


def _iter_v1_records(stream: IO[bytes]) -> Iterator[TraceRecord]:
    """Yield records from a v1 stream positioned just past the header."""
    read = stream.read
    header_size = _RECORD_HEADER.size
    unpack = _RECORD_HEADER.unpack
    while True:
        header = read(header_size)
        if not header:
            return
        if len(header) != header_size:
            raise TraceFormatError("truncated record header")
        op, key_len, value_size, block = unpack(header)
        key = read(key_len)
        if len(key) != key_len:
            raise TraceFormatError("truncated record key")
        yield TraceRecord(OpType(op), key, value_size, block)


class TraceWriter:
    """Streaming trace writer (binary format).

    Usage::

        with TraceWriter.open(path) as writer:
            writer.append(record)
    """

    def __init__(self, stream: IO[bytes]) -> None:
        self._stream = stream
        self._count = 0
        stream.write(_BINARY_MAGIC)
        stream.write(bytes([_BINARY_VERSION]))

    @classmethod
    def open(cls, path: Union[str, Path]) -> "TraceWriter":
        stream = open(path, "wb")
        try:
            return cls(stream)
        except BaseException:
            stream.close()
            raise

    @property
    def count(self) -> int:
        """Number of records appended so far."""
        return self._count

    def append(self, record: TraceRecord) -> None:
        if len(record.key) > 0xFFFF:
            raise TraceFormatError(f"key too long for binary format: {len(record.key)}")
        self._stream.write(
            _RECORD_HEADER.pack(
                int(record.op), len(record.key), record.value_size, record.block
            )
        )
        self._stream.write(record.key)
        self._count += 1

    def extend(self, records: Iterable[TraceRecord]) -> None:
        for record in records:
            self.append(record)

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class TraceReader:
    """Streaming trace reader (binary format)."""

    def __init__(self, stream: IO[bytes]) -> None:
        self._stream = stream
        magic = stream.read(4)
        if magic != _BINARY_MAGIC:
            raise TraceFormatError(f"bad trace magic: {magic!r}")
        version = stream.read(1)
        if not version or version[0] != _BINARY_VERSION:
            raise TraceFormatError(f"unsupported trace version: {version!r}")

    @classmethod
    def open(cls, path: Union[str, Path]) -> "TraceReader":
        stream = open(path, "rb")
        try:
            return cls(stream)
        except BaseException:
            stream.close()
            raise

    def __iter__(self) -> Iterator[TraceRecord]:
        return _iter_v1_records(self._stream)

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Binary format v2: chunked columnar with footer
# ---------------------------------------------------------------------------
#
# Layout::
#
#     "EKVT" 0x02
#     sections, each introduced by a tag byte:
#       0x01 chunk (legacy, unchecksummed):
#                    num_records(u32) num_keys(u32)
#                    ops[u8 x n] value_sizes[u32 x n] blocks[u32 x n]
#                    key_ids[u32 x n] key_lens[u16 x k] key_blob
#       0x03 chunk (checksummed; what the writer emits):
#                    crc32(u32, over the counts + columns + key blob)
#                    followed by the same payload as 0x01
#       0x02 footer: num_chunks(u32) total_records(u64)
#                    num_chunks x (chunk_offset(u64) num_records(u32))
#     trailer: footer_offset(u64) "EKVF"
#
# Chunk offsets point at the chunk's tag byte, so a worker can seek
# straight to its shard.  Streaming readers never need the footer: they
# walk sections until the footer tag (or EOF for an untrailed stream).
#
# The per-chunk CRC32 guarantees that any single flipped byte inside a
# chunk section is detected (CRC32 detects all 1- and 2-bit errors and
# all error bursts up to 32 bits).  Strict readers raise
# :class:`TraceFormatError` naming the chunk; ``lenient`` readers skip
# the corrupt chunk with a logged warning and keep going.
#
# The counts are read before the CRC that covers them can be checked, so
# every section length is bounded by the bytes left in the stream before
# any read: a damaged count cannot ask for more memory than the file
# holds, and fails as a truncated section instead.

_TAG_CHUNK = 0x01
_TAG_FOOTER = 0x02
_TAG_CHUNK_CRC = 0x03
_CHUNK_COUNTS = struct.Struct("<II")  # num_records, num_keys
_CHUNK_CRC = struct.Struct("<I")  # crc32 of the chunk payload
_FOOTER_HEADER = struct.Struct("<IQ")  # num_chunks, total_records
_FOOTER_ENTRY = struct.Struct("<QI")  # chunk offset, num_records
_TRAILER = struct.Struct("<Q4s")  # footer offset, trailer magic
_TRAILER_MAGIC = b"EKVF"


#: largest single read from a stream whose remaining length is unknown
_READ_PIECE = 1 << 20


def _bytes_left(stream: IO[bytes]) -> Optional[int]:
    """Bytes between the stream's position and its end, or ``None`` for
    a stream that cannot tell or seek (a pipe, a socket, a gzip file)."""
    try:
        here = stream.tell()
        end = stream.seek(0, io.SEEK_END)
        stream.seek(here)
    except (AttributeError, OSError, ValueError):  # UnsupportedOperation is both
        return None
    return max(end - here, 0)


def _read_exact(
    stream: IO[bytes], size: int, what: str, left: Optional[int] = None
) -> bytes:
    """Read exactly ``size`` bytes or raise ``TraceFormatError("truncated …")``.

    ``left`` is the number of bytes known to remain (:func:`_bytes_left`):
    a larger ``size`` fails before anything is allocated.  When it is
    unknown, a large read is taken in :data:`_READ_PIECE` pieces, so
    memory grows only as bytes actually arrive.
    """
    if left is not None and size > left:
        raise TraceFormatError(f"truncated {what}: wanted {size}, got {left}")
    if left is None and size > _READ_PIECE:
        pieces = []
        missing = size
        while missing:
            piece = stream.read(min(missing, _READ_PIECE))
            if not piece:
                break
            pieces.append(piece)
            missing -= len(piece)
        data = b"".join(pieces)
    else:
        data = stream.read(size)
    if len(data) != size:
        raise TraceFormatError(f"truncated {what}: wanted {size}, got {len(data)}")
    return data


def _pack_chunk(chunk: "TraceChunk") -> bytes:
    num_keys = chunk.num_keys
    if num_keys and int(chunk.key_lens.max()) > 0xFFFF:
        raise TraceFormatError("key too long for trace format v2")
    payload = b"".join(
        (
            _CHUNK_COUNTS.pack(len(chunk), num_keys),
            chunk.ops.astype("<u1", copy=False).tobytes(),
            chunk.value_sizes.astype("<u4", copy=False).tobytes(),
            chunk.blocks.astype("<u4", copy=False).tobytes(),
            chunk.key_ids.astype("<u4", copy=False).tobytes(),
            chunk.key_lens.astype("<u2").tobytes(),
            chunk.key_blob(),
        )
    )
    return b"".join(
        (bytes([_TAG_CHUNK_CRC]), _CHUNK_CRC.pack(zlib.crc32(payload)), payload)
    )


#: per-record bytes in the fixed-width columns: op(1) + vsize(4) + block(4) + key_id(4)
_RECORD_COLUMN_BYTES = 13


@dataclass(frozen=True)
class RawChunk:
    """One undecoded chunk section: the raw buffers plus its payload CRC.

    ``crc`` is always *computed* over the bytes actually read (counts +
    columns + key blob), never trusted from the file — it is the cache
    key the partial-aggregate cache uses, so a rewritten or corrupted
    chunk can never alias a cached partial.  For checksummed sections
    the stored CRC has already been verified against it by the reader.
    Decoding (:meth:`parse`) is deferred so cache hits skip it entirely.
    """

    counts: bytes
    columns: bytes
    blob: bytes
    crc: int
    #: CRC stored in the file; None for legacy (tag 0x01) sections
    stored_crc: Optional[int]
    what: str

    @property
    def nbytes(self) -> int:
        return len(self.counts) + len(self.columns) + len(self.blob)

    @property
    def num_records(self) -> int:
        return _CHUNK_COUNTS.unpack(self.counts)[0]

    def parse(self) -> "TraceChunk":
        return _parse_chunk_parts(self.counts, self.columns, self.blob, self.what)


def _read_chunk_parts(stream: IO[bytes], what: str) -> tuple[bytes, bytes, bytes]:
    """Read the counts + columns + key blob buffers of one chunk section.

    The payload is self-describing (counts give the column sizes and the
    key-length column gives the blob size), so this consumes exactly the
    section and leaves the stream at the next tag byte.  The three
    buffers are returned separately — no concatenation copy; the parser
    wraps them with ``np.frombuffer`` views directly.  The counts are not
    yet verified, so the lengths they imply are bounded by the bytes left
    in the stream (measured once per section) before anything is read.
    """
    import numpy as np

    counts = _read_exact(stream, _CHUNK_COUNTS.size, f"{what} header")
    num_records, num_keys = _CHUNK_COUNTS.unpack(counts)
    left = _bytes_left(stream)
    columns = _read_exact(
        stream,
        _RECORD_COLUMN_BYTES * num_records + 2 * num_keys,
        f"{what} columns",
        left,
    )
    if left is not None:
        left -= len(columns)
    key_lens = np.frombuffer(
        columns, dtype="<u2", count=num_keys, offset=_RECORD_COLUMN_BYTES * num_records
    )
    blob = _read_exact(stream, int(key_lens.sum()), f"{what} key blob", left)
    return counts, columns, blob


def _parse_chunk_parts(
    counts: bytes, columns: bytes, blob: bytes, what: str
) -> "TraceChunk":
    """Decode one chunk section's buffers into a :class:`TraceChunk`.

    Zero-copy: every fixed-width column is an ``np.frombuffer`` view
    into ``columns``, and the interned keys stay packed in ``blob``
    behind a lazy :class:`~repro.core.columnar.KeyTable` — per-key bytes
    are sliced out only if an analyzer actually touches that key.
    """
    import numpy as np

    from repro.core.columnar import KeyTable, TraceChunk

    num_records, num_keys = _CHUNK_COUNTS.unpack(counts)
    offset = 0
    ops = np.frombuffer(columns, dtype=np.uint8, count=num_records, offset=offset)
    offset += num_records
    value_sizes = np.frombuffer(columns, dtype="<u4", count=num_records, offset=offset)
    offset += 4 * num_records
    blocks = np.frombuffer(columns, dtype="<u4", count=num_records, offset=offset)
    offset += 4 * num_records
    key_ids = np.frombuffer(columns, dtype="<u4", count=num_records, offset=offset)
    offset += 4 * num_records
    key_lens = np.frombuffer(columns, dtype="<u2", count=num_keys, offset=offset)
    if num_records and num_keys and int(key_ids.max()) >= num_keys:
        raise TraceFormatError(f"{what}: key id out of range")
    return TraceChunk(
        ops=ops,
        value_sizes=value_sizes,
        blocks=blocks,
        key_ids=key_ids,
        keys=KeyTable(blob, key_lens.astype(np.uint32)),
    )


def _read_raw_section(stream: IO[bytes], tag: int, what: str) -> RawChunk:
    """Read one chunk section (either tag) positioned just past the tag
    byte, computing the payload CRC and verifying it against the stored
    one for checksummed chunks."""
    stored: Optional[int] = None
    if tag != _TAG_CHUNK:
        stored = _CHUNK_CRC.unpack(_read_exact(stream, _CHUNK_CRC.size, f"{what} crc"))[0]
    counts, columns, blob = _read_chunk_parts(stream, what)
    computed = zlib.crc32(counts)
    computed = zlib.crc32(columns, computed)
    computed = zlib.crc32(blob, computed)
    if stored is not None and computed != stored:
        raise TraceFormatError(
            f"{what}: CRC mismatch (stored 0x{stored:08x}, computed 0x{computed:08x})"
        )
    return RawChunk(
        counts=counts,
        columns=columns,
        blob=blob,
        crc=computed,
        stored_crc=stored,
        what=what,
    )


def _read_chunk_section(stream: IO[bytes], tag: int, what: str) -> "TraceChunk":
    """Read + decode one chunk section positioned just past the tag byte."""
    return _read_raw_section(stream, tag, what).parse()


class ColumnarTraceWriter:
    """Streaming v2 (chunked columnar) trace writer.

    Accepts either individual records (batched into chunks of
    ``chunk_size``) or pre-built columnar chunks; writes the footer and
    trailer on close.
    """

    def __init__(self, stream: IO[bytes], chunk_size: Optional[int] = None) -> None:
        from repro.core.columnar import DEFAULT_CHUNK_SIZE, ChunkBuilder

        self._stream = stream
        self._chunk_size = chunk_size if chunk_size else DEFAULT_CHUNK_SIZE
        if self._chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self._builder = ChunkBuilder()
        self._count = 0
        self._offsets: list[tuple[int, int]] = []
        stream.write(_BINARY_MAGIC)
        stream.write(bytes([_BINARY_VERSION_V2]))
        self._pos = len(_BINARY_MAGIC) + 1
        self._finished = False
        self._closed = False

    @classmethod
    def open(
        cls, path: Union[str, Path], chunk_size: Optional[int] = None
    ) -> "ColumnarTraceWriter":
        stream = open(path, "wb")
        try:
            return cls(stream, chunk_size=chunk_size)
        except BaseException:
            stream.close()
            raise

    @property
    def count(self) -> int:
        """Number of records accepted so far (including unflushed ones)."""
        return self._count + len(self._builder)

    def append(self, record: TraceRecord) -> None:
        self._builder.append(record)
        if len(self._builder) >= self._chunk_size:
            self._flush_builder()

    def extend(self, records: Iterable[TraceRecord]) -> None:
        for record in records:
            self.append(record)

    def write_chunk(self, chunk: "TraceChunk") -> None:
        """Write a pre-built chunk (flushes any buffered records first)."""
        self._flush_builder()
        if len(chunk) == 0:
            return
        self._offsets.append((self._pos, len(chunk)))
        payload = _pack_chunk(chunk)
        self._stream.write(payload)
        self._pos += len(payload)
        self._count += len(chunk)

    def _flush_builder(self) -> None:
        if len(self._builder):
            chunk = self._builder.build()
            from repro.core.columnar import ChunkBuilder

            self._builder = ChunkBuilder()
            self.write_chunk(chunk)

    def finish(self) -> None:
        """Flush buffered records and write the footer + trailer.

        Idempotent; :meth:`close` calls it automatically.  Call it
        directly when writing to an in-memory stream that must stay
        readable afterwards (e.g. ``io.BytesIO``).
        """
        if self._finished:
            return
        self._flush_builder()
        footer_offset = self._pos
        footer = [bytes([_TAG_FOOTER])]
        footer.append(_FOOTER_HEADER.pack(len(self._offsets), self._count))
        for offset, count in self._offsets:
            footer.append(_FOOTER_ENTRY.pack(offset, count))
        footer.append(_TRAILER.pack(footer_offset, _TRAILER_MAGIC))
        self._stream.write(b"".join(footer))
        self._finished = True

    def close(self) -> None:
        if self._closed:
            return
        try:
            self.finish()
        finally:
            self._closed = True
            self._stream.close()

    def __enter__(self) -> "ColumnarTraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass(frozen=True)
class TraceFooter:
    """v2 footer contents: per-chunk offsets/counts for random access."""

    total_records: int
    #: per chunk: (file offset of the chunk's tag byte, record count)
    chunks: tuple[tuple[int, int], ...]

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)


class ColumnarTraceReader:
    """Streaming chunk reader for binary traces (v1 and v2).

    v2 files yield their stored chunks; v1 files are batched into
    columnar chunks of ``chunk_size`` on the fly, so analyzers can use
    one chunked code path regardless of the on-disk format.

    ``lenient=True`` downgrades chunk corruption (CRC mismatch or a
    malformed section) from :class:`TraceFormatError` to a logged
    warning: the corrupt chunk is skipped and reading continues with the
    next section when possible.  A corrupt section whose length can no
    longer be trusted ends the stream early instead of mis-parsing the
    bytes after it — the footer-driven path
    (:func:`open_trace_chunks` on a trailed file) does not have that
    limitation because every chunk is located independently.
    """

    def __init__(
        self,
        stream: IO[bytes],
        chunk_size: Optional[int] = None,
        lenient: bool = False,
    ) -> None:
        from repro.core.columnar import DEFAULT_CHUNK_SIZE

        self._stream = stream
        self._chunk_size = chunk_size if chunk_size else DEFAULT_CHUNK_SIZE
        self.lenient = lenient
        magic = stream.read(4)
        if magic != _BINARY_MAGIC:
            raise TraceFormatError(f"bad trace magic: {magic!r}")
        version = stream.read(1)
        if not version or version[0] not in (_BINARY_VERSION, _BINARY_VERSION_V2):
            raise TraceFormatError(f"unsupported trace version: {version!r}")
        self.version = version[0]

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        chunk_size: Optional[int] = None,
        lenient: bool = False,
    ) -> "ColumnarTraceReader":
        stream = open(path, "rb")
        try:
            return cls(stream, chunk_size=chunk_size, lenient=lenient)
        except BaseException:
            stream.close()
            raise

    def chunks(self) -> Iterator["TraceChunk"]:
        """Lazily yield columnar chunks in trace order."""
        if self.version == _BINARY_VERSION:
            from repro.core.columnar import chunk_records

            yield from chunk_records(_iter_v1_records(self._stream), self._chunk_size)
            return
        read = self._stream.read
        # a pipe cannot tell its position; its chunks are named by index
        tell = self._stream.tell if self._stream.seekable() else None
        index = 0
        while True:
            what = f"chunk {index} at offset {tell()}" if tell else f"chunk {index}"
            tag = read(1)
            if not tag or tag[0] == _TAG_FOOTER:
                return
            if tag[0] not in (_TAG_CHUNK, _TAG_CHUNK_CRC):
                error = TraceFormatError(f"{what}: bad v2 section tag {tag!r}")
                if self.lenient:
                    # An unknown tag means the section structure itself
                    # is untrustworthy; there is no way to find the next
                    # section without a footer.
                    _LOG.warning("%s; stopping lenient read", error)
                    return
                raise error
            try:
                chunk = _read_chunk_section(self._stream, tag[0], what)
            except TraceFormatError as error:
                if self.lenient:
                    if "CRC mismatch" in str(error) or "key id" in str(error):
                        # The section was fully consumed; skip it and
                        # carry on at the next tag byte.
                        _LOG.warning("skipping corrupt %s: %s", what, error)
                        index += 1
                        continue
                    _LOG.warning("%s; stopping lenient read", error)
                    return
                raise
            index += 1
            yield chunk

    def __iter__(self) -> Iterator[TraceRecord]:
        if self.version == _BINARY_VERSION:
            yield from _iter_v1_records(self._stream)
            return
        for chunk in self.chunks():
            yield from chunk.to_records()

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "ColumnarTraceReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _read_footer_stream(stream: IO[bytes]) -> TraceFooter:
    """Read the v2 footer from an already-open binary stream (any position)."""
    stream.seek(0)
    magic = stream.read(4)
    if magic != _BINARY_MAGIC:
        raise TraceFormatError(f"bad trace magic: {magic!r}")
    version = stream.read(1)
    if not version or version[0] != _BINARY_VERSION_V2:
        raise TraceFormatError("trace has no footer (not a v2 trace)")
    stream.seek(0, io.SEEK_END)
    size = stream.tell()
    if size < 5 + _TRAILER.size:
        raise TraceFormatError("truncated v2 trailer")
    stream.seek(size - _TRAILER.size)
    footer_offset, trailer_magic = _TRAILER.unpack(
        _read_exact(stream, _TRAILER.size, "v2 trailer")
    )
    if trailer_magic != _TRAILER_MAGIC:
        raise TraceFormatError(f"bad v2 trailer magic: {trailer_magic!r}")
    if footer_offset < 5 or footer_offset >= size:
        raise TraceFormatError("v2 footer offset out of range")
    stream.seek(footer_offset)
    tag = _read_exact(stream, 1, "v2 footer tag")
    if tag[0] != _TAG_FOOTER:
        raise TraceFormatError("v2 footer offset does not point at a footer")
    header = _read_exact(stream, _FOOTER_HEADER.size, "v2 footer header")
    num_chunks, total_records = _FOOTER_HEADER.unpack(header)
    entries = []
    for _ in range(num_chunks):
        entry = _read_exact(stream, _FOOTER_ENTRY.size, "v2 footer entry")
        entries.append(_FOOTER_ENTRY.unpack(entry))
    return TraceFooter(total_records=total_records, chunks=tuple(entries))


def read_trace_footer(path: Union[str, Path]) -> TraceFooter:
    """Read the v2 footer (chunk offsets/counts) from a trace file.

    Raises :class:`TraceFormatError` for v1 traces (no footer) and for
    missing/corrupt trailers.
    """
    with open(path, "rb") as stream:
        return _read_footer_stream(stream)


class RandomAccessChunkReader:
    """Footer-indexed random-access chunk reads over one open handle.

    The earlier random-access path reopened the trace file for every
    chunk it touched; across thousands of footer offsets that open/close
    churn shows up as pure syscall overhead in the pipelined analyzer.
    This reader opens the file once and serves any number of
    seek-and-read chunk loads from the same handle.  Not thread-safe:
    each prefetch/worker thread owns its own reader.

    ``lenient=True`` turns a corrupt chunk into a ``None`` return (with
    a logged warning) instead of a :class:`TraceFormatError`, matching
    :func:`read_chunk_at`.
    """

    def __init__(self, path: Union[str, Path], lenient: bool = False) -> None:
        self.path = str(path)
        self.lenient = lenient
        self._stream = open(path, "rb")
        self._footer: Optional[TraceFooter] = None

    def footer(self) -> TraceFooter:
        """The trace's footer (read once, cached)."""
        if self._footer is None:
            self._footer = _read_footer_stream(self._stream)
        return self._footer

    def stored_crc(self, offset: int) -> Optional[int]:
        """The CRC *stored* for the chunk at ``offset`` — a cheap probe.

        Reads five bytes (tag + CRC field); returns ``None`` for legacy
        un-checksummed sections and anything malformed.  The stored CRC
        is a hint, not a verification: callers that act on it (the
        partial-aggregate cache) must confirm it against the CRC
        computed by :meth:`read_raw` before trusting any bytes.
        """
        try:
            self._stream.seek(offset)
            head = self._stream.read(1 + _CHUNK_CRC.size)
        except OSError:
            return None
        if len(head) != 1 + _CHUNK_CRC.size or head[0] != _TAG_CHUNK_CRC:
            return None
        return _CHUNK_CRC.unpack_from(head, 1)[0]

    def read_raw(self, offset: int) -> Optional[RawChunk]:
        """Read one chunk's raw buffers (undecoded) at a footer offset.

        The payload CRC is computed from the bytes read and verified
        against the stored CRC for checksummed sections; decoding is
        left to :meth:`RawChunk.parse` so callers that only need the
        CRC (the partial-aggregate cache) skip it.
        """
        what = f"chunk at offset {offset}"
        try:
            self._stream.seek(offset)
            tag = _read_exact(self._stream, 1, f"{what} tag")
            if tag[0] not in (_TAG_CHUNK, _TAG_CHUNK_CRC):
                raise TraceFormatError(f"{what}: bad section tag {tag!r}")
            return _read_raw_section(self._stream, tag[0], what)
        except TraceFormatError as error:
            if self.lenient:
                _LOG.warning("skipping corrupt %s: %s", what, error)
                return None
            raise

    def read_chunk(self, offset: int) -> Optional["TraceChunk"]:
        """Read and decode one chunk at a footer offset."""
        raw = self.read_raw(offset)
        if raw is None:
            return None
        try:
            return raw.parse()
        except TraceFormatError as error:
            if self.lenient:
                _LOG.warning("skipping corrupt %s: %s", raw.what, error)
                return None
            raise

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "RandomAccessChunkReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_chunk_at(
    path: Union[str, Path], offset: int, lenient: bool = False
) -> Optional["TraceChunk"]:
    """Random-access read of one chunk via its footer offset.

    With ``lenient=True`` a corrupt chunk returns ``None`` (with a
    logged warning) instead of raising, so footer-driven readers can
    skip it and continue with the other chunks.  Loading many chunks?
    Use one :class:`RandomAccessChunkReader` instead of paying an
    open/close per chunk.
    """
    with RandomAccessChunkReader(path, lenient=lenient) as reader:
        return reader.read_chunk(offset)


def write_trace(path: Union[str, Path], records: Iterable[TraceRecord]) -> int:
    """Write all records to a binary v1 trace file; return the count."""
    with TraceWriter.open(path) as writer:
        writer.extend(records)
        return writer.count


def write_trace_v2(
    path: Union[str, Path],
    records: Iterable[TraceRecord],
    chunk_size: Optional[int] = None,
) -> int:
    """Write records as a chunked columnar v2 trace; return the count."""
    with ColumnarTraceWriter.open(path, chunk_size=chunk_size) as writer:
        writer.extend(records)
        return writer.count


def open_trace_chunks(
    path: Union[str, Path],
    chunk_size: Optional[int] = None,
    lenient: bool = False,
) -> Iterator["TraceChunk"]:
    """Lazily iterate columnar chunks from any binary trace (v1 or v2).

    ``lenient=True`` skips corrupt chunks instead of raising.  For a
    trailed v2 file the footer locates every chunk independently, so
    strict mode detects any damaged chunk (even one whose tag byte was
    overwritten with the footer tag, which a purely streaming reader
    would mistake for end-of-chunks) and lenient mode loses only the
    damaged chunk; for other inputs the streaming reader is used and
    skips what it safely can.
    """
    try:
        footer = read_trace_footer(path)
    except (TraceFormatError, OSError):
        footer = None
    if footer is not None:
        with RandomAccessChunkReader(path, lenient=lenient) as reader:
            for offset, _ in footer.chunks:
                chunk = reader.read_chunk(offset)
                if chunk is not None:
                    yield chunk
        return
    with ColumnarTraceReader.open(path, chunk_size=chunk_size, lenient=lenient) as reader:
        yield from reader.chunks()


def read_trace(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Iterate records from a binary trace file of either version."""
    with ColumnarTraceReader.open(path) as reader:
        yield from reader


def write_text_trace(path: Union[str, Path], records: Iterable[TraceRecord]) -> int:
    """Write records as text lines (the paper's log-like format)."""
    count = 0
    with open(path, "w", encoding="ascii") as stream:
        for record in records:
            stream.write(record.to_text())
            stream.write("\n")
            count += 1
    return count


def read_text_trace(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Iterate records from a text trace file, skipping blank lines."""
    with open(path, "r", encoding="ascii") as stream:
        for line in stream:
            line = line.strip()
            if line:
                yield TraceRecord.from_text(line)


def records_to_bytes(records: Iterable[TraceRecord]) -> bytes:
    """Serialize records to an in-memory binary trace blob."""
    buffer = io.BytesIO()
    writer = TraceWriter(buffer)
    writer.extend(records)
    return buffer.getvalue()


def records_from_bytes(blob: bytes) -> Iterator[TraceRecord]:
    """Deserialize records from an in-memory binary trace blob."""
    return iter(TraceReader(io.BytesIO(blob)))
