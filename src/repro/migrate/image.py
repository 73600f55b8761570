"""Serialized store images: the durable form a migration reads and writes.

An **image** is a flat file holding every live ``(key, value)`` pair of
a KV store, the unit ``repro migrate SRC DST`` moves between backends.
The format (``repro-kvimage-v1``) is a sequence of CRC-framed pair
blocks followed by a footer carrying the pair count and the
order-independent :class:`~repro.replay.verify.StateFingerprint` of the
whole image::

    "RKVIMG1\\n"                                  8-byte magic
    repeat: "B" u32 pairs  u64 payload_len  payload  u32 crc32(payload)
    once:   "F" u64 pairs  u32 digest_len   digest   u32 crc32(footer)

A *published* image always ends with the footer; an image is only ever
made visible by writing ``<path>.migtmp`` and atomically
``os.replace``-ing it over the destination, so readers never observe a
half-written file (the ``bnnair__synctool`` temp-then-rename idiom).

A **spill** is the same block framing without the footer: the bulk
copier appends one block per completed key range and flushes, so a
killed migration leaves a prefix of CRC-valid blocks behind.
:func:`read_image_pairs` in salvage mode drops a torn tail block, which
is exactly what resume needs — completed ranges are reloaded, the torn
range is re-copied from the source of truth.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional, Union
from zlib import crc32

from repro.errors import ImageFormatError
from repro.kvstore.api import KVStore
from repro.replay.verify import StateFingerprint, fingerprint_pairs, pair_hash

MAGIC = b"RKVIMG1\n"
_BLOCK_TAG = b"B"
_FOOTER_TAG = b"F"
_BLOCK_HEAD = struct.Struct("<IQ")  # pair count, payload length
_PAIR_HEAD = struct.Struct("<II")  # key length, value length
_FOOTER_HEAD = struct.Struct("<QI")  # pair count, digest length
_CRC = struct.Struct("<I")

#: suffix of the temp file an atomic publish goes through
TMP_SUFFIX = ".migtmp"

#: pairs per block when writing a whole store in one call
DEFAULT_BLOCK_PAIRS = 4096


def _encode_pairs(pairs: list[tuple[bytes, bytes]]) -> bytes:
    parts = []
    for key, value in pairs:
        parts.append(_PAIR_HEAD.pack(len(key), len(value)))
        parts.append(key)
        parts.append(value)
    return b"".join(parts)


def _decode_pairs(payload: bytes, count: int, where: str) -> list[tuple[bytes, bytes]]:
    pairs = []
    offset = 0
    for _ in range(count):
        if offset + _PAIR_HEAD.size > len(payload):
            raise ImageFormatError(f"truncated pair header in {where}")
        klen, vlen = _PAIR_HEAD.unpack_from(payload, offset)
        offset += _PAIR_HEAD.size
        if offset + klen + vlen > len(payload):
            raise ImageFormatError(f"truncated pair bytes in {where}")
        pairs.append((payload[offset : offset + klen], payload[offset + klen : offset + klen + vlen]))
        offset += klen + vlen
    if offset != len(payload):
        raise ImageFormatError(f"{len(payload) - offset} trailing payload bytes in {where}")
    return pairs


def _read_length(fh: BinaryIO, length: int, size: int) -> Optional[bytes]:
    """Read ``length`` bytes, or return ``None`` if fewer remain before
    ``size`` (the file size); an over-long, unverified length is refused
    before anything is allocated."""
    if length > size - fh.tell():
        return None
    data = fh.read(length)
    return data if len(data) == length else None


class ImageWriter:
    """Incremental block-at-a-time image writer (spill or full image).

    Blocks become durable as they are appended (``flush`` after each),
    so a crash mid-write loses at most the block being written.  Call
    :meth:`finalize` to append the footer that marks the image
    complete; a writer closed without finalizing leaves a valid spill.
    """

    def __init__(self, path: Union[str, Path], append: bool = False) -> None:
        self.path = Path(path)
        self.pairs_written = 0
        self.bytes_written = 0
        self.fingerprint = StateFingerprint()
        self.finalized = False
        if append and self.path.exists():
            self._fh: BinaryIO = open(self.path, "ab")
        else:
            self._fh = open(self.path, "wb")
            self._fh.write(MAGIC)

    def resume_from(self, pairs: Iterable[tuple[bytes, bytes]]) -> int:
        """Fold already-durable pairs into the running footer totals."""
        count = 0
        for key, value in pairs:
            self.fingerprint = self.fingerprint.combine(
                StateFingerprint(count=1, digest=pair_hash(key, value))
            )
            self.pairs_written += 1
            count += 1
        return count

    def append_block(self, pairs: list[tuple[bytes, bytes]]) -> int:
        """Append one CRC-framed block; returns its payload size."""
        if self.finalized:
            raise ImageFormatError("image already finalized")
        if not pairs:
            return 0
        payload = _encode_pairs(pairs)
        self._fh.write(_BLOCK_TAG)
        self._fh.write(_BLOCK_HEAD.pack(len(pairs), len(payload)))
        self._fh.write(payload)
        self._fh.write(_CRC.pack(crc32(payload)))
        self._fh.flush()
        self.pairs_written += len(pairs)
        self.bytes_written += len(payload)
        self.fingerprint = self.fingerprint.combine(fingerprint_pairs(pairs))
        return len(payload)

    def finalize(self) -> None:
        """Append the footer and close; the file is now a complete image."""
        digest = self.fingerprint.digest.to_bytes(32, "big")
        footer = _FOOTER_HEAD.pack(self.pairs_written, len(digest)) + digest
        self._fh.write(_FOOTER_TAG)
        self._fh.write(footer)
        self._fh.write(_CRC.pack(crc32(footer)))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self.finalized = True

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


@dataclass(frozen=True)
class ImageInfo:
    """Footer metadata of a complete image."""

    pairs: int
    fingerprint: StateFingerprint
    complete: bool


def read_image_pairs(
    path: Union[str, Path], *, salvage: bool = False
) -> Iterator[tuple[bytes, bytes]]:
    """Yield every pair of an image in file order.

    Strict mode (default) requires every block CRC to match and the
    footer to be present and consistent.  ``salvage=True`` accepts a
    footer-less spill and stops silently at the first torn or
    CRC-damaged tail block — the resume path for a killed bulk copy.
    Lengths read from the file are bounded by the bytes left in it, so a
    damaged length reads as a truncated section.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MAGIC)) != MAGIC:
            raise ImageFormatError(f"{path}: bad magic (not a repro-kvimage-v1 file)")
        total = 0
        fingerprint = StateFingerprint()
        while True:
            tag = fh.read(1)
            if not tag:
                if salvage:
                    return
                raise ImageFormatError(f"{path}: missing footer (incomplete image)")
            if tag == _FOOTER_TAG:
                footer = fh.read(_FOOTER_HEAD.size)
                if len(footer) < _FOOTER_HEAD.size:
                    if salvage:
                        return
                    raise ImageFormatError(f"{path}: truncated footer")
                pairs, digest_len = _FOOTER_HEAD.unpack(footer)
                digest = _read_length(fh, digest_len, size)
                crc_raw = fh.read(_CRC.size)
                if digest is None or len(crc_raw) < _CRC.size:
                    if salvage:
                        return
                    raise ImageFormatError(f"{path}: truncated footer")
                if _CRC.unpack(crc_raw)[0] != crc32(footer + digest):
                    if salvage:
                        return
                    raise ImageFormatError(f"{path}: footer CRC mismatch")
                if not salvage:
                    if pairs != total:
                        raise ImageFormatError(
                            f"{path}: footer claims {pairs} pairs, read {total}"
                        )
                    if int.from_bytes(digest, "big") != fingerprint.digest:
                        raise ImageFormatError(f"{path}: footer fingerprint mismatch")
                return
            if tag != _BLOCK_TAG:
                if salvage:
                    return
                raise ImageFormatError(f"{path}: unknown block tag {tag!r}")
            head = fh.read(_BLOCK_HEAD.size)
            if len(head) < _BLOCK_HEAD.size:
                if salvage:
                    return
                raise ImageFormatError(f"{path}: truncated block header")
            count, payload_len = _BLOCK_HEAD.unpack(head)
            payload = _read_length(fh, payload_len, size)
            crc_raw = fh.read(_CRC.size)
            if payload is None or len(crc_raw) < _CRC.size:
                if salvage:
                    return
                raise ImageFormatError(f"{path}: truncated block payload")
            if _CRC.unpack(crc_raw)[0] != crc32(payload):
                if salvage:
                    return
                raise ImageFormatError(f"{path}: block CRC mismatch")
            pairs = _decode_pairs(payload, count, str(path))
            if not salvage:
                total += count
                fingerprint = fingerprint.combine(fingerprint_pairs(pairs))
            yield from pairs


def image_info(path: Union[str, Path]) -> ImageInfo:
    """Scan an image and report its footer totals (strict)."""
    pairs = 0
    fingerprint = StateFingerprint()
    for key, value in read_image_pairs(path):
        fingerprint = fingerprint.combine(
            StateFingerprint(count=1, digest=pair_hash(key, value))
        )
        pairs += 1
    return ImageInfo(pairs=pairs, fingerprint=fingerprint, complete=True)


def write_image(
    path: Union[str, Path],
    pairs: Iterable[tuple[bytes, bytes]],
    *,
    block_pairs: int = DEFAULT_BLOCK_PAIRS,
) -> int:
    """Write a complete image atomically (temp-then-rename publish)."""
    path = Path(path)
    tmp = path.with_name(path.name + TMP_SUFFIX)
    writer = ImageWriter(tmp)
    try:
        block: list[tuple[bytes, bytes]] = []
        for pair in pairs:
            block.append(pair)
            if len(block) >= block_pairs:
                writer.append_block(block)
                block = []
        if block:
            writer.append_block(block)
        writer.finalize()
    except BaseException:
        writer.close()
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    return writer.pairs_written


def dump_store(
    path: Union[str, Path], store: KVStore, *, block_pairs: int = DEFAULT_BLOCK_PAIRS
) -> int:
    """Dump a store's live contents as a published image."""
    return write_image(path, store.scan(b""), block_pairs=block_pairs)


def load_image(path: Union[str, Path], store: KVStore) -> int:
    """Load a published image's pairs into ``store``; returns the count."""
    loaded = 0
    for key, value in read_image_pairs(path):
        store.put(key, value)
        loaded += 1
    return loaded


def publish_image(tmp_path: Union[str, Path], path: Union[str, Path]) -> None:
    """Atomically rename a finalized temp image over its destination."""
    os.replace(tmp_path, path)


def spill_path(dst: Union[str, Path]) -> Path:
    """The durable spill/temp path a migration to ``dst`` writes through."""
    dst = Path(dst)
    return dst.with_name(dst.name + TMP_SUFFIX)
