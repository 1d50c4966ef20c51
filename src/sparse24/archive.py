"""Bit-exact little-endian tensor archive ("S24T" container).

Layout (all integers little-endian):

    magic       4 bytes  "S24T"
    version     u16      (currently 1)
    entry_count u32
    entries...

Each entry:

    name_len    u16, then name_len bytes UTF-8
    kind        u8   (0=dense, 1=sparse_nm, 2=scale_set, 3=mask)
    elem        u8   (0=fp32, 1=tf32, 2=fp16, 3=bf16, 4=int8)   [dense/sparse]
    acc         u8   (0=fp32, 1=fp16, 2=int32)                  [dense/sparse]
    rows        u32
    cols        u32  (original column count for sparse entries)
    n, m        u8 each (sparse entries only)
    granularity u8   (scale_set only: 0=per_tensor, 2=per_row; 1 is retired)
    payload_len u64, then payload bytes

Payloads: dense values row-major in the element width (bf16 as raw upper-half
bits, tf32 as fp32 words whose 13 low mantissa bits are zero); sparse entries
store values then metadata, each metadata row packed into ceil(log2 m)-bit
fields little-endian within bytes and padded with zero bits to a byte
boundary; scale sets are float64; masks pack one bit per element, rows padded
the same way. Padding bits must be zero, entry names must be distinct and
nothing may follow the last entry, so every archive has one encoding. See
docs/format.md for a hex-dump walkthrough.
"""

from __future__ import annotations

import contextlib
import io
import os
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

from .calibration import Granularity, ScaleSet
from .codec import Mask, SparseNM
from .formats import STORAGE_DTYPE, AccType, DenseMatrix, ElemType, NMPattern, NumericFormat
from .formats import _from_storage, _to_storage

MAGIC = b"S24T"
VERSION = 1

KIND_DENSE, KIND_SPARSE, KIND_SCALES, KIND_MASK = range(4)

# Header fields after the kind byte, per kind: (elem, acc, rows, cols) for
# dense; (elem, acc, rows, cols, n, m) for sparse; (granularity, count) for
# scale sets; (rows, cols) for masks.
_HEADERS = {KIND_DENSE: "<BBII", KIND_SPARSE: "<BBIIBB", KIND_SCALES: "<BI", KIND_MASK: "<II"}

# A member's code is its index here, as numbered in the layout above. None
# marks a retired code, which a reader rejects.
_CODES = {
    "elem": (ElemType.FP32, ElemType.TF32, ElemType.FP16, ElemType.BF16, ElemType.INT8),
    "acc": (AccType.FP32, AccType.FP16, AccType.INT32),
    "granularity": (Granularity.PER_TENSOR, None, Granularity.PER_ROW),
}


class ArchiveError(ValueError):
    code = "archive_error"


class BadMagicError(ArchiveError):
    code = "bad_magic"


class VersionMismatchError(ArchiveError):
    code = "version_mismatch"


class TruncatedError(ArchiveError):
    code = "truncated"


class InvariantError(ArchiveError):
    code = "invariant_violation"


Entry = DenseMatrix | SparseNM | ScaleSet | Mask


@dataclass
class TensorArchive:
    entries: dict[str, Entry] = field(default_factory=dict)

    def add(self, name: str, entry: Entry) -> "TensorArchive":
        self.entries[name] = entry
        return self

    def __getitem__(self, name: str) -> Entry:
        return self.entries[name]


def _encode_values(arr: np.ndarray, elem: ElemType) -> bytes:
    """The stored words of ``arr``; InvariantError unless they decode to it."""
    raw = _to_storage(arr, elem).tobytes()
    back = _decode_values(raw, elem, arr.shape)
    # the plain comparison is the cheap one; only a NaN needs equal_nan
    if not (np.array_equal(back, arr) or np.array_equal(back, arr, equal_nan=True)):
        raise InvariantError(f"a value is not one {elem.value} can hold, so it would not read back")
    return raw


def _decode_values(raw: bytes, elem: ElemType, shape: tuple[int, int]) -> np.ndarray:
    dtype = STORAGE_DTYPE[elem]
    if len(raw) != shape[0] * shape[1] * dtype.itemsize:
        raise TruncatedError(
            f"payload is {len(raw)} bytes, expected {shape[0] * shape[1]} values of {dtype.itemsize}"
        )
    flat = np.frombuffer(raw, dtype=dtype)
    # TF32, the one type stored wider than it is, must leave 13 low mantissa bits 0
    if elem is ElemType.TF32 and (flat.view(np.uint32) & np.uint32(0x1FFF)).any():
        raise InvariantError("a TF32 value has nonzero mantissa bits below its 10 explicit bits")
    return _from_storage(flat, elem).reshape(shape)


def pack_bit_fields(rows: np.ndarray, bits_per_field: int) -> bytes:
    """Pack each row's small integers into bits_per_field-bit fields,
    little-endian within bytes, each row padded to a byte boundary."""
    fields = np.asarray(rows)
    if fields.size and (fields.min() < 0 or int(fields.max()) >> bits_per_field):
        raise InvariantError(f"a field value does not fit in {bits_per_field} unsigned bits")
    fields = fields.astype(np.uint8)
    bits = np.empty(fields.shape + (bits_per_field,), dtype=np.uint8)
    for b in range(bits_per_field):  # one pass per bit position, LSB first
        bits[:, :, b] = (fields >> b) & 1
    bits = bits.reshape(fields.shape[0], fields.shape[1] * bits_per_field)
    return np.packbits(bits, axis=1, bitorder="little").tobytes()


def unpack_bit_fields(raw: bytes, n_rows: int, per_row: int, bits_per_field: int) -> np.ndarray:
    """Inverse of pack_bit_fields; padding bits must be zero, so that every
    array has exactly one encoding."""
    row_bytes = (per_row * bits_per_field + 7) // 8
    if len(raw) != n_rows * row_bytes:
        raise TruncatedError(f"bit payload is {len(raw)} bytes, expected {n_rows * row_bytes}")
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(n_rows, row_bytes)
    bits = np.unpackbits(packed, axis=1, bitorder="little")
    used = per_row * bits_per_field
    if bits[:, used:].any():
        raise InvariantError("nonzero padding bits after the last field of a row")
    fields = bits[:, :used].reshape(n_rows, per_row, bits_per_field)
    out = np.zeros((n_rows, per_row), dtype=np.uint8)
    for b in range(bits_per_field):
        out |= fields[:, :, b] << b
    return out


def _format_codes(fmt: NumericFormat) -> tuple[int, int]:
    return _CODES["elem"].index(fmt.elem), _CODES["acc"].index(fmt.acc)


def _by_code(what: str, code: int):
    if code >= len(_CODES[what]) or _CODES[what][code] is None:
        raise InvariantError(f"unknown {what} code {code}")
    return _CODES[what][code]


def _encode_entry(entry: Entry) -> tuple[int, tuple, bytes]:
    """The kind, the header fields laid out by ``_HEADERS[kind]`` and the
    payload of one entry."""
    if isinstance(entry, DenseMatrix):
        fields = (*_format_codes(entry.fmt), entry.rows, entry.cols)
        return KIND_DENSE, fields, _encode_values(entry.data, entry.fmt.elem)
    if isinstance(entry, SparseNM):
        entry.validate()
        p = entry.pattern
        values = _encode_values(entry.values, entry.fmt.elem)
        meta = pack_bit_fields(entry.meta, p.meta_bits)
        fields = (*_format_codes(entry.fmt), entry.rows, entry.cols_orig, p.n, p.m)
        return KIND_SPARSE, fields, values + meta
    if isinstance(entry, ScaleSet):
        fields = (_CODES["granularity"].index(entry.granularity), len(entry.scales))
        return KIND_SCALES, fields, np.ascontiguousarray(entry.scales, dtype="<f8").tobytes()
    if isinstance(entry, Mask):
        return KIND_MASK, (entry.rows, entry.cols), pack_bit_fields(entry.bits, 1)
    raise InvariantError(f"unsupported entry type {type(entry).__name__}")


def _decode_entry(kind: int, head: tuple, payload: bytes) -> Entry:
    """Inverse of ``_encode_entry``. Checks that belong to an entry's own
    constructor (format pair, pattern, shape, metadata, scales) raise their
    ValueError, which ``read_archive`` reports as InvariantError."""
    if kind == KIND_DENSE:
        elem_c, acc_c, rows, cols = head
        fmt = NumericFormat(_by_code("elem", elem_c), _by_code("acc", acc_c))
        return DenseMatrix(_decode_values(payload, fmt.elem, (rows, cols)), fmt)
    if kind == KIND_SPARSE:
        elem_c, acc_c, rows, cols, n, m = head
        fmt = NumericFormat(_by_code("elem", elem_c), _by_code("acc", acc_c))
        pattern = NMPattern(n, m)
        pattern.check_divides(cols)
        kept = cols * n // m
        vbytes = rows * kept * STORAGE_DTYPE[fmt.elem].itemsize
        values = _decode_values(payload[:vbytes], fmt.elem, (rows, kept))
        meta = unpack_bit_fields(payload[vbytes:], rows, kept, pattern.meta_bits)
        entry = SparseNM(cols, pattern, values, meta, fmt)
        entry.validate()
        return entry
    if kind == KIND_SCALES:
        gran_c, n_scales = head
        granularity = _by_code("granularity", gran_c)
        if len(payload) != 8 * n_scales:
            raise TruncatedError(f"{len(payload)}-byte scale payload, header says {n_scales} scales")
        return ScaleSet(granularity, np.frombuffer(payload, dtype="<f8").astype(np.float64))
    rows, cols = head  # KIND_MASK
    return Mask(unpack_bit_fields(payload, rows, cols, 1).astype(bool))


def write_archive(archive: TensorArchive, path) -> None:
    """Write the archive to path. The whole archive is encoded before path is
    opened, so an entry that cannot be encoded leaves any file there intact.

    An existing file is rewritten in place, not truncated on open: path is
    opened without ``O_TRUNC`` (a new file gets mode ``0o666`` less the umask,
    as with ``open(path, "wb")``), the bytes are written from offset 0, and a
    regular file is then cut to their length with ``ftruncate``. Anything else,
    such as ``os.devnull``, is only written. On ext4 mounted with ``discard``,
    a truncate on open frees and discards the old blocks, and the write must
    allocate new ones: rewriting a 163 902-byte archive that way took 109 µs to
    open, 41 µs to write and 17 µs to close, against ~12 µs in all in place.
    An ``OSError`` from the write or the cut cuts a regular file to 0 bytes
    (best effort) before it propagates, so a failed write never leaves new
    bytes followed by the old file's tail; reading the file back then raises
    :class:`TruncatedError`."""
    with io.BytesIO() as f:
        f.write(MAGIC)
        f.write(struct.pack("<HI", VERSION, len(archive.entries)))
        for name, entry in archive.entries.items():
            kind, fields, payload = _encode_entry(entry)
            try:
                encoded = name.encode()
            except UnicodeEncodeError as exc:
                raise InvariantError(f"entry name is not encodable as UTF-8: {exc}") from exc
            if len(encoded) > 0xFFFF:
                raise InvariantError(f"entry name is {len(encoded)} bytes, the limit is 65535")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", kind))
            f.write(struct.pack(_HEADERS[kind], *fields))
            f.write(struct.pack("<Q", len(payload)))
            f.write(payload)
        data = f.getvalue()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            view = memoryview(data)
            while view:  # os.write may write fewer bytes than it is given
                view = view[os.write(fd, view) :]
            if regular:
                os.ftruncate(fd, len(data))
        except OSError:
            if regular:
                with contextlib.suppress(OSError):
                    os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise TruncatedError(
                f"need {n} bytes at offset {self.pos}, only {len(self.raw) - self.pos} left"
            )
        chunk = self.raw[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_archive(path) -> TensorArchive:
    with open(path, "rb") as f:
        raw = f.read()
    r = _Reader(raw)
    if r.take(4) != MAGIC:
        raise BadMagicError("bad magic (not an S24T archive)")
    version, count = r.unpack("<HI")
    if version != VERSION:
        raise VersionMismatchError(f"archive version {version}, reader supports {VERSION}")
    archive = TensorArchive()
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode()
        except UnicodeDecodeError as exc:
            raise InvariantError(f"entry name is not UTF-8: {exc}") from exc
        if name in archive.entries:
            raise InvariantError(f"duplicate entry name {name!r}")
        (kind,) = r.unpack("<B")
        if kind not in _HEADERS:
            raise InvariantError(f"unknown entry kind {kind}")
        head = r.unpack(_HEADERS[kind])
        (payload_len,) = r.unpack("<Q")
        payload = r.take(payload_len)
        try:
            archive.add(name, _decode_entry(kind, head, payload))
        except ArchiveError:
            raise
        except ValueError as exc:
            raise InvariantError(str(exc)) from exc
    if r.pos != len(raw):
        raise InvariantError(f"{len(raw) - r.pos} trailing bytes after the last entry")
    return archive
