"""Compressed N:M storage: values plus packed positional metadata.

A conforming R x C matrix compresses to R x C*n/m kept values and one
ceil(log2 m)-bit intra-group index per kept value. ``SparseNM`` holds the
metadata unpacked, one index per kept value; :func:`archive.pack_bit_fields
<sparse24.archive.pack_bit_fields>` packs it little-endian within bytes,
groups in value order, low bit field first. This packing is a documented
convention of this library, not a hardware claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formats import DenseMatrix, NMPattern, NumericFormat, ShapeError


class ConformanceError(ValueError):
    """Input violates the N:M sparsity constraint."""

    code = "conformance"

    def __init__(self, row: int, group: int, problem: str):
        self.row = row
        self.group = group
        super().__init__(f"row {row}, group {group}: {problem}")


class MetadataError(ValueError):
    """Malformed positional metadata."""

    code = "metadata"


@dataclass(frozen=True)
class Mask:
    """Kept-position marker with exactly n true bits per aligned group."""

    bits: np.ndarray  # bool, 2-D

    def __post_init__(self):
        if self.bits.dtype != bool or self.bits.ndim != 2:
            raise ShapeError(f"mask bits must be a 2-D bool array, got {self.bits.ndim}-D {self.bits.dtype}")
        self.bits.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]

    def check(self, pattern: NMPattern) -> None:
        counts = _group_counts(pattern.groups(self.bits))
        if not np.all(counts == pattern.n):
            r, g = np.argwhere(counts != pattern.n)[0]
            raise ConformanceError(int(r), int(g), f"{counts[r, g]} kept, {pattern} keeps {pattern.n}")


@dataclass(frozen=True)
class SparseNM:
    """Compressed operand: kept values and per-value intra-group indices.

    ``values`` has shape (R, C*n/m); ``meta`` has the same shape and holds the
    unpacked uint8 intra-group index of each kept value, strictly increasing
    within every group.
    """

    cols_orig: int
    pattern: NMPattern
    values: np.ndarray
    meta: np.ndarray
    fmt: NumericFormat

    def __post_init__(self):
        self.fmt.check_values(self.values)
        self.values.setflags(write=False)
        self.meta.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols_kept(self) -> int:
        return self.values.shape[1]

    @property
    def groups_per_row(self) -> int:
        return self.cols_orig // self.pattern.m

    def validate(self) -> None:
        p = self.pattern
        p.check_divides(self.cols_orig)
        if self.meta.dtype != np.uint8:
            raise MetadataError(f"metadata must be uint8, got {self.meta.dtype}")
        if self.values.shape != self.meta.shape:
            raise MetadataError("values/meta shape mismatch")
        if self.cols_kept != self.groups_per_row * p.n:
            raise MetadataError(
                f"expected {self.groups_per_row * p.n} kept columns, got {self.cols_kept}"
            )
        grouped = self.meta.reshape(self.rows, self.groups_per_row, p.n)
        if grouped.size:
            if grouped.max() >= p.m:
                raise MetadataError(f"metadata index out of range [0, {p.m})")
            # compared, not differenced, so uint8 cannot wrap
            if not np.all(grouped[..., :-1] < grouped[..., 1:]):
                raise MetadataError("metadata indices not strictly increasing within group")

    def group_starts(self) -> np.ndarray:
        """Original column of the group each kept column belongs to, shape (C*n/m,)."""
        p = self.pattern
        return np.repeat(np.arange(self.groups_per_row) * p.m, p.n)

    def column_indices(self) -> np.ndarray:
        """Original column index of every kept value, shape (R, C*n/m), in ``intp``.

        Public, with :meth:`validate`, because the benchmark's tracer
        (``perfbench/spans.py``) binds both methods by name."""
        return np.add(self.group_starts()[None, :], self.meta, dtype=np.intp)


def _group_counts(flags: np.ndarray) -> np.ndarray:
    """The number of true flags in every group of a (rows, groups, m) bool
    array, as uint8 (m <= 255). One transposing copy lays the m slots out as
    m contiguous uint8 planes, and one reduce over the plane axis sums them."""
    rows, groups, m = flags.shape
    planes = np.ascontiguousarray(flags.reshape(-1, m).T).view(np.uint8)
    return np.add.reduce(planes, axis=0, dtype=np.uint8).reshape(rows, groups)


def check_conformance(a: DenseMatrix, pattern: NMPattern) -> None:
    """Raise :class:`ConformanceError` unless every aligned group of m row
    elements has at most n nonzeros."""
    counts = _group_counts(pattern.groups(a.data != 0))
    if not np.all(counts <= pattern.n):
        r, g = np.argwhere(counts > pattern.n)[0]
        raise ConformanceError(int(r), int(g), f"{counts[r, g]} nonzeros exceed the {pattern} pattern")


def compress(a: DenseMatrix, pattern: NMPattern) -> SparseNM:
    """Compress a conforming matrix into value + metadata form.

    Groups with fewer than n nonzeros still store n slots: all nonzeros are
    kept, and remaining slots take the smallest unused indices in ascending
    order with value 0 (canonical padding).
    """
    # nonzeros outrank zeros; row-major order lists each group's indices ascending
    nz = pattern.groups(a.data != 0)
    kept = pattern.keep(nz)
    if (nz > kept).any():  # a dropped nonzero: its group holds more than n
        check_conformance(a, pattern)
    flat = np.flatnonzero(kept)
    rows, cols_kept = a.rows, a.cols // pattern.m * pattern.n
    return SparseNM(
        cols_orig=a.cols,
        pattern=pattern,
        values=a.data.ravel()[flat].reshape(rows, cols_kept),
        meta=(flat % pattern.m).astype(np.uint8).reshape(rows, cols_kept),
        fmt=a.fmt,
    )


def decompress(s: SparseNM) -> DenseMatrix:
    """Inverse of :func:`compress`; bit-exact.

    Each kept value lands at one flat position of the row-major output, its
    row's offset plus :meth:`SparseNM.column_indices`, through a single
    scatter into a 1-D buffer."""
    s.validate()
    flat = s.column_indices()
    flat += np.arange(s.rows)[:, None] * s.cols_orig
    out = np.zeros(s.rows * s.cols_orig, dtype=s.values.dtype)
    out[flat] = s.values
    return DenseMatrix(out.reshape(s.rows, s.cols_orig), s.fmt)


def storage_bits(s: SparseNM) -> int:
    """Exact bit count of kept values plus packed metadata (no padding)."""
    kept = s.values.size
    return kept * s.fmt.elem_bits + kept * s.pattern.meta_bits


def dense_storage_bits(rows: int, cols: int, fmt: NumericFormat) -> int:
    return rows * cols * fmt.elem_bits


def apply_mask(a: DenseMatrix, mask: Mask) -> DenseMatrix:
    """Elementwise product of a matrix with a kept-position mask.

    A kept element keeps every bit; a dropped one becomes +0, or +0.0
    whatever float it held (-0.0, ±inf and NaN included). Every element is
    one 4-byte word, float32 or int32 for INT8, so the select is one bitwise
    AND of the words with -1 where the mask keeps and 0 where it drops."""
    if a.data.shape != mask.bits.shape:
        raise ShapeError(f"mask shape {mask.bits.shape} != matrix shape {a.data.shape}")
    words = np.negative(mask.bits.view(np.int8), dtype=np.int32)
    np.bitwise_and(a.data.view(np.int32), words, out=words)
    return DenseMatrix(words.view(a.data.dtype), a.fmt)
