"""Compressed N:M storage: values plus packed positional metadata.

A conforming R x C matrix compresses to R x C*n/m kept values and one
ceil(log2 m)-bit intra-group index per kept value. Metadata is packed
little-endian within bytes, groups in value order, low bit field first.
This packing is a documented convention of this library, not a hardware claim.
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
        pattern.check_divides(self.cols)
        groups = self.bits.reshape(self.rows, self.cols // pattern.m, pattern.m)
        counts = groups.sum(axis=2)
        if not np.all(counts == pattern.n):
            r, g = np.argwhere(counts != pattern.n)[0]
            raise ConformanceError(int(r), int(g), f"{counts[r, g]} kept, {pattern} keeps {pattern.n}")


@dataclass(frozen=True)
class SparseNM:
    """Compressed operand: kept values and per-value intra-group indices.

    ``values`` has shape (R, C*n/m); ``meta`` has the same shape and holds the
    unpacked intra-group index of each kept value, strictly increasing within
    every group.
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
        if self.meta.dtype.kind not in "iu":
            raise MetadataError(f"metadata must be integers, got {self.meta.dtype}")
        if self.values.shape != self.meta.shape:
            raise MetadataError("values/meta shape mismatch")
        if self.cols_kept != self.groups_per_row * p.n:
            raise MetadataError(
                f"expected {self.groups_per_row * p.n} kept columns, got {self.cols_kept}"
            )
        grouped = self.meta.reshape(self.rows, self.groups_per_row, p.n)
        if grouped.size:
            if grouped.min() < 0 or grouped.max() >= p.m:
                raise MetadataError(f"metadata index out of range [0, {p.m})")
            # compared, not differenced, so an unsigned dtype cannot wrap
            if not np.all(grouped[..., :-1] < grouped[..., 1:]):
                raise MetadataError("metadata indices not strictly increasing within group")

    def group_starts(self) -> np.ndarray:
        """Original column of the group each kept column belongs to, shape (C*n/m,)."""
        p = self.pattern
        return np.repeat(np.arange(self.groups_per_row) * p.m, p.n)

    def column_indices(self) -> np.ndarray:
        """Original column index of every kept value, shape (R, C*n/m)."""
        return self.group_starts()[None, :] + self.meta


def check_conformance(a: DenseMatrix, pattern: NMPattern) -> None:
    """Raise :class:`ConformanceError` unless every aligned group of m row
    elements has at most n nonzeros."""
    pattern.check_divides(a.cols)
    nz = (a.data != 0).reshape(a.rows, a.cols // pattern.m, pattern.m)
    counts = nz.astype(np.int16) @ np.ones(pattern.m, dtype=np.int16)
    if not np.all(counts <= pattern.n):
        r, g = np.argwhere(counts > pattern.n)[0]
        raise ConformanceError(int(r), int(g), f"{counts[r, g]} nonzeros exceed the {pattern} pattern")


def compress(a: DenseMatrix, pattern: NMPattern) -> SparseNM:
    """Compress a conforming matrix into value + metadata form.

    Groups with fewer than n nonzeros still store n slots: all nonzeros are
    kept, and remaining slots take the smallest unused indices in ascending
    order with value 0 (canonical padding).
    """
    pattern.check_divides(a.cols)
    n, m = pattern.n, pattern.m
    rows, cols_kept = a.rows, a.cols // m * n
    groups = a.data.reshape(rows, a.cols // m, m)
    nz = groups != 0
    # zero_rank[..., k] counts the zeros at indices <= k of each group; an
    # int16 matmul with an upper-triangular ones matrix is faster than a
    # cumsum along the short group axis. The last index counts all zeros.
    zero_rank = (~nz).astype(np.int16) @ np.triu(np.ones((m, m), dtype=np.int16))
    zeros = zero_rank[:, :, -1:]
    if np.any(zeros < m - n):
        check_conformance(a, pattern)
    # Keep every nonzero plus the first n - nnz zeros of each group in index
    # order; row-major order of the kept flags then lists groups in order and
    # indices ascending within each group.
    kept = nz | (zero_rank <= zeros - (m - n))
    flat = np.flatnonzero(kept)
    return SparseNM(
        cols_orig=a.cols,
        pattern=pattern,
        values=groups.ravel()[flat].reshape(rows, cols_kept),
        meta=(flat % m).astype(np.uint8).reshape(rows, cols_kept),
        fmt=a.fmt,
    )


def decompress(s: SparseNM) -> DenseMatrix:
    """Inverse of :func:`compress`; bit-exact."""
    s.validate()
    out = np.zeros((s.rows, s.cols_orig), dtype=s.values.dtype)
    cols = s.column_indices()
    rows = np.broadcast_to(np.arange(s.rows)[:, None], cols.shape)
    out[rows, cols] = s.values
    return DenseMatrix(out, s.fmt)


def storage_bits(s: SparseNM) -> int:
    """Exact bit count of kept values plus packed metadata (no padding)."""
    kept = s.values.size
    return kept * s.fmt.elem_bits + kept * s.pattern.meta_bits


def dense_storage_bits(rows: int, cols: int, fmt: NumericFormat) -> int:
    return rows * cols * fmt.elem_bits


def apply_mask(a: DenseMatrix, mask: Mask) -> DenseMatrix:
    """Elementwise product of a matrix with a kept-position mask."""
    if a.data.shape != mask.bits.shape:
        raise ShapeError(f"mask shape {mask.bits.shape} != matrix shape {a.data.shape}")
    return DenseMatrix(np.where(mask.bits, a.data, a.data.dtype.type(0)), a.fmt)
