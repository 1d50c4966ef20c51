"""Sparse x dense GEMM over the compressed operand, plus a CPU bench harness.

The kernel gathers rows of B through the positional metadata (one gathered row
per kept value) and never materializes the decompressed operand. An optional
:class:`MultiplyAddCounter` sums the multiply-adds the loop runs, cols_kept *
M * N per call (M*N*K*n/m for a conforming operand). The kernel gathers and
scales the rows of a chunk of kept slots per numpy call, then adds the chunk's
products one slot at a time, so every output element still adds its products
in ascending original-column order of the kept values. That is the
accumulate core that :func:`gemm_dense` also runs, so for finite operands the
result is bit-exact against ``gemm_dense`` on the decompressed operand in
every mode.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field

import numpy as np

from .codec import SparseNM, apply_mask, compress, decompress
from .formats import (
    PATTERN_24,
    AccType,
    DenseMatrix,
    GemmShape,
    MultiplyAddCounter,
    NMPattern,
    NumericFormat,
    ShapeError,
    _accumulate,
    gemm_dense,
)
from .pruning import prune_magnitude


def spmm_flops(shape: GemmShape, pattern: NMPattern) -> int:
    """Multiply-add count of the sparse kernel: M*N*K*n/m."""
    return shape.m * shape.n * shape.k * pattern.n // pattern.m


def spmm(a: SparseNM, b: DenseMatrix, *, counter: MultiplyAddCounter | None = None) -> DenseMatrix:
    """Compute decompress(a) @ b without decompressing a.

    The mode is the operands' shared format, which must pass
    :meth:`NumericFormat.check_sparse` with K; operands of differing formats
    raise :class:`FormatError`, and metadata that :meth:`SparseNM.validate`
    rejects raises :class:`MetadataError`. Step j of one pass over the kept
    slots gathers, for every output row, the row of B that the row's j-th
    kept value selects, multiplies it by that value and adds the product into
    the M x N accumulator, which in INT8 mode is int32 and wraps modulo
    2**32. In FP16-accumulate mode the accumulator is float32 holding fp16
    values: the product is rounded to fp16 by ``formats._round_fp16``, added
    in float32 (product first; a NaN product is the sum), and the sum is
    rounded again by the same rule, which gives the correctly rounded fp16
    sum (Figueroa, ACM SIGNUM Newsletter 30(3), 1995: 24 >= 2*11 + 2). The
    gathers and multiplies run a chunk of slots per numpy call, but the adds
    stay one slot at a time, so each output element sums its products in
    ascending original-column order. For finite operands the result is
    bit-exact against :func:`gemm_dense` on the decompressed operand in
    every mode, M = 0 and N = 0 included; a pruned zero facing ±inf in B
    adds nothing here, where the dense reference adds NaN.
    """
    if a.cols_orig != b.rows:
        raise ShapeError(f"inner dims differ: {a.cols_orig} vs {b.rows}")
    a.fmt.check_sparse(a.cols_orig)
    # every row of B the metadata selects then lies in [0, K), as _accumulate requires
    a.validate()

    # row j of each: kept slot j's row of B and its value, per output row
    rows_t = np.add(a.group_starts()[:, None], a.meta.T, dtype=np.intp)
    return _accumulate(a.values.T, rows_t, a.fmt, b, counter)


def float_tolerance(oracle: DenseMatrix, k: int) -> float:
    """Elementwise bound for float-mode checks that compare differently
    ordered sums (a permuted network against the original, say): 2*K ulps
    of the accumulator format at the result's peak magnitude."""
    peak = float(np.max(np.abs(oracle.data))) if oracle.data.size else 0.0
    if oracle.fmt.acc is AccType.FP16:
        ulp = float(np.spacing(np.float16(max(peak, 1e-3))))
    else:
        ulp = float(np.spacing(np.float32(max(peak, 1e-30))))
    return 2.0 * k * ulp


@dataclass
class BenchRow:
    m: int
    n: int
    k: int
    dense_ns: int
    sparse_ns: int
    speedup: float
    flops_ratio: float
    floor_ns: int
    decompress_ns: int


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)

    HEADER = "M,N,K,dense_ns,sparse_ns,speedup,flops_ratio,floor_ns,decompress_ns"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.HEADER.split(","))
        for r in self.rows:
            speedup, flops_ratio = f"{r.speedup:.4f}", f"{r.flops_ratio:.4f}"
            writer.writerow(
                [r.m, r.n, r.k, r.dense_ns, r.sparse_ns, speedup, flops_ratio, r.floor_ns, r.decompress_ns]
            )
        return buf.getvalue()


def bench(
    sizes: list[GemmShape],
    fmt: NumericFormat,
    repeats: int = 5,
    pattern: NMPattern = PATTERN_24,
    seed: int = 0,
) -> BenchReport:
    """Median wall-clock comparison of the dense reference vs the sparse kernel
    on random conforming operands. flops_ratio reports the multiply-add ratio
    (m/n), e.g. 2.0 for 2:4.

    ``speedup`` is measured against :func:`gemm_dense`, the slow emulation
    oracle, on this CPU; it is not a claim about sparse hardware. Two honest
    floors, in float32 with no emulated rounding: ``floor_ns`` is numpy
    ``matmul`` on the pruned dense matrix, and ``decompress_ns`` is
    :func:`decompress` of the compressed operand, then ``matmul``. Time the
    floors with one BLAS thread (``OPENBLAS_NUM_THREADS=1`` set before numpy
    is imported): with OpenBLAS's default threads on a 2-vCPU host, both
    read about 8 ms at 512x8x512 through 512x128x512, against 0.09-0.59 ms
    and 0.7-1.1 ms with one."""
    rng = np.random.default_rng(seed)
    report = BenchReport()
    for shape in sizes:
        fmt.check_sparse(shape.k)
        a = _random_dense(rng, shape.m, shape.k, fmt)
        b = _random_dense(rng, shape.k, shape.n, fmt)
        pruned = apply_mask(a, prune_magnitude(a, pattern).mask)
        sp = compress(pruned, pattern)

        dense_ns = _median_ns(lambda: gemm_dense(pruned, b), repeats)
        sparse_ns = _median_ns(lambda: spmm(sp, b), repeats)
        dense32, b32 = pruned.data.astype(np.float32), b.data.astype(np.float32)
        floor_ns = _median_ns(lambda: np.matmul(dense32, b32), repeats)
        decompress_ns = _median_ns(
            lambda: np.matmul(decompress(sp).data.astype(np.float32), b32), repeats
        )
        report.rows.append(
            BenchRow(
                m=shape.m,
                n=shape.n,
                k=shape.k,
                dense_ns=dense_ns,
                sparse_ns=sparse_ns,
                speedup=dense_ns / sparse_ns if sparse_ns else float("inf"),
                flops_ratio=pattern.m / pattern.n,
                floor_ns=floor_ns,
                decompress_ns=decompress_ns,
            )
        )
    return report


def _random_dense(rng: np.random.Generator, rows: int, cols: int, fmt: NumericFormat) -> DenseMatrix:
    if fmt.is_integer:
        return DenseMatrix.from_values(
            rng.integers(-128, 128, size=(rows, cols)).astype(np.float32), fmt
        )
    return DenseMatrix.from_values(rng.standard_normal((rows, cols), dtype=np.float32), fmt)


def _median_ns(fn, repeats: int) -> int:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return int(np.median(times))
