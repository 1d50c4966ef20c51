"""INT8 calibration and symmetric quantization.

Scaling is symmetric (scale only, no zero point). Granularities: one scale
per tensor, per output channel, or per weight row; for 2-D matrices the
channel axis is the row axis. Calibration methods: absolute max, percentile
of |x|, and KL-divergence minimization over a clipped 2048-bin histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .codec import SparseNM
from .formats import INT8, DenseMatrix, ShapeError, require_finite
from .kernels import spmm


class Granularity(Enum):
    PER_TENSOR = "per_tensor"
    PER_CHANNEL = "per_channel"
    PER_ROW = "per_row"


@dataclass(frozen=True)
class ScaleSet:
    granularity: Granularity
    scales: np.ndarray  # positive float64, length 1 / channels / rows

    def __post_init__(self):
        s = np.asarray(self.scales, dtype=np.float64)
        if s.ndim != 1 or not np.all(s > 0):
            raise ValueError("scales must be a 1-D positive array")
        s.setflags(write=False)
        object.__setattr__(self, "scales", s)

    def per_row_of(self, rows: int) -> np.ndarray:
        """Broadcast to one scale per matrix row."""
        if self.granularity is Granularity.PER_TENSOR:
            return np.full(rows, self.scales[0])
        if len(self.scales) != rows:
            raise ShapeError(f"{len(self.scales)} scales for {rows} rows")
        return np.asarray(self.scales)


@dataclass(frozen=True)
class CalibMethod:
    tag: str  # "max" | "entropy" | "percentile"
    percentile: float = 99.99

    def __post_init__(self):
        if self.tag not in ("max", "entropy", "percentile"):
            raise ValueError(f"unknown calibration method {self.tag!r}")
        if self.tag == "percentile" and not 0 < self.percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")

    @classmethod
    def parse(cls, text: str) -> "CalibMethod":
        if text.startswith("percentile="):
            return cls("percentile", float(text.split("=", 1)[1]))
        return cls(text)


HIST_BINS = 2048
QUANT_BINS = 128  # positive INT8 levels used when merging candidate clips


def calibrate(
    samples: Iterable[DenseMatrix],
    method: CalibMethod,
    granularity: Granularity = Granularity.PER_TENSOR,
) -> ScaleSet:
    """Choose quantization scales from a stream of sample tensors.

    max: amax/127 per slice. percentile(p): p-th percentile of |x| per slice,
    over 127. entropy: clip threshold minimizing KL divergence between the
    clipped distribution and its 128-level quantization (2048-bin histogram
    of |x|), over 127. All-zero slices get scale 1.0. Raises
    :class:`NonFiniteError` if any sample holds NaN or ±inf.
    """
    mats = list(samples)
    if not mats:
        raise ValueError("empty calibration stream")
    for m in mats:
        require_finite(m.data, "calibration samples")
    if granularity is Granularity.PER_TENSOR:
        slices = [np.concatenate([np.abs(m.data).ravel().astype(np.float64) for m in mats])]
    else:
        rows = mats[0].rows
        for m in mats:
            if m.rows != rows:
                raise ShapeError("per-row calibration needs identically shaped samples")
        slices = np.concatenate([np.abs(m.data).astype(np.float64) for m in mats], axis=1)
    scales = np.array([_slice_scale(s, method) for s in slices])
    return ScaleSet(granularity, scales)


def _slice_scale(absvals: np.ndarray, method: CalibMethod) -> float:
    amax = float(absvals.max()) if absvals.size else 0.0
    if amax == 0.0:
        return 1.0
    if method.tag == "max":
        return amax / 127.0
    if method.tag == "percentile":
        return float(np.percentile(absvals, method.percentile)) / 127.0
    hist, _ = np.histogram(absvals, bins=HIST_BINS, range=(0.0, amax))
    threshold = entropy_threshold(hist) * amax / HIST_BINS
    return threshold / 127.0


def entropy_threshold(hist: np.ndarray) -> int:
    """Pick the clip point (in bins) minimizing KL(P || Q).

    For each candidate i in [QUANT_BINS, len(hist)], P is hist[:i] with the
    clipped tail folded into the last bin; Q merges P into QUANT_BINS levels
    and redistributes each merged count uniformly over its nonzero source
    bins. Candidates with no mass are skipped, and ties take the smallest i;
    with no candidate left the answer is len(hist).

    Known defect: at i = QUANT_BINS every level merges one bin, so Q equals
    P and KL is 0. The search therefore returns QUANT_BINS (amax/16 for a
    2048-bin histogram) on any histogram, up to rounding noise.
    """
    hist = np.asarray(hist, dtype=np.float64)
    nbins = len(hist)
    if nbins < QUANT_BINS:
        return nbins
    total = hist.sum()
    cum = np.concatenate([[0.0], np.cumsum(hist)])
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(hist > 0, hist * np.log(hist), 0.0)
    cum_plogp = np.concatenate([[0.0], np.cumsum(plogp)])
    cum_nz = np.concatenate([[0], np.cumsum(hist > 0)])

    # KL(P||Q) reduces to (1/T) * [sum p*log p  -  sum_chunks S*log(S/nnz)]
    # because Q is piecewise constant (S/nnz) over each chunk's nonzero bins
    # and both distributions share the normalizer T.
    cand = np.arange(QUANT_BINS, nbins + 1)
    tail = total - cum[cand]
    last = hist[cand - 1] + tail
    T = cum[cand - 1] + last
    merged_sum = np.empty(len(cand))
    k = np.arange(QUANT_BINS + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sum_plogp = cum_plogp[cand - 1] + np.where(last > 0, last * np.log(last), 0.0)
        # Candidates i with one base = i // QUANT_BINS share a chunk layout:
        # the first extra = i % QUANT_BINS chunks hold base + 1 bins. One
        # (candidates x chunks) pass per base keeps the block small.
        for base in range(1, nbins // QUANT_BINS + 1):
            rows = slice((base - 1) * QUANT_BINS, base * QUANT_BINS)
            extra = cand[rows, None] - base * QUANT_BINS
            starts = k * base + np.minimum(k, extra)  # chunk boundaries
            chunk_sum = np.diff(cum[starts], axis=1)
            chunk_nz = np.diff(cum_nz[starts], axis=1).astype(np.float64)
            # fold the clipped tail into the last bin of the last chunk
            chunk_sum[:, -1] += tail[rows]
            chunk_nz[:, -1] += (last[rows] > 0) & (hist[cand[rows] - 1] == 0)
            merged = np.where(
                chunk_sum > 0, chunk_sum * np.log(chunk_sum / np.maximum(chunk_nz, 1)), 0.0
            )
            merged_sum[rows] = merged.sum(axis=1)
        kl = (sum_plogp - merged_sum) / T
    kl[(T == 0) | np.isnan(kl)] = np.inf
    best = np.argmin(kl)
    return int(cand[best]) if kl[best] < np.inf else nbins


def quantize(x: DenseMatrix, scale: ScaleSet) -> DenseMatrix:
    """q = clamp(round_nearest_even(x / scale), -128, 127), as INT8.

    Raises :class:`NonFiniteError` if ``x`` holds NaN or ±inf.
    """
    require_finite(x.data, "values to quantize")
    return DenseMatrix(_to_int8(x.data, scale), INT8)


def _to_int8(values: np.ndarray, scale: ScaleSet) -> np.ndarray:
    """clamp(round_nearest_even(values / scale), -128, 127) per row, in float64."""
    s = scale.per_row_of(len(values))[:, None]
    return np.clip(np.rint(values.astype(np.float64) / s), -128, 127).astype(np.int32)


def dequantize(q: DenseMatrix, scale: ScaleSet) -> np.ndarray:
    return q.data.astype(np.float64) * scale.per_row_of(q.rows)[:, None]


def quantized_sparse_gemm(
    a: SparseNM,
    b: DenseMatrix,
    scale_a: ScaleSet,
    scale_b: ScaleSet,
) -> np.ndarray:
    """INT32-accumulated sparse GEMM rescaled back to real values.

    Output row i is scaled by scale_a[i] * scale_b (scale_b per tensor).
    """
    if scale_b.granularity is not Granularity.PER_TENSOR:
        raise ValueError("dense operand supports per-tensor scaling only")
    acc = spmm(a, b, INT8)
    sa = scale_a.per_row_of(a.rows)[:, None]
    return acc.data.astype(np.float64) * sa * scale_b.scales[0]


def sparse_quantize(s: SparseNM, scale: ScaleSet) -> SparseNM:
    """Quantize the kept values of a compressed tensor (zeros stay zero, so
    N:M conformance is preserved). Raises :class:`NonFiniteError` if a
    kept value is NaN or ±inf."""
    require_finite(s.values, "values to quantize")
    return SparseNM(s.cols_orig, s.pattern, _to_int8(s.values, scale), s.meta.copy(), INT8)
