"""INT8 calibration and symmetric quantization.

Scaling is symmetric (scale only, no zero point). Granularities: one scale
per tensor, or one per matrix row (for a weight, per output channel).
Calibration methods: absolute max, percentile of |x|, and KL-divergence
minimization over a clipped 2048-bin histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .codec import SparseNM
from .formats import INT8, DenseMatrix, ElemType, FormatError, ShapeError, require_finite, round_array
from .kernels import spmm


class ScaleError(ValueError):
    """Scales that are not finite and positive, or of a granularity the
    operation does not take."""

    code = "scale"


class CalibMethodError(ValueError):
    """An unknown calibration method, or a percentile outside (0, 100]."""

    code = "calib_method"


class Granularity(Enum):
    PER_TENSOR = "per_tensor"
    PER_ROW = "per_row"


@dataclass(frozen=True)
class ScaleSet:
    granularity: Granularity
    scales: np.ndarray  # finite positive float64, length 1 (per tensor) or rows

    def __post_init__(self):
        s = np.asarray(self.scales, dtype=np.float64)
        if s.ndim != 1 or not np.all((s > 0) & (s < np.inf)):
            raise ScaleError("scales must be a 1-D array of finite positive values")
        if self.granularity is Granularity.PER_TENSOR and len(s) != 1:
            raise ScaleError(f"a per-tensor scale set holds one scale, got {len(s)}")
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
            raise CalibMethodError(f"unknown calibration method {self.tag!r}")
        if self.tag == "percentile" and not 0 < self.percentile <= 100:
            raise CalibMethodError("percentile must be in (0, 100]")

    @classmethod
    def parse(cls, text: str) -> "CalibMethod":
        if text.startswith("percentile="):
            try:
                return cls("percentile", float(text.split("=", 1)[1]))
            except ValueError as exc:
                raise CalibMethodError(f"percentile must be a number, got {text!r}") from exc
        return cls(text)


HIST_BINS = 2048
QUANT_BINS = 128  # positive INT8 levels used when merging candidate clips
_ROW_BLOCK = 4  # histograms entropy_threshold scores together; ~0.35 MB of scratch each


def calibrate(
    samples: Iterable[DenseMatrix],
    method: CalibMethod,
    granularity: Granularity = Granularity.PER_TENSOR,
) -> ScaleSet:
    """Choose quantization scales from a stream of sample tensors.

    A slice is the whole stream (per tensor) or one row of every sample, in
    sample order (per row). Every slice is scored in one pass: max and
    percentile reduce along the slice axis, and entropy histograms each
    slice and scores the histograms a block at a time with
    :func:`entropy_threshold`, whose chunk table shares each KL term among
    all candidate clips. A slice gets the scale it would get on its own.

    max: amax/127 per slice. percentile(p): p-th percentile of |x| per slice,
    over 127; a slice whose percentile is 0 but whose max is not (mostly
    zeros) falls back to amax/127, so no scale is 0. entropy: clip threshold
    minimizing KL divergence between the clipped distribution and its
    128-level quantization (2048-bin histogram of |x|), over 127. All-zero
    slices get scale 1.0. Raises :class:`ShapeError` on an empty stream and
    :class:`NonFiniteError` if any sample holds NaN or ±inf.
    """
    mats = list(samples)
    if not mats:
        raise ShapeError("empty calibration stream")
    for m in mats:
        require_finite(m.data, "calibration samples")
    per_row = granularity is Granularity.PER_ROW
    if per_row and any(m.rows != mats[0].rows for m in mats):
        raise ShapeError("per-row calibration needs identically shaped samples")
    # one row per slice: per tensor, every value of the stream in one row
    absvals = np.concatenate(
        [np.abs(m.data if per_row else m.data.reshape(1, -1)).astype(np.float64) for m in mats], axis=1
    )
    amax = absvals.max(axis=1, initial=0.0)
    if method.tag == "max":
        clip = amax
    elif method.tag == "percentile":
        clip = np.percentile(absvals, method.percentile, axis=1) if absvals.size else amax
        clip = np.where(clip > 0, clip, amax)
    else:
        live = np.flatnonzero(amax)
        bins = np.zeros(len(amax), dtype=np.int64)
        for lo in range(0, len(live), _ROW_BLOCK):
            block = live[lo : lo + _ROW_BLOCK]
            hists = [np.histogram(absvals[r], bins=HIST_BINS, range=(0.0, amax[r]))[0] for r in block]
            bins[block] = entropy_threshold(np.stack(hists))
        clip = bins * amax / HIST_BINS
    return ScaleSet(granularity, np.where(amax > 0, clip / 127.0, 1.0))


def entropy_threshold(hist: np.ndarray) -> int | np.ndarray:
    """Pick the clip point (in bins) minimizing KL(P || Q).

    ``hist`` is one histogram, giving an int, or a 2-D array with one
    histogram per row, giving one clip point per row. Rows are scored
    ``_ROW_BLOCK`` at a time, so memory does not grow with their number, and
    a row gets the answer it would get on its own.

    For each candidate i in [QUANT_BINS, nbins], P is hist[:i] with the
    clipped tail folded into the last bin; Q merges P into QUANT_BINS levels
    and redistributes each merged count uniformly over its nonzero source
    bins. Candidates with no mass are skipped, and ties take the smallest i;
    with no candidate left the answer is nbins.

    Chunk table: KL(P||Q) = (1/T) * [sum p*log p - sum_chunks S*log(S/nnz)],
    as Q is S/nnz over each chunk's nonzero bins. Candidates with one
    base = i // QUANT_BINS use two chunk widths: the first e = i % QUANT_BINS
    chunks hold base + 1 bins and start at k*(base + 1), the rest hold base
    bins and start at k*base + e. So each chunk term is computed once per
    width and start, and a base's (candidates x chunks) block is copied from
    the two tables, the base-wide one through a zero-copy strided view. Only
    the last chunk, which holds the clipped tail, is computed per candidate.
    Each block row is reduced by one contiguous sum, as a per-candidate loop
    reduces its chunks, so every KL value is the loop's to the bit.

    Known defect: at i = QUANT_BINS every level merges one bin, so Q equals
    P and KL is 0. The search therefore returns QUANT_BINS (amax/16 for a
    2048-bin histogram) on any histogram, up to rounding noise.
    """
    hist = np.asarray(hist, dtype=np.float64)
    rows = np.atleast_2d(hist)
    best = np.full(len(rows), rows.shape[1])
    if rows.shape[1] >= QUANT_BINS:
        for lo in range(0, len(rows), _ROW_BLOCK):
            best[lo : lo + _ROW_BLOCK] = _entropy_block(rows[lo : lo + _ROW_BLOCK])
    return int(best[0]) if hist.ndim == 1 else best


def _entropy_block(hist: np.ndarray) -> np.ndarray:
    """entropy_threshold of each row of a (rows, nbins >= QUANT_BINS) block."""
    rows, nbins = hist.shape
    total = hist.sum(axis=1, keepdims=True)
    cum = _prefix_sums(hist, np.float64)
    cum_nz = _prefix_sums(hist > 0, np.int64)
    k = np.arange(QUANT_BINS - 1)  # every chunk but the last

    def spans(first, count, width, step=1):
        """Mass and nonzero bins of the chunks of ``width`` bins at first, first + step, ..."""
        lo = slice(first, first + count * step, step)
        hi = slice(first + width, first + width + count * step, step)
        return cum[:, hi] - cum[:, lo], (cum_nz[:, hi] - cum_nz[:, lo]).astype(np.float64)

    with np.errstate(divide="ignore", invalid="ignore"):
        cum_plogp = _prefix_sums(np.where(hist > 0, hist * np.log(hist), 0.0), np.float64)
        kl = np.empty((rows, nbins + 1 - QUANT_BINS))  # column c: candidate i = QUANT_BINS + c
        for base in range(1, nbins // QUANT_BINS + 1):
            i0 = base * QUANT_BINS  # candidates i = i0 + e, for e < n
            n = min(QUANT_BINS, nbins + 1 - i0)
            e = np.arange(n)
            before = slice(i0 - 1, i0 - 1 + n)  # bin i - 1, the last bin P keeps
            tail = total - cum[:, i0 : i0 + n]
            last = hist[:, before] + tail
            T = cum[:, before] + last
            sum_plogp = cum_plogp[:, before] + np.where(last > 0, last * np.log(last), 0.0)
            narrow = _merged(*spans(0, k[-1] * base + n, base))  # every start a row reads
            block = np.empty((rows, n, QUANT_BINS))
            block[:, :, :-1] = np.lib.stride_tricks.as_strided(
                narrow, (rows, n, len(k)), (narrow.strides[0], narrow.strides[1], base * narrow.strides[1])
            )
            wide = _merged(*spans(0, n - 1, base + 1, base + 1))  # chunk k < e <= n - 1
            np.copyto(block[:, :, : n - 1], wide[:, None, :], where=k[: n - 1] < e[:, None])
            # the last chunk is base bins wide and ends at i; the tail folds into it
            mass, nonzero = spans(i0 - base, n, base)
            gains_bin = (last > 0) & (hist[:, before] == 0)
            block[:, :, -1] = _merged(mass + tail, nonzero + gains_bin)
            kl_base = kl[:, i0 - QUANT_BINS : i0 - QUANT_BINS + n]
            kl_base[...] = (sum_plogp - block.sum(axis=-1)) / T
            kl_base[T == 0] = np.inf
    kl[np.isnan(kl)] = np.inf
    best = np.argmin(kl, axis=1)
    return np.where(kl[np.arange(rows), best] < np.inf, QUANT_BINS + best, nbins)


def _merged(s: np.ndarray, nz: np.ndarray) -> np.ndarray:
    """Chunk term S*log(S/nnz) of KL(P||Q), 0 for an empty chunk."""
    return np.where(s > 0, s * np.log(s / np.maximum(nz, 1)), 0.0)


def _prefix_sums(a: np.ndarray, dtype) -> np.ndarray:
    """Row-wise cumulative sums with a leading zero column."""
    out = np.zeros((len(a), a.shape[1] + 1), dtype=dtype)
    np.cumsum(a, axis=1, dtype=dtype, out=out[:, 1:])
    return out


def quantize(x: DenseMatrix, scale: ScaleSet) -> DenseMatrix:
    """q = clamp(round_nearest_even(x / scale), -128, 127), as INT8.

    Raises :class:`NonFiniteError` if ``x`` holds NaN or ±inf.
    """
    require_finite(x.data, "values to quantize")
    return DenseMatrix(_to_int8(x.data, scale), INT8)


def _to_int8(values: np.ndarray, scale: ScaleSet) -> np.ndarray:
    """clamp(round_nearest_even(values / scale), -128, 127) per row, in float64."""
    s = scale.per_row_of(len(values))[:, None]
    return round_array(values.astype(np.float64) / s, ElemType.INT8)


def dequantize(q: DenseMatrix, scale: ScaleSet) -> np.ndarray:
    return q.data.astype(np.float64) * scale.per_row_of(q.rows)[:, None]


def quantized_sparse_gemm(
    a: SparseNM,
    b: DenseMatrix,
    scale_a: ScaleSet,
    scale_b: ScaleSet,
) -> np.ndarray:
    """INT32-accumulated sparse GEMM of INT8 operands, rescaled to real values.

    Output row i is scaled by scale_a[i] * scale_b (scale_b per tensor).
    """
    if a.fmt != INT8:
        raise FormatError(f"quantized sparse GEMM needs INT8 operands, got {a.fmt}")
    if scale_b.granularity is not Granularity.PER_TENSOR:
        raise ScaleError("dense operand supports per-tensor scaling only")
    acc = spmm(a, b)
    sa = scale_a.per_row_of(a.rows)[:, None]
    return acc.data.astype(np.float64) * sa * scale_b.scales[0]


def sparse_quantize(s: SparseNM, scale: ScaleSet) -> SparseNM:
    """Quantize the kept values of a compressed tensor (zeros stay zero, so
    N:M conformance is preserved). Raises :class:`NonFiniteError` if a
    kept value is NaN or ±inf."""
    require_finite(s.values, "values to quantize")
    return SparseNM(s.cols_orig, s.pattern, _to_int8(s.values, scale), s.meta.copy(), INT8)
